"""The repository's benchmark: one named workload at one seed.

Usage::

    python3 perfbench/run.py --workload serve-hot --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``serve-hot``   cache hits against a ``repro serve`` subprocess
``serve-cold``  cache misses: every request executes in a server worker
``des``         the cluster DES engine under fifo, backfill and conservative
``nn-train``    ``repro.nn.fit`` of a small CNN

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric of ``BENCHMARK.json``: the same four for each workload,
over the workload's own operation (a hit, a run, a simulated job, a
training sample).  ``--trace 1`` instead times each layer's public
functions and reports every per-layer metric of ``BENCHMARK.json`` plus
the tracing overhead; a layer the workload never enters reads 0.  Lines
before it, starting with ``#``, are the run header.  The exit code is 0
only when every correctness check passed.  ``perfbench/selftest.py``
corrupts each check's reference in turn and expects a non-zero exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402  (imports no numpy; BLAS knobs come first)
    BLAS_ENV,
    DEFAULT_SEED,
    MANIFEST_PATH,
    PINNED_ENV,
    REFERENCE_PATH,
    SRC,
    CheckFailed,
    isolate_environment,
    make_run_root,
    metric,
    proc_status_kb,
    program_present,
    remove_run_root,
)

WORKLOADS = ("serve-hot", "serve-cold", "des", "nn-train")
#: Test hooks for ``selftest.py``: each corrupts one check's reference.
CORRUPTIONS = ("hot-results", "cold-results", "des-digest", "des-once",
               "des-submit", "des-capacity", "nn-digest", "nn-loss")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=CORRUPTIONS, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this seed's des/nn outputs to reference.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def header(args: argparse.Namespace) -> list[str]:
    import numpy

    from serve_bench import CONNECTIONS, OPEN_RATE, POLL_S, SERVER_WORKERS

    blas = " ".join(f"{k}={os.environ.get(k)}" for k in BLAS_ENV)
    return [
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} {blas} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}",
        f"# serve: --workers {SERVER_WORKERS}, {CONNECTIONS} client connections, "
        f"poll interval {POLL_S * 1e3:g} ms, open-loop rate {OPEN_RATE:g} req/s",
    ]


def load_reference(corrupt: str | None) -> dict:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    if corrupt == "des-digest":
        reference = {k: ("0" * 64 if k.startswith("des/") else v)
                     for k, v in reference.items()}
    return reference


def run_workload(args: argparse.Namespace, root: Path, env: dict) -> dict:
    if args.workload in ("serve-hot", "serve-cold"):
        from serve_bench import run_cold, run_hot

        # The load generator's own collector must not pause its clients.
        gc.collect()
        gc.freeze()
        fn = run_hot if args.workload == "serve-hot" else run_cold
        return fn(args.seed, args.seconds, bool(args.trace), root, env, args.corrupt)
    reference = load_reference(args.corrupt)
    if args.workload == "des":
        from des_bench import run_des

        result = run_des(args.seed, args.seconds, bool(args.trace), reference,
                         args.corrupt)
    else:
        from nn_bench import run_nn

        result = run_nn(args.seed, args.seconds, bool(args.trace), reference,
                        args.corrupt)
    if not args.trace:
        # This process did the work: its high-water mark is the workload's.
        result["metrics"]["peak_rss_mb"] = metric(
            proc_status_kb(os.getpid(), "VmHWM") / 1024.0, "MB")
    return result


def manifest_metrics(result: dict, trace: bool) -> dict:
    """The result's metrics in the manifest's order and units.

    Every end-to-end metric must have been measured; a per-layer metric the
    workload did not report belongs to a layer it never enters, and reads 0.
    """
    manifest = json.loads(MANIFEST_PATH.read_text())
    measured = result["metrics"]
    metrics = {}
    for entry in manifest["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        value = measured.get(name)
        if value is None:
            if not trace:
                result["problems"].append(f"end-to-end metric {name} was not measured")
                continue
            value = metric(0, unit)
        elif value["unit"] != unit:
            result["problems"].append(
                f"metric {name} measured in {value['unit']}, not {unit}")
        metrics[name] = value
    unknown = sorted(set(measured) - set(metrics))
    if unknown:
        result["problems"].append(f"metrics not in BENCHMARK.json: {unknown}")
    return metrics


def record_reference(result: dict) -> None:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    reference.update(result.get("digests", {}))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    if args.record_reference and (args.workload not in ("des", "nn-train")
                                  or args.seed != DEFAULT_SEED or args.corrupt):
        print("perfbench: --record-reference takes des or nn-train at the "
              f"default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Pin hashing and BLAS threads before the interpreter and numpy
        # start: re-executing replaces this process, so nothing is left over.
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so its servers are stopped and waited
    # for.  Servers stop on SIGINT, which a shell's background job inherits
    # as ignored; handling it here gives every child the default again.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    root = make_run_root(args.workload)
    try:
        env = isolate_environment(root)
        for line in header(args):
            print(line, flush=True)
        try:
            result = run_workload(args, root, env)
        except CheckFailed as exc:
            result = {"attempted": 1, "failed": 1, "problems": [str(exc)],
                      "metrics": {}}
        else:
            result["metrics"] = manifest_metrics(result, bool(args.trace))
    finally:
        remove_run_root(root)
    if args.record_reference:
        record_reference(result)
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
