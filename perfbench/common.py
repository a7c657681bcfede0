"""Shared helpers: paths, per-run isolation, /proc readers and statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
#: The metric lists a result line must carry, with their units.
MANIFEST_PATH = REPO / "BENCHMARK.json"
SCRATCH_PARENT = REPO / ".perfbench_tmp"

#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

#: Pinned so every process of a run, and every machine, uses one BLAS thread:
#: results stay bit-identical and two workers do not oversubscribe 2 CPUs.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set for the benchmark and every process it starts; a fixed hash seed keeps
#: dict and set layouts, and so their speed, the same from run to run.
PINNED_ENV = {**BLAS_ENV, "PYTHONHASHSEED": "0"}


class CheckFailed(Exception):
    """A correctness check on the program's outputs did not hold."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def make_run_root(workload: str) -> Path:
    """A fresh scratch root inside the checkout, unique to this process."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_PARENT))


def remove_run_root(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    try:
        SCRATCH_PARENT.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def isolate_environment(root: Path) -> dict[str, str]:
    """This run's environment: no inherited ``REPRO_*`` knob, fresh roots.

    The program's telemetry stays on, as users run it.  Returns the
    environment for subprocesses (also applied to this process).
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(root / "cells")
    os.environ["REPRO_RUNS_DIR"] = str(root / "serve")
    os.environ["TMPDIR"] = str(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, from ``/proc/*/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def sha256_lines(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def metric(value: Any, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def chunks(n: int, k: int) -> list[range]:
    """``range(n)`` cut into ``k`` contiguous, near-equal, non-empty parts."""
    k = max(1, min(k, n))
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


class HostSpeed:
    """How much slower than usual the host runs right now, by a fixed kernel.

    The shared 2-vCPU hosts this runs on change speed by tens of percent,
    and at times twofold, for seconds to minutes at a time, so a run of the
    same program can read far slower than the previous one.  The in-process
    timings therefore run ``kernel``, fixed work of the same kind as theirs,
    just before and just after each timed unit, and divide the unit's time
    by the mean of the two slowdowns against ``reference_s``: the program's
    time at the reference speed.  A change to the program moves the unit,
    not the kernel.  ``reference_s`` is the kernel's time on a 2-vCPU Xeon
    host under Python 3.11 in its fast spells; only ratios to it matter.
    """

    def __init__(self, kernel: Callable[[], Any], reference_s: float, *,
                 samples: int = 5) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        #: Kernel runs per reading; a reading is their median.
        self.samples = samples
        self.readings: list[float] = []

    def reading(self) -> float:
        times = []
        for _ in range(self.samples):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        slowdown = median(times) / self.reference_s
        self.readings.append(slowdown)
        return slowdown

    def time(self, fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
        """``fn(*args)``: its seconds at the reference speed, and its result."""
        before = self.reading()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        return elapsed * 2.0 / (before + self.reading()), result


def slowdown_header(readings: Sequence[float], unscaled: dict[str, float]) -> str:
    """A run-header line: the slowdowns a gauge read, and the figures as
    measured, before scaling."""
    ordered = sorted(readings)
    return (f"# host slowdown: median {median(ordered):.3f}, min {ordered[0]:.3f}, "
            f"max {ordered[-1]:.3f} over {len(ordered)} readings; unscaled: "
            + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()))


#: ``interpreter_kernel`` time at the reference host speed.
INTERPRETER_KERNEL_S = 0.0012


def interpreter_kernel() -> str:
    """Fixed pure-Python work: dict updates, string building, a keyed sort
    and JSON encoding, the kind of interpreter work the program does."""
    table: dict[int, tuple[int, str]] = {}
    for i in range(6000):
        table[i % 499] = (i, str(i))
    return json.dumps(sorted(table.items(), key=lambda kv: kv[1][1]))
