"""The served workloads: ``serve-hot`` and ``serve-cold``.

The server is a real ``python -m repro serve --port 0`` subprocess (or, for a
traced run, the same command behind ``launcher.py``), so the load
generator's interpreter lock and JSON work are never counted as server time.
The load generator is this process with at most ``CONNECTIONS`` threads,
each holding at most one connection at a time.

Both phases are bounded by request count, not duration: per-request cost
and memory grow with the work already done in a serve root, so a fixed
duration would measure a bigger root on a faster commit.

Timings are reported at the reference host speed (see ``common.HostSpeed``).
Each phase is cut into segments with a gauge reading before and after each
one; each request's latency, and each segment's rate, is divided by the
mean slowdown of the two readings around it.  The gauge is ``EchoGauge``,
canned hits against ``echo_server.py``.  It fits a hot hit, which is
wake-ups and HTTP like an echo, better than a cold run, which is mostly its
worker's interpreter work: in one heavy slow spell the echo read 4.7 times
slower while cold runs ran 2 times slower, so such spells inflate the cold
figures.  The interpreter kernel fitted cold runs worse in ordinary spells:
its short readings land on either of the two speeds a vCPU flips between.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.api import Catalog, RunRequest, canonical_results_bytes
from repro.obs import context
from repro.serve import ServeClient

from common import (
    BENCH_DIR,
    INTERPRETER_KERNEL_S,
    CheckFailed,
    HostSpeed,
    child_pids,
    chunks,
    interpreter_kernel,
    median,
    metric,
    pid_alive,
    proc_status_kb,
    quantile,
    slowdown_header,
)

SERVER_WORKERS = 2
CONNECTIONS = 2
OPEN_RATE = 100.0  # req/s, Poisson arrivals
POLL_S = 0.010  # ServeClient.wait poll interval of the cold clients
ZIPF_S = 1.2
HOT_EXPERIMENTS = ("T1", "T2", "T3", "N1", "F1")
HOT_SEEDS = (0, 1, 2, 3)
#: Requests per second of ``--seconds``: the open loop runs ``OPEN_RATE``
#: of them per second, the closed loop and the cold loop fixed counts.
CLOSED_PER_S = 50
COLD_PER_S = 30
COLD_SEED_BASE = 1000
COLD_WARM_SEED = 999
#: Segments of each hot phase and of the cold loop.
SEGMENTS = 10
#: Canned hits per ``EchoGauge`` reading, and what a reading measures at the
#: reference host speed (2-vCPU Xeon host, Python 3.11; only ratios matter):
#: per-request time of a closed loop, or median latency of hits paced
#: ``1 / OPEN_RATE`` apart over one connection.
ECHO_REQUESTS = 60
ECHO_REF_S = 0.0015
ECHO_PACED = 30
ECHO_PACED_REF_S = 0.0030
#: Cold runs whose results are re-executed in-process and compared.
COLD_SAMPLE = 5
BOOT_STARTS = 2  # throwaway server starts before the measured one
#: Interpreter-kernel runs per reading around a server start.
BOOT_SAMPLES = 25

_LISTENING = re.compile(r"listening on (http://\S+)")


# -- the server process ------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` subprocess with its own serve root and cell cache."""

    def __init__(self, base: Path, env: dict[str, str], *,
                 spans_dir: Path | None = None,
                 command: list[str] | None = None) -> None:
        self.base = base
        self.command = command
        self.root = base / "serve"
        base.mkdir(parents=True, exist_ok=True)
        self.env = dict(env)
        self.env["REPRO_RUNS_DIR"] = str(self.root)
        self.env["REPRO_CACHE_DIR"] = str(base / "cells")
        self.spans_dir = spans_dir
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self._stderr = None

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the seconds it took."""
        args = ["--host", "127.0.0.1", "--port", "0",
                "--workers", str(SERVER_WORKERS), "--root", str(self.root)]
        if self.command is not None:
            cmd = self.command
        elif self.spans_dir is not None:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"),
                   str(self.spans_dir), *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        self._stderr = open(self.base / "server.stderr", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr,
            env=self.env, cwd=self.base,
        )
        line = self._read_line(timeout_s=60.0)
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise CheckFailed(f"server did not start: {line!r} {self._stderr_tail()}")
        self.url = match.group(1)
        client = ServeClient(self.url, timeout_s=10.0)
        for _ in range(500):
            try:
                client.healthz()
                break
            except OSError:
                time.sleep(0.01)
        else:
            raise CheckFailed("server never answered /healthz")
        return time.perf_counter() - t0

    def _read_line(self, timeout_s: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            return ""
        return self.proc.stdout.readline().decode(errors="replace")

    def _stderr_tail(self) -> str:
        try:
            return (self.base / "server.stderr").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def rss_kb(self) -> int:
        return proc_status_kb(self.pid, "VmRSS")

    def peak_rss_kb(self) -> int:
        return proc_status_kb(self.pid, "VmHWM")

    def stop(self) -> None:
        """SIGINT, wait, and make sure no worker process outlives the server."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        workers = child_pids(proc.pid)
        problem = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problem = "server ignored SIGINT for 30 s"
        if proc.stdout is not None:
            proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
        deadline = time.monotonic() + 10.0
        survivors = [p for p in workers if pid_alive(p)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [p for p in survivors if pid_alive(p)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if survivors:
            problem = f"worker process(es) {survivors} outlived the server"
        if problem is not None:
            raise CheckFailed(problem)


class BootTimer:
    """Server start-up times at the reference host speed, for ``setup_s``.

    Start-up is interpreter work (imports, forking the pool), so each start
    is scaled by the interpreter kernel timed just before and after it, in
    long readings because a start lasts about a second.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed(interpreter_kernel, INTERPRETER_KERNEL_S, samples=BOOT_SAMPLES)
        self.times: list[float] = []

    def start(self, server: ServerProcess) -> None:
        self.times.append(self.speed.time(server.start)[0])

    def throwaway(self, base: Path, env: dict[str, str], n: int) -> None:
        """Start and stop ``n`` servers only to time them."""
        for i in range(n):
            server = ServerProcess(base / f"boot-{i}", env)
            try:
                self.start(server)
            finally:
                server.stop()

    def setup_s(self) -> dict[str, Any]:
        return metric(median(self.times), "s")


# -- requests and references -----------------------------------------------------


def _request(exp_id: str, seed: int) -> RunRequest:
    return RunRequest(ids=(exp_id,), smoke=True, overrides={exp_id: {"seed": seed}})


def reference_bytes(request: RunRequest) -> bytes:
    """The request's results, executed in this process without any cache."""
    summary = Catalog().execute(replace(request, cache=False))
    return canonical_results_bytes(summary.as_dict())


def execute_all(url: str, requests: list[RunRequest]) -> None:
    """Submit every request, then wait for all; any failure is fatal."""
    client = ServeClient(url, timeout_s=60.0)
    run_ids = [client.submit(r).run_id for r in requests]
    for run_id in run_ids:
        status = client.wait(run_id, timeout_s=120.0, poll_s=POLL_S)
        if status.state != "done":
            raise CheckFailed(f"warm-up run {run_id} ended {status.state}: {status.error}")


def _run_threads(target: Callable[[], None], n: int) -> None:
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class PollCountingClient(ServeClient):
    """A ServeClient that counts its ``status`` calls (polls per run)."""

    polls = 0

    def status(self, run_id: str) -> Any:
        self.polls += 1
        return super().status(run_id)


class EchoGauge:
    """The serve workloads' host-speed gauge (see ``echo_server.py``).

    The canned answers are a real hit's status and results document, taken
    from a warmed-up server, so every gauge request costs the client what a
    served hit does.  A reading is the per-request time of a closed loop of
    ``ECHO_REQUESTS`` canned hits over ``CONNECTIONS`` connections, divided
    by ``ECHO_REF_S``; a paced reading, for open-loop segments, whose
    latency includes waking idle CPUs, is the median latency of
    ``ECHO_PACED`` hits sent ``1 / OPEN_RATE`` apart, over ``ECHO_PACED_REF_S``.
    """

    def __init__(self, base: Path, env: dict[str, str], url: str,
                 request: RunRequest) -> None:
        client = ServeClient(url, timeout_s=60.0)
        status = client.submit(request)
        if status.state != "done" or not status.cached:
            raise CheckFailed(f"gauge request answered {status.state}, not a cache hit")
        document = client.results(status.run_id)
        base.mkdir(parents=True, exist_ok=True)
        status_path = base / "status.json"
        results_path = base / "results.json"
        status_path.write_text(json.dumps(status.as_dict(), indent=2) + "\n")
        results_path.write_text(json.dumps({"document": document}, indent=2) + "\n")
        self.server = ServerProcess(base, env, command=[
            sys.executable, str(BENCH_DIR / "echo_server.py"),
            str(status_path), str(results_path)])
        self.request = request
        self.readings: list[float] = []

    def __enter__(self) -> "EchoGauge":
        self.server.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.server.stop()

    def reading(self) -> float:
        slowdown = self._closed()
        self.readings.append(slowdown)
        return slowdown

    def paced_reading(self) -> float:
        slowdown = self._paced()
        self.readings.append(slowdown)
        return slowdown

    def _paced(self) -> float:
        client = ServeClient(self.server.url, timeout_s=30.0)
        latencies = []
        t_start = time.perf_counter() + 0.005
        for i in range(ECHO_PACED):
            due = t_start + i / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if not _hot_call(client, self.request)[0]:
                raise CheckFailed("the echo server did not answer a canned hit")
            latencies.append(time.perf_counter() - due)
        return median(latencies) / ECHO_PACED_REF_S

    def _closed(self) -> float:
        counter = itertools.count()

        def worker() -> None:
            client = ServeClient(self.server.url, timeout_s=30.0)
            while next(counter) < ECHO_REQUESTS:
                if not _hot_call(client, self.request)[0]:
                    raise CheckFailed("the echo server did not answer a canned hit")

        t0 = time.perf_counter()
        _run_threads(worker, CONNECTIONS)
        return (time.perf_counter() - t0) / ECHO_REQUESTS / ECHO_REF_S


# -- serve-hot ---------------------------------------------------------------------


class Phase:
    """Per-request outcomes of one phase, cut into gauged segments."""

    def __init__(self, n: int) -> None:
        self.latency = [0.0] * n
        self.ok = [False] * n
        self.traces = [""] * n
        self.slowdown = [1.0] * n  # the gauge's, around the request's segment
        self.elapsed: list[float] = []  # per-request seconds of each segment
        self.segment_slowdown: list[float] = []

    def scaled(self) -> list[float]:
        """Latencies of successful requests at the reference host speed."""
        return [t / s for t, s, good in zip(self.latency, self.slowdown, self.ok)
                if good] or [0.0]

    def rate(self) -> float:
        """Throughput over all segments at the reference host speed."""
        parts = chunks(len(self.latency), SEGMENTS)
        return len(self.latency) / sum(
            len(part) * e / s
            for part, e, s in zip(parts, self.elapsed, self.segment_slowdown))

    def run_segments(self, reading: Callable[[], float],
                     run: Callable[[range], None]) -> None:
        """``run`` each segment between two gauge ``reading`` s, timing it."""
        before = reading()
        for part in chunks(len(self.latency), SEGMENTS):
            t0 = time.perf_counter()
            run(part)
            self.elapsed.append((time.perf_counter() - t0) / len(part))
            after = reading()
            slowdown = (before + after) / 2
            self.segment_slowdown.append(slowdown)
            for i in part:
                self.slowdown[i] = slowdown
            before = after


class HotPhase(Phase):
    def __init__(self, name: str, n: int) -> None:
        super().__init__(n)
        self.name = name
        self.rtt = [0.0] * n  # send -> results received
        self.late = [0.0] * n
        self.wrong: list[int] = []


def _hot_call(client: ServeClient, request: RunRequest) -> tuple[bool, Any]:
    """Submit; when answered ``done`` and ``cached``, fetch the results."""
    status = client.submit(request)
    if status.state != "done" or not status.cached:
        return False, None
    return True, client.results(status.run_id)


def _hot_one(phase: HotPhase, i: int, client: ServeClient, request: RunRequest,
             reference: bytes, material: str) -> float:
    ctx = context.new_context(material)
    phase.traces[i] = ctx.trace_id
    sent = time.perf_counter()
    try:
        with context.bind(ctx):
            good, document = _hot_call(client, request)
    except Exception:
        good, document = False, None
    done = time.perf_counter()
    phase.rtt[i] = done - sent
    phase.ok[i] = good
    if good and canonical_results_bytes(document) != reference:
        phase.wrong.append(i)
    return done


def open_loop(url: str, requests: list[RunRequest], refs: list[bytes],
              picks: np.ndarray, due: np.ndarray, tag: str,
              gauge: EchoGauge) -> HotPhase:
    """Each segment keeps the schedule's gaps, starting at its first request."""
    n = len(picks)
    phase = HotPhase("open", n)

    def run(part: range) -> None:
        counter = itertools.count(part.start)
        t_start = time.perf_counter() + 0.01 - float(due[part.start])

        def worker() -> None:
            client = ServeClient(url, timeout_s=30.0)
            while True:
                i = next(counter)
                if i >= part.stop:
                    return
                due_abs = t_start + float(due[i])
                delay = due_abs - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                phase.late[i] = time.perf_counter() - due_abs
                k = int(picks[i])
                done = _hot_one(phase, i, client, requests[k], refs[k], f"{tag} open {i}")
                phase.latency[i] = done - due_abs

        _run_threads(worker, CONNECTIONS)

    phase.run_segments(gauge.paced_reading, run)
    return phase


def closed_loop(url: str, requests: list[RunRequest], refs: list[bytes],
                picks: np.ndarray, tag: str, gauge: EchoGauge) -> HotPhase:
    n = len(picks)
    phase = HotPhase("closed", n)

    def run(part: range) -> None:
        counter = itertools.count(part.start)

        def worker() -> None:
            client = ServeClient(url, timeout_s=30.0)
            while True:
                i = next(counter)
                if i >= part.stop:
                    return
                k = int(picks[i])
                sent = time.perf_counter()
                done = _hot_one(phase, i, client, requests[k], refs[k],
                                f"{tag} closed {i}")
                phase.latency[i] = done - sent

        _run_threads(worker, CONNECTIONS)

    phase.run_segments(gauge.reading, run)
    return phase


def hot_inputs(seed: int, seconds: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zipf(1.2) picks over the 20 hot requests and Poisson due times."""
    rng = np.random.default_rng([seed, 1])
    ranks = rng.permutation(len(HOT_EXPERIMENTS) * len(HOT_SEEDS))
    weights = 1.0 / (ranks + 1.0) ** ZIPF_S
    weights /= weights.sum()
    n_open = int(OPEN_RATE * seconds)
    n_closed = CLOSED_PER_S * seconds
    due = np.cumsum(rng.exponential(1.0 / OPEN_RATE, n_open))
    open_picks = rng.choice(len(weights), size=n_open, p=weights)
    closed_picks = rng.choice(len(weights), size=n_closed, p=weights)
    return open_picks, due, closed_picks


def hot_phases(url: str, requests: list[RunRequest], refs: list[bytes],
               inputs: tuple[np.ndarray, ...], tag: str,
               gauge: EchoGauge) -> tuple[HotPhase, HotPhase]:
    """The open loop, then the closed loop."""
    open_picks, due, closed_picks = inputs
    return (open_loop(url, requests, refs, open_picks, due, tag, gauge),
            closed_loop(url, requests, refs, closed_picks, tag, gauge))


def run_hot(seed: int, seconds: int, trace: bool, base: Path,
            env: dict[str, str], corrupt: str | None) -> dict[str, Any]:
    requests = [_request(e, s) for e in HOT_EXPERIMENTS for s in HOT_SEEDS]
    inputs = hot_inputs(seed, seconds)
    result: dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}
    metrics: dict[str, Any] = {}
    boot = BootTimer()
    boot.throwaway(base, env, BOOT_STARTS - (1 if trace else 0))
    refs = [reference_bytes(r) for r in requests]
    if corrupt == "hot-results":
        refs = [ref + b" " for ref in refs]
    tag = f"perfbench serve-hot {seed}"

    with contextlib.ExitStack() as stack:
        gauge: EchoGauge | None = None

        def warm(server: ServerProcess) -> EchoGauge:
            boot.start(server)
            execute_all(server.url, requests)
            if gauge is not None:
                return gauge
            return stack.enter_context(
                EchoGauge(base / "echo", env, server.url, requests[0]))

        twin: tuple[HotPhase, HotPhase] | None = None
        if trace:
            # The untraced twin of the traced server, driven the same way: its
            # open loop gives the tail latencies, its closed loop the overhead.
            server = ServerProcess(base / "untraced", env)
            try:
                gauge = warm(server)
                twin = hot_phases(server.url, requests, refs, inputs, tag + " twin", gauge)
            finally:
                server.stop()

        spans_dir = base / "spans" if trace else None
        server = ServerProcess(base / "measured", env, spans_dir=spans_dir)
        try:
            gauge = warm(server)
            rss_before = server.rss_kb()
            phases = hot_phases(server.url, requests, refs, inputs, tag, gauge)
            rss_after = server.rss_kb()
            peak_kb = server.peak_rss_kb()
            resident = len(ServeClient(server.url, timeout_s=60.0).statuses()) if trace else 0
        finally:
            server.stop()

    closed = phases[1]
    result["attempted"] = sum(len(p.ok) for p in phases)
    result["failed"] = sum(p.ok.count(False) for p in phases)
    if result["failed"]:
        # After the warm-up every hot request is a stored result.
        result["problems"].append(
            f"{result['failed']} hot request(s) not answered done and cached")
    for p in phases:
        if p.wrong:
            result["problems"].append(
                f"{len(p.wrong)} {p.name}-loop hot result(s) differ from "
                "in-process execution")
    ok_latency = [t for t, good in zip(closed.latency, closed.ok) if good] or [0.0]
    print(slowdown_header(gauge.readings, {
        "latency_p50_ms": 1e3 * quantile(ok_latency, 0.50),
        "ops_per_s": 1.0 / median(closed.elapsed)}))
    # An op is one hit, both metrics from the closed loop.  Open-loop
    # latencies are per-layer metrics: in a slow spell that cut the host to
    # a quarter of its speed the server fell below the offered rate, its
    # queue grew and the open-loop median rose 27-fold, which no host-speed
    # scaling undoes (ten-seed quartile spread 0.27).
    metrics["setup_s"] = boot.setup_s()
    metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB")
    metrics["latency_p50_ms"] = metric(1e3 * quantile(closed.scaled(), 0.50), "ms")
    metrics["ops_per_s"] = metric(closed.rate(), "ops/s")
    if trace:
        from serve_layers import hot_layer_metrics

        assert twin is not None
        metrics = hot_layer_metrics(
            spans_dir, phases, twin, n_hits=sum(p.ok.count(True) for p in phases),
            rss_delta_kb=rss_after - rss_before, resident=resident,
            overhead=twin[1].rate() / closed.rate() - 1.0,
        )
    result["metrics"] = metrics
    return result


# -- serve-cold -------------------------------------------------------------------


class ColdPhase(Phase):
    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.polls = [0] * n
        self.wait_s = [0.0] * n
        self.documents: dict[int, Any] = {}


def cold_inputs(seed: int, seconds: int) -> tuple[list[Any], list[int]]:
    rng = np.random.default_rng([seed, 2])
    n = COLD_PER_S * seconds
    mix = rng.choice(len(HOT_EXPERIMENTS), size=n)
    requests = [_request(HOT_EXPERIMENTS[int(m)], COLD_SEED_BASE + k)
                for k, m in enumerate(mix)]
    sample = sorted(int(i) for i in rng.choice(n, size=min(COLD_SAMPLE, n),
                                                replace=False))
    return requests, sample


def cold_loop(url: str, requests: list[Any], sample: list[int], tag: str,
              gauge: EchoGauge) -> ColdPhase:
    phase = ColdPhase(len(requests))
    keep = set(sample)

    def run(part: range) -> None:
        counter = itertools.count(part.start)

        def worker() -> None:
            client = PollCountingClient(url, timeout_s=60.0)
            while True:
                i = next(counter)
                if i >= part.stop:
                    return
                ctx = context.new_context(f"{tag} cold {i}")
                phase.traces[i] = ctx.trace_id
                t0 = time.perf_counter()
                try:
                    with context.bind(ctx):
                        status = client.submit(requests[i])
                        client.polls = 0
                        final = client.wait(status.run_id, timeout_s=60.0,
                                            poll_s=POLL_S)
                        document = (client.results(status.run_id)
                                    if final.state == "done" else None)
                except Exception:
                    final, document = None, None
                phase.latency[i] = time.perf_counter() - t0
                phase.polls[i] = client.polls
                if final is not None and final.state == "done":
                    phase.ok[i] = True
                    if final.started_at is not None and final.queued_at is not None:
                        phase.wait_s[i] = final.started_at - final.queued_at
                    if i in keep:
                        phase.documents[i] = document

        _run_threads(worker, CONNECTIONS)

    phase.run_segments(gauge.reading, run)
    return phase


def run_cold(seed: int, seconds: int, trace: bool, base: Path,
             env: dict[str, str], corrupt: str | None) -> dict[str, Any]:
    requests, sample = cold_inputs(seed, seconds)
    warm = [_request(e, COLD_WARM_SEED) for e in HOT_EXPERIMENTS]
    result: dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}
    boot = BootTimer()
    boot.throwaway(base, env, BOOT_STARTS - (1 if trace else 0))
    tag = f"perfbench serve-cold {seed}"

    with contextlib.ExitStack() as stack:
        gauge: EchoGauge | None = None

        def warm_up(server: ServerProcess) -> EchoGauge:
            boot.start(server)
            execute_all(server.url, warm)
            if gauge is not None:
                return gauge
            return stack.enter_context(
                EchoGauge(base / "echo", env, server.url, warm[0]))

        twin: ColdPhase | None = None
        if trace:
            server = ServerProcess(base / "untraced", env)
            try:
                gauge = warm_up(server)
                twin = cold_loop(server.url, requests, [], tag + " twin", gauge)
            finally:
                server.stop()

        spans_dir = base / "spans" if trace else None
        server = ServerProcess(base / "measured", env, spans_dir=spans_dir)
        try:
            gauge = warm_up(server)
            phase = cold_loop(server.url, requests, sample, tag, gauge)
            peak_kb = server.peak_rss_kb()
        finally:
            server.stop()
    index_path = server.root / "runs_index.jsonl"
    index_bytes = index_path.stat().st_size if index_path.exists() else 0

    result["attempted"] = len(requests)
    result["failed"] = phase.ok.count(False)
    if result["failed"]:
        result["problems"].append(f"{result['failed']} cold run(s) did not reach done")
    wrong = []
    for i in sample:
        reference = reference_bytes(requests[i])
        if corrupt == "cold-results":
            reference += b" "
        if i in phase.documents and canonical_results_bytes(phase.documents[i]) != reference:
            wrong.append(i)
    if wrong:
        result["problems"].append(
            f"cold run(s) {wrong} differ from in-process execution")
    ok_latency = [t for t, good in zip(phase.latency, phase.ok) if good] or [0.0]
    print(slowdown_header(gauge.readings, {
        "ops_per_s": 1.0 / median(phase.elapsed),
        "latency_p50_ms": 1e3 * quantile(ok_latency, 0.50)}))
    # An op is one run, from submission to its results.
    metrics = {
        "setup_s": boot.setup_s(),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "latency_p50_ms": metric(1e3 * quantile(phase.scaled(), 0.50), "ms"),
        "ops_per_s": metric(phase.rate(), "ops/s"),
    }
    if trace:
        from serve_layers import cold_layer_metrics

        assert twin is not None
        metrics = cold_layer_metrics(
            spans_dir, phase, twin, index_bytes=index_bytes,
            overhead=twin.rate() / phase.rate() - 1.0,
        )
    result["metrics"] = metrics
    return result
