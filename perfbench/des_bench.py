"""The ``des`` workload: the cluster DES engine under three policies, in-process.

``fifo`` is bound by the event heap, ``backfill`` adds EASY ``plan`` and
``can_allocate``, and ``conservative`` is bound by the reservation calendar.
The run draws ``WORKLOADS_PER_S`` workloads per second of ``--seconds`` from
``(seed, k)`` and simulates each once under each policy; a policy's rate is
its jobs over the summed time at the reference host speed
(``common.HostSpeed``).  Many workloads matter: near saturation one
workload's queue depth, and so the engine's cost per job, swings widely
with its seed.  Over forty 3000-job workloads the quartile spread of the
per-workload time was 0.2-0.3 under ``fifo`` and ``backfill`` and 0.67
under ``conservative``, where one cost five times the median.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro import obs
from repro.cluster import ClusterSimulator, synthetic_workload

from common import (
    CheckFailed,
    INTERPRETER_KERNEL_S,
    HostSpeed,
    interpreter_kernel,
    median,
    metric,
    sha256_lines,
    slowdown_header,
)
from tracer import CALENDAR_QUERIES, Tracer, install_des

POLICIES = ("fifo", "backfill", "conservative")
#: The policies behind the end-to-end metrics.  Under ``conservative`` the
#: cost per job follows the queue depth, which swings with the seed (see
#: above), so its rate is a per-layer metric: its quartile spread over ten
#: seeds stays near 0.25 however many workloads a run draws.
GATED = ("fifo", "backfill")
N_GPUS = 32
N_JOBS = 3000
#: Workloads per second of ``--seconds``: each takes about 0.7 s at the
#: reference speed under the three policies together.
WORKLOADS_PER_S = 4 / 3
SETUPS = 3
TRACE_PAIRS = 3


def make_workloads(seed: int, rounds: int) -> list[list[Any]]:
    return [synthetic_workload(N_JOBS, N_GPUS, mix="mixed",
                               seed=np.random.default_rng([seed, r]))
            for r in range(rounds)]


def reference_key(policy: str, seed: int, k: int) -> str:
    return f"des/{policy}/jobs={N_JOBS}/seed={seed}/workload={k}"


def schedule_lines(records: list[Any]) -> list[str]:
    return [f"{r.job.job_id} {r.start_time!r} {r.end_time!r}" for r in records]


def check_invariants(jobs: list[Any], records: list[Any]) -> None:
    """Each job starts once, never before it was submitted, and the pool
    never runs more GPUs than it has."""
    if sorted(r.job.job_id for r in records) != sorted(j.job_id for j in jobs):
        raise CheckFailed("the schedule does not hold each job exactly once")
    deltas = []
    for r in records:
        if r.start_time is None or r.end_time is None:
            raise CheckFailed(f"job {r.job.job_id} never ran")
        if r.start_time < r.job.submit_time:
            raise CheckFailed(f"job {r.job.job_id} started before its submission")
        deltas.append((r.end_time, 0, -r.job.n_gpus))
        deltas.append((r.start_time, 1, r.job.n_gpus))
    in_use = 0
    for _t, _order, delta in sorted(deltas):  # ends before starts at one instant
        in_use += delta
        if in_use > N_GPUS:
            raise CheckFailed(f"{in_use} GPUs in use on a {N_GPUS}-GPU pool")


def _corrupt_schedule(records: list[Any], corrupt: str | None) -> None:
    """Self-test hook: break one invariant of a finished schedule."""
    if corrupt == "des-once":
        records[1] = records[0]
    elif corrupt == "des-submit":
        records[0].start_time = records[0].job.submit_time - 1.0
    elif corrupt == "des-capacity":
        for r in records:
            r.end_time = r.end_time + 1e6


def _run(policy: str, jobs: list[Any]) -> tuple[float, Any, list[Any]]:
    sim = ClusterSimulator(N_GPUS, policy=policy)
    with obs.quiet():
        t0 = time.perf_counter()
        records = sim.run(jobs)
        elapsed = time.perf_counter() - t0
    return elapsed, sim, records


def run_des(seed: int, seconds: int, trace: bool, reference: dict[str, Any],
            corrupt: str | None) -> dict[str, Any]:
    n_workloads = max(2, round(seconds * WORKLOADS_PER_S))
    speed = HostSpeed(interpreter_kernel, INTERPRETER_KERNEL_S)
    setups = []
    for _ in range(SETUPS):
        seconds_at_reference, workloads = speed.time(make_workloads, seed, n_workloads)
        setups.append(seconds_at_reference)
    times = {p: 0.0 for p in POLICIES}
    raw = {p: 0.0 for p in POLICIES}
    pair_times = []  # per workload: fifo plus backfill, at the reference speed
    digests: dict[str, str] = {}
    problems = []
    for k, jobs in enumerate(workloads):
        pair_times.append(0.0)
        for policy in POLICIES:
            seconds_at_reference, (elapsed, _sim, records) = speed.time(_run, policy, jobs)
            times[policy] += seconds_at_reference
            raw[policy] += elapsed
            if policy in GATED:
                pair_times[-1] += seconds_at_reference
            key = reference_key(policy, seed, k)
            digests[key] = sha256_lines(schedule_lines(records))
            if k == 0:
                _corrupt_schedule(records, corrupt)
            try:
                check_invariants(jobs, records)
            except CheckFailed as exc:
                problems.append(f"{policy} workload {k}: {exc}")
            expected = reference.get(key)
            if expected is not None and digests[key] != expected:
                problems.append(f"{policy} workload {k}: schedule digest "
                                "differs from the reference")
    n_jobs = N_JOBS * n_workloads
    print(slowdown_header(speed.readings, {
        f"des.{p}.jobs_per_s": n_jobs / raw[p] for p in POLICIES}))
    # An op is one simulated job under a gated policy; the latency is the
    # time to simulate one workload under each of them.
    metrics: dict[str, Any] = {
        "setup_s": metric(median(setups), "s"),
        "latency_p50_ms": metric(1e3 * median(pair_times), "ms"),
        "ops_per_s": metric(len(GATED) * n_jobs / sum(times[p] for p in GATED), "ops/s"),
    }
    if trace:
        metrics = {**_layer_metrics(workloads[0]),
                   **{f"des.{p}.jobs_per_s": metric(n_jobs / times[p], "jobs/s")
                      for p in POLICIES}}
    return {"attempted": n_workloads * len(POLICIES), "failed": 0,
            "problems": problems, "metrics": metrics, "digests": digests}


def _layer_metrics(jobs: list[Any]) -> dict[str, Any]:
    """Traced runs of each policy on the first round's workload.

    Counts come from the wrappers and the engine's public ``events_fired``;
    the overhead is the median over ``TRACE_PAIRS`` untraced/traced pairs.
    """
    metrics: dict[str, Any] = {}
    ratios = []
    for _ in range(TRACE_PAIRS):
        untraced_s = traced_s = 0.0
        for policy in POLICIES:
            untraced_s += _run(policy, jobs)[0]
            tracer = Tracer(keep_spans=False)
            restore = install_des(tracer)
            try:
                elapsed, sim, _records = _run(policy, jobs)
            finally:
                restore()
            traced_s += elapsed
            metrics.update(_policy_metrics(policy, sim, tracer.totals))
        ratios.append(traced_s / untraced_s)
    metrics["trace.overhead_pct"] = metric(100.0 * (median(ratios) - 1.0), "%")
    return metrics


def _policy_metrics(policy: str, sim: Any, totals: dict[str, list[float]]) -> dict[str, Any]:
    def calls(name: str) -> int:
        return int(totals.get(name, [0])[0])

    def ms(name: str, index: int = 1) -> float:
        return 1e3 * totals.get(name, [0, 0.0, 0.0])[index]

    calendar = [n for n in totals if n.startswith("cluster.calendar.")]
    return {
        f"cluster.engine.events_fired.{policy}": metric(sim.events.events_fired, "count"),
        f"cluster.engine.self_ms.{policy}": metric(ms("cluster.engine.run", 2), "ms"),
        f"cluster.policy.plan.calls.{policy}": metric(calls("cluster.policy.plan"), "count"),
        f"cluster.policy.plan.ms.{policy}": metric(ms("cluster.policy.plan"), "ms"),
        f"cluster.resources.can_allocate.calls.{policy}": metric(
            calls("cluster.resources.can_allocate"), "count"),
        f"cluster.calendar.queries.{policy}": metric(
            sum(calls(f"cluster.calendar.{q}") for q in CALENDAR_QUERIES), "count"),
        # Self time, so a calendar call nested in another is counted once.
        f"cluster.calendar.ms.{policy}": metric(sum(ms(n, 2) for n in calendar), "ms"),
    }
