"""Golden schedule fingerprints: the policy engine is a refactor, not a fork.

These SHA-256 fingerprints were captured from the pre-engine simulator
(enum dispatch, linear running-list) over the seed workloads: every
(submission plan, seed policy, pool size) cell hashes the full
``job_id start end`` schedule.  The rebuilt engine — reservation
calendar, end-time heap, pluggable policies — must reproduce each one
byte for byte.  A mismatch here means observable scheduling behaviour
changed, which is exactly what the refactor promised not to do.

Pools 2 and 3 are included because EASY backfill only diverges from FIFO
when the pool is tight (at 6 GPUs the seed workloads happen to schedule
identically under fifo/backfill/edf).

The calendar-family fingerprints (conservative, hybrid-k, conservative-edf)
were captured from the engine that maintained its reservation calendar
incrementally, before the calendar became an on-demand view of the running
jobs.  On the season plans they coincide with EASY's schedules, so an
open-arrival synthetic workload, on a gpu-only and on a memory-tracked
pool, pins the family where its members diverge.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import (
    ClusterSimulator,
    default_reu_projects,
    generate_workload,
    naive_deadline_submission,
    staged_batch_submission,
    synthetic_workload,
    uniform_submission,
)

WORKLOAD_SEED = 42
SUBMIT_SEED = 1

GOLDEN = {
    ("naive", "fifo", 2): "0358c1efe28b8774",
    ("naive", "backfill", 2): "0358c1efe28b8774",
    ("naive", "edf", 2): "0358c1efe28b8774",
    ("naive", "fairshare", 2): "35b397ff1bf855a7",
    ("staged", "fifo", 2): "b8826960723f4c7b",
    ("staged", "backfill", 2): "bb490db73f5c249a",
    ("staged", "edf", 2): "b8826960723f4c7b",
    ("staged", "fairshare", 2): "a983e04cf3d07d3e",
    ("uniform", "fifo", 2): "87e52024a35c34af",
    ("uniform", "backfill", 2): "7bac6beb89d4bde8",
    ("uniform", "edf", 2): "87e52024a35c34af",
    ("uniform", "fairshare", 2): "8db9f7f3fa3d384a",
    ("naive", "fifo", 3): "82f1953d7d60f4ca",
    ("naive", "backfill", 3): "87a8fd4cd8b19e27",
    ("naive", "edf", 3): "82f1953d7d60f4ca",
    ("naive", "fairshare", 3): "86743c778142e4d7",
    ("staged", "fifo", 3): "d59716202475aadd",
    ("staged", "backfill", 3): "d2f26dd0b99800b6",
    ("staged", "edf", 3): "d59716202475aadd",
    ("staged", "fairshare", 3): "6c069e30877c093a",
    ("uniform", "fifo", 3): "bc66c4930b92af3a",
    ("uniform", "backfill", 3): "8bbfe9d3085ea12c",
    ("uniform", "edf", 3): "bc66c4930b92af3a",
    ("uniform", "fairshare", 3): "ccd9f87112094e4a",
    ("naive", "fifo", 6): "2e61efdc897a7c47",
    ("naive", "backfill", 6): "2e61efdc897a7c47",
    ("naive", "edf", 6): "2e61efdc897a7c47",
    ("naive", "fairshare", 6): "6f4ba9f9c5dfd4bd",
    ("staged", "fifo", 6): "589d721f4f3e0dc9",
    ("staged", "backfill", 6): "589d721f4f3e0dc9",
    ("staged", "edf", 6): "589d721f4f3e0dc9",
    ("staged", "fairshare", 6): "0c5ea1b2fb7c40b7",
    ("uniform", "fifo", 6): "9f7548e36b458973",
    ("uniform", "backfill", 6): "9f7548e36b458973",
    ("uniform", "edf", 6): "9f7548e36b458973",
    ("uniform", "fairshare", 6): "9f7548e36b458973",
}

CALENDAR_POLICIES = ("conservative", "hybrid-2", "hybrid-4", "conservative-edf")

CALENDAR_GOLDEN = {
    ("naive", "conservative", 2): "0358c1efe28b8774",
    ("naive", "hybrid-2", 2): "0358c1efe28b8774",
    ("naive", "hybrid-4", 2): "0358c1efe28b8774",
    ("naive", "conservative-edf", 2): "0358c1efe28b8774",
    ("staged", "conservative", 2): "bb490db73f5c249a",
    ("staged", "hybrid-2", 2): "bb490db73f5c249a",
    ("staged", "hybrid-4", 2): "bb490db73f5c249a",
    ("staged", "conservative-edf", 2): "bb490db73f5c249a",
    ("uniform", "conservative", 2): "7bac6beb89d4bde8",
    ("uniform", "hybrid-2", 2): "7bac6beb89d4bde8",
    ("uniform", "hybrid-4", 2): "7bac6beb89d4bde8",
    ("uniform", "conservative-edf", 2): "7bac6beb89d4bde8",
    ("naive", "conservative", 3): "87a8fd4cd8b19e27",
    ("naive", "hybrid-2", 3): "87a8fd4cd8b19e27",
    ("naive", "hybrid-4", 3): "87a8fd4cd8b19e27",
    ("naive", "conservative-edf", 3): "87a8fd4cd8b19e27",
    ("staged", "conservative", 3): "d2f26dd0b99800b6",
    ("staged", "hybrid-2", 3): "d2f26dd0b99800b6",
    ("staged", "hybrid-4", 3): "d2f26dd0b99800b6",
    ("staged", "conservative-edf", 3): "d2f26dd0b99800b6",
    ("uniform", "conservative", 3): "8bbfe9d3085ea12c",
    ("uniform", "hybrid-2", 3): "8bbfe9d3085ea12c",
    ("uniform", "hybrid-4", 3): "8bbfe9d3085ea12c",
    ("uniform", "conservative-edf", 3): "8bbfe9d3085ea12c",
    ("naive", "conservative", 6): "2e61efdc897a7c47",
    ("naive", "hybrid-2", 6): "2e61efdc897a7c47",
    ("naive", "hybrid-4", 6): "2e61efdc897a7c47",
    ("naive", "conservative-edf", 6): "2e61efdc897a7c47",
    ("staged", "conservative", 6): "589d721f4f3e0dc9",
    ("staged", "hybrid-2", 6): "589d721f4f3e0dc9",
    ("staged", "hybrid-4", 6): "589d721f4f3e0dc9",
    ("staged", "conservative-edf", 6): "589d721f4f3e0dc9",
    ("uniform", "conservative", 6): "9f7548e36b458973",
    ("uniform", "hybrid-2", 6): "9f7548e36b458973",
    ("uniform", "hybrid-4", 6): "9f7548e36b458973",
    ("uniform", "conservative-edf", 6): "9f7548e36b458973",
}

# (policy, pool memory) on synthetic_workload(300, 8, load=0.95, seed=7);
# on the memory-tracked pool job i holds (i % 5) * 5.3 GB.
SYNTHETIC_GOLDEN = {
    ("fifo", 0.0): "00db8ae09c062491",
    ("fifo", 24.0): "720cff3a9d04ec15",
    ("backfill", 0.0): "8725601b64b32201",
    ("backfill", 24.0): "6c513491fe5b1ac6",
    ("edf", 0.0): "8592e9ba07d0869d",
    ("edf", 24.0): "71a4e5ec643da2c1",
    ("fairshare", 0.0): "211b798f1921217d",
    ("fairshare", 24.0): "8bc049cb410297f6",
    ("conservative", 0.0): "3b84461bd9914a85",
    ("conservative", 24.0): "04b23d3912ac059b",
    ("hybrid-2", 0.0): "f4d3f4a0b3fb1729",
    ("hybrid-2", 24.0): "f5dccac8febff8b9",
    ("hybrid-4", 0.0): "3b84461bd9914a85",
    ("hybrid-4", 24.0): "5e3268fdd1c34af9",
    ("conservative-edf", 0.0): "bd0d43707df6b8eb",
    ("conservative-edf", 24.0): "ecbbf5e000d4a51c",
}


def _plans():
    projects = default_reu_projects()
    return projects, {
        "naive": naive_deadline_submission(projects, seed=SUBMIT_SEED),
        "staged": staged_batch_submission(projects),
        "uniform": uniform_submission(projects, seed=SUBMIT_SEED),
    }


def _fingerprint(records):
    text = "\n".join(
        f"{r.job.job_id} {r.start_time!r} {r.end_time!r}" for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("plan", ["naive", "staged", "uniform"])
@pytest.mark.parametrize("n_gpus", [2, 3, 6])
def test_golden_schedules_bit_identical(plan, n_gpus):
    projects, plans = _plans()
    jobs = generate_workload(
        projects, submit_times=plans[plan], seed=WORKLOAD_SEED
    )
    for policy in ("fifo", "backfill", "edf", "fairshare"):
        sim = ClusterSimulator(n_gpus, policy=policy)
        got = _fingerprint(sim.run(jobs))
        assert got == GOLDEN[(plan, policy, n_gpus)], (
            f"{plan}/{policy}/{n_gpus} schedule changed"
        )


def test_golden_easy_alias_matches_backfill():
    projects, plans = _plans()
    jobs = generate_workload(
        projects, submit_times=plans["naive"], seed=WORKLOAD_SEED
    )
    easy = ClusterSimulator(3, policy="easy").run(jobs)
    assert _fingerprint(easy) == GOLDEN[("naive", "backfill", 3)]


@pytest.mark.parametrize("plan", ["naive", "staged", "uniform"])
@pytest.mark.parametrize("n_gpus", [2, 3, 6])
def test_golden_calendar_family_bit_identical(plan, n_gpus):
    projects, plans = _plans()
    jobs = generate_workload(
        projects, submit_times=plans[plan], seed=WORKLOAD_SEED
    )
    for policy in CALENDAR_POLICIES:
        sim = ClusterSimulator(n_gpus, policy=policy)
        got = _fingerprint(sim.run(jobs))
        assert got == CALENDAR_GOLDEN[(plan, policy, n_gpus)], (
            f"{plan}/{policy}/{n_gpus} schedule changed"
        )


@pytest.mark.parametrize("mem_capacity", [0.0, 24.0])
def test_golden_synthetic_stream_bit_identical(mem_capacity):
    jobs = synthetic_workload(300, 8, load=0.95, seed=7)
    if mem_capacity:
        jobs = [dataclasses.replace(j, mem=(j.job_id % 5) * 5.3) for j in jobs]
    for policy in sorted({p for p, _mem in SYNTHETIC_GOLDEN}):
        sim = ClusterSimulator(8, policy=policy, mem_capacity=mem_capacity)
        got = _fingerprint(sim.run(jobs))
        assert got == SYNTHETIC_GOLDEN[(policy, mem_capacity)], (
            f"synthetic/{policy}/mem={mem_capacity} schedule changed"
        )
