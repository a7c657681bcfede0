"""The scheduling engine: a slurm-like DES over pluggable policies.

The simulator is three layers:

* **engine** (this module) — one loop that merges the arrivals, sorted
  by ``(submit_time, list index)``, with a heap of running jobs keyed by
  ``(end_time, start sequence)``.  At each instant it fires the
  completions, then the submissions, then a single dispatch pass, so
  freed GPUs are visible to new arrivals and a burst of events costs one
  scheduling pass.  The heap holds at most pool-capacity jobs; the
  :class:`~repro.cluster.calendar.ReservationCalendar` of future free
  capacity is built from it on demand, only for the policies that read
  it (:attr:`ClusterSimulator.calendar`);
* **policies** (:mod:`repro.cluster.scheduling`) — FIFO, EDF, fair-share,
  EASY backfill, conservative backfill, and hybrid-k backfill behind one
  :class:`~repro.cluster.scheduling.SchedulingPolicy` protocol;
* **resources** (:mod:`repro.cluster.resources`) — a (gpus, mem)
  :class:`~repro.cluster.resources.ResourceVector` pool, gpu-only by
  default for seed bit-compatibility.

A policy is named (``"fifo"``, ``"backfill"``, ``"conservative"``,
``"hybrid-4"``, ``"conservative-edf"``, ...) or passed as an instance;
:func:`repro.cluster.scheduling.get_policy` resolves both.  The clock and
the event counter are one small record, :attr:`ClusterSimulator.events`.

The simulator narrates itself through :mod:`repro.obs`: ``job_submit`` /
``job_start`` / ``job_finish`` events carry the deterministic simulation
times, ``job_preempt`` records a reservation revocation (conservative and
hybrid-k under non-FIFO ordering may push a held reservation later when
a higher-priority arrival displaces it), and a ``cluster_run_start`` /
``cluster_run_finish`` pair frames each ``run``.  The engine counters
(events fired, dispatch passes, plan calls, backfill candidates scanned)
of that run ride in the volatile ``wall`` half of ``cluster_run_finish``;
the simulator's attributes keep the totals over all its runs.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from operator import itemgetter

from repro import obs
from repro.cluster.calendar import ReservationCalendar
from repro.cluster.jobs import Job, JobRecord, JobState
from repro.cluster.resources import GPUPool
from repro.cluster.scheduling import SchedulingPolicy, get_policy

__all__ = ["ClusterSimulator"]


class _Clock:
    """The simulation clock and the number of events fired so far."""

    __slots__ = ("now", "events_fired")

    def __init__(self) -> None:
        self.now = 0.0
        self.events_fired = 0


class ClusterSimulator:
    """Simulate a GPU pool executing a batch workload.

    Parameters
    ----------
    n_gpus:
        Pool capacity.
    policy:
        Queue discipline: a policy name (``"fifo"``, ``"backfill"``,
        ``"conservative"``, ``"hybrid-4"``, ...) or a
        :class:`~repro.cluster.scheduling.SchedulingPolicy` instance.
    mem_capacity:
        Optional pool memory (GB).  ``0.0`` — the default — leaves the
        dimension untracked (gpu-only admission, the seed behaviour).

    Examples
    --------
    >>> from repro.cluster import Job
    >>> sim = ClusterSimulator(n_gpus=2)
    >>> recs = sim.run([Job(0, "p", 2, 10.0, 0.0, 100.0),
    ...                 Job(1, "q", 1, 5.0, 0.0, 100.0)])
    >>> recs[1].start_time  # had to wait for job 0 to free the pool
    10.0
    """

    def __init__(
        self,
        n_gpus: int,
        *,
        policy: SchedulingPolicy | str = "fifo",
        mem_capacity: float = 0.0,
    ) -> None:
        self.pool = GPUPool(n_gpus, mem_capacity=mem_capacity)
        self._policy = get_policy(policy)
        self.queue: deque[JobRecord] = deque()
        # The clock and the event counter; arrivals and completions live
        # in the simulator's own structures (see ``_simulate``).
        self.events = _Clock()
        # Running jobs as a heap of (end_time, start_seq, record): the
        # pending completions, in the order they fire.
        self._running: list[tuple[float, int, JobRecord]] = []
        self._start_seq = 0
        self._records: dict[int, JobRecord] = {}
        self._usage: dict[str, float] = {}  # project -> committed GPU-hours
        self._telemetry = False  # sampled per run()
        self.dispatches = 0
        self.plan_calls = 0
        self.backfill_candidates_scanned = 0  # incremented by policy plans

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.events.now

    @property
    def usage(self) -> dict[str, float]:
        """Committed GPU-hours per project (the fair-share signal)."""
        return self._usage

    @property
    def policy_name(self) -> str:
        """The resolved policy's name (``"backfill"`` for EASY)."""
        return self._policy.name

    def running_profile(self) -> list[tuple[float, int]]:
        """Running jobs as ``(end_time, n_gpus)`` in completion order.

        Ties keep start order (the heap carries a start sequence), which
        matches the seed's stable sort over its running list.
        """
        return [(end, record.job.n_gpus)
                for end, _seq, record in sorted(self._running)]

    @property
    def calendar(self) -> ReservationCalendar:
        """The running jobs' future capacity, as a fresh calendar.

        Built per call from the running heap (at most pool-capacity
        jobs), so callers may overlay reservations on it directly.  Jobs
        are added in start order: each segment's memory is then the same
        float sum an incrementally maintained calendar would hold.
        """
        calendar = ReservationCalendar(self.pool.capacity, self.pool.mem_capacity)
        now = self.now
        for end, _seq, record in sorted(self._running, key=itemgetter(1)):
            calendar.add(now, end, record.job.n_gpus, record.job.mem)
        return calendar

    # -- the event loop --------------------------------------------------

    def _simulate(self, arrivals: list[JobRecord], until: float | None) -> None:
        """Fire every event up to ``until``: at each instant the completions
        (in end-time then start order), then the submissions (in arrival
        order), then one dispatch pass.  A dispatch that starts a job ending
        at the same instant (a float-absorbed duration) is followed by that
        completion and another pass, as a (time, priority) heap would."""
        events = self.events
        running = self._running
        pool = self.pool
        telemetry = self._telemetry
        times = [float(r.job.submit_time) for r in arrivals]
        times.append(math.inf)  # sentinel: no arrival left
        horizon = math.inf if until is None else until
        i = completed = dispatches = 0
        while True:
            now = times[i]
            if running and running[0][0] < now:
                now = running[0][0]
            if now == math.inf or now > horizon:
                break
            events.now = now
            while running and running[0][0] == now:
                record = heapq.heappop(running)[2]
                record.state = JobState.COMPLETED
                pool.release(record.job.n_gpus, now, record.job.mem)
                completed += 1
                # Simulation times are part of the deterministic payload:
                # a property of the workload and policy, not of the host.
                if telemetry:
                    obs.emit("job_finish", {"job_id": record.job.job_id, "t": now})
            while times[i] == now:
                record = arrivals[i]
                self.queue.append(record)
                i += 1
                if telemetry:
                    job = record.job
                    obs.emit("job_submit", {"job_id": job.job_id,
                                            "project": job.project,
                                            "n_gpus": job.n_gpus, "t": now})
            self._dispatch()
            dispatches += 1
        events.events_fired += i + completed + dispatches
        self.dispatches += dispatches

    def _start(self, record: JobRecord) -> None:
        now = self.events.now
        job = record.job
        self.pool.allocate(job.n_gpus, now, job.mem)
        self._usage[job.project] = (
            self._usage.get(job.project, 0.0) + job.n_gpus * job.duration
        )
        record.state = JobState.RUNNING
        record.start_time = now
        end = now + job.duration
        record.end_time = end  # final once COMPLETED fires
        self._start_seq += 1
        heapq.heappush(self._running, (end, self._start_seq, record))
        if self._telemetry:
            obs.emit("job_start", {"job_id": job.job_id, "t": now,
                                   "wait": now - job.submit_time})

    def _emit_preempt(self, record: JobRecord, old_start: float,
                      new_start: float | None) -> None:
        """A held reservation was revoked (pushed later or dropped)."""
        if self._telemetry:
            obs.emit("job_preempt", {"job_id": record.job.job_id,
                                     "t": self.events.now,
                                     "reserved_start": old_start,
                                     "new_start": new_start})

    def _dispatch(self) -> None:
        policy = self._policy
        queue = self.queue = policy.order(self.queue, self)
        # Start jobs from the head while they fit.
        pool = self.pool
        while queue and pool.can_allocate(queue[0].job.n_gpus,
                                          queue[0].job.mem):
            self._start(queue.popleft())
        if queue:
            self.plan_calls += 1
            policy.plan(self)

    # -- public API ------------------------------------------------------

    def run(self, jobs: list[Job], *, until: float | None = None) -> list[JobRecord]:
        """Execute ``jobs`` to completion and return their records.

        Records are returned in ``job_id`` order.  Raises if any job requests
        more GPUs (or memory) than the pool holds (it could never start).
        With ``until``, events after that time do not fire: later arrivals
        stay unsubmitted and later completions stay running.
        """
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job_id in workload")
        t0 = time.perf_counter()
        before = self._counters()
        # Telemetry routing is sampled once per run: the DES fires millions
        # of events for large workloads and skipping payload construction
        # when no sink is active is a measurable win.
        self._telemetry = obs.enabled()
        self._policy.reset()
        obs.emit(
            "cluster_run_start",
            {
                "n_jobs": len(jobs),
                "n_gpus": self.pool.capacity,
                "policy": self._policy.name,
            },
        )
        records = []
        for job in jobs:
            if job.n_gpus > self.pool.capacity:
                raise ValueError(
                    f"job {job.job_id} requests {job.n_gpus} GPUs, "
                    f"pool has {self.pool.capacity}"
                )
            if job.mem > 0.0 and self.pool.mem_capacity > 0.0 and \
                    job.mem > self.pool.mem_capacity:
                raise ValueError(
                    f"job {job.job_id} requests {job.mem} mem, "
                    f"pool has {self.pool.mem_capacity}"
                )
            if job.submit_time < self.now:
                raise ValueError(
                    f"job {job.job_id} submits at {job.submit_time}, "
                    f"before current time {self.now}"
                )
            record = JobRecord(job=job)
            self._records[job.job_id] = record
            records.append(record)
        # A stable sort: arrivals at one instant keep list order.
        self._simulate(sorted(records, key=lambda r: r.job.submit_time), until)
        obs.emit(
            "cluster_run_finish",
            {"n_jobs": len(jobs), "makespan": self.makespan},
            wall={
                "wall_s": time.perf_counter() - t0,
                **{name: total - before[name]
                   for name, total in self._counters().items()},
            },
        )
        metrics = obs.get_metrics()
        metrics.counter("cluster.jobs").inc(len(jobs))
        metrics.gauge("cluster.makespan").set(self.makespan)
        return [self._records[i] for i in sorted(self._records)]

    def _counters(self) -> dict[str, int]:
        """The engine counters' totals over every run so far."""
        return {
            "events_fired": self.events.events_fired,
            "dispatches": self.dispatches,
            "plan_calls": self.plan_calls,
            "backfill_candidates_scanned": self.backfill_candidates_scanned,
        }

    @property
    def makespan(self) -> float:
        """Completion time of the last finished job (0 when nothing ran)."""
        ends = [
            r.end_time
            for r in self._records.values()
            if r.state is JobState.COMPLETED and r.end_time is not None
        ]
        return max(ends, default=0.0)
