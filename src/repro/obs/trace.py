"""Trace analytics: the read side of ``events.jsonl``.

:mod:`repro.obs.events` writes schema-versioned JSONL streams; this module
reads them back and answers the questions the paper's §3–§4 resource
lesson was really about — *where did the time go, who was idle, and did
everything pile up at the end?*  A :class:`TraceReader` loads one
``events.jsonl`` (or the run directory containing it), validates it, and
derives:

* the **span tree** and its **critical path** — which nested region of
  the run dominates wall time;
* **per-worker utilization** for every :func:`repro.parallel.pmap` call —
  busy/idle fractions per worker pid, cell-duration tails, and straggler
  cells (the single slow trial that holds the pool hostage);
* **cluster contention** for every simulated scheduler run — the job
  events folded by :func:`repro.cluster.metrics.cluster_contention`;
* **cache attribution** — hit/miss/store counts per experiment, so a
  warm re-run can prove *which* experiment the cache actually served;
* **resource usage** — when the run was sampled
  (:mod:`repro.obs.resources`), peak RSS and CPU per pid (coordinator and
  each pool worker) and peak RSS per open span.

The other streams are read beside their writers:
:class:`repro.obs.profile.ProfileReader` reads ``profile.jsonl`` and
:class:`repro.serve.access.ServeTraceIndex` reads ``access.jsonl``.

Loading uses :func:`repro.obs.jsonl.read_strict` and
:func:`repro.obs.events.check_schema`, and is forgiving in exactly one
way: a torn final line (the writer died mid-record) is dropped and
flagged.  Everything else — a corrupt complete line, an unknown schema
version — is a hard :class:`~repro.obs.jsonl.TraceError`, never a
silent skip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.baseline import median, nearest_rank
from repro.obs.events import SCHEMA_VERSION, check_schema
from repro.obs.jsonl import read_strict
from repro.utils.tables import Table

if TYPE_CHECKING:
    from repro.cluster.metrics import ClusterContention

__all__ = [
    "SpanNode",
    "PmapCall",
    "WorkerSlice",
    "CacheAttribution",
    "ResourceUsage",
    "TraceReader",
    "render_summary",
    "render_utilization",
    "render_critical_path",
]

#: A cell counts as a straggler when it runs this many times the median.
STRAGGLER_FACTOR = 2.0


# ---------------------------------------------------------------------------
# Derived structures


@dataclass
class SpanNode:
    """One reconstructed span and its children (a node of the call tree)."""

    name: str
    path: str
    depth: int
    payload: dict[str, Any]
    dur_s: float | None = None  # None when the span never closed
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """The span's duration, or the sum of its children when unclosed."""
        if self.dur_s is not None:
            return self.dur_s
        return sum(child.total_s for child in self.children)

    @property
    def self_s(self) -> float:
        """Time spent in this span outside any child span."""
        return max(0.0, self.total_s - sum(c.total_s for c in self.children))

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "dur_s": self.dur_s,
            "self_s": self.self_s,
            "children": [c.as_dict() for c in self.children],
        }


@dataclass(frozen=True)
class WorkerSlice:
    """One worker's share of one ``pmap`` call."""

    worker: str  # the worker pid as a string, or "?" on legacy streams
    cells: int
    busy_s: float

    def idle_fraction(self, wall_s: float) -> float:
        if wall_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_s / wall_s)


@dataclass
class PmapCall:
    """Utilization analytics for one ``pmap_start``..``pmap_finish`` frame."""

    fn: str
    n_cells: int
    n_executed: int
    n_cache_hits: int
    workers: int
    mode: str
    wall_s: float
    cell_durations: dict[int, float] = field(default_factory=dict)
    worker_slices: list[WorkerSlice] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return float(sum(self.cell_durations.values()))

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds (0..1)."""
        capacity = self.workers * self.wall_s
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_s / capacity)

    @property
    def median_cell_s(self) -> float:
        durations = list(self.cell_durations.values())
        return median(durations) if durations else 0.0

    @property
    def p95_cell_s(self) -> float:
        durations = list(self.cell_durations.values())
        return nearest_rank(durations, 0.95) if durations else 0.0

    def stragglers(self, factor: float = STRAGGLER_FACTOR) -> list[dict[str, Any]]:
        """Cells whose duration exceeds ``factor`` x the median cell time."""
        median = self.median_cell_s
        if median <= 0:
            return []
        return [
            {"index": i, "dur_s": d, "ratio": d / median}
            for i, d in sorted(self.cell_durations.items())
            if d > factor * median
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "fn": self.fn,
            "n_cells": self.n_cells,
            "n_executed": self.n_executed,
            "n_cache_hits": self.n_cache_hits,
            "workers": self.workers,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "median_cell_s": self.median_cell_s,
            "p95_cell_s": self.p95_cell_s,
            "stragglers": self.stragglers(),
            "per_worker": [
                {
                    "worker": w.worker,
                    "cells": w.cells,
                    "busy_s": w.busy_s,
                    "idle_fraction": w.idle_fraction(self.wall_s),
                }
                for w in self.worker_slices
            ],
        }


@dataclass
class CacheAttribution:
    """Cache traffic attributed to one experiment (or the run preamble)."""

    scope: str
    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResourceUsage:
    """Sampled resource footprint of one process across a run.

    ``cpu_s`` is the growth of the cumulative CPU counter between the
    first and last sample of the pid (procfs counters and getrusage are
    both cumulative), so it approximates CPU time spent *during* the
    sampled window.
    """

    pid: str
    role: str
    source: str
    n_samples: int
    peak_rss_bytes: float
    cpu_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "role": self.role,
            "source": self.source,
            "n_samples": self.n_samples,
            "peak_rss_bytes": self.peak_rss_bytes,
            "cpu_s": self.cpu_s,
        }


# ---------------------------------------------------------------------------
# Loading and validation


class TraceReader:
    """Load one event stream and derive run analytics from it.

    Construct with :meth:`load` (a path to ``events.jsonl`` or to the run
    directory that contains it) or :meth:`from_records` (in-memory event
    dicts, e.g. from :func:`repro.obs.capture_events`).

    Examples
    --------
    >>> from repro import obs
    >>> with obs.capture_events() as events:
    ...     with obs.span("outer"):
    ...         with obs.span("inner"):
    ...             pass
    >>> reader = TraceReader.from_records(events)
    >>> [node.path for node in reader.span_tree()]
    ['outer']
    >>> [hop["path"] for hop in reader.critical_path()]
    ['outer', 'outer/inner']
    """

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        *,
        truncated: bool = False,
        source: str | None = None,
    ) -> None:
        self.events = check_schema(records)
        self.truncated = truncated
        self.source = source

    @classmethod
    def load(cls, source: str | os.PathLike) -> "TraceReader":
        """Read ``events.jsonl`` from a file path or a run directory."""
        path, records, truncated = read_strict(
            source, "events.jsonl", "no event stream at {path}"
        )
        return cls(records, truncated=truncated, source=str(path))

    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, Any]]
    ) -> "TraceReader":
        """Wrap already-parsed event dicts (validated the same way)."""
        return cls(records)

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> dict[str, int]:
        """Event count per kind, in first-appearance order."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    # -- span tree and critical path ------------------------------------

    def span_tree(self) -> list[SpanNode]:
        """Reconstruct the span forest from ``span_start``/``span_end`` pairs.

        A span left open by a truncated stream keeps ``dur_s=None`` and
        reports the sum of its children instead.
        """
        roots: list[SpanNode] = []
        stack: list[SpanNode] = []
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "span_start":
                node = SpanNode(
                    name=payload.get("span", "?"),
                    path=payload.get("path", payload.get("span", "?")),
                    depth=int(payload.get("depth", len(stack))),
                    payload={
                        k: v
                        for k, v in payload.items()
                        if k not in ("span", "path", "depth")
                    },
                )
                (stack[-1].children if stack else roots).append(node)
                stack.append(node)
            elif kind == "span_end":
                path = payload.get("path")
                # Pop to the matching span; tolerate ends whose starts were
                # lost to truncation by ignoring unmatched paths.
                while stack:
                    node = stack.pop()
                    if node.path == path:
                        wall = event.get("wall", {})
                        dur = wall.get("dur_s")
                        node.dur_s = float(dur) if dur is not None else None
                        break
        return roots

    def critical_path(self) -> list[dict[str, Any]]:
        """The heaviest root-to-leaf chain through the span tree.

        Spans on one stream run sequentially (only the coordinator emits),
        so the critical path follows, at each level, the child with the
        largest subtree duration.  Each hop reports its total and self
        time plus its fraction of the root.
        """
        roots = self.span_tree()
        if not roots:
            return []
        node = max(roots, key=lambda n: n.total_s)
        root_s = node.total_s
        hops: list[dict[str, Any]] = []
        while True:
            hops.append(
                {
                    "path": node.path,
                    "dur_s": node.total_s,
                    "self_s": node.self_s,
                    "fraction": node.total_s / root_s if root_s > 0 else 0.0,
                }
            )
            if not node.children:
                return hops
            node = max(node.children, key=lambda n: n.total_s)

    # -- pmap utilization -----------------------------------------------

    def pmap_calls(self) -> list[PmapCall]:
        """One :class:`PmapCall` per ``pmap_start``..``pmap_finish`` frame."""
        calls: list[PmapCall] = []
        cells: dict[int, float] = {}
        workers_of_cell: dict[int, str] = {}
        open_frame = False
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            wall = event.get("wall", {})
            if kind == "pmap_start":
                open_frame = True
                cells = {}
                workers_of_cell = {}
            elif kind == "cell_finish" and open_frame:
                index = int(payload.get("index", len(cells)))
                cells[index] = float(wall.get("dur_s", 0.0) or 0.0)
                pid = wall.get("pid")
                workers_of_cell[index] = str(pid) if pid is not None else "?"
            elif kind == "pmap_finish" and open_frame:
                open_frame = False
                by_worker: dict[str, list[float]] = {}
                for index, dur in cells.items():
                    by_worker.setdefault(workers_of_cell[index], []).append(dur)
                slices = [
                    WorkerSlice(worker=w, cells=len(durs), busy_s=sum(durs))
                    for w, durs in sorted(by_worker.items())
                ]
                calls.append(
                    PmapCall(
                        fn=payload.get("fn", "?"),
                        n_cells=int(payload.get("n_cells", len(cells))),
                        n_executed=int(payload.get("n_executed", len(cells))),
                        n_cache_hits=int(payload.get("n_cache_hits", 0)),
                        workers=int(wall.get("workers", 1) or 1),
                        mode=str(wall.get("mode", "?")),
                        wall_s=float(wall.get("wall_s", 0.0) or 0.0),
                        cell_durations=cells,
                        worker_slices=slices,
                    )
                )
        return calls

    # -- cluster contention ----------------------------------------------

    def cluster_runs(self) -> list[ClusterContention]:
        """One :class:`~repro.cluster.metrics.ClusterContention` per
        simulated scheduler run, folded from its events in stream order."""
        from repro.cluster.metrics import cluster_contention

        runs = []
        opened: dict[str, Any] | None = None  # the run's start payload
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "cluster_run_start":
                opened, n_preempts = payload, 0
                gpus_of: dict[Any, int] = {}
                start_of: dict[Any, float] = {}
                submits, starts, intervals = [], [], []
            elif opened is None:
                continue
            elif kind == "job_submit":
                gpus_of[payload["job_id"]] = int(payload.get("n_gpus", 1))
                submits.append(float(payload["t"]))
            elif kind == "job_start":
                t = start_of[payload["job_id"]] = float(payload["t"])
                starts.append((t, float(payload.get("wait", 0.0))))
            elif kind == "job_preempt":
                n_preempts += 1
            elif kind == "job_finish":
                job_id = payload["job_id"]
                if job_id in start_of:
                    intervals.append((start_of[job_id], float(payload["t"]),
                                      gpus_of.get(job_id, 1)))
            elif kind == "cluster_run_finish":
                runs.append(cluster_contention(
                    str(opened.get("policy", "?")),
                    int(opened.get("n_gpus", 0)),
                    int(opened.get("n_jobs", 0)),
                    float(payload.get("makespan", 0.0)),
                    submits=submits, starts=starts, intervals=intervals,
                    n_preempts=n_preempts,
                ))
                opened = None
        return runs

    # -- cache attribution ------------------------------------------------

    def cache_attribution(self) -> list[CacheAttribution]:
        """Cache hit/miss/store counts per experiment frame.

        Events outside any ``experiment_start``..``experiment_finish``
        frame are attributed to the ``"(run)"`` scope.
        """
        scopes: dict[str, CacheAttribution] = {}
        current = "(run)"

        def bucket(scope: str) -> CacheAttribution:
            if scope not in scopes:
                scopes[scope] = CacheAttribution(scope)
            return scopes[scope]

        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "experiment_start":
                current = str(payload.get("experiment", "?"))
            elif kind == "experiment_finish":
                current = "(run)"
            elif kind == "cache_hit":
                bucket(current).hits += 1
            elif kind == "cache_miss":
                bucket(current).misses += 1
            elif kind == "cache_store":
                bucket(current).stores += 1
        return list(scopes.values())

    # -- resource usage ----------------------------------------------------

    def resource_usage(self) -> list[ResourceUsage]:
        """Per-pid peak RSS and CPU growth from ``resource_sample`` events.

        Workers are distinguished from the coordinator by the ``role``
        the sampler stamped on each sample (``worker`` pids come from the
        pmap pool roster).  Returns one entry per pid, coordinator first.
        """
        per_pid: dict[str, dict[str, Any]] = {}
        for event in self.events:
            if event["kind"] != "resource_sample":
                continue
            wall = event.get("wall", {})
            pid = str(wall.get("pid", "?"))
            slot = per_pid.setdefault(
                pid,
                {
                    "role": str(wall.get("role", "?")),
                    "source": str(wall.get("source", "?")),
                    "n": 0,
                    "peak_rss": 0.0,
                    "cpu_first": None,
                    "cpu_last": None,
                },
            )
            slot["n"] += 1
            slot["peak_rss"] = max(
                slot["peak_rss"], float(wall.get("rss_bytes", 0.0) or 0.0)
            )
            cpu = wall.get("cpu_s")
            if cpu is not None:
                if slot["cpu_first"] is None:
                    slot["cpu_first"] = float(cpu)
                slot["cpu_last"] = float(cpu)

        def order(item: tuple[str, dict[str, Any]]) -> tuple[int, str]:
            return (0 if item[1]["role"] == "coordinator" else 1, item[0])

        out: list[ResourceUsage] = []
        for pid, slot in sorted(per_pid.items(), key=order):
            first, last = slot["cpu_first"], slot["cpu_last"]
            out.append(
                ResourceUsage(
                    pid=pid,
                    role=slot["role"],
                    source=slot["source"],
                    n_samples=slot["n"],
                    peak_rss_bytes=slot["peak_rss"],
                    cpu_s=(last - first) if first is not None else 0.0,
                )
            )
        return out

    def span_resources(self) -> dict[str, dict[str, Any]]:
        """Peak RSS attributed to the innermost span open at each sample.

        Samples arriving outside any span are attributed to ``"(run)"``.
        Only the coordinator's own samples count toward a span (worker
        processes outlive span boundaries), so this answers "which region
        of the run was resident memory highest in?".
        """
        open_paths: list[str] = []
        out: dict[str, dict[str, Any]] = {}
        for event in self.events:
            kind = event["kind"]
            payload = event.get("payload", {})
            if kind == "span_start":
                open_paths.append(payload.get("path", payload.get("span", "?")))
            elif kind == "span_end":
                path = payload.get("path")
                if path in open_paths:
                    del open_paths[open_paths.index(path):]
            elif kind == "resource_sample":
                wall = event.get("wall", {})
                if wall.get("role") not in (None, "coordinator"):
                    continue
                scope = open_paths[-1] if open_paths else "(run)"
                slot = out.setdefault(
                    scope, {"n_samples": 0, "peak_rss_bytes": 0.0}
                )
                slot["n_samples"] += 1
                slot["peak_rss_bytes"] = max(
                    slot["peak_rss_bytes"],
                    float(wall.get("rss_bytes", 0.0) or 0.0),
                )
        return out

    # -- experiments and summary ------------------------------------------

    def experiment_timings(self) -> dict[str, dict[str, Any]]:
        """Per-experiment wall time and verdict from the run framing events."""
        out: dict[str, dict[str, Any]] = {}
        for event in self.events:
            if event["kind"] != "experiment_finish":
                continue
            payload = event.get("payload", {})
            exp = str(payload.get("experiment", "?"))
            out[exp] = {
                "wall_s": float(event.get("wall", {}).get("dur_s", 0.0) or 0.0),
                "passed": payload.get("passed"),
            }
        return out

    def summary(self) -> dict[str, Any]:
        """The whole analysis as one JSON-able document."""
        calls = self.pmap_calls()
        total_cells = sum(c.n_cells for c in calls)
        executed = sum(c.n_executed for c in calls)
        utilizations = [c.utilization for c in calls if c.wall_s > 0]
        return {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "n_events": len(self.events),
            "truncated": self.truncated,
            "kinds": self.kinds(),
            "experiments": self.experiment_timings(),
            "critical_path": self.critical_path(),
            "pmap": {
                "n_calls": len(calls),
                "n_cells": total_cells,
                "n_executed": executed,
                "n_cache_hits": sum(c.n_cache_hits for c in calls),
                "mean_utilization": (
                    sum(utilizations) / len(utilizations) if utilizations else 0.0
                ),
                "n_stragglers": sum(len(c.stragglers()) for c in calls),
                "calls": [c.as_dict() for c in calls],
            },
            "cluster": [run.as_dict() for run in self.cluster_runs()],
            "cache": [a.as_dict() for a in self.cache_attribution()],
            "resources": {
                "per_pid": [u.as_dict() for u in self.resource_usage()],
                "per_span": self.span_resources(),
            },
        }


# ---------------------------------------------------------------------------
# Text renderers (used by ``repro trace``; returned, never printed)


def render_summary(reader: TraceReader) -> str:
    """The headline view: stream shape, experiments, cache attribution."""
    blocks: list[str] = []
    head = Table(["field", "value"], title="trace summary", decimals=4)
    head.add_row(["source", reader.source or "(in-memory)"])
    head.add_row(["events", len(reader)])
    head.add_row(["truncated tail", reader.truncated])
    for kind, count in reader.kinds().items():
        head.add_row([f"kind: {kind}", count])
    blocks.append(head.render())

    timings = reader.experiment_timings()
    if timings:
        exps = Table(["experiment", "wall s", "passed"],
                     title="experiments", decimals=3)
        for exp, info in timings.items():
            passed = info["passed"]
            exps.add_row([exp, info["wall_s"],
                          "-" if passed is None else passed])
        blocks.append(exps.render())

    attribution = reader.cache_attribution()
    if any(a.lookups or a.stores for a in attribution):
        cache = Table(["scope", "hits", "misses", "stores", "hit rate"],
                      title="cache attribution", decimals=3)
        for a in attribution:
            cache.add_row([a.scope, a.hits, a.misses, a.stores, a.hit_rate])
        blocks.append(cache.render())
    return "\n\n".join(blocks)


def render_utilization(reader: TraceReader) -> str:
    """Per-pmap-call worker utilization plus cluster contention tables."""
    blocks: list[str] = []
    calls = reader.pmap_calls()
    if calls:
        table = Table(
            ["fn", "cells", "workers", "mode", "wall s", "busy s",
             "util", "p95 cell s", "stragglers"],
            title="pmap utilization", decimals=3,
        )
        for call in calls:
            table.add_row([
                call.fn.rsplit(".", 1)[-1], call.n_cells, call.workers,
                call.mode, call.wall_s, call.busy_s, call.utilization,
                call.p95_cell_s, len(call.stragglers()),
            ])
        blocks.append(table.render())
        workers = Table(
            ["fn", "worker", "cells", "busy s", "idle frac"],
            title="per-worker timeline", decimals=3,
        )
        for call in calls:
            for w in call.worker_slices:
                workers.add_row([
                    call.fn.rsplit(".", 1)[-1], w.worker, w.cells,
                    w.busy_s, w.idle_fraction(call.wall_s),
                ])
        if workers.rows:
            blocks.append(workers.render())
    runs = reader.cluster_runs()
    if runs:
        table = Table(
            ["policy", "jobs", "GPUs", "makespan h", "util",
             "tail util", "peak queue", "p95 wait h", "preempts"],
            title="cluster contention", decimals=3,
        )
        for run in runs:
            table.add_row([
                run.policy, run.n_jobs, run.n_gpus, run.makespan,
                run.utilization, run.tail_utilization,
                run.peak_queue_depth, run.p95_wait, run.n_preempts,
            ])
        blocks.append(table.render())
    usage = reader.resource_usage()
    if usage:
        table = Table(
            ["pid", "role", "source", "samples", "peak RSS MB", "cpu s"],
            title="resource usage (sampled)", decimals=3,
        )
        for u in usage:
            table.add_row([
                u.pid, u.role, u.source, u.n_samples,
                u.peak_rss_bytes / (1024 * 1024), u.cpu_s,
            ])
        blocks.append(table.render())
        spans = reader.span_resources()
        if spans:
            table = Table(
                ["span", "samples", "peak RSS MB"],
                title="peak RSS by span", decimals=3,
            )
            for path, slot in sorted(
                spans.items(),
                key=lambda kv: kv[1]["peak_rss_bytes"], reverse=True,
            ):
                table.add_row([
                    path, slot["n_samples"],
                    slot["peak_rss_bytes"] / (1024 * 1024),
                ])
            blocks.append(table.render())
    if not blocks:
        return "no pmap, cluster, or resource events in this trace"
    return "\n\n".join(blocks)


def render_critical_path(reader: TraceReader) -> str:
    """The dominant root-to-leaf span chain as a table."""
    hops = reader.critical_path()
    if not hops:
        return "no spans in this trace"
    table = Table(["span path", "total s", "self s", "of root"],
                  title="critical path", decimals=3)
    for hop in hops:
        table.add_row([
            hop["path"], hop["dur_s"] if hop["dur_s"] is not None else 0.0,
            hop["self_s"], f"{100 * hop['fraction']:.0f}%",
        ])
    return table.render()
