"""The serve stack's structured access log — one JSONL line per event.

Request traces (:mod:`repro.obs.context`) answer "which hops did this
request take"; the access log answers "what did the *server* see".  Two
record kinds share one append-only file, ``<root>/access.jsonl``:

``kind="request"``
    One line per HTTP request, written by the handler thread as the
    response goes out: trace ids, method, path, HTTP status, the run it
    touched, cache/coalesced flags, and the request's wall time.
``kind="terminal"``
    One line per *executed* run reaching a terminal state (done, failed,
    cancelled), written by the :class:`~repro.serve.queue.JobQueue`
    coordinator: the run id, every trace_id that joined the execution
    (coalesced requests share one run — this is the audit trail), the
    queue latency, and the execution wall time.

The file is a :mod:`repro.obs.jsonl` stream, so handler threads and the
drainer thread interleave whole lines, never bytes; it rotates to
``access.jsonl.1`` at ``max_bytes`` (default 4 MiB,
``REPRO_ACCESS_LOG_MAX_BYTES`` overrides, ``0`` disables), bounding disk
use at about two segments.  ``REPRO_OBS_DISABLE=1`` silences the log —
the tracing-overhead benchmark leans on that.

The read side sits here too: :class:`ServeTraceIndex` reads both
segments strictly (:func:`repro.obs.jsonl.read_strict`) and stitches
them to the run directories on ``trace_id``; :func:`render_serve_trace`
and :func:`render_serve_report` are the ``repro trace --serve`` and
``repro serve-report`` text views.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.jsonl import JsonlWriter, TraceError, disabled, read_strict
from repro.obs.metrics import Histogram
from repro.obs.profile import PROFILE_LOG_NAME, ProfileReader
from repro.obs.trace import TraceReader
from repro.utils.tables import Table

__all__ = ["ACCESS_LOG_NAME", "DEFAULT_MAX_BYTES", "AccessLog",
           "ServeTraceIndex", "render_serve_report", "render_serve_trace"]

#: File name of the access log under a serve root.
ACCESS_LOG_NAME = "access.jsonl"

_MAX_BYTES_ENV = "REPRO_ACCESS_LOG_MAX_BYTES"

#: Rotation threshold — small enough that a runaway fleet can't fill the
#: disk, large enough (~10k records) that rotation is rare in normal use.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class AccessLog(JsonlWriter):
    """Append-only JSONL access log for one serve root.

    Examples
    --------
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as root:
    ...     log = AccessLog(os.path.join(root, ACCESS_LOG_NAME))
    ...     record = log.write("request", method="POST", path="/runs")
    ...     record["kind"], record["method"]
    ('request', 'POST')
    """

    def __init__(
        self, path: str | os.PathLike, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is None:
            raw = os.environ.get(_MAX_BYTES_ENV, "")
            try:
                max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        super().__init__(path, max_bytes=max_bytes)

    def write(self, kind: str, **fields: Any) -> dict[str, Any] | None:
        """Append one record; returns it, or ``None`` when disabled.

        ``None``-valued fields are dropped so optional attributes (error,
        run_id on unrouted requests) never clutter the line.
        """
        if disabled():
            return None
        record: dict[str, Any] = {"kind": str(kind), "ts": time.time()}
        record.update({k: v for k, v in fields.items() if v is not None})
        self.append(record, str)
        return record


# ---------------------------------------------------------------------------
# The read side: access log ⋈ run directories


class ServeTraceIndex:
    """Stitch a serve root's access log to its run directories.

    The serving stack leaves two artifact families under one root: the
    ``access.jsonl`` request/terminal lines (:class:`AccessLog`) and one
    run directory per executed run (``events.jsonl``/``results.json``...).
    This index joins them on ``trace_id``: an HTTP request line names the
    trace and the run it touched; the run's terminal line names *every*
    trace that joined the execution (coalescing); the run directory's
    events carry the same trace_id in their volatile half.  Stitching is
    therefore a two-hop walk — trace_id → terminal line → run directory —
    with the request lines as the per-hop timing source.

    Powers ``repro trace --serve <root>`` (per-request timelines) and
    ``repro serve-report`` (fleet aggregates).
    """

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        *,
        root: str | os.PathLike | None = None,
        truncated: bool = False,
        source: str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.truncated = truncated
        self.source = source
        self.requests = [
            dict(r) for r in records if r.get("kind") == "request"
        ]
        self.terminals = [
            dict(r) for r in records if r.get("kind") == "terminal"
        ]
        self._terminal_by_run = {
            str(t["run_id"]): t for t in self.terminals if "run_id" in t
        }
        # Built once: the lookups below are per trace.
        by_trace: dict[Any, list[dict[str, Any]]] = {}
        for request in self.requests:
            by_trace.setdefault(request.get("trace_id"), []).append(request)
        self._requests_by_trace = by_trace
        # A trace's terminal is the first one naming it.
        self._terminal_by_trace: dict[Any, dict[str, Any]] = {}
        for terminal in self.terminals:
            for trace_id in terminal.get("trace_ids", ()):
                self._terminal_by_trace.setdefault(trace_id, terminal)

    @classmethod
    def load(cls, source: str | os.PathLike) -> "ServeTraceIndex":
        """Read ``access.jsonl`` from a serve root directory or file path.

        A rotated segment (``access.jsonl.1``) is read first when
        present, so stitching and fleet aggregates span the rotation
        boundary.
        """
        path, records, truncated = read_strict(
            source, ACCESS_LOG_NAME, "no access log at {path}"
        )
        return cls(
            records, root=path.parent, truncated=truncated, source=str(path)
        )

    def __len__(self) -> int:
        return len(self.requests) + len(self.terminals)

    # -- lookups ------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Every trace_id the log names, in first-appearance order."""
        ids = [t for t in self._requests_by_trace if t]
        return list(dict.fromkeys(map(str, ids + list(self._terminal_by_trace))))

    def requests_of(self, trace_id: str) -> list[dict[str, Any]]:
        """The HTTP request lines recorded under one trace."""
        return list(self._requests_by_trace.get(trace_id, ()))

    def terminal_of(self, trace_id: str) -> dict[str, Any] | None:
        """The terminal line of the run a trace's work landed on.

        A coalesced joiner finds the *shared* run here: its trace_id is
        in the run's ``trace_ids`` even though another trace started it.
        """
        if trace_id in self._terminal_by_trace:
            return self._terminal_by_trace[trace_id]
        for request in self.requests_of(trace_id):
            run_id = request.get("run_id")
            if run_id in self._terminal_by_run:
                return self._terminal_by_run[run_id]
        return None

    def run_dir_of(self, run_id: str) -> Path | None:
        if self.root is None:
            return None
        candidate = self.root / run_id
        return candidate if candidate.is_dir() else None

    # -- stitching -----------------------------------------------------------

    def stitch(self) -> dict[str, dict[str, Any]]:
        """Join every run directory under the root to its trace_ids.

        Returns ``run_id -> {"trace_ids", "state", "run_dir",
        "has_events"}`` covering (a) every run the access log names and
        (b) every run directory on disk that holds an ``events.jsonl``,
        so a run nothing stitched to shows up with empty ``trace_ids`` —
        the CI gate asserts there are none.
        """
        out: dict[str, dict[str, Any]] = {}

        def entry(run_id: str) -> dict[str, Any]:
            if run_id not in out:
                run_dir = self.run_dir_of(run_id)
                out[run_id] = {
                    "trace_ids": [],
                    "state": None,
                    "run_dir": None if run_dir is None else str(run_dir),
                    "has_events": bool(
                        run_dir is not None
                        and (run_dir / "events.jsonl").exists()
                    ),
                }
            return out[run_id]

        for terminal in self.terminals:
            run_id = terminal.get("run_id")
            if not run_id:
                continue
            slot = entry(str(run_id))
            slot["state"] = terminal.get("state")
            for trace_id in terminal.get("trace_ids", ()):
                if trace_id not in slot["trace_ids"]:
                    slot["trace_ids"].append(trace_id)
        for request in self.requests:
            run_id, trace_id = request.get("run_id"), request.get("trace_id")
            if not run_id or not trace_id:
                continue
            # Cache answers never create a directory; only stitch
            # requests that touched a materialized run.
            if self.run_dir_of(str(run_id)) is None:
                continue
            slot = entry(str(run_id))
            if trace_id not in slot["trace_ids"]:
                slot["trace_ids"].append(trace_id)
        if self.root is not None and self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if child.is_dir() and (child / "events.jsonl").exists():
                    entry(child.name)
        return dict(sorted(out.items()))

    def _access_timeline(self, trace_id: str) -> dict[str, Any]:
        """:meth:`timeline` from the access lines alone."""
        requests = self.requests_of(trace_id)
        terminal = self.terminal_of(trace_id)
        run_id = (
            str(terminal["run_id"]) if terminal and terminal.get("run_id")
            else next(
                (str(r["run_id"]) for r in requests if r.get("run_id")), None
            )
        )
        return {
            "trace_id": trace_id,
            "requests": requests,
            "terminal": terminal,
            "run_id": run_id,
            "state": terminal.get("state") if terminal else None,
            "queue_latency_s": (
                terminal.get("queue_latency_s") if terminal else None
            ),
            "execute_wall_s": terminal.get("wall_s") if terminal else None,
            "coalesced": any(r.get("coalesced") for r in requests),
            "cached": any(r.get("cached") for r in requests),
            "critical_path": None,
            "hotspots": None,
        }

    def timeline(self, trace_id: str) -> dict[str, Any]:
        """One request's end-to-end timeline: queue → execute → respond.

        Inlines the run's span critical path when the stitched run
        directory holds a readable event stream.
        """
        timeline = self._access_timeline(trace_id)
        run_id = timeline["run_id"]
        run_dir = self.run_dir_of(run_id) if run_id else None
        if run_dir is not None and (run_dir / "events.jsonl").exists():
            try:
                timeline["critical_path"] = (
                    TraceReader.load(run_dir).critical_path()
                )
            except TraceError:
                pass  # a torn worker stream must not sink the timeline
        if run_dir is not None and (run_dir / PROFILE_LOG_NAME).exists():
            # The run executed under --profile: inline its top hotspots so
            # `repro trace --serve` answers "why was this request slow"
            # down to the function level.
            try:
                profile = ProfileReader.load(run_dir)
                total = profile.total_weight()
                timeline["hotspots"] = [
                    {
                        **h.as_dict(),
                        "self_frac": (
                            h.self_weight / total if total > 0 else 0.0
                        ),
                    }
                    for h in profile.hotspots()[:5]
                ]
            except TraceError:
                pass  # a torn profile stream must not sink the timeline
        return timeline

    # -- fleet aggregates ----------------------------------------------------

    def fleet_report(self) -> dict[str, Any]:
        """Fleet-level aggregates over the whole access log.

        Request/queue latency histograms (with p50/p95/p99), HTTP status
        and run-state breakdowns, per-experiment cache/error attribution,
        and the stitching table — one JSON-able document, the same data
        ``repro serve-report`` renders as text.
        """
        latency = Histogram("serve.request_latency")
        queue_latency = Histogram("serve.queue_latency")
        by_status: dict[str, int] = {}
        per_exp: dict[str, dict[str, int]] = {}

        def exp_slot(exp_id: str) -> dict[str, int]:
            return per_exp.setdefault(
                exp_id,
                {"requests": 0, "cache_hits": 0, "coalesced": 0, "failed": 0},
            )

        n_cached = n_coalesced = 0
        for request in self.requests:
            code = str(request.get("status"))
            by_status[code] = by_status.get(code, 0) + 1
            wall = request.get("wall_s")
            if isinstance(wall, (int, float)) and wall >= 0:
                latency.observe(float(wall))
            cached = bool(request.get("cached"))
            coalesced = bool(request.get("coalesced"))
            n_cached += cached
            n_coalesced += coalesced
            for exp_id in request.get("ids", ()):
                slot = exp_slot(str(exp_id))
                slot["requests"] += 1
                slot["cache_hits"] += cached
                slot["coalesced"] += coalesced
        runs_by_state: dict[str, int] = {}
        for terminal in self.terminals:
            state = str(terminal.get("state"))
            runs_by_state[state] = runs_by_state.get(state, 0) + 1
            queued = terminal.get("queue_latency_s")
            if isinstance(queued, (int, float)) and queued >= 0:
                queue_latency.observe(float(queued))
            if state == "failed":
                for exp_id in terminal.get("ids", ()):
                    exp_slot(str(exp_id))["failed"] += 1
        stitched = self.stitch()
        unstitched = [
            run_id for run_id, slot in stitched.items()
            if not slot["trace_ids"]
        ]
        return {
            "source": self.source,
            "truncated": self.truncated,
            "requests": {
                "total": len(self.requests),
                "by_status": dict(sorted(by_status.items())),
                "cached": n_cached,
                "coalesced": n_coalesced,
            },
            "request_latency": latency.snapshot(),
            "queue_latency": queue_latency.snapshot(),
            "runs": {
                "total": len(self.terminals),
                "by_state": dict(sorted(runs_by_state.items())),
            },
            "experiments": dict(sorted(per_exp.items())),
            "stitching": {
                "n_run_dirs": len(stitched),
                "n_trace_ids": len(self.trace_ids()),
                "unstitched": unstitched,
                "runs": {
                    run_id: slot["trace_ids"]
                    for run_id, slot in stitched.items()
                },
            },
        }


def _render_latency_table(name: str, snapshot: Mapping[str, Any]) -> str:
    """One histogram snapshot as a table: quantiles, then the buckets."""
    table = Table(["field", "value"], title=name, decimals=4)
    table.add_row(["count", snapshot["count"]])
    table.add_row(["sum s", snapshot["sum"]])
    for quantile in ("p50", "p95", "p99"):
        table.add_row([quantile, snapshot[quantile]])
    for bucket in snapshot["buckets"]:
        le = bucket["le"]
        label = le if isinstance(le, str) else f"{le:g}"
        table.add_row([f"le {label}", bucket["count"]])
    return table.render()


def render_serve_trace(
    index: ServeTraceIndex, trace_id: str | None = None
) -> str:
    """Per-request timelines from a serve root's stitched access log.

    Without ``trace_id``: one row per trace — the fleet at a glance,
    from the access lines alone.  With it: that request's hop table,
    queue/execute timing, and the run's critical path inlined.
    """
    if trace_id is None:
        ids = index.trace_ids()
        if not ids:
            return "no traces in this access log"
        table = Table(
            ["trace id", "requests", "run", "state", "queue s",
             "exec s", "flags"],
            title="serve traces", decimals=3,
        )
        for tid in ids:
            timeline = index._access_timeline(tid)
            flags = ",".join(
                flag for flag, on in (
                    ("cached", timeline["cached"]),
                    ("coalesced", timeline["coalesced"]),
                ) if on
            ) or "-"
            table.add_row([
                tid, len(timeline["requests"]),
                timeline["run_id"] or "-", timeline["state"] or "-",
                timeline["queue_latency_s"]
                if timeline["queue_latency_s"] is not None else "-",
                timeline["execute_wall_s"]
                if timeline["execute_wall_s"] is not None else "-",
                flags,
            ])
        return table.render()
    timeline = index.timeline(trace_id)
    if not timeline["requests"] and timeline["terminal"] is None:
        return f"trace {trace_id} not found in this access log"
    blocks: list[str] = []
    head = Table(["field", "value"], title=f"trace {trace_id}", decimals=4)
    head.add_row(["run", timeline["run_id"] or "-"])
    head.add_row(["state", timeline["state"] or "-"])
    head.add_row(["queue latency s", timeline["queue_latency_s"]
                  if timeline["queue_latency_s"] is not None else "-"])
    head.add_row(["execute wall s", timeline["execute_wall_s"]
                  if timeline["execute_wall_s"] is not None else "-"])
    head.add_row(["cached", timeline["cached"]])
    head.add_row(["coalesced", timeline["coalesced"]])
    if timeline["terminal"] is not None:
        head.add_row([
            "joined traces",
            len(timeline["terminal"].get("trace_ids", ())),
        ])
    blocks.append(head.render())
    if timeline["requests"]:
        hops = Table(
            ["method", "path", "status", "wall s"],
            title="request hops", decimals=4,
        )
        for request in timeline["requests"]:
            hops.add_row([
                request.get("method", "?"), request.get("path", "?"),
                request.get("status", "-"), request.get("wall_s", 0.0),
            ])
        blocks.append(hops.render())
    if timeline["critical_path"]:
        path = Table(["span path", "total s", "of root"],
                     title="run critical path", decimals=3)
        for hop in timeline["critical_path"]:
            path.add_row([
                hop["path"], hop["dur_s"] if hop["dur_s"] is not None else 0.0,
                f"{100 * hop['fraction']:.0f}%",
            ])
        blocks.append(path.render())
    if timeline["hotspots"]:
        spots = Table(["function", "file:line", "self s", "self %"],
                      title="run hotspots", decimals=3)
        for h in timeline["hotspots"]:
            spots.add_row([
                h["func"], f"{h['file']}:{h['line']}", h["self_s"],
                f"{100 * h['self_frac']:.1f}",
            ])
        blocks.append(spots.render())
    return "\n\n".join(blocks)


def render_serve_report(index: ServeTraceIndex) -> str:
    """The fleet aggregates as text tables (``repro serve-report``)."""
    report = index.fleet_report()
    blocks: list[str] = []
    head = Table(["field", "value"], title="serve fleet report", decimals=3)
    head.add_row(["source", report["source"] or "(in-memory)"])
    head.add_row(["requests", report["requests"]["total"]])
    for code, count in report["requests"]["by_status"].items():
        head.add_row([f"http {code}", count])
    head.add_row(["cache answers", report["requests"]["cached"]])
    head.add_row(["coalesced joins", report["requests"]["coalesced"]])
    head.add_row(["executed runs", report["runs"]["total"]])
    for state, count in report["runs"]["by_state"].items():
        head.add_row([f"runs {state}", count])
    head.add_row(["run dirs stitched",
                  report["stitching"]["n_run_dirs"]
                  - len(report["stitching"]["unstitched"])])
    head.add_row(["run dirs unstitched",
                  len(report["stitching"]["unstitched"])])
    blocks.append(head.render())
    if report["request_latency"]["count"]:
        blocks.append(_render_latency_table(
            "request latency (s)", report["request_latency"]
        ))
    if report["queue_latency"]["count"]:
        blocks.append(_render_latency_table(
            "queue latency (s)", report["queue_latency"]
        ))
    if report["experiments"]:
        table = Table(
            ["experiment", "requests", "cache hits", "coalesced", "failed"],
            title="per-experiment breakdown", decimals=3,
        )
        for exp_id, slot in report["experiments"].items():
            table.add_row([
                exp_id, slot["requests"], slot["cache_hits"],
                slot["coalesced"], slot["failed"],
            ])
        blocks.append(table.render())
    return "\n\n".join(blocks)
