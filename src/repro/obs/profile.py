"""Per-span CPU profiling: where the time goes *inside* a span.

Spans (:mod:`repro.obs.spans`) say which region of a run was slow; this
module says which *function* inside it.  A perf claim without a
function-level trail is guesswork, so every profiled run records
per-function cost as a machine-checkable artifact (``profile.jsonl``
beside ``events.jsonl``) that ``repro profile`` reads back and
``repro bench --against`` can gate.

Two profilers, one stream
-------------------------
* :class:`SamplingProfiler` (the default, ``--profile``) — a stdlib-only
  daemon thread that periodically captures the target thread's Python
  stack via :func:`sys._current_frames` and emits one ``profile_sample``
  record per tick.  Each sample carries the executing pid/role, the
  active span path from the coordinator's bind stack
  (:func:`repro.obs.spans.current_span_path`), and the stack as
  ``[func, file, line]`` frames, root first.  Cheap enough to leave on
  for a whole run (CI gates the overhead at <5%).
* :class:`DeterministicProfiler` (``--profile=deterministic``) — a
  :mod:`cProfile` fallback wrapped around each experiment, folded into
  ``profile_stat`` records (per-function call counts and
  tottime/cumtime).  Exact call counts, but coordinator-only and no
  stacks, so no flamegraph.

Worker processes
----------------
:func:`repro.parallel.pmap` workers are born with telemetry disabled,
but the profile stream is *volatile by construction*, so workers may
append to it directly: the coordinator publishes the profile file via
``REPRO_OBS_PROFILE_FILE`` (and the enclosing span path via
``REPRO_OBS_PROFILE_SPAN`` at pool-creation time), and the pool
initializer calls :func:`attach_worker_profiler` to start a sampler
inside each worker.  ``profile.jsonl`` is a :mod:`repro.obs.jsonl`
stream of atomic lines, so any number of processes share it.

Determinism contract
--------------------
Profile samples never touch ``events.jsonl``: they live in their own
stream, every measured quantity rides in the volatile ``wall`` half of
each record (payloads stay empty), and
:func:`repro.obs.resources.strip_samples` drops both sample kinds from
in-memory captures.  A profiled run's stripped event stream, canonical
``results.json`` bytes, and request digest are byte-identical to an
unprofiled run's — the test suite enforces all three.

Read side
---------
:class:`ProfileReader` loads ``profile.jsonl`` (strictly, through
:func:`repro.obs.jsonl.read_strict` and
:func:`repro.obs.events.check_schema`) and derives per-span hotspot
tables, per-process splits and collapsed-stack flamegraphs;
:func:`render_hotspots` is the ``repro profile`` text view.

Knobs: ``--profile [sampling|deterministic|SEC]`` on ``repro run`` /
``repro bench``, or ``REPRO_OBS_PROFILE`` (``1``/``sampling`` for the
default cadence, ``deterministic``, or a float interval in seconds).
``REPRO_OBS_DISABLE=1`` silences profiling like every other instrument.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.obs.events import SCHEMA_VERSION, EventLog, check_schema
from repro.obs.jsonl import TraceError, disabled, read_strict
from repro.obs.spans import current_span_path
from repro.utils.tables import Table

__all__ = [
    "PROFILE_KIND",
    "STAT_KIND",
    "PROFILE_LOG_NAME",
    "PROFILE_ENV",
    "PROFILE_FILE_ENV",
    "PROFILE_SPAN_ENV",
    "DEFAULT_INTERVAL_S",
    "SamplingProfiler",
    "DeterministicProfiler",
    "Hotspot",
    "ProfileReader",
    "attach_worker_profiler",
    "render_hotspots",
    "resolve_profile",
    "short_file",
]

#: One periodic stack capture (sampling mode).
PROFILE_KIND = "profile_sample"
#: One per-function cProfile row (deterministic mode).
STAT_KIND = "profile_stat"
#: File name of the profile stream inside a run directory.
PROFILE_LOG_NAME = "profile.jsonl"

#: Default sampling cadence: 5 ms gives a seconds-long smoke experiment
#: hundreds of samples at well under the CI overhead budget.
DEFAULT_INTERVAL_S = 0.005

#: Weight-to-count unit for flamegraph export: one count per default
#: sampler tick, so a 5 ms-interval run exports its raw sample counts.
DEFAULT_FLAME_UNIT_S = DEFAULT_INTERVAL_S

#: Stacks deeper than this are truncated at the root end — the leaf
#: (the executing function) is what hotspot attribution needs.
MAX_STACK_DEPTH = 80

#: cProfile rows kept per span, largest self-time first (a NumPy-heavy
#: experiment touches thousands of functions; the tail is noise).
MAX_STAT_ROWS = 300

PROFILE_ENV = "REPRO_OBS_PROFILE"
#: Published by the coordinator for the lifetime of a file-backed
#: profiled run so pool initializers can attach worker samplers.
PROFILE_FILE_ENV = "REPRO_OBS_PROFILE_FILE"
#: The span path open at pool-creation time, stamped on worker samples.
PROFILE_SPAN_ENV = "REPRO_OBS_PROFILE_SPAN"


def resolve_profile(value: Any = None) -> tuple[str, float] | None:
    """Normalize a profile knob to ``(mode, interval_s)`` or ``None`` (off).

    ``None`` defers to the ``REPRO_OBS_PROFILE`` environment variable.
    Accepted values: ``"sampling"``/``"1"`` (default cadence),
    ``"deterministic"`` (cProfile, interval 0), or a positive float —
    a sampling interval in seconds.  The ``REPRO_OBS_DISABLE=1`` kill
    switch turns profiling off like every other instrument.
    """
    if disabled():
        return None
    if value is None:
        value = os.environ.get(PROFILE_ENV, "").strip()
        if not value:
            return None
    text = str(value).strip().lower()
    if text in ("", "0", "off", "none", "false"):
        return None
    if text == "deterministic":
        return ("deterministic", 0.0)
    if text in ("1", "sampling", "on", "true"):
        return ("sampling", DEFAULT_INTERVAL_S)
    try:
        interval = float(text)
    except ValueError:
        return ("sampling", DEFAULT_INTERVAL_S)
    if interval <= 0:
        return None
    return ("sampling", interval)


def short_file(path: str) -> str:
    """The last two path components — stable across machines and checkouts."""
    parts = str(path).replace("\\", "/").split("/")
    return "/".join(parts[-2:])


def capture_stack(
    thread_ident: int, *, max_depth: int = MAX_STACK_DEPTH
) -> list[list[Any]] | None:
    """The Python stack of one thread as ``[func, file, line]`` frames.

    Root first, leaf (the currently executing function) last — the
    orientation collapsed-stack flamegraph lines use.  Returns ``None``
    when the thread has no frame (it exited between ticks).
    """
    frame = sys._current_frames().get(thread_ident)
    if frame is None:
        return None
    stack: list[list[Any]] = []
    while frame is not None and len(stack) < max_depth:
        code = frame.f_code
        stack.append([code.co_name, short_file(code.co_filename), code.co_firstlineno])
        frame = frame.f_back
    stack.reverse()
    return stack


class SamplingProfiler:
    """Daemon thread emitting periodic ``profile_sample`` records.

    Parameters
    ----------
    interval_s:
        Seconds between stack captures.
    log:
        Event sink (an :class:`EventLog` or a path).  The profiler writes
        through the log directly — never the module-level emitter — so
        samples keep flowing inside :func:`repro.obs.quiet` blocks and in
        worker processes born with ``REPRO_OBS_DISABLE=1``.
    role:
        ``"coordinator"`` or ``"worker"``, stamped on every sample so the
        read side can split hotspots per process.
    span:
        A fixed span path to stamp (workers, whose processes have no
        bind stack), or ``None`` to read the live
        :func:`current_span_path` at each tick (the coordinator).

    The profiled thread is the one that calls :meth:`start`.

    Examples
    --------
    >>> log = EventLog()
    >>> with SamplingProfiler(interval_s=0.001, log=log):
    ...     _ = sum(i * i for i in range(200_000))
    >>> all(r["kind"] == "profile_sample" for r in log.records)
    True
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        log: Any = None,
        *,
        role: str = "coordinator",
        span: str | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        if log is not None and not isinstance(log, EventLog):
            log = EventLog(log)
        self._log = log
        self.role = str(role)
        self._span: Callable[[], str] = (
            current_span_path if span is None else (lambda: span)
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_ident: int | None = None
        self.n_samples = 0

    def _tick(self) -> None:
        log, ident = self._log, self._target_ident
        if log is None or ident is None:
            return
        stack = capture_stack(ident)
        if stack is None:
            return
        self.n_samples += 1
        log.emit(
            PROFILE_KIND,
            payload={},
            wall={
                "pid": os.getpid(),
                "role": self.role,
                "span": self._span(),
                "stack": stack,
                "interval_s": self.interval_s,
            },
        )

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._tick()

    def start(self) -> "SamplingProfiler":
        """Profile the calling thread until :meth:`stop` (idempotent)."""
        if self._thread is not None:
            return self
        if self._log is None:
            from repro.obs.events import get_logger

            self._log = get_logger()
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 100 * self.interval_s))
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class DeterministicProfiler:
    """cProfile fallback: exact per-function costs, coordinator-only.

    :meth:`profile` wraps one region (``repro run`` wraps each
    experiment) in a :class:`cProfile.Profile` and folds the stats into
    ``profile_stat`` records — one per function, largest self-time
    first, capped at :data:`MAX_STAT_ROWS`.  No stacks are recorded, so
    deterministic runs have hotspot tables but no flamegraph.
    """

    def __init__(self, log: Any) -> None:
        if log is not None and not isinstance(log, EventLog):
            log = EventLog(log)
        self._log = log

    @contextmanager
    def profile(self, span: str) -> Iterator[None]:
        """Profile the enclosed block, attributing every row to ``span``."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            self._flush(profiler, span)

    def _flush(self, profiler: cProfile.Profile, span: str) -> None:
        if self._log is None:
            return
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        rows = sorted(
            stats.items(), key=lambda item: item[1][2], reverse=True
        )[:MAX_STAT_ROWS]
        pid = os.getpid()
        for (file, line, func), (cc, nc, tt, ct, _callers) in rows:
            self._log.emit(
                STAT_KIND,
                payload={},
                wall={
                    "pid": pid,
                    "role": "coordinator",
                    "span": span,
                    "func": func,
                    "file": short_file(file),
                    "line": int(line),
                    "ncalls": int(nc),
                    "tottime_s": float(tt),
                    "cumtime_s": float(ct),
                },
            )


# ---------------------------------------------------------------------------
# Worker-side attach (called from the pmap pool initializer)

# Keep attached samplers referenced for the worker process's lifetime —
# the daemon thread dies with the process, no teardown needed.
_worker_profilers: list[SamplingProfiler] = []


def attach_worker_profiler() -> SamplingProfiler | None:
    """Start a worker-role sampler when the coordinator published one.

    Reads ``REPRO_OBS_PROFILE_FILE`` (the shared ``profile.jsonl``,
    appended with atomic lines so any number of workers interleave
    safely), the interval from ``REPRO_OBS_PROFILE``, and the enclosing
    span path from ``REPRO_OBS_PROFILE_SPAN``.  A no-op unless the
    coordinator is running a file-backed sampling profile.
    """
    path = os.environ.get(PROFILE_FILE_ENV, "")
    if not path:
        return None
    # The coordinator publishes PROFILE_FILE_ENV only for file-backed
    # sampling runs, with PROFILE_ENV holding the resolved interval; the
    # profile stream is volatile by construction, so attach regardless
    # of the REPRO_OBS_DISABLE=1 the worker initializer sets.
    try:
        interval = float(os.environ.get(PROFILE_ENV, ""))
    except ValueError:
        interval = DEFAULT_INTERVAL_S
    if interval <= 0:
        interval = DEFAULT_INTERVAL_S
    profiler = SamplingProfiler(
        interval,
        log=EventLog(path),
        role="worker",
        span=os.environ.get(PROFILE_SPAN_ENV, ""),
    )
    profiler.start()
    _worker_profilers.append(profiler)
    return profiler


# ---------------------------------------------------------------------------
# The read side: hotspot analytics over profile.jsonl


@dataclass
class Hotspot:
    """One function's aggregated cost across a profile stream.

    Weights are approximate CPU seconds: in sampling mode each stack
    capture contributes its sampling interval, in deterministic mode the
    cProfile ``tottime``/``cumtime`` are used directly.  ``self_weight``
    counts only samples whose *leaf* frame is this function (exclusive
    time); ``total_weight`` counts every sample the function appears in
    anywhere on the stack (inclusive time, recursion-safe).
    """

    func: str
    file: str
    line: int
    self_weight: float = 0.0
    total_weight: float = 0.0
    # Exclusive weight split per sampled process, keyed "role:pid" —
    # the per-worker view of where a pmap-heavy span burns its time.
    by_process: dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The line-number-free identity used by the hotspot baseline gate
        (edits above a function must not churn its baseline key)."""
        return f"{self.file}:{self.func}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "func": self.func,
            "file": self.file,
            "line": self.line,
            "self_s": self.self_weight,
            "total_s": self.total_weight,
            "by_process": dict(sorted(self.by_process.items())),
        }


class ProfileReader:
    """Load one ``profile.jsonl`` stream and derive hotspot analytics.

    Construct with :meth:`load` (a path to ``profile.jsonl`` or to the
    run directory that contains it) or :meth:`from_records` (in-memory
    records from a :class:`repro.obs.events.EventLog`).  Handles both
    record kinds the write side emits: ``profile_sample`` stacks from the
    sampling profiler (coordinator and pmap workers interleaved in one
    stream) and ``profile_stat`` rows from the deterministic cProfile
    fallback.

    Span filters accept a path prefix: ``span="E6"`` matches samples
    stamped ``E6`` *and* any nested span under it (``E6/sweep/...``), so
    one experiment's whole subtree aggregates naturally.
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
        self.samples = [e for e in self.events if e["kind"] == PROFILE_KIND]
        self.stats = [e for e in self.events if e["kind"] == STAT_KIND]

    @classmethod
    def load(cls, source: str | os.PathLike) -> "ProfileReader":
        """Read ``profile.jsonl`` from a file path or a run directory."""
        path, records, truncated = read_strict(
            source,
            PROFILE_LOG_NAME,
            "no profile stream at {path} — record one with "
            "'repro run ... --profile'",
        )
        return cls(records, truncated=truncated, source=str(path))

    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, Any]]
    ) -> "ProfileReader":
        """Wrap already-parsed profile records (validated the same way)."""
        return cls(records)

    def __len__(self) -> int:
        return len(self.samples) + len(self.stats)

    @property
    def mode(self) -> str:
        """``sampling``, ``deterministic``, or ``empty`` (no ticks landed)."""
        if self.samples:
            return "sampling"
        return "deterministic" if self.stats else "empty"

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    # -- span bookkeeping --------------------------------------------------

    @staticmethod
    def _span_of(wall: Mapping[str, Any]) -> str:
        return str(wall.get("span") or "") or "(run)"

    @staticmethod
    def _span_matches(span_filter: str | None, span: str) -> bool:
        if span_filter is None:
            return True
        return span == span_filter or span.startswith(span_filter + "/")

    @staticmethod
    def _sample_weight(wall: Mapping[str, Any]) -> float:
        interval = wall.get("interval_s")
        try:
            weight = float(interval) if interval is not None else 0.0
        except (TypeError, ValueError):
            weight = 0.0
        return weight if weight > 0 else 1.0

    def _weight(self, event: Mapping[str, Any]) -> float:
        """A sample's interval, or a stat row's exclusive time."""
        wall = event.get("wall", {})
        if event["kind"] == PROFILE_KIND:
            return self._sample_weight(wall)
        return float(wall.get("tottime_s", 0.0) or 0.0)

    def spans(self) -> dict[str, float]:
        """Exclusive weight per span path, heaviest first.

        Span paths are the *innermost* paths the profiler stamped;
        experiment-level aggregation happens via the prefix-matching
        span filters on :meth:`hotspots`/:meth:`shares`.
        """
        out: dict[str, float] = {}
        for event in self.samples + self.stats:
            span = self._span_of(event.get("wall", {}))
            out[span] = out.get(span, 0.0) + self._weight(event)
        return dict(sorted(out.items(), key=lambda kv: kv[1], reverse=True))

    def total_weight(self, span: str | None = None) -> float:
        """The sum of exclusive weights inside a span subtree (or the run)."""
        return sum(
            weight
            for path, weight in self.spans().items()
            if self._span_matches(span, path)
        )

    # -- hotspots ----------------------------------------------------------

    def hotspots(self, span: str | None = None) -> list[Hotspot]:
        """Per-function costs inside a span subtree, largest self first."""
        table: dict[tuple[str, str, int], Hotspot] = {}

        def slot(func: str, file: str, line: int) -> Hotspot:
            key = (func, file, line)
            if key not in table:
                table[key] = Hotspot(func=func, file=file, line=line)
            return table[key]

        for event in self.samples:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            stack = wall.get("stack") or []
            if not stack:
                continue
            weight = self._sample_weight(wall)
            process = f"{wall.get('role', '?')}:{wall.get('pid', '?')}"
            func, file, line = stack[-1]
            leaf = slot(str(func), str(file), int(line))
            leaf.self_weight += weight
            leaf.by_process[process] = leaf.by_process.get(process, 0.0) + weight
            seen: set[tuple[str, str, int]] = set()
            for func, file, line in stack:
                frame = (str(func), str(file), int(line))
                if frame in seen:
                    continue  # recursion: inclusive time counts once
                seen.add(frame)
                slot(*frame).total_weight += weight
        for event in self.stats:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            process = f"{wall.get('role', '?')}:{wall.get('pid', '?')}"
            entry = slot(
                str(wall.get("func", "?")),
                str(wall.get("file", "?")),
                int(wall.get("line", 0) or 0),
            )
            tottime = float(wall.get("tottime_s", 0.0) or 0.0)
            entry.self_weight += tottime
            entry.total_weight += float(wall.get("cumtime_s", 0.0) or 0.0)
            entry.by_process[process] = (
                entry.by_process.get(process, 0.0) + tottime
            )
        return sorted(
            table.values(),
            key=lambda h: (-h.self_weight, -h.total_weight, h.key),
        )

    def shares(
        self, span: str | None = None, top: int | None = None
    ) -> dict[str, float]:
        """Each function's fraction of a span's exclusive weight.

        Keyed by the line-free :attr:`Hotspot.key`; rows for the same
        function at different lines merge.  This is the quantity the
        :class:`repro.obs.baseline.HotspotBaseline` gate records and
        compares.
        """
        total = self.total_weight(span)
        if total <= 0:
            return {}
        merged: dict[str, float] = {}
        for hotspot in self.hotspots(span):
            merged[hotspot.key] = merged.get(hotspot.key, 0.0) + (
                hotspot.self_weight / total
            )
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        if top is not None:
            ranked = ranked[:top]
        return dict(ranked)

    def processes(self, span: str | None = None) -> list[dict[str, Any]]:
        """Per-process sample totals: the coordinator/worker split."""
        out: dict[str, dict[str, Any]] = {}
        for event in self.samples + self.stats:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            key = f"{wall.get('role', '?')}:{wall.get('pid', '?')}"
            slot = out.setdefault(
                key,
                {
                    "pid": str(wall.get("pid", "?")),
                    "role": str(wall.get("role", "?")),
                    "n_samples": 0,
                    "weight_s": 0.0,
                },
            )
            slot["n_samples"] += 1
            slot["weight_s"] += self._weight(event)

        def order(slot: dict[str, Any]) -> tuple[int, str]:
            return (0 if slot["role"] == "coordinator" else 1, slot["pid"])

        return sorted(out.values(), key=order)

    # -- flamegraph export -------------------------------------------------

    def collapsed(self, span: str | None = None) -> dict[str, float]:
        """Collapsed stacks: ``"frame;frame;frame" -> weight``.

        Sampling mode only — deterministic cProfile rows carry no stacks,
        so they collapse to nothing (callers should check :attr:`mode`).
        """
        out: dict[str, float] = {}
        for event in self.samples:
            wall = event.get("wall", {})
            if not self._span_matches(span, self._span_of(wall)):
                continue
            stack = wall.get("stack") or []
            if not stack:
                continue
            label = ";".join(
                f"{func} ({file}:{line})".replace(";", ",")
                for func, file, line in stack
            )
            out[label] = out.get(label, 0.0) + self._sample_weight(wall)
        return out

    def flamegraph(self, span: str | None = None) -> str:
        """The stream in collapsed-stack format (flamegraph.pl / speedscope).

        One ``stack count`` line per unique stack; counts are sample
        counts scaled back out of the weights, so the file stays valid
        for tooling that expects integers.  Deterministic-mode streams
        carry no stacks, so asking them for a flamegraph is an error,
        not an empty file.
        """
        if self.stats and not self.samples:
            raise TraceError(
                "deterministic profiles carry no stacks — record with "
                "'--profile' (sampling mode) for a flamegraph"
            )
        lines = []
        for label, weight in sorted(self.collapsed(span).items()):
            count = max(1, round(weight / DEFAULT_FLAME_UNIT_S))
            lines.append(f"{label} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- summary -----------------------------------------------------------

    def summary(self, top: int = 10) -> dict[str, Any]:
        """The whole profile analysis as one JSON-able document."""
        total = self.total_weight()
        return {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "mode": self.mode,
            "truncated": self.truncated,
            "n_samples": self.n_samples,
            "n_stat_rows": len(self.stats),
            "total_weight_s": total,
            "spans": self.spans(),
            "processes": self.processes(),
            "hotspots": [
                {
                    **h.as_dict(),
                    "self_frac": h.self_weight / total if total > 0 else 0.0,
                    "total_frac": h.total_weight / total if total > 0 else 0.0,
                }
                for h in self.hotspots()[:top]
            ],
        }


def render_hotspots(
    profile: ProfileReader, *, top: int = 10, span: str | None = None
) -> str:
    """Per-span hotspot tables (``repro profile``); returned, never printed."""
    blocks: list[str] = []
    head = Table(["field", "value"], title="profile summary", decimals=4)
    head.add_row(["source", profile.source or "(in-memory)"])
    head.add_row(["mode", profile.mode])
    head.add_row(["samples", profile.n_samples])
    if profile.stats:
        head.add_row(["stat rows", len(profile.stats)])
    head.add_row(["truncated tail", profile.truncated])
    if span is not None:
        head.add_row(["span filter", span])
    blocks.append(head.render())

    if profile.mode == "empty":
        blocks.append(
            "no profile ticks landed — the run finished inside one sampling "
            "interval; lower the interval (--profile 0.001) or use "
            "--profile deterministic"
        )
        return "\n\n".join(blocks)

    spans = {
        path: weight
        for path, weight in profile.spans().items()
        if profile._span_matches(span, path)
    }
    run_total = sum(spans.values())
    if len(spans) > 1:
        table = Table(["span", "self s", "share"], title="spans", decimals=3)
        for path, weight in spans.items():
            table.add_row([
                path, weight,
                f"{100 * weight / run_total:.0f}%" if run_total > 0 else "-",
            ])
        blocks.append(table.render())

    total = profile.total_weight(span)
    hotspots = profile.hotspots(span)[:top]
    if hotspots:
        table = Table(
            ["function", "file:line", "self s", "self %", "total %", "procs"],
            title="hotspots" if span is None else f"hotspots — {span}",
            decimals=3,
        )
        for h in hotspots:
            table.add_row([
                h.func, f"{h.file}:{h.line}", h.self_weight,
                f"{100 * h.self_weight / total:.1f}" if total > 0 else "-",
                f"{100 * min(1.0, h.total_weight / total):.1f}"
                if total > 0 else "-",
                len(h.by_process),
            ])
        blocks.append(table.render())

    processes = profile.processes(span)
    if len(processes) > 1:
        table = Table(
            ["process", "role", "samples", "weight s", "share"],
            title="per-process split", decimals=3,
        )
        for slot in processes:
            table.add_row([
                slot["pid"], slot["role"], slot["n_samples"], slot["weight_s"],
                f"{100 * slot['weight_s'] / total:.0f}%" if total > 0 else "-",
            ])
        blocks.append(table.render())
    return "\n\n".join(blocks)
