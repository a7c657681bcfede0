"""``repro watch``: follow a run's event stream while it is happening.

The paper's end-of-program GPU crunch (§3–§4) went unnoticed because
monitoring was retrospective — the telemetry existed only as something to
read *after* the fact.  This module closes the loop: a
:class:`EventFollower` tails a run's ``events.jsonl`` incrementally
under the :mod:`repro.obs.jsonl` read rule, a :class:`WatchState` folds
the records into a live picture of the run, and :func:`watch_run` renders
that picture in place until the run finishes.

Everything here is read-only and works on a run driven by *another*
process — the normal use is ``repro run … --out DIR`` in one terminal and
``repro watch DIR`` in a second.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Mapping

from repro.obs.jsonl import JsonlFollower

__all__ = [
    "EventFollower",
    "WatchState",
    "render_frame",
    "resolve_run_dir",
    "watch_run",
]

#: Clear the screen and home the cursor (used between in-place frames).
_ANSI_HOME_CLEAR = "\x1b[H\x1b[J"

_BAR_WIDTH = 28


class EventFollower(JsonlFollower):
    """A :class:`~repro.obs.jsonl.JsonlFollower` over a run's event stream.

    Accepts the run directory or the ``events.jsonl`` path.  Corrupt
    complete lines are counted in :attr:`n_corrupt` rather than raised —
    a live view should degrade, not die.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        path = Path(path)
        super().__init__(path / "events.jsonl" if path.is_dir() else path)

    @property
    def n_corrupt(self) -> int:
        return len(self.corrupt)


@dataclass
class WatchState:
    """The run picture folded from the event stream so far."""

    started: bool = False
    finished: bool = False
    smoke: bool | None = None
    planned: list[str] = field(default_factory=list)
    #: experiment id -> {"status": pending|running|done, "passed", "wall_s"}
    experiments: dict[str, dict[str, Any]] = field(default_factory=dict)
    current_experiment: str | None = None
    #: the in-flight pmap call, or None
    pmap: dict[str, Any] | None = None
    pmap_calls: int = 0
    cells_done: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: pid -> latest/peak resource numbers
    resources: dict[str, dict[str, Any]] = field(default_factory=dict)
    n_events: int = 0
    last_kind: str = "-"

    def update(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self._apply(record)

    def _slot(self, exp_id: str) -> dict[str, Any]:
        return self.experiments.setdefault(
            exp_id, {"status": "pending", "passed": None, "wall_s": None}
        )

    def _apply(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind", "?")
        payload = record.get("payload", {})
        wall = record.get("wall", {})
        self.n_events += 1
        self.last_kind = kind
        if kind == "run_start":
            self.started = True
            self.smoke = payload.get("smoke")
            self.planned = [str(e) for e in payload.get("experiments", [])]
            for exp_id in self.planned:
                self._slot(exp_id)
        elif kind == "run_finish":
            self.finished = True
            self.current_experiment = None
        elif kind == "experiment_start":
            exp_id = str(payload.get("experiment", "?"))
            self.current_experiment = exp_id
            self._slot(exp_id)["status"] = "running"
        elif kind == "experiment_finish":
            exp_id = str(payload.get("experiment", "?"))
            slot = self._slot(exp_id)
            slot["status"] = "done"
            slot["passed"] = payload.get("passed")
            slot["wall_s"] = wall.get("dur_s")
            if self.current_experiment == exp_id:
                self.current_experiment = None
        elif kind == "pmap_start":
            self.pmap_calls += 1
            self.pmap = {
                "fn": str(payload.get("fn", "?")),
                "n_cells": int(payload.get("n_cells", 0)),
                "done": 0,
            }
        elif kind == "cell_finish":
            if self.pmap is not None:
                self.pmap["done"] += 1
            self.cells_done += 1
        elif kind == "pmap_finish":
            self.pmap = None
        elif kind == "cache_hit":
            self.cache_hits += 1
        elif kind == "cache_miss":
            self.cache_misses += 1
        elif kind == "resource_sample":
            pid = str(wall.get("pid", "?"))
            slot = self.resources.setdefault(
                pid,
                {
                    "role": str(wall.get("role", "?")),
                    "rss_bytes": 0.0,
                    "peak_rss_bytes": 0.0,
                    "cpu_s": 0.0,
                },
            )
            rss = float(wall.get("rss_bytes", 0.0) or 0.0)
            slot["rss_bytes"] = rss
            slot["peak_rss_bytes"] = max(slot["peak_rss_bytes"], rss)
            slot["cpu_s"] = float(wall.get("cpu_s", 0.0) or 0.0)


def _bar(done: int, total: int, width: int = _BAR_WIDTH) -> str:
    if total <= 0:
        return "-" * width
    filled = min(width, round(width * done / total))
    return "#" * filled + "-" * (width - filled)


def _mb(n_bytes: float) -> str:
    return f"{n_bytes / (1024 * 1024):.1f}"


def render_frame(state: WatchState, source: str = "") -> str:
    """One text frame of the live view (returned, never printed)."""
    lines: list[str] = []
    status = (
        "finished" if state.finished
        else "running" if state.started
        else "waiting for events"
    )
    tier = (
        "" if state.smoke is None
        else f" · {'smoke' if state.smoke else 'default'} tier"
    )
    lines.append(f"repro watch — {source or '(stream)'}")
    lines.append(
        f"run {status}{tier} · {state.n_events} events · last: {state.last_kind}"
    )

    if state.experiments:
        n_done = sum(
            1 for s in state.experiments.values() if s["status"] == "done"
        )
        lines.append("")
        lines.append(
            f"experiments [{_bar(n_done, len(state.experiments))}] "
            f"{n_done}/{len(state.experiments)}"
        )
        for exp_id, slot in state.experiments.items():
            if slot["status"] == "done":
                passed = slot["passed"]
                glyph = "ok " if passed else ("-- " if passed is None else "FAIL")
                wall = f"{slot['wall_s']:.1f}s" if slot["wall_s"] else ""
                lines.append(f"  {glyph:4s} {exp_id:<4s} {wall}")
            elif slot["status"] == "running":
                lines.append(f"  >>   {exp_id:<4s} running")

    if state.pmap is not None:
        call = state.pmap
        fn = call["fn"].rsplit(".", 1)[-1]
        lines.append("")
        lines.append(
            f"pmap {fn} [{_bar(call['done'], call['n_cells'])}] "
            f"{call['done']}/{call['n_cells']} cells"
        )

    lookups = state.cache_hits + state.cache_misses
    if lookups or state.cells_done:
        lines.append("")
        rate = 100 * state.cache_hits / lookups if lookups else 0.0
        lines.append(
            f"cells {state.cells_done} · cache {state.cache_hits} hits / "
            f"{state.cache_misses} misses ({rate:.0f}%) · "
            f"{state.pmap_calls} pmap calls"
        )

    if state.resources:
        lines.append("")
        lines.append("resources (RSS now / peak MB · cpu s):")
        for pid, slot in sorted(
            state.resources.items(),
            key=lambda kv: (kv[1]["role"] != "coordinator", kv[0]),
        ):
            lines.append(
                f"  {slot['role']:<12s} pid {pid:>7s}  "
                f"{_mb(slot['rss_bytes']):>8s} / {_mb(slot['peak_rss_bytes'])} MB"
                f"  cpu {slot['cpu_s']:.1f}s"
            )
    return "\n".join(lines)


def resolve_run_dir(
    token: str | os.PathLike, root: str | os.PathLike | None = None
) -> Path:
    """Turn a user-supplied run token into a directory to follow.

    A token may be a path (the historical interface) or a run *id* — in
    particular a server-assigned id from ``POST /runs``, whose directory
    lives under the service root rather than the caller's cwd.  The
    resolution chain, first match wins:

    1. the token as a path, if it exists (file or directory);
    2. ``<root>/<token>`` — server/registry roots keyed by run id;
    3. the :class:`repro.obs.history.RunRegistry` index under ``root``
       (covers runs registered with a path elsewhere);
    4. the token as a literal path, even though nothing exists there yet
       — :func:`watch_run` legally attaches before the first byte is
       written, and its timeout contract reports "no events" itself.
    """
    literal = Path(token)
    if literal.exists():
        return literal
    from repro.obs.history import RunRegistry

    registry = RunRegistry(root)
    keyed = registry.root / str(token)
    if keyed.exists():
        return keyed
    # The raw index (not scan(): a registered run may live outside root,
    # and a mid-flight run has no results.json yet for scan to validate).
    try:
        record = registry._load_index().get(str(token))
    except Exception:
        record = None
    if record is not None and Path(record.path).exists():
        return Path(record.path)
    return literal


def watch_run(
    run_dir: str | os.PathLike,
    *,
    interval_s: float = 0.5,
    once: bool = False,
    timeout_s: float | None = None,
    stream: IO[str] | None = None,
    root: str | os.PathLike | None = None,
) -> int:
    """Follow a run directory's ``events.jsonl`` until the run finishes.

    ``run_dir`` may be a directory, an ``events.jsonl`` path, or a run id
    resolvable under ``root`` (see :func:`resolve_run_dir`) — so
    ``repro watch <run-id>`` follows a server-managed run.

    Renders one frame per poll: in place (ANSI home+clear) on a TTY,
    appended otherwise.  ``once`` renders a single frame and returns —
    the scriptable mode.  ``timeout_s`` bounds the total watch time;
    hitting it before any event arrived exits 2, otherwise 0.
    """
    out = stream if stream is not None else sys.stdout
    follower = EventFollower(resolve_run_dir(run_dir, root))
    state = WatchState()
    in_place = hasattr(out, "isatty") and out.isatty()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s

    while True:
        state.update(follower.poll())
        frame = render_frame(state, source=str(follower.path))
        if in_place:
            out.write(_ANSI_HOME_CLEAR + frame + "\n")
        else:
            out.write(frame + "\n")
        out.flush()
        if once or state.finished:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0 if state.n_events else 2
        time.sleep(interval_s)
