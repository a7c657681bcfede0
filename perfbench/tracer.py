"""In-memory span recorder wrapped around the public functions of each layer.

The benchmark never edits the program: a traced run replaces a handful of
public functions and methods with wrappers that time each call, link it to
the enclosing wrapped call (so a span's self time is its duration minus its
children) and tag it with the request's ``trace_id``.  With a spans
directory, each process appends its spans to ``spans-<pid>.jsonl`` after
every top-level call: forked workers leave through ``os._exit`` and would
lose anything buffered, and spans kept in the server coordinator would grow
the heap whose size and collector pauses the run measures.

Two recording modes:

* ``keep_spans=True`` (serve) keeps one record per call, because the
  per-request metrics join spans to client requests by ``trace_id``;
* ``keep_spans=False`` (des, nn) only aggregates ``calls``/``total``/``self``
  per span name, because the DES makes millions of calls.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

# A fallback trace for spans whose thread has no bound trace context: the
# store write and digest a serve worker makes after ``execute_request``
# returns belong to the job that call ran.
_STICKY = threading.local()


class Tracer:
    """Wraps functions as spans; see the module docstring for the two modes."""

    def __init__(self, *, keep_spans: bool, spans_dir: str | None = None) -> None:
        self.keep_spans = keep_spans
        self.spans_dir = Path(spans_dir) if spans_dir else None
        self.spans: list[dict[str, Any]] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        trace_of: Callable[..., str | None] | None = None,
        before: Callable[..., Any] | None = None,
        extra: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``trace_of(args, kwargs)`` names the request when the thread has no
        bound context; ``extra(args, kwargs, result, snapshot)`` adds fields
        to the kept span, where ``snapshot`` is what ``before(args, kwargs)``
        returned just before the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = [0.0]  # accumulated child time
            stack.append(frame)
            snapshot = before(args, kwargs) if before else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
            tracer._record(
                name, dur, dur - frame[0], not stack,
                args, kwargs, result, trace_of, extra, snapshot,
            )
            return result

        return wrapper

    def _record(
        self, name: str, dur: float, self_s: float, top: bool,
        args: Any, kwargs: Any, result: Any,
        trace_of: Any, extra: Any, snapshot: Any,
    ) -> None:
        if os.getpid() != self._pid:
            # First span in a forked child: drop what the parent recorded,
            # and a lock another parent thread may have held at the fork.
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self.spans = []
            self.totals = {}
        with self._lock:
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
        if not self.keep_spans:
            return
        trace_id = _current_trace_id()
        if trace_id is None and trace_of is not None:
            trace_id = trace_of(args, kwargs)
        if trace_id is None:
            trace_id = getattr(_STICKY, "trace_id", None)
        elif top or name == "api.execution":
            _STICKY.trace_id = trace_id
        span: dict[str, Any] = {
            "name": name, "pid": self._pid, "dur": dur, "self": self_s,
            "trace": trace_id, "top": top,
        }
        if extra is not None:
            span.update(extra(args, kwargs, result, snapshot))
        with self._lock:
            self.spans.append(span)
        if top:
            self.flush()

    # -- output -------------------------------------------------------------

    def flush(self) -> None:
        """Append kept spans to this process's file and forget them."""
        if self.spans_dir is None:
            return
        with self._lock:
            if not self.spans:
                return
            spans, self.spans = self.spans, []
            path = self.spans_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("".join(json.dumps(span) + "\n" for span in spans))


def _current_trace_id() -> str | None:
    from repro.obs import context

    ctx = context.current()
    return ctx.trace_id if ctx is not None else None


def load_spans(spans_dir: str | os.PathLike) -> list[dict[str, Any]]:
    spans: list[dict[str, Any]] = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# -- the serve stack ---------------------------------------------------------


def install_serve(spans_dir: str) -> Tracer:
    """Wrap the serve request path; call before the experiment modules load.

    The experiment modules bind ``pmap`` by name at import, so the wrapper
    must be in ``repro.parallel`` before ``repro.exp.catalog`` is imported;
    modules already holding the original are re-pointed as well.
    """
    import sys

    import repro.api as api_pkg
    import repro.api.catalog as catalog_mod
    import repro.api.execution as execution_mod
    import repro.parallel as parallel_pkg
    import repro.parallel.runner as runner_mod
    from repro.api.types import RunRequest
    from repro.exp.registry import Experiment
    from repro.obs.events import EventLog
    from repro.obs.history import RunRegistry
    from repro.parallel.cache import ResultCache
    from repro.serve.access import AccessLog
    from repro.serve.queue import JobQueue

    tracer = Tracer(keep_spans=True, spans_dir=spans_dir)

    def store_kind(args: Any) -> str:
        return "serve" if Path(args[0].root).name == ".serve_store" else "cells"

    def get_extra(args, kwargs, result, _snapshot):
        return {"store": store_kind(args), "hit": bool(result[0])}

    def bytes_written(args, kwargs):
        return args[0].stats().bytes_written

    def put_extra(args, kwargs, result, written_before):
        return {"store": store_kind(args),
                "bytes": bytes_written(args, kwargs) - written_before}

    def access_trace(args, kwargs):
        if kwargs.get("trace_id"):
            return kwargs["trace_id"]
        ids = kwargs.get("trace_ids") or []
        return ids[0] if ids else None

    def access_extra(args, kwargs, result, _snapshot):
        return {"kind": args[1] if len(args) > 1 else kwargs.get("kind")}

    def emit_trace(args, kwargs):
        log = args[0]
        return log.trace.trace_id if getattr(log, "trace", None) is not None else None

    def emit_extra(args, kwargs, result, _snapshot):
        return {"line": args[0].path is not None}

    def exp_extra(args, kwargs, result, _snapshot):
        return {"exp": args[0].id}

    def pmap_extra(args, kwargs, result, _snapshot):
        configs = args[1] if len(args) > 1 else kwargs.get("configs", ())
        return {"cells": len(configs)}

    original_pmap = runner_mod.pmap
    pmap_wrapper = tracer.wrap("parallel.pmap", original_pmap, extra=pmap_extra)
    for module in [*sys.modules.values(), runner_mod, parallel_pkg]:
        if getattr(module, "pmap", None) is original_pmap:
            module.pmap = pmap_wrapper

    exec_wrapper = tracer.wrap("api.execution", execution_mod.execute_request)
    for module in (execution_mod, catalog_mod, api_pkg):
        module.execute_request = exec_wrapper

    RunRequest.digest = tracer.wrap("api.digest", RunRequest.digest)
    ResultCache.get = tracer.wrap("api.store.get", ResultCache.get, extra=get_extra)
    ResultCache.put = tracer.wrap("api.store.put", ResultCache.put,
                                  before=bytes_written, extra=put_extra)
    JobQueue.submit = tracer.wrap("serve.queue.submit", JobQueue.submit)
    catalog_mod.Catalog.submit = tracer.wrap("api.catalog.submit",
                                             catalog_mod.Catalog.submit)
    Experiment.run = tracer.wrap("exp.run", Experiment.run, extra=exp_extra)
    RunRegistry.register = tracer.wrap("obs.history.register", RunRegistry.register)
    AccessLog.write = tracer.wrap("serve.access.write", AccessLog.write,
                                  trace_of=access_trace, extra=access_extra)
    EventLog.emit = tracer.wrap("obs.events.emit", EventLog.emit,
                                trace_of=emit_trace, extra=emit_extra)
    return tracer


# -- the DES engine ------------------------------------------------------------

#: Calendar methods that answer a fit query (the rest maintain the timeline).
CALENDAR_QUERIES = ("fits", "earliest_fit")
CALENDAR_METHODS = CALENDAR_QUERIES + ("add", "remove", "prune", "copy",
                                       "available", "available_mem")


def install_des(tracer: Tracer) -> Callable[[], None]:
    """Wrap the engine, the policies' ``plan``, the pool and the calendar.

    Returns a function that restores the originals.
    """
    from repro.cluster.calendar import ReservationCalendar
    from repro.cluster.resources import GPUPool
    from repro.cluster.scheduler import ClusterSimulator
    from repro.cluster.scheduling import EasyBackfill, SchedulingPolicy

    targets = [(ClusterSimulator, "run", "cluster.engine.run"),
               (SchedulingPolicy, "plan", "cluster.policy.plan"),
               (EasyBackfill, "plan", "cluster.policy.plan"),
               (GPUPool, "can_allocate", "cluster.resources.can_allocate")]
    targets += [(ReservationCalendar, m, f"cluster.calendar.{m}")
                for m in CALENDAR_METHODS]
    return _install(tracer, targets)


# -- the nn kernels --------------------------------------------------------------


def install_nn(tracer: Tracer) -> Callable[[], None]:
    from repro.nn.conv import Conv2D
    from repro.nn.layers import Dense
    from repro.nn.optim import SGD, Adam

    return _install(tracer, [
        (Conv2D, "forward", "nn.conv.forward"),
        (Conv2D, "backward", "nn.conv.backward"),
        (Dense, "forward", "nn.dense.forward"),
        (Dense, "backward", "nn.dense.backward"),
        (Adam, "step", "nn.optim.step"),
        (SGD, "step", "nn.optim.step"),
    ])


def _install(tracer: Tracer, targets: list[tuple[Any, str, str]]) -> Callable[[], None]:
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    for owner, attr, name in targets:
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))

    def restore() -> None:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)

    return restore
