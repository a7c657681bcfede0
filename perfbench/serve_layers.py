"""Per-layer metrics of a traced serve run, joined to client requests by trace id."""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Any

from common import median, metric, quantile
from tracer import load_spans


def _by_name(spans: list[dict[str, Any]], traces: set[str]) -> dict[str, list[dict[str, Any]]]:
    grouped: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span.get("trace") in traces:
            grouped[span["name"]].append(span)
    return grouped


def _ms(spans: list[dict[str, Any]], key: str = "dur") -> float:
    return 1e3 * median([s[key] for s in spans]) if spans else 0.0


def _overhead(value: float) -> dict[str, Any]:
    return {"trace.overhead_pct": metric(100.0 * value, "%")}


def hot_layer_metrics(spans_dir: Path, phases: tuple[Any, ...], twin: tuple[Any, ...], *,
                      n_hits: int, rss_delta_kb: int, resident: int,
                      overhead: float) -> dict[str, Any]:
    """``phases`` ran against the traced server, ``twin`` against its
    untraced twin, whose open loop gives the tail latencies."""
    twin_open = twin[0]
    latency = twin_open.scaled()
    traces = {t for p in phases for t in p.traces}
    spans = _by_name(load_spans(spans_dir), traces)
    gets = [s for s in spans["api.store.get"] if s["store"] == "serve"]
    submit_by_trace = {s["trace"]: s["dur"] for s in spans["api.catalog.submit"]}
    overhead_ms = [
        1e3 * (rtt - submit_by_trace[trace])
        for p in phases for rtt, trace in zip(p.rtt, p.traces)
        if trace in submit_by_trace
    ]
    return {
        "hot.p50_ms": metric(1e3 * quantile(latency, 0.50), "ms"),
        "hot.p90_ms": metric(1e3 * quantile(latency, 0.90), "ms"),
        "hot.p99_ms": metric(1e3 * quantile(latency, 0.99), "ms"),
        "loadgen.late_p99_ms": metric(1e3 * quantile(twin_open.late, 0.99), "ms"),
        "serve.http.overhead_ms": metric(median(overhead_ms) if overhead_ms else 0.0, "ms"),
        "api.digest.calls": metric(len(spans["api.digest"]), "count"),
        "api.digest.ms": metric(_ms(spans["api.digest"]), "ms"),
        "api.store.get.ms": metric(_ms(gets), "ms"),
        "api.store.hit_ratio": metric(
            sum(s["hit"] for s in gets) / len(gets) if gets else 0.0, "ratio"),
        "serve.queue.submit.self_ms": metric(_ms(spans["serve.queue.submit"], "self"), "ms"),
        "serve.queue.jobs_resident": metric(resident, "count"),
        "serve.queue.rss_per_hit_kb": metric(rss_delta_kb / max(1, n_hits), "kB"),
        "serve.access.lines": metric(len(spans["serve.access.write"]), "count"),
        "serve.access.write.ms": metric(_ms(spans["serve.access.write"]), "ms"),
        **_overhead(overhead),
    }


def cold_layer_metrics(spans_dir: Path, phase: Any, twin: Any, *, index_bytes: int,
                       overhead: float) -> dict[str, Any]:
    """``phase`` ran against the traced server, ``twin`` against its
    untraced twin, which gives the tail latency."""
    spans = _by_name(load_spans(spans_dir), set(phase.traces))
    puts = [s for s in spans["api.store.put"] if s["store"] == "serve"]
    cell_gets = [s for s in spans["api.store.get"] if s["store"] == "cells"]

    # execute_request minus its experiment runs and its run-index registration
    # (both are direct children of the execution span in the same trace).
    children: dict[str, float] = defaultdict(float)
    for name in ("exp.run", "obs.history.register"):
        for s in spans[name]:
            children[s["trace"]] += s["dur"]
    executions = spans["api.execution"]
    exec_self = [s["dur"] - children[s["trace"]] for s in executions]

    lines: dict[str, int] = defaultdict(int)
    for s in spans["obs.events.emit"]:
        if s["line"]:
            lines[s["trace"]] += 1

    register = {s["trace"]: s["dur"] for s in spans["obs.history.register"]}
    ranked = [register[t] for t in phase.traces if t in register]
    tenth = max(1, len(ranked) // 10)

    per_exp: dict[str, list[float]] = defaultdict(list)
    for s in spans["exp.run"]:
        per_exp[s["exp"]].append(s["dur"])

    metrics = {
        "cold.p95_ms": metric(1e3 * quantile(twin.scaled(), 0.95), "ms"),
        "serve.http.polls_per_run": metric(median(phase.polls), "count"),
        "serve.queue.wait_ms": metric(1e3 * median(phase.wait_s), "ms"),
        "api.store.put.ms": metric(_ms(puts), "ms"),
        "api.store.put.bytes": metric(median([s["bytes"] for s in puts]) if puts else 0, "B"),
        "api.execution.ms": metric(_ms(executions), "ms"),
        "api.execution.self_ms": metric(
            1e3 * median(exec_self) if exec_self else 0.0, "ms"),
        "obs.events.lines": metric(median(list(lines.values())) if lines else 0, "count"),
        "obs.history.register.ms.first_tenth": metric(
            1e3 * median(ranked[:tenth]) if ranked else 0.0, "ms"),
        "obs.history.register.ms.last_tenth": metric(
            1e3 * median(ranked[-tenth:]) if ranked else 0.0, "ms"),
        "obs.history.index_bytes": metric(index_bytes, "B"),
        "parallel.pmap.calls": metric(len(spans["parallel.pmap"]), "count"),
        "parallel.pmap.ms": metric(_ms(spans["parallel.pmap"]), "ms"),
        "parallel.cells": metric(sum(s["cells"] for s in spans["parallel.pmap"]), "count"),
        "parallel.cells.hit_ratio": metric(
            sum(s["hit"] for s in cell_gets) / len(cell_gets) if cell_gets else 0.0,
            "ratio"),
        **_overhead(overhead),
    }
    for exp_id in sorted(per_exp):
        metrics[f"exp.run.ms.{exp_id}"] = metric(1e3 * median(per_exp[exp_id]), "ms")
    return metrics
