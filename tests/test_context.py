"""Unit tests for request tracing: context, histograms, access log, index.

The end-to-end behaviour (client → server → worker → artifacts) lives in
``tests/test_serve.py``; everything here runs without a server process.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs.context import (
    TRACEPARENT_HEADER,
    TraceContext,
    bind,
    current,
    new_context,
)
from repro.obs.events import EventLog, read_events, strip_volatile
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, get_metrics
from repro.obs.jsonl import TraceError
from repro.obs.prometheus import render_prometheus
from repro.serve.access import ACCESS_LOG_NAME, AccessLog, ServeTraceIndex


class TestTraceContext:
    def test_new_context_shapes_and_uniqueness(self):
        a = new_context("material")
        b = new_context("material")
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        assert set(a.trace_id) <= set("0123456789abcdef")
        assert a.parent_id is None
        # The monotonic counter makes re-derivation from the same
        # material produce a *different* trace.
        assert a.trace_id != b.trace_id

    def test_traceparent_round_trip(self):
        ctx = new_context("round-trip")
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed == TraceContext(ctx.trace_id, ctx.span_id)
        assert ctx.to_traceparent() == f"00-{ctx.trace_id}-{ctx.span_id}-01"

    @pytest.mark.parametrize(
        "header",
        [
            None,
            42,
            "",
            "not-a-header",
            "00-deadbeef-cafe-01",  # ids too short
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",  # reserved version
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_header_parse_is_whitespace_and_case_tolerant(self):
        raw = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        parsed = TraceContext.from_traceparent(raw)
        assert parsed is not None
        assert parsed.trace_id == "ab" * 16

    def test_child_keeps_trace_id_and_links_parent(self):
        root = new_context("root")
        child = root.child("hop")
        grandchild = child.child("hop2")
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_as_dict_omits_absent_parent(self):
        root = new_context("dictish")
        assert set(root.as_dict()) == {"trace_id", "span_id"}
        assert set(root.child().as_dict()) == {
            "trace_id", "span_id", "parent_id",
        }

    def test_bind_stacks_and_restores(self):
        outer, inner = new_context("outer"), new_context("inner")
        assert current() is None
        with bind(outer):
            assert current() is outer
            with bind(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_bind_is_thread_local(self):
        ctx = new_context("main-thread")
        seen: list[TraceContext | None] = []

        def probe():
            seen.append(current())

        with bind(ctx):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_header_constant(self):
        assert TRACEPARENT_HEADER == "traceparent"


class TestEventTraceStamping:
    def test_bound_context_rides_the_volatile_half(self, tmp_path):
        ctx = new_context("stamp")
        log = EventLog(tmp_path / "events.jsonl")
        with bind(ctx):
            log.emit("demo", payload={"k": 1})
        (record,) = read_events(tmp_path / "events.jsonl")
        assert record["trace"]["trace_id"] == ctx.trace_id
        # strip_volatile drops the trace: determinism contract intact.
        stripped = strip_volatile(record)
        assert "trace" not in stripped and "ts" not in stripped

    def test_pinned_log_context_beats_the_thread_local(self, tmp_path):
        pinned, ambient = new_context("pinned"), new_context("ambient")
        log = EventLog(tmp_path / "events.jsonl", trace=pinned)
        with bind(ambient):
            log.emit("demo", payload={})
        (record,) = read_events(tmp_path / "events.jsonl")
        assert record["trace"]["trace_id"] == pinned.trace_id


class TestHistogram:
    def test_bucket_placement_and_cumulative_series(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 5.0))
        for v in (0.05, 0.1, 0.5, 2.0, 99.0):
            h.observe(v)
        # le=0.1 catches 0.05 and the boundary value 0.1 itself.
        assert h.cumulative() == [
            (0.1, 2), (1.0, 3), (5.0, 4), (math.inf, 5),
        ]
        assert h.count == 5
        assert h.sum == pytest.approx(101.65)
        counts = [n for _, n in h.cumulative()]
        assert counts == sorted(counts)  # monotone, ends at count
        assert counts[-1] == h.count

    def test_rejects_bad_observations_and_bounds(self):
        h = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.observe(-0.1)
        with pytest.raises(ValueError):
            h.observe(math.nan)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, math.inf))

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for _ in range(50):
            h.observe(0.5)
        for _ in range(50):
            h.observe(1.5)
        assert h.quantile(0.25) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(2.0)
        # Overflow-bucket quantiles clamp to the largest finite bound.
        h.observe(100.0)
        assert h.quantile(0.999) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram_is_well_defined(self):
        h = Histogram("lat")
        assert h.count == 0 and h.mean == 0.0 and h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["buckets"][-1] == {"le": "+Inf", "count": 0}

    def test_snapshot_is_json_serializable(self):
        h = Histogram("lat", buckets=(0.5,))
        h.observe(0.25)
        h.observe(7.0)
        snap = json.loads(json.dumps(h.snapshot()))
        assert snap["count"] == 2
        assert snap["buckets"] == [
            {"le": 0.5, "count": 1}, {"le": "+Inf", "count": 2},
        ]

    def test_registry_create_on_first_use_and_bucket_pinning(self):
        metrics = get_metrics()
        h1 = metrics.histogram("serve.x", buckets=(1.0, 2.0))
        h2 = metrics.histogram("serve.x")
        assert h1 is h2
        with pytest.raises(ValueError):
            metrics.histogram("serve.x", buckets=(5.0,))
        default = metrics.histogram("serve.y")
        assert default.buckets == tuple(DEFAULT_BUCKETS)
        h1.observe(0.2)
        assert metrics.snapshot()["histograms"]["serve.x"]["count"] == 1
        assert "serve.x" in metrics.report()

    def test_prometheus_exposition_has_cumulative_buckets(self):
        metrics = get_metrics()
        h = metrics.histogram("serve.request_latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 3.0):
            h.observe(v)
        text = render_prometheus(
            metrics.snapshot(), labels={"service": "t"}, prefix="repro_serve"
        )
        lines = text.splitlines()
        name = "repro_serve_serve_request_latency_seconds"
        bucket_lines = [l for l in lines if l.startswith(f"{name}_bucket")]
        assert f'{name}_bucket{{le="0.1",service="t"}} 1' in bucket_lines
        assert f'{name}_bucket{{le="1.0",service="t"}} 2' in bucket_lines
        assert f'{name}_bucket{{le="+Inf",service="t"}} 3' in bucket_lines
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)
        assert f'{name}_count{{service="t"}} 3' in lines
        assert f"# TYPE {name} histogram" in lines
        sum_line = next(l for l in lines if l.startswith(f"{name}_sum"))
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(3.55)


class TestAccessLog:
    def test_write_appends_one_json_line(self, tmp_path):
        log = AccessLog(tmp_path / ACCESS_LOG_NAME)
        record = log.write(
            "request", method="POST", path="/runs", status=202, error=None
        )
        log.write("terminal", run_id="run-1", trace_ids=["t1"])
        log.close()
        assert record["kind"] == "request" and "error" not in record
        lines = (tmp_path / ACCESS_LOG_NAME).read_text().splitlines()
        assert [json.loads(l)["kind"] for l in lines] == [
            "request", "terminal",
        ]

    def test_disable_env_silences_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        log = AccessLog(tmp_path / ACCESS_LOG_NAME)
        assert log.write("request", method="GET", path="/healthz") is None
        log.close()
        assert not (tmp_path / ACCESS_LOG_NAME).exists()

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        log = AccessLog(tmp_path / ACCESS_LOG_NAME)

        def hammer(i: int) -> None:
            for j in range(50):
                log.write("request", writer=i, seq=j, pad="x" * 200)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        lines = (tmp_path / ACCESS_LOG_NAME).read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)  # every line parses: no interleaved bytes


def _synthetic_index(root=None):
    """A small fleet: one coalesced run, one cache answer, one failure."""
    records = [
        {"kind": "request", "trace_id": "aaa", "span_id": "s1",
         "method": "POST", "path": "/runs", "status": 202, "wall_s": 0.004,
         "run_id": "run-0001", "ids": ["ZZQ"], "cached": False,
         "coalesced": False},
        {"kind": "request", "trace_id": "bbb", "span_id": "s2",
         "method": "POST", "path": "/runs", "status": 202, "wall_s": 0.002,
         "run_id": "run-0001", "ids": ["ZZQ"], "cached": False,
         "coalesced": True, "joined_trace_id": "aaa"},
        {"kind": "request", "trace_id": "ccc", "span_id": "s3",
         "method": "POST", "path": "/runs", "status": 200, "wall_s": 0.001,
         "run_id": "run-cache", "ids": ["ZZQ"], "cached": True,
         "coalesced": False},
        {"kind": "request", "trace_id": "ddd", "span_id": "s4",
         "method": "POST", "path": "/runs", "status": 202, "wall_s": 0.003,
         "run_id": "run-0002", "ids": ["ZZBOOM"], "cached": False,
         "coalesced": False},
        {"kind": "terminal", "run_id": "run-0001", "state": "done",
         "trace_ids": ["aaa", "bbb"], "queue_latency_s": 0.01,
         "wall_s": 0.2, "ids": ["ZZQ"]},
        {"kind": "terminal", "run_id": "run-0002", "state": "failed",
         "trace_ids": ["ddd"], "queue_latency_s": 0.02, "wall_s": 0.1,
         "ids": ["ZZBOOM"], "error": "kaput"},
    ]
    return ServeTraceIndex(records, root=root)


class TestServeTraceIndex:
    def test_load_requires_an_access_log(self, tmp_path):
        with pytest.raises(TraceError):
            ServeTraceIndex.load(tmp_path)

    def test_load_from_dir_or_file(self, tmp_path):
        path = tmp_path / ACCESS_LOG_NAME
        path.write_text(json.dumps({"kind": "request", "trace_id": "x",
                                    "status": 200}) + "\n")
        for source in (tmp_path, path):
            index = ServeTraceIndex.load(source)
            assert index.trace_ids() == ["x"]
            assert index.root == tmp_path

    def test_trace_ids_first_appearance_order(self):
        index = _synthetic_index()
        assert index.trace_ids() == ["aaa", "bbb", "ccc", "ddd"]

    def test_coalesced_joiner_finds_the_shared_run(self):
        index = _synthetic_index()
        terminal = index.terminal_of("bbb")
        assert terminal is not None and terminal["run_id"] == "run-0001"
        assert index.terminal_of("ccc") is None  # cache answer: no run
        (joiner,) = index.requests_of("bbb")
        assert joiner["coalesced"] and joiner["joined_trace_id"] == "aaa"

    def test_timeline_carries_latency_and_flags(self):
        index = _synthetic_index()
        tl = index.timeline("bbb")
        assert tl["run_id"] == "run-0001" and tl["state"] == "done"
        assert tl["queue_latency_s"] == 0.01
        assert tl["execute_wall_s"] == 0.2
        assert tl["coalesced"] is True and tl["cached"] is False
        cached = index.timeline("ccc")
        assert cached["cached"] is True and cached["terminal"] is None

    def test_stitch_surfaces_orphan_run_dirs(self, tmp_path):
        for run_id in ("run-0001", "run-0002", "run-orphan"):
            run_dir = tmp_path / run_id
            run_dir.mkdir()
            (run_dir / "events.jsonl").write_text("")
        index = _synthetic_index(root=tmp_path)
        stitched = index.stitch()
        assert stitched["run-0001"]["trace_ids"] == ["aaa", "bbb"]
        assert stitched["run-0001"]["state"] == "done"
        assert stitched["run-0002"]["trace_ids"] == ["ddd"]
        assert stitched["run-orphan"]["trace_ids"] == []
        assert "run-cache" not in stitched  # no directory: cache pseudo-run

    def test_overview_reads_only_access_lines(self, tmp_path, monkeypatch):
        from repro.obs.profile import ProfileReader
        from repro.obs.trace import TraceReader
        from repro.serve.access import render_serve_trace

        for run_id in ("run-0001", "run-0002"):
            (tmp_path / run_id).mkdir()
            (tmp_path / run_id / "events.jsonl").write_text("")
            (tmp_path / run_id / "profile.jsonl").write_text("")

        def refuse(source):
            raise AssertionError("the overview must not read run streams")

        monkeypatch.setattr(TraceReader, "load", refuse)
        monkeypatch.setattr(ProfileReader, "load", refuse)
        text = render_serve_trace(_synthetic_index(root=tmp_path))
        assert "serve traces" in text
        for trace_id in ("aaa", "bbb", "ccc", "ddd"):
            assert trace_id in text
        assert "run-0001" in text and "failed" in text

    def test_fleet_report_aggregates(self, tmp_path):
        (tmp_path / "run-0001").mkdir()
        (tmp_path / "run-0001" / "events.jsonl").write_text("")
        index = _synthetic_index(root=tmp_path)
        report = _synthetic_index(root=tmp_path).fleet_report()
        assert report["requests"]["total"] == 4
        assert report["requests"]["by_status"] == {"200": 1, "202": 3}
        assert report["requests"]["cached"] == 1
        assert report["requests"]["coalesced"] == 1
        assert report["runs"]["by_state"] == {"done": 1, "failed": 1}
        assert report["request_latency"]["count"] == 4
        assert report["queue_latency"]["count"] == 2
        exp = report["experiments"]
        assert exp["ZZQ"]["requests"] == 3 and exp["ZZQ"]["cache_hits"] == 1
        assert exp["ZZBOOM"]["failed"] == 1
        assert report["stitching"]["unstitched"] == []
        json.dumps(report)  # the CLI --json path must serialize it
        assert json.dumps(report) == json.dumps(index.fleet_report())
