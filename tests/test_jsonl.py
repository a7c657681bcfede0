"""repro.obs.jsonl: the one JSONL write contract and read rule."""

from __future__ import annotations

import ast
import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.obs.jsonl import JsonlFollower, JsonlWriter, TraceError, read_jsonl
from repro.obs.profile import ProfileReader
from repro.obs.trace import TraceReader
from repro.obs.watch import EventFollower
from repro.serve.access import ServeTraceIndex


def event(seq, kind="tick"):
    return {"schema": obs.SCHEMA_VERSION, "seq": seq, "kind": kind,
            "ts": 0.0, "payload": {}, "wall": {}}


def lines(*records):
    return "".join(
        r if isinstance(r, str) else json.dumps(r) + "\n" for r in records
    )


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
)
record_lists = st.lists(
    st.dictionaries(st.text(max_size=6), json_values, max_size=4), max_size=6
)


@given(record_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_any_byte_cut_reads_back_a_prefix(records, data):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "stream.jsonl"
        writer = JsonlWriter(path)
        for record in records:
            writer.append(record)
        writer.close()
        blob = path.read_bytes() if records else b""
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        got, torn, corrupt = read_jsonl(path)

    prefix = blob[:cut]
    complete = prefix.count(b"\n")
    tail = prefix.rsplit(b"\n", 1)[-1]  # bytes after the last newline
    # A tail equal to its whole line lost only the newline, and parses.
    whole = bool(tail) and tail == blob.split(b"\n")[complete]
    assert torn is (bool(tail) and not whole)
    assert got == records[: complete + whole]
    assert corrupt == []


class TestCorruptLines:
    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(lines(event(0), '{"schema": 1, "se\n', event(1)))
        return path

    def test_reader_reports_the_line_number(self, stream):
        records, torn, corrupt = read_jsonl(stream)
        assert [r["seq"] for r in records] == [0, 1]
        assert (torn, corrupt) == (False, [2])

    def test_strict_readers_raise(self, stream, tmp_path):
        with pytest.raises(TraceError, match="line 2"):
            TraceReader.load(stream)
        stream.rename(tmp_path / "profile.jsonl")
        with pytest.raises(TraceError, match="line 2"):
            ProfileReader.load(tmp_path)
        (tmp_path / "profile.jsonl").rename(tmp_path / "access.jsonl")
        with pytest.raises(TraceError, match="line 2"):
            ServeTraceIndex.load(tmp_path)

    def test_tolerant_readers_count_or_skip(self, stream):
        follower = EventFollower(stream)
        assert [r["seq"] for r in follower.poll()] == [0, 1]
        assert follower.n_corrupt == 1
        assert [r["seq"] for r in obs.read_events(stream)] == [0, 1]

    def test_registry_skips_a_corrupt_index_line(self, tmp_path):
        from repro.obs.history import RunRegistry

        registry = RunRegistry(tmp_path)
        good = {"schema": 1, "run_id": "r1", "path": "r1", "mtime": 1.0,
                "timestamp": 1.0}
        registry.index_path.write_text(lines('{"broken\n', "[1, 2]\n", good))
        assert list(registry._load_index()) == ["r1"]

    def test_non_object_lines_are_corrupt(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(lines("[1, 2]\n", event(0), '"text"\n', "3\n", "\n"))
        records, torn, corrupt = read_jsonl(path)
        assert [r["seq"] for r in records] == [0]
        assert (torn, corrupt) == (False, [1, 3, 4])
        with pytest.raises(TraceError, match="line 1"):
            TraceReader.load(path)

    def test_unterminated_non_object_tail_is_corrupt_not_torn(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(lines(event(0), "[1]"))
        assert read_jsonl(path)[1:] == (False, [2])


def test_read_events_drops_a_crash_torn_tail(tmp_path):
    log = obs.EventLog(tmp_path / "events.jsonl")
    log.emit("run_start")
    log.emit("run_finish")
    log.close()
    with open(tmp_path / "events.jsonl", "a") as fh:
        fh.write('{"kind": "cell_fin')  # the writer died mid-record
    kinds = [r["kind"] for r in obs.read_events(tmp_path / "events.jsonl")]
    assert kinds == ["run_start", "run_finish"]


def test_follower_holds_a_partial_line_until_its_newline(tmp_path):
    path = tmp_path / "s.jsonl"
    follower = JsonlFollower(path)
    assert follower.poll() == []  # not created yet
    path.write_text('{"a": 1}\n{"b"')
    assert follower.poll() == [{"a": 1}]
    with open(path, "a") as fh:
        fh.write(": 2}\n")
    assert follower.poll() == [{"b": 2}]
    assert (follower.corrupt, follower.torn) == ([], False)


class TestRotation:
    def test_read_spans_the_rotation_boundary(self, tmp_path):
        path = tmp_path / "access.jsonl"
        writer = JsonlWriter(path, max_bytes=200)
        for i in range(6):
            writer.append({"i": i, "pad": "x" * 40})
        writer.close()
        assert path.with_name("access.jsonl.1").exists()
        records, torn, corrupt = read_jsonl(path)
        assert [r["i"] for r in records] == list(range(6))
        assert (torn, corrupt) == (False, [])

    def test_line_numbers_count_on_across_segments(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.with_name("s.jsonl.1").write_text(lines({"i": 0}, {"i": 1}))
        path.write_text(lines({"i": 2}, "oops\n"))
        records, torn, corrupt = read_jsonl(path)
        assert [r["i"] for r in records] == [0, 1, 2]
        assert corrupt == [4]

    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "absent.jsonl")


def _append_many(path, tag, n):
    writer = JsonlWriter(path)
    for i in range(n):
        writer.append({"tag": tag, "i": i, "pad": "y" * 3000})
    writer.close()


def test_concurrent_processes_never_tear_or_lose_a_line(tmp_path):
    path = tmp_path / "shared.jsonl"
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_append_many, args=(path, tag, 150))
        for tag in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    records, torn, corrupt = read_jsonl(path)
    assert (torn, corrupt) == (False, [])
    assert sorted((r["tag"], r["i"]) for r in records) == [
        (tag, i) for tag in range(4) for i in range(150)
    ]


# -- the guard: one primitive, nowhere else ----------------------------------

SRC = Path(repro.__file__).parent


def _loads_args(nodes):
    """The unwrapped first argument of every ``json.loads`` call in *nodes*."""
    for node in nodes:
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "loads" and call.args):
                arg = call.args[0]
                while isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute):
                    arg = arg.func.value  # line.strip(), raw.decode(), ...
                yield arg


def _splits_lines(call):
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else ""
    return attr in ("splitlines", "readline", "readlines") or (
        attr == "split" and bool(call.args)
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value in ("\n", b"\n")
    )


def _parses_jsonl_lines(source: str) -> bool:
    """True when *source* splits text into lines and json-parses them.

    Flags ``json.loads`` of a loop variable inside its loop (``for line
    in fh: json.loads(line)``), or any ``json.loads`` in a module that
    also splits text into lines.
    """
    tree = ast.parse(source)
    if not any(True for _ in _loads_args([tree])):
        return False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _splits_lines(node):
            return True
        if isinstance(node, ast.For):
            scope, targets = node.body, [node.target]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            scope, targets = [node.elt], [g.target for g in node.generators]
        else:
            continue
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if any(isinstance(a, ast.Name) and a.id in names for a in _loads_args(scope)):
            return True
    return False


def test_guard_detects_hand_rolled_readers():
    assert _parses_jsonl_lines(
        "import json\nwith open(p) as fh:\n"
        "    out = [json.loads(line) for line in fh]\n"
    )
    assert _parses_jsonl_lines(
        "import json\nfor line in text.splitlines():\n    json.loads(line.strip())\n"
    )
    assert _parses_jsonl_lines(
        "import json\nline, buf = buf.split(b'\\n', 1)\nrecord = json.loads(line)\n"
    )
    assert not _parses_jsonl_lines("import json\ndoc = json.loads(path.read_text())\n")


def test_only_the_primitive_appends_or_parses_jsonl():
    offenders = []
    for module in sorted(SRC.rglob("*.py")):
        if module == SRC / "obs" / "jsonl.py":
            continue
        source = module.read_text(encoding="utf-8")
        if "O_APPEND" in source or _parses_jsonl_lines(source):
            offenders.append(str(module.relative_to(SRC)))
    assert offenders == []
