"""The one JSONL log primitive behind every telemetry stream.

``events.jsonl``, ``profile.jsonl``, ``runs_index.jsonl`` and
``access.jsonl`` are all written and read here, and nowhere else.

* :class:`JsonlWriter` appends each record as one ``os.write`` to an
  ``O_APPEND`` descriptor, so concurrent writers interleave whole lines,
  never bytes.  With ``max_bytes > 0`` the live file is renamed to
  ``<name>.1`` (replacing the previous one) between lines, when the next
  line would push it past the threshold.
* :class:`JsonlFollower` returns the records on complete lines and leaves
  an unterminated tail for a later poll, until its newline arrives.
* :func:`read_jsonl` is one final follower poll per segment (``<name>.1``
  first).  An unterminated last line that does not parse is *torn* — the
  one line a crashed writer can leave.  A complete line that is not a
  JSON object is *corrupt*; whether that is fatal is the caller's call.
* :func:`read_strict` is the readers' strict form: a missing stream or a
  corrupt line raises :class:`TraceError`, a torn tail is only flagged.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["JsonlFollower", "JsonlWriter", "TraceError", "disabled",
           "read_jsonl", "read_strict"]


class TraceError(ValueError):
    """A telemetry stream is unreadable: missing, corrupt or of unknown schema."""


def disabled() -> bool:
    """True when the ``REPRO_OBS_DISABLE=1`` telemetry kill switch is set."""
    return os.environ.get("REPRO_OBS_DISABLE", "") == "1"


def _rotated(path: Path) -> Path:
    return path.with_name(path.name + ".1")


class JsonlWriter:
    """Append JSON records to one file, one atomic line each.

    The descriptor opens lazily and its size is seeded from ``fstat``, so
    a reopened log keeps honouring ``max_bytes`` (``0`` disables).
    """

    def __init__(self, path: str | os.PathLike, *, max_bytes: int = 0) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._fd: int | None = None
        self._size = 0
        self._lock = threading.Lock()

    def append(
        self, record: Mapping[str, Any], default: Callable[[Any], Any] | None = None
    ) -> None:
        """Write *record* as one ``sort_keys`` JSON line (*default* as in json)."""
        data = (json.dumps(record, sort_keys=True, default=default) + "\n").encode()
        with self._lock:
            if self._fd is None:
                self._open()
            if 0 < self.max_bytes < self._size + len(data) and self._size > 0:
                os.close(self._fd)
                os.replace(self.path, _rotated(self.path))
                self._open()
            os.write(self._fd, data)
            self._size += len(data)

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._size = os.fstat(self._fd).st_size

    def close(self) -> None:
        """Release the descriptor (the next append reopens it)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class JsonlFollower:
    """Incremental reader of one growing JSONL file (missing reads as empty).

    :attr:`corrupt` collects the 1-based numbers of complete lines that
    are not JSON objects; :attr:`torn` is set by a final poll.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.corrupt: list[int] = []
        self.torn = False
        self.lines = 0
        self._offset = 0

    def poll(self, *, final: bool = False) -> list[dict[str, Any]]:
        """Records appended since the previous poll.

        An unterminated last line is left for the next poll, or with
        ``final=True`` read as the last line.
        """
        records: list[dict[str, Any]] = []
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return records
        with fh:
            fh.seek(self._offset)
            for line in fh:
                terminated = line.endswith(b"\n")
                if not (terminated or final):
                    break
                self._offset += len(line)
                self.lines += 1
                if line.isspace():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if not terminated:
                        self.torn = True
                        continue
                    record = None
                if isinstance(record, dict):
                    records.append(record)
                else:
                    self.corrupt.append(self.lines)
        return records


def read_jsonl(
    path: str | os.PathLike,
) -> tuple[list[dict[str, Any]], bool, list[int]]:
    """Read a whole stream: ``(records, torn, corrupt line numbers)``.

    Line numbers count on from ``<name>.1`` into the live file.  Raises
    :class:`FileNotFoundError` when neither segment exists.
    """
    path = Path(path)
    segments = [p for p in (_rotated(path), path) if p.exists()]
    if not segments:
        raise FileNotFoundError(f"no JSONL stream at {path}")
    records: list[dict[str, Any]] = []
    corrupt: list[int] = []
    torn = False
    lines = 0
    for segment in segments:
        follower = JsonlFollower(segment)
        records += follower.poll(final=True)
        corrupt += [lines + n for n in follower.corrupt]
        torn = torn or follower.torn
        lines += follower.lines
    return records, torn, corrupt


def read_strict(
    source: str | os.PathLike, name: str, missing: str
) -> tuple[Path, list[dict[str, Any]], bool]:
    """Read stream *name* in directory *source* (or the file *source*).

    Returns ``(path, records, torn)``.  A missing stream raises
    :class:`TraceError` with *missing* (``{path}`` is filled in), and so
    does the first corrupt line.
    """
    path = Path(source)
    if path.is_dir():
        path = path / name
    try:
        records, torn, corrupt = read_jsonl(path)
    except FileNotFoundError:
        raise TraceError(missing.format(path=path)) from None
    if corrupt:
        raise TraceError(
            f"corrupt event record on line {corrupt[0]}: not a JSON object"
        )
    return path, records, torn
