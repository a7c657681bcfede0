"""Workload trace archiving in an SWF-flavoured text format.

The parallel-workloads community archives cluster logs in the Standard
Workload Format: one line per job, whitespace-separated fields, ``;``
header comments.  This module writes and parses a compact dialect carrying
exactly the fields :class:`~repro.cluster.jobs.Job` needs, so simulated
seasons can be archived, diffed, checksummed into artifacts, and replayed
bit-identically — workload reproducibility in the paper's spirit.

Line format (after the header)::

    job_id  project  n_gpus  duration_h  submit_h  deadline_h  [mem_gb]

The trailing ``mem_gb`` field is optional: it is written only for jobs
that request memory (so v1 traces of GPU-only workloads are unchanged,
byte for byte) and absent means ``0.0`` on load.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster.jobs import Job

__all__ = ["dump_trace", "dumps_trace", "load_trace", "loads_trace"]

_HEADER = "; repro-cluster-trace v1"
_FIELDS = "; job_id project n_gpus duration_h submit_h deadline_h [mem_gb]"


def dumps_trace(jobs: list[Job], *, comment: str = "") -> str:
    """Serialize jobs to trace text (deterministic: sorted by job_id)."""
    lines = [_HEADER]
    if comment:
        for row in comment.splitlines():
            lines.append(f"; {row}")
    lines.append(_FIELDS)
    for job in sorted(jobs, key=lambda j: j.job_id):
        if not job.project:
            raise ValueError(f"job {job.job_id} has an empty project name")
        if any(c.isspace() for c in job.project):
            raise ValueError(
                f"project name {job.project!r} contains whitespace"
            )
        line = (
            f"{job.job_id} {job.project} {job.n_gpus} "
            f"{job.duration!r} {job.submit_time!r} {job.deadline!r}"
        )
        if job.mem > 0.0:
            line += f" {job.mem!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def loads_trace(text: str) -> list[Job]:
    """Parse trace text back into jobs (inverse of :func:`dumps_trace`)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER.strip():
        raise ValueError("not a repro-cluster-trace (missing v1 header)")
    jobs: list[Job] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) not in (6, 7):
            raise ValueError(
                f"line {lineno}: expected 6 or 7 fields, got {len(parts)}: "
                f"{raw!r}"
            )
        try:
            jobs.append(
                Job(
                    job_id=int(parts[0]),
                    project=parts[1],
                    n_gpus=int(parts[2]),
                    duration=float(parts[3]),
                    submit_time=float(parts[4]),
                    deadline=float(parts[5]),
                    mem=float(parts[6]) if len(parts) == 7 else 0.0,
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return jobs


def dump_trace(jobs: list[Job], path: str | Path, *, comment: str = "") -> Path:
    """Write a trace file; returns the path."""
    path = Path(path)
    path.write_text(dumps_trace(jobs, comment=comment))
    return path


def load_trace(path: str | Path) -> list[Job]:
    """Read a trace file written by :func:`dump_trace`."""
    return loads_trace(Path(path).read_text())
