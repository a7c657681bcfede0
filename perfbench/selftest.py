"""Fire every correctness check of the benchmark once.

Each case runs ``run.py`` briefly with one check's reference corrupted and
expects a non-zero exit with ``"correct": false``; a last case expects the
clean run to pass.  Exit code 0 means every check fired.

Usage: ``python3 perfbench/selftest.py``
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

CASES = [
    ("serve-hot", "hot-results"),
    ("serve-cold", "cold-results"),
    ("des", "des-digest"),
    ("des", "des-once"),
    ("des", "des-submit"),
    ("des", "des-capacity"),
    ("nn-train", "nn-digest"),
    ("nn-train", "nn-loss"),
]


def run(workload: str, corrupt: str | None) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    failures = 0
    for workload, corrupt in CASES + [(w, None) for w in ("des", "nn-train")]:
        code, result = run(workload, corrupt)
        expect_fail = corrupt is not None
        fired = code != 0 and result is not None and result["correct"] is False
        passed = code == 0 and result is not None and result["correct"] is True
        ok = fired if expect_fail else passed
        failures += not ok
        label = corrupt or "clean"
        print(f"{'ok  ' if ok else 'FAIL'} {workload:<11} {label:<15} exit={code}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
