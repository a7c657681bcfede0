"""Traced ``repro serve``: wrap each layer's public functions, then serve.

Usage: ``python perfbench/launcher.py SPANS_DIR <repro serve arguments>``.

The wrappers go in before the experiment modules are imported, and the
forked workers inherit them.  Every process appends its spans to the spans
directory after each top-level call.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import install_serve  # noqa: E402


def main() -> int:
    spans_dir, serve_args = sys.argv[1], sys.argv[2:]
    tracer = install_serve(spans_dir)
    from repro.exp.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
