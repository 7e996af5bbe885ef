"""Run ``repro serve`` with the benchmark's span recorder installed.

Usage: ``python serve_traced.py SPAN_DIR serve ARGS...`` -- the same
arguments the untraced run passes to ``python -m repro``.  Spans are saved
to ``SPAN_DIR/spans-<pid>.ndjson`` after the server drains.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    from repro import cli

    tracer = Tracer(sys.argv[1])
    install(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
