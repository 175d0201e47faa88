"""Run ``repro serve`` with the benchmark's hooks installed.

    python perf/traced_serve.py SPAN_DIR serve ARCHIVE [repro serve flags]

The generation worker processes are forked from this one and inherit the
hooks; each appends its spans to ``SPAN_DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import sys

from hooks import Tracer, install


def main(argv: list[str]) -> int:
    span_dir, *cli_args = argv
    install(Tracer(jsonl_dir=span_dir))
    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
