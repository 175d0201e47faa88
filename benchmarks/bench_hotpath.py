"""CLI for the hot-path perf harness and its regression gate.

Measure and commit a new baseline (writes ``BENCH_hotpath.json`` at the
repository root)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py

Gate the working tree against the committed baseline (exit code 1 on a
regression beyond the tolerance)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --check

``--quick`` switches to the tiny smoke configuration (1 repeat, ~66-node
graph) used by ``tests/test_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.bench.hotpath import (
    DEFAULT_BASELINE_PATH,
    DEFAULT_SETTINGS,
    HotpathSettings,
    QUICK_SETTINGS,
    run_hotpath_bench,
)
from repro.bench.regression import (
    DEFAULT_TOLERANCE,
    check_regression,
    format_report,
)


#: Flags named after the ``HotpathSettings`` field they override.
_SETTING_FLAGS = (
    "repeats",
    "scale",
    "threads",
    "repair_sampler",
    "xlarge_nodes",
    "xlarge_dtype",
    "xlarge_sampler",
    "hier_workers",
    "xxlarge_nodes",
    "xxlarge_shard_edges",
)


def _settings_from_args(args: argparse.Namespace) -> HotpathSettings:
    base = QUICK_SETTINGS if args.quick else DEFAULT_SETTINGS
    given = {
        name: getattr(args, name)
        for name in _SETTING_FLAGS
        if getattr(args, name) is not None
    }
    return dataclasses.replace(base, **given)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="tiny smoke run")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="generation_threads for the generation hot paths (output is "
        "bit-identical at any value; this is a wall-clock axis)",
    )
    parser.add_argument(
        "--xlarge-nodes",
        type=int,
        default=None,
        metavar="N",
        help="node count for the generation_xlarge streaming path "
        "(default 100000, or 2500 with --quick)",
    )
    parser.add_argument(
        "--xlarge-dtype",
        choices=["float32", "float64"],
        default=None,
        help="scoring precision for generation_xlarge (default float32 — "
        "the scaling configuration; CI also gates float64)",
    )
    parser.add_argument(
        "--repair-sampler",
        choices=["dense", "factored"],
        default=None,
        help="isolated-node repair sampler for the generation/"
        "generation_large paths (default dense — the bit-stable contract)",
    )
    parser.add_argument(
        "--xlarge-sampler",
        choices=["dense", "factored"],
        default=None,
        help="repair sampler for the streaming generation_xlarge/"
        "generation_xxlarge cells (default factored — the scaling "
        "configuration)",
    )
    parser.add_argument(
        "--hier-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the generation_hier cell's per-community "
        "tasks (output is bit-identical at any value; wall-clock axis)",
    )
    parser.add_argument(
        "--xxlarge-nodes",
        type=int,
        default=None,
        metavar="N",
        help="node count for the generation_xxlarge streaming path "
        "(default 1000000, or 2000 with --quick)",
    )
    parser.add_argument(
        "--xxlarge-shard-edges",
        type=int,
        default=None,
        metavar="N",
        help="edges per CSR shard for generation_xxlarge",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BASELINE_PATH,
        help="where to write the result JSON (measure mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against --baseline instead of writing",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE_PATH)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)
    settings = _settings_from_args(args)

    if args.check:
        try:
            ok, comparisons = check_regression(
                args.baseline, settings, args.tolerance
            )
        except FileNotFoundError:
            print(
                f"error: baseline {args.baseline} not found — run without "
                "--check first to record one",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_report(comparisons))
        print("PASS" if ok else "FAIL: hot path regressed beyond tolerance")
        return 0 if ok else 1

    document = run_hotpath_bench(settings)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, entry in document["hot_paths"].items():
        line = (
            f"  {name:<18} {entry['mean_s'] * 1e3:9.2f} ms "
            f"(+/- {entry['std_s'] * 1e3:.2f})  "
            f"normalized={entry['normalized']:.1f}"
        )
        if "peak_mb" in entry:
            line += (
                f"  peak={entry['peak_mb']:.1f}/{entry['budget_mb']:.0f} MiB"
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
