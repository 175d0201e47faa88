"""CLI for the serving load harness and its regression gate.

Measure and commit a new baseline (writes ``BENCH_serve.json`` at the
repository root)::

    PYTHONPATH=src python benchmarks/bench_serve.py

Gate the working tree against the committed baseline (exit code 1 on a
regression beyond the tolerance)::

    PYTHONPATH=src python benchmarks/bench_serve.py --check

``--quick`` switches to the tiny smoke configuration (4 clients, ~66-node
graph) used by ``tests/test_bench_serve.py`` and the CI smoke step.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.bench.regression import format_report
from repro.bench.serve import (
    DEFAULT_SERVE_BASELINE_PATH,
    DEFAULT_SERVE_SETTINGS,
    DEFAULT_SERVE_TOLERANCE,
    QUICK_SERVE_SETTINGS,
    check_serve_regression,
    run_serve_bench,
)


def _settings_from_args(args: argparse.Namespace):
    base = QUICK_SERVE_SETTINGS if args.quick else DEFAULT_SERVE_SETTINGS
    overrides = {}
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.requests is not None:
        overrides["requests_per_client"] = args.requests
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.max_batch_size is not None:
        overrides["max_batch_size"] = args.max_batch_size
    if args.worker_processes is not None:
        overrides["worker_processes"] = args.worker_processes
    return dataclasses.replace(base, **overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="tiny smoke run")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per client"
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=None,
        help="micro-batch coalescing bound (1 disables coalescing)",
    )
    parser.add_argument(
        "--worker-processes",
        type=int,
        default=None,
        metavar="N",
        help="serve from a pool of N worker processes instead of threads "
        "(0 = thread mode, the committed-baseline default)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_SERVE_BASELINE_PATH,
        help="where to write the result JSON (measure mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against --baseline instead of writing",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_SERVE_BASELINE_PATH
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_SERVE_TOLERANCE
    )
    args = parser.parse_args(argv)
    settings = _settings_from_args(args)

    if args.check:
        try:
            ok, comparisons = check_serve_regression(
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
        print("PASS" if ok else "FAIL: serve path regressed beyond tolerance")
        return 0 if ok else 1

    document = run_serve_bench(settings)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    serve = document["serve"]
    print(
        f"  throughput {serve['throughput_rps']:8.1f} req/s   "
        f"({serve['completed']} requests, "
        f"cache hit rate {serve['cache_hit_rate']:.2f})"
    )
    for name in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
        print(f"  {name:<16} {serve[name] * 1e3:8.2f} ms")
    batching = serve["batching"]
    print(
        f"  batching         max={batching['max_batch_size']}  "
        f"coalesced {batching['coalesced_fraction']:.2f} of "
        f"{batching['requests']} batched requests  "
        f"histogram {batching['histogram']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
