"""The repository's benchmark of record.

One run of one workload (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 perf/run.py --workload stream_flat_100k --seed 0 --seconds 25 --trace 0

prints a metric table, a ``{"digests": ...}`` line and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics untraced (``--trace 0``), the per-layer ones traced (``--trace 1``).

Every workload, each in its own fresh interpreter, over several seeds::

    python3 perf/run.py --seeds 0,1,2 [--trace 1] [--out results.json]

Agreement between two such result sets (>= 3 untraced runs each)::

    python3 perf/run.py --compare A.json B.json

All four workloads at toy scale, checking every metric BENCHMARK.json
names appears with its unit::

    python3 perf/run.py --smoke

See perf/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Every workload runs its numeric kernels on one thread by configuration
#: (generation_threads=1, one scoring thread per server worker); a
#: multi-threaded BLAS on a small shared host adds noise, not speed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def benchmark_spec() -> dict:
    with BENCHMARK.open() as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_one(args) -> int:
    import hooks
    from workloads import END_TO_END, PER_LAYER, PAPER_COMPLEXITY, PROFILES, WORKLOADS, Context

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(
        root=ROOT,
        workdir=workdir,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        profile=PROFILES["smoke" if args.smoke else "full"],
    )
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in PER_LAYER if args.trace else END_TO_END:
        value, measured_unit = ctx.metrics.get(name, (0.0 if args.trace else None, unit))
        if value is None or not math.isfinite(value) or measured_unit != unit:
            print(f"error: {name} not measured ({value}, {measured_unit})", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    for problem in ctx.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for note in ctx.notes:
        print(f"  {note}")
    if args.trace:
        write_trace(args, ctx, hooks.self_times(ctx.spans), PAPER_COMPLEXITY)
    print(json.dumps({"digests": ctx.digests}))
    print(json.dumps({
        "correct": ctx.failed == 0 and not ctx.problems,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


def write_trace(args, ctx, own: dict[str, float], paper: dict[str, str]) -> None:
    """Self-time table on stdout; spans and ladder to perf/out/trace-<w>.json."""
    calls: dict[str, int] = {}
    for span in ctx.spans:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    print(f"  {'span':<32} {'calls':>8} {'self s':>10}")
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        print(f"  {name:<32} {calls[name]:>8} {seconds:>10.4f}")
    slopes = {
        stage: {"slope": ctx.metrics[f"slope.{stage}"][0], "paper": paper[stage]}
        for stage in paper
        if f"slope.{stage}" in ctx.metrics
    }
    OUT.mkdir(exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "self_s": own,
        "ladder_s": {str(n): stages for n, stages in sorted(ctx.ladder.items())},
        "slopes": slopes,
        "spans": ctx.spans,
    }
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(document))


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    print(done.stdout, end="")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "digests": json.loads(lines[-2])["digests"],
        "result": json.loads(lines[-1]),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec: dict) -> int:
    runs = []
    for seed in args.seeds:
        for workload in spec["workloads"]:
            for trace in (0, 1) if args.trace else (0,):
                runs.append(spawn(workload["name"], seed, args.seconds, trace, args.smoke))
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1))
    print("\nmedian [q1, q3] over seeds, untraced runs")
    for workload in spec["workloads"]:
        mine = [r for r in runs if r["workload"] == workload["name"] and r["trace"] == 0]
        print(workload["name"])
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine]
            q1, q2, q3 = quartiles(values)
            print(f"  {metric['name']:<20} {q2:>12.6g} [{q1:.6g}, {q3:.6g}] {metric['unit']}")
    failed = [r for r in runs if not r["result"]["correct"]]
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Medians and IQRs of each end-to-end metric per workload in two
    result sets; flag medians further apart than the metric's bound,
    differing edge digests, and any failed operation."""
    sets = [json.loads(Path(path).read_text())["runs"] for path in (path_a, path_b)]
    flags = []
    for workload in spec["workloads"]:
        name = workload["name"]
        groups = [[r for r in runs if r["workload"] == name and r["trace"] == 0] for runs in sets]
        if min(len(g) for g in groups) < 3:
            flags.append(f"{name}: fewer than 3 untraced runs in a set")
            continue
        print(name)
        for metric in spec["end_to_end"]:
            stats = [
                quartiles([r["result"]["metrics"][metric["name"]]["value"] for r in group])
                for group in groups
            ]
            (qa1, ma, qa3), (qb1, mb, qb3) = stats
            shift = abs(mb - ma) / abs(ma) if ma else math.inf
            flag = shift > metric["bound"]
            print(
                f"  {metric['name']:<20} A {ma:>12.6g} iqr {qa3 - qa1:<10.4g}"
                f" B {mb:>12.6g} iqr {qb3 - qb1:<10.4g} shift {shift:6.1%}"
                f" bound {metric['bound']:.0%}{'  FLAG' if flag else ''}"
            )
            if flag:
                flags.append(f"{name} {metric['name']}: medians differ by {shift:.1%}")
    # Runs with the same --seed make the same inputs, traced or not, so
    # every output they share must hash the same.
    digests: dict[tuple[str, int, str], set[str]] = {}
    for runs in sets:
        for run in runs:
            for key, digest in run["digests"].items():
                digests.setdefault((run["workload"], run["seed"], key), set()).add(digest)
            if not run["result"]["correct"] or run["result"]["failed"]:
                flags.append(f"{run['workload']} seed {run['seed']}: failed operations")
    for (name, seed, key), values in sorted(digests.items()):
        if len(values) > 1:
            flags.append(f"{name} seed {seed} {key}: nondeterministic output")
    for flag in flags:
        print(f"FLAG {flag}")
    print("agree" if not flags else f"{len(flags)} flags")
    return 1 if flags else 0


# ----------------------------------------------------------------------
# --smoke
# ----------------------------------------------------------------------
def smoke(spec: dict) -> int:
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run = spawn(workload["name"], 0, 0, trace, smoke=True)
            result = run["result"]
            if not result["correct"]:
                problems.append(f"{workload['name']} trace={trace}: incorrect output")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload['name']} trace={trace}: {metric['name']} missing")
    for problem in problems:
        print(f"SMOKE {problem}")
    return 1 if problems else 0


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default="0", help="comma-separated, for the all-workloads mode")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes")
    parser.add_argument("--out", help="all-workloads mode: write the result set here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    args.seeds = [int(s) for s in args.seeds.split(",")]
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.smoke and not args.workload:
        return smoke(spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        return run_one(args)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
