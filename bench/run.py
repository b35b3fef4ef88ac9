"""Benchmark driver for bbranching.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Sets the workload up several times (fresh import, generation, document
writing) and reports the median, then runs measured passes until --seconds
have gone by, at least one.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones, from passes with every hook installed, alternated with
untraced passes so that the tracing overhead can be reported.  Lines before
the last one give the workload's own figures and, when tracing, a span table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import HOOKS, LAYER_METRICS, TOP_HOOKS, layer_values  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Program, SetupError  # noqa: E402

SETUP_REPS = 3
CALIBRATION_REPS = 5


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host runs now."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return _median(times)


def setup(workload, seed: int, workdir: str):
    """Median set-up seconds over SETUP_REPS, and the last rep's state."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        prog = Program.load()
        ctx = workload.setup(prog, seed, workdir)
        times.append(time.perf_counter() - start)
    return _median(times), prog, ctx


def measure(workload, prog, ctx, seconds: float, trace: bool):
    """Run passes until `seconds` have gone by, at least one.

    Untraced passes carry only the top-level hooks the end-to-end metrics
    need.  With `trace`, passes alternate untraced / fully traced, and both
    kinds run at least once.  Returns (untraced, traced, tracer): untraced
    entries are (PassResult, span summary), traced ones add the pass's layer
    metric values, read before the next pass resets the counters.
    """
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        full = trace and len(traced) < len(plain)
        tracer.reset()
        tracer.install(HOOKS if full else TOP_HOOKS)
        try:
            result = workload.run_pass(prog, ctx, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        if full:
            traced.append((result, summary, layer_values(summary, tracer)))
        else:
            plain.append((result, summary))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return plain, traced, tracer


def _seconds(summary: dict, *names) -> float:
    return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)


# Span names behind the end-to-end solve_s and check_s: the public entry
# points the benchmark or the CLI calls.
SOLVE_SPANS = ("greedy.solve", "mrgreedy.solve", "packing.construct", "covering.cover", "covering.decompose")
CHECK_SPANS = ("greedy.verify", "packing.check", "covering.check")


def end_to_end(plain) -> tuple[dict, dict]:
    """(gated end-to-end metrics, the workload's own figures), as
    name -> (median over untraced passes, unit)."""
    results = [r for r, _ in plain]
    summaries = [s for _, s in plain]
    metrics = {
        "run_s": (_median([r.run_s for r in results]), "s"),
        "solve_s": (_median([_seconds(s, *SOLVE_SPANS) for s in summaries]), "s"),
        "check_s": (_median([_seconds(s, *CHECK_SPANS) for s in summaries]), "s"),
    }
    figures = {
        "verify_s": (_median([_seconds(s, "greedy.verify") for s in summaries]), "s"),
        "mr_solve_s": (_median([_seconds(s, "mrgreedy.solve") for s in summaries]), "s"),
    }
    for kind in ("pack", "cover", "decompose"):
        figures[f"{kind}_s"] = (_median([r.op_seconds[kind] for r in results]), "s")
    latencies = [x for r in results for x in r.latencies]
    if latencies:
        batch = _median([r.op_seconds["solve-verify"] for r in results])
        figures["instances_per_s"] = (len(results[0].latencies) / batch, "1/s")
        figures["op_p50_ms"] = (1000 * _percentile(latencies, 50), "ms")
        figures["op_p99_ms"] = (1000 * _percentile(latencies, 99), "ms")
        figures["op_samples"] = (len(latencies), "count")
    figures["cli_output_bytes"] = (_median([r.output_bytes for r in results]), "bytes")
    return metrics, figures


def per_layer(plain, traced, calib_s: float) -> dict:
    """Per-layer metrics: medians over traced passes, plus the diagnostics."""
    metrics = {
        name: (_median([values[name] for _, _, values in traced]), unit)
        for name, (unit, _, _) in LAYER_METRICS.items()
    }
    metrics["cli.output_bytes"] = (_median([r.output_bytes for r, _, _ in traced]), "bytes")
    metrics["trace.overhead_s"] = (
        _median([r.run_s for r, _, _ in traced]) - _median([r.run_s for r, _ in plain]),
        "s",
    )
    metrics["host.calib_s"] = (calib_s, "s")
    return metrics


def _print_spans(summary: dict) -> None:
    print(f"{'span':<28}{'calls':>10}{'total_s':>12}{'self_s':>12}")
    for name, entry in sorted(summary.items(), key=lambda item: -item[1]["total_s"]):
        print(f"{name:<28}{entry['calls']:>10}{entry['total_s']:>12.4f}{entry['self_s']:>12.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to run measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bbranching" / "__init__.py").is_file():
        print(f"error: no bbranching sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        try:
            setup_s, prog, ctx = setup(workload, seed, workdir)
        except (ImportError, SetupError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        if not Path(prog.bb.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported bbranching from {prog.bb.__file__}, not {src}", file=sys.stderr)
            return 1
        calib_s = calibrate() if args.trace else 0.0
        # Set-up data stays alive but out of the collector's way, as it
        # would be absent from a process that only runs the program.
        gc.collect()
        gc.freeze()
        plain, traced, tracer = measure(workload, prog, ctx, args.seconds, bool(args.trace))

    results = [p[0] for p in plain] + [t[0] for t in traced]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics, figures = end_to_end(plain)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    figures["failed_ops"] = (failed / attempted if attempted else 1.0, "fraction")

    print(f"workload {workload.name} seed {seed} untraced passes {len(plain)} traced passes {len(traced)}")
    print("  pass run_s:", " ".join(f"{r.run_s:.4f}" for r, _ in plain))
    for name, (value, unit) in {**metrics, **figures}.items():
        if value or name in metrics or name == "failed_ops":  # skip figures that do not apply
            print(f"  {name:<18} {value:.6g} {unit}")
    if args.trace:
        if tracer.absent or tracer.broken:
            print(f"absent hooks: {', '.join(tracer.absent) or '-'}; unreadable: {', '.join(sorted(tracer.broken)) or '-'}")
        _print_spans(traced[-1][1])
        metrics = per_layer(plain, traced, calib_s)
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
