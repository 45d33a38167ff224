"""Closed-loop benchmark of the artinsigma command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process, with no threads, calls ``artinsigma.cli.run(argv)``
in-process, one command at a time (a closed loop), on instance files
generated from the seed (see ``instances.py`` for the workloads).  Every
command's output is checked; a command that raises, exits non-zero or fails
a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics.  ``ok_ratio`` is
1 - failed_ratio: the failed ratio itself is printed but not reported as a
metric, because it reads 0 on a correct program.  With ``--trace 1`` each of
the first MIN_COMMANDS commands runs untraced and then traced, and the run
reports per-layer metrics (see ``tracing.py``) and the tracing overhead.
The last line of standard output is one JSON object with the result; the
lines before it repeat the metrics with units, the report digest and the
drift probe.  Working files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos" / "instances"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from instances import WORKLOADS, write_instances  # noqa: E402
from tracing import LAYERS, SAMPLE_BUCKETS, Tracer  # noqa: E402

# At least ten latency samples lie beyond p90.  The first MIN_COMMANDS
# commands are also the digested reports and one traced pass.
MIN_COMMANDS = 100
# Distinct instances per run: about what a 55-s run gets through; the command
# list cycles over them if a run goes further.
POOL = 800
# setup_s is the median of this many fresh imports plus demo warm-ups.  The
# instances are written once, outside it: writing them is the benchmark's own
# work, several times the program's set-up, and would hide a change in it.
SETUP_REPEATS = 9
# Every CLI command, run on every demo instance in the warm-up and at the
# start of every traced pass, so each layer is exercised in every traced run
# (degree 1 is the only one at which verdicts reach odd_cycle_condition).
WARMUP_COMMANDS = (
    ("validate",), ("classify",), ("links", "--n", "2"), ("check", "--n", "2"),
    ("homology", "--p", "2", "--n", "1", "--oracle"), ("verdict", "--n", "1"),
)
PROBE_ITERATIONS = 1_000_000

# Per-layer metrics: function self times and call counts from the traced pass.
TIMED_FUNCTIONS = (
    "homology.integer_invariant_factors", "homology.reduced_homology",
    "homology.flag_complex", "homology.enumerate_cliques", "graphs.validate_fc",
    "characters.dead_cliques", "conditions.strong_n_link", "conditions.strong_p_n_link",
    "conditions.strong_homotopic_n_link", "conditions.kernel_free_rank",
    "laurent.smith_normal_form", "salvetti.build_salvetti_complex",
    "salvetti.homology_module", "salvetti.cross_check",
)
COUNTED_FUNCTIONS = TIMED_FUNCTIONS + (
    "graphs.induced_subgraph", "characters.classify", "characters.living_subgraph",
    "verdicts.sigma_verdict", "laurent.laurent_divmod",
)
SELF_TIMED_ONLY = ("verdicts.fp_verdict", "verdicts.homotopic_sigma_verdict",
                   "verdicts.odd_cycle_condition", "cli.run", "cli.load_instance")
WORK_COUNTS = ("homology.integer_invariant_factors.cells", "laurent.smith_normal_form.cells",
               "conditions.witnesses")
RATIOS = {  # metric: (numerator count, denominator count)
    "homology.reduced_homology.distinct_ratio":
        ("homology.reduced_homology.distinct", "homology.reduced_homology.calls"),
    "homology.has_cone_vertex.hit_ratio":
        ("homology.has_cone_vertex.hits", "homology.has_cone_vertex.calls"),
    "verdicts.homotopic_unknown_ratio":
        ("verdicts.homotopic_sigma_verdict.unknown", "verdicts.homotopic_sigma_verdict.calls"),
    "laurent.laurent_divmod.useful_ratio":
        ("laurent.laurent_divmod.useful", "laurent.laurent_divmod.calls"),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def drift_probe() -> float:
    """Seconds for a fixed pure-Python loop; shows machine speed drift."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i & 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks


def _check(report: dict) -> bool:
    results = report["results"]
    command = report["command"]
    if command == "homology":
        oracle = results.get("oracle")
        return (results.get("cross_check") == {"ok": True} and oracle is not None
                and oracle["free_rank"] == results["free_rank"])
    if command == "verdict":
        sigma = results["sigma_z"]["status"]
        return (results["fp"]["status"] == sigma
                and (results["sigma_homotopic"]["status"] != "IN" or sigma == "IN"))
    if command == "validate":
        return results["even"]["ok"] and results["fc"]["ok"]
    return True


def run_command(cli, argv: list[str], digest=None) -> tuple[float, bool]:
    """Run one command; returns (latency in s, whether it passed its checks).
    With ``digest`` given, the text and JSON reports are added to it."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code, report = cli.run(argv, out=out)
    except (Exception, SystemExit) as exc:  # a failed command, counted and reported
        elapsed = time.perf_counter() - start
        print(f"failed: {' '.join(argv)}: {exc!r}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    ok = code == 0 and report is not None and _check(report)
    if not ok:
        print(f"failed: {' '.join(argv)}: exit {code}, output check failed", file=sys.stderr)
    if digest is not None:
        digest.update((out.getvalue() + json.dumps(report, sort_keys=True)).encode("utf-8"))
    return elapsed, ok


# ---------------------------------------------------------------------------
# set-up


def _fresh_cli():
    for name in [m for m in sys.modules if m == "artinsigma" or m.startswith("artinsigma.")]:
        del sys.modules[name]
    return importlib.import_module("artinsigma.cli")


def demo_commands() -> list[list[str]]:
    return [[*command, str(demo)] for demo in sorted(DEMOS.glob("*.json"))
            for command in WARMUP_COMMANDS]


def set_up():
    """Import the library afresh and warm up on the demos."""
    start = time.perf_counter()
    cli = _fresh_cli()
    for argv in demo_commands():
        if not run_command(cli, argv)[1]:
            raise SystemExit(f"warm-up command failed: {' '.join(argv)}")
    return time.perf_counter() - start, cli


# ---------------------------------------------------------------------------
# measurement


def timed_pass(cli, argvs, seconds: float):
    """Run commands in order, cycling, until ``seconds`` have passed and at
    least MIN_COMMANDS have run.  Returns (latencies, failures, wall time,
    digest of the first MIN_COMMANDS outputs)."""
    latencies: list[float] = []
    failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    j = 0
    while j < MIN_COMMANDS or time.perf_counter() - start < seconds:
        elapsed, ok = run_command(cli, argvs[j % len(argvs)],
                                  digest if j < MIN_COMMANDS else None)
        latencies.append(elapsed)
        failed += not ok
        j += 1
    return latencies, failed, time.perf_counter() - start, digest.hexdigest()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, argvs, seconds: int, setup_s: float):
    latencies, failed, wall, digest = timed_pass(cli, argvs, seconds)
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    metrics = {
        "ops_per_s": _metric(n / wall, "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
        "ok_ratio": _metric((n - failed) / n, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    notes = [f"{n} commands, closed loop, 1 client; {sum(x > p90 for x in latencies)} "
             f"latency samples beyond p90",
             f"failed_ratio {failed / n} ratio ({failed} of {n})"]
    return n, failed, metrics, digest, notes


def traced(cli, argvs, seconds: int, spans_path: Path):
    """Passes over the demo commands and the first MIN_COMMANDS workload
    commands, each run untraced and then traced, until ``seconds`` are used.
    Counts come from the first pass (every pass does the same work); times
    are medians over passes.  The digest covers the workload commands only."""
    demos = demo_commands()
    argvs = demos + argvs[:MIN_COMMANDS]
    plain_totals, traced_totals, fn_self = [], [], []
    samples = {b: 0 for b in SAMPLE_BUCKETS}
    counts = maxima = first_spans = None
    attempted = failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        plain = traced_total = 0.0
        for j, argv in enumerate(argvs):
            elapsed, ok = run_command(cli, argv,
                                      digest if not fn_self and j >= len(demos) else None)
            plain += elapsed
            failed += not ok
            tracer.command = j
            tracer.install()
            try:
                elapsed, ok = run_command(cli, argv)
            finally:
                tracer.uninstall()
            traced_total += elapsed
            failed += not ok
            attempted += 2
        plain_totals.append(plain)
        traced_totals.append(traced_total)
        fn_self.append(tracer.function_self_times())
        for bucket, k in tracer.samples.items():
            samples[bucket] += k
        if counts is None:
            counts, maxima, first_spans = tracer.counts, tracer.maxima, tracer.spans
        passes = len(fn_self)
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            break

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, s0, s1, parent, command in first_spans:
            fh.write(json.dumps({"name": name, "start": s0, "end": s1,
                                 "parent": parent, "command": command}) + "\n")

    metrics = {}
    for fn in COUNTED_FUNCTIONS:
        metrics[f"{fn}.calls"] = _metric(counts[f"{fn}.calls"], "count")
    for fn in TIMED_FUNCTIONS + SELF_TIMED_ONLY:
        metrics[f"{fn}.s"] = _metric(statistics.median(p[fn] for p in fn_self), "s")
    for name in WORK_COUNTS:
        metrics[name] = _metric(counts[name], "count")
    metrics["laurent.smith_normal_form.max_entry_span"] = _metric(
        maxima["laurent.smith_normal_form.max_entry_span"], "count")
    for name, (num, den) in RATIOS.items():
        metrics[name] = _metric(counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = _metric(statistics.median(
            sum(s for fn, s in p.items() if fn.startswith(layer + ".")) for p in fn_self), "s")
    total = sum(samples.values()) or 1
    for bucket in SAMPLE_BUCKETS:
        metrics[f"sampled.{bucket}.share"] = _metric(samples[bucket] / total, "ratio")
    overhead = statistics.median(p / t for p, t in zip(plain_totals, traced_totals))
    metrics["trace.ops_per_s_ratio"] = _metric(overhead, "ratio")

    dominant = max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"]["value"])
    notes = [f"{len(fn_self)} passes of {len(demos)} demo and {len(argvs) - len(demos)} "
             f"workload commands, each run untraced, then traced; {len(first_spans)} "
             f"spans per traced pass "
             f"written to {spans_path}",
             f"tracing overhead: traced ops_per_s / untraced ops_per_s = {overhead:.4f}",
             f"dominant layer by span self time: {dominant}; CPU samples: " +
             ", ".join(f"{b} {samples[b] / total:.1%}" for b in SAMPLE_BUCKETS)]
    return attempted, failed, metrics, digest.hexdigest(), notes


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "artinsigma" / "cli.py").is_file() or not list(DEMOS.glob("*.json")):
        print(f"error: the library sources ({SRC.relative_to(ROOT)}) or the demo instances "
              f"({DEMOS.relative_to(ROOT)}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    directory = WORK / f"{workload.name}-{args.seed}"

    start = time.perf_counter()
    shutil.rmtree(directory, ignore_errors=True)
    paths = write_instances(workload, args.seed, directory, POOL)
    write_s = time.perf_counter() - start
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli = set_up()
        setups.append(elapsed)
    argvs = [[*workload.commands[j % len(workload.commands)], str(paths[j % len(paths)])]
             for j in range(len(paths))]

    before = drift_probe()
    if args.trace:
        attempted, failed, metrics, digest, notes = traced(
            cli, argvs, args.seconds, WORK / f"spans-{workload.name}.jsonl")
    else:
        attempted, failed, metrics, digest, notes = end_to_end(
            cli, argvs, args.seconds, statistics.median(setups))
    after = drift_probe()
    shutil.rmtree(directory, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  report digest (first {MIN_COMMANDS} commands): sha256 {digest}")
    print(f"  drift probe ({PROBE_ITERATIONS} loop iterations, not in any metric): "
          f"{before:.4f} s before, {after:.4f} s after")
    print(f"  set-up repeats: {', '.join(f'{s:.4f}' for s in setups)} s; "
          f"writing {len(paths)} instances, not in setup_s: {write_s:.4f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
