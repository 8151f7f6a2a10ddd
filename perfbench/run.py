"""Layered decision benchmark for rebac.

Usage, from the repository root:

    python3 perfbench/run.py --workload deep-graph --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Prints a report, one metric per line with its unit, and as the last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones.  See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corp-policy", "deep-graph", "churn", "crosscheck")
OUT_DIR = ROOT / ".perfbench_out"
# String hashing fixes set and dict layouts, which move the matcher's speed
# by a few percent from one process to the next; every run uses one layout.
HASH_SEED = "0"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's own ``src`` first on the path; refuse any other rebac."""
    src = ROOT / "src"
    if not (src / "rebac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rebac sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import rebac

    if Path(rebac.__file__).resolve().parent != (src / "rebac").resolve():
        raise SystemExit(f"perfbench: imported rebac from {rebac.__file__}, not from {src}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, 1 <= q <= 99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result) -> list[tuple[str, float, str]]:
    loop = result.loop
    ops = len(loop.latencies)
    return [
        ("ops_per_s", ops / loop.elapsed, "1/s"),
        ("op_p50_us", quantile(loop.latencies, 50) * 1e6, "us"),
        ("op_p90_us", quantile(loop.latencies, 90) * 1e6, "us"),
        ("setup_s", statistics.median(result.setup_times), "s"),
        ("peak_rss_mb", result.peak_rss_mb, "MB"),
    ]


def workload_named(result) -> list[tuple[str, float, str]]:
    """The same figures under the names each workload's users know them by."""
    loop = result.loop
    ops = len(loop.latencies)
    rows = []
    if result.workload == "crosscheck":
        rows.append(("trials_per_s", ops / loop.elapsed, "1/s"))
    else:
        rows.append(("decisions_per_s", ops / loop.elapsed, "1/s"))
        rows.append(("decision_p50_us", quantile(loop.latencies, 50) * 1e6, "us"))
        # p99 only where at least ten samples lie beyond it
        if ops >= 1000:
            rows.append(("decision_p99_us", quantile(loop.latencies, 99) * 1e6, "us"))
    if loop.update_latencies:
        rows.append(("update_p50_ms", statistics.median(loop.update_latencies) * 1e3, "ms"))
    rows.append(("failed_frac", result.failed / max(result.attempted, 1), "frac"))
    return rows


def per_layer(result) -> tuple[list, list]:
    """(metrics in BENCHMARK.json, further per-layer metrics of this workload)."""
    tracer = result.tracer
    durations = tracer.durations()
    self_times = tracer.self_times()
    c = result.counters
    per_op = max(c.ops, 1)
    counts = result.pass_counts

    missing = []

    def median_of(table, *names, scale=1.0):
        values = [v for name in names for v in table.get(name, ())]
        if not values:
            missing.append(names[0])
            return 0.0
        return statistics.median(values) * scale

    untraced, traced = result.loop, result.traced_loop
    overhead = 1 - (len(traced.latencies) / traced.elapsed) / (len(untraced.latencies) / untraced.elapsed)
    listed = [
        ("workspace.loads_s", median_of(durations, "workspace.loads"), "s"),
        ("graph.build_s", median_of(durations, "graph.build"), "s"),
        ("graph.index_build_s", median_of(durations, "graph.index_build"), "s"),
        ("graph.edges_incident_calls_per_op", counts.get("graph.edges_incident", 0) / per_op, "count"),
        ("paths.calls_per_op", counts.get("paths.calls", 0) / per_op, "count"),
        ("matching.match_path_calls_per_op", c.match_path_calls / per_op, "count"),
        ("matching.match_path_hit_self_us",
         median_of(self_times, "matching.match_path.hit", "differential.match_path.hit", scale=1e6), "us"),
        ("matching.match_path_miss_self_us",
         median_of(self_times, "matching.match_path.miss", "differential.match_path.miss", scale=1e6), "us"),
        ("matching.pairs_seen_per_op", c.pairs_seen / per_op, "count"),
        ("matching.edges_considered_per_op", c.edges_considered / per_op, "count"),
        ("matching.nodes_visited_per_op", c.nodes_visited / per_op, "count"),
        ("matching.bound_util_max", c.bound_util_max, "ratio"),
        ("matching.rule_hit_frac", c.match_path_found / max(c.match_path_calls, 1), "ratio"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]
    extra = []
    if result.workload == "crosscheck":
        extra += [
            ("oracle.satisfies_us", median_of(durations, "oracle.satisfies", scale=1e6), "us"),
            ("oracle.compile_nfa_us", median_of(durations, "oracle.compile_nfa", scale=1e6), "us"),
            ("differential.random_graph_us", median_of(durations, "differential.random_graph", scale=1e6), "us"),
            ("differential.match_path_us",
             median_of(durations, "differential.match_path.hit", "differential.match_path.miss", scale=1e6), "us"),
        ]
    else:
        extra += [
            ("matching.match_principals_self_us",
             median_of(self_times, "matching.match_principals", scale=1e6), "us"),
            ("matching.validate_policy_calls_per_op", counts.get("matching.validate_policy", 0) / per_op, "count"),
            ("pdp.evaluate_self_us", median_of(self_times, "pdp.evaluate", scale=1e6), "us"),
        ]
    if result.workload == "churn":
        extra.append(("graph.update_us", median_of(durations, "graph.update", scale=1e6), "us"))
    for name in missing:
        print(f"# no spans named {name}: its metric reads 0")
    return listed, extra


def _run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {completed.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    _import_program()
    if args.workload == "all":
        return _run_all(args)

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = result.failed == 0 and result.attempted > 0
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" entities={result.entities} edges={result.edges}"
          f" ops={len(result.loop.latencies)} setup_repeats={len(result.setup_times)}")
    if args.trace:
        listed, extra = per_layer(result)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        result.tracer.write(spans)
        print(f"# {len(result.tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        reported = listed
        shown = listed + extra
    else:
        reported = end_to_end(result)
        shown = reported + workload_named(result)
    c = result.counters
    shown += [  # summed over the counter pass; equal in every run of a seed
        ("work.ops", c.ops, "count"),
        ("work.match_path_calls", c.match_path_calls, "count"),
        ("work.pairs_seen", c.pairs_seen, "count"),
        ("work.edges_considered", c.edges_considered, "count"),
        ("work.nodes_visited", c.nodes_visited, "count"),
    ]
    for name, value, unit in shown:
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    for problem in result.problems:
        print(f"# failure: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
