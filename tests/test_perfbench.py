"""The benchmark still runs against the program and checks itself.

``perfbench/run.py`` imports names from ``rebac.paths``, ``rebac.oracle``,
``rebac.differential`` and ``rebac.pdp``, and its ``--trace 1`` mode
rebinds functions and methods by name; renaming one breaks the
benchmark or silently drops its metric, and these tests fail instead of
the next benchmark run.  Each workload must also report every end-to-end
metric ``BENCHMARK.json`` gates.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rebac.matching
from rebac import PrincipalMatchingRule, evaluate, make_fixture

ROOT = Path(__file__).resolve().parent.parent
GATED = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


WORKLOADS = ["churn", "corp-policy", "crosscheck", "deep-graph"]
RUNS = [("--workload", workload) for workload in WORKLOADS] + [("--workload", "churn", "--trace", "1")]


@pytest.fixture(scope="module")
def runs():
    """Every run in this module, started together so that they share the
    machine's cores; each test waits for its own."""
    started = {
        options: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.05", *options],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for options in RUNS
    }
    yield started
    for process in started.values():
        process.kill()  # does nothing to a run that has finished
        process.wait()


def _result(runs, *options: str) -> dict:
    stdout, stderr = runs[options].communicate(timeout=300)
    assert runs[options].returncode == 0, stdout + stderr
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(workload, runs):
    metrics = _result(runs, "--workload", workload)["metrics"]
    assert sorted(metrics) == sorted(GATED)
    assert all(metrics[name]["value"] > 0 for name in GATED), metrics


def test_traced_benchmark_run_reports_graph_build(runs):
    # the tracer rebinds SystemGraph.__init__ and SystemGraph.edges_incident
    result = _result(runs, "--workload", "churn", "--trace", "1")
    assert result["metrics"]["graph.build_s"]["value"] > 0
    # and rebac.matching's globals: a matcher that bypasses them reads 0 here
    assert result["metrics"]["paths.calls_per_op"]["value"] > 0
    assert result["metrics"]["matching.match_path_calls_per_op"]["value"] > 0
    # a match_principals that searched past the match_path global would time no span
    assert result["metrics"]["matching.match_path_hit_self_us"]["value"] > 0
    assert result["metrics"]["matching.match_path_miss_self_us"]["value"] > 0


def test_matcher_calls_the_path_functions_the_tracer_counts(monkeypatch):
    # paths.calls counts rebac.matching's globals; a matcher that bound one
    # of them at import would call it past the counter, and the sum hides it.
    # A rule simplifies its condition once, when it is built, so evaluating
    # a request simplifies nothing
    workspace = make_fixture("corporate")
    calls = Counter()
    for name in ("simplify", "head", "suffix", "render"):
        def counted(*args, _name=name, _fn=getattr(rebac.matching, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(rebac.matching, name, counted)
    for request in workspace.requests:
        evaluate(workspace.graph, workspace.system, request, trace=lambda line: None)
    assert all(calls[name] > 0 for name in ("head", "suffix", "render")), calls
    assert calls["simplify"] == 0
    PrincipalMatchingRule(workspace.system.principal_rules[0].condition, "p")
    assert calls["simplify"] == 1


def test_every_tracer_target_exists():
    # the tracer skips a missing span or count target, so its metric reads 0;
    # it rebinds SystemGraph.edges_incident unconditionally, so the run crashes
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(owner, attribute) for owner, attribute, _ in tracer._SPANNED + tracer._COUNTED]
    targets.append((tracer.SystemGraph, "edges_incident"))
    missing = [f"{owner.__name__}.{attribute}" for owner, attribute in targets if not hasattr(owner, attribute)]
    assert missing == []
