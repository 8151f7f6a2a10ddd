"""The benchmark still runs against the program and checks itself.

``perfbench/run.py`` imports names from ``rebac.paths``, ``rebac.oracle``,
``rebac.differential`` and ``rebac.pdp``, and its ``--trace 1`` mode
rebinds functions and methods by name; renaming one breaks the
benchmark, and these tests fail instead of the next benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*options: str) -> dict:
    command = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.05", *options]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["churn", "corp-policy", "crosscheck"])
def test_benchmark_workload_runs_correctly(workload):
    _run("--workload", workload)


def test_traced_benchmark_run_reports_graph_build():
    # the tracer rebinds SystemGraph.__init__ and SystemGraph.edges_incident
    result = _run("--workload", "churn", "--trace", "1")
    assert result["metrics"]["graph.build_s"]["value"] > 0
