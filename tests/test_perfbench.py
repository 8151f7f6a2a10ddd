"""The benchmark still runs against the program and checks itself.

``perfbench/run.py`` imports names from ``rebac.paths``, ``rebac.oracle``
and ``rebac.pdp``; renaming one breaks the benchmark, and this test
fails instead of the next benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["churn", "corp-policy"])
def test_benchmark_workload_runs_correctly(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.05"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
