"""CLI outputs that changes meaning to keep behaviour must not move.

Each entry holds the sha256 digest of one command's standard output, run
from the directory holding the bundled workspaces, so no absolute path
reaches the output.  A change to any byte of an output changes its
digest.  Update a digest only together with a CHANGES.md line naming the
output and the reason it changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from rebac import make_fixture, save_workspace
from rebac.cli import main

DIGESTS = {
    ("eval-batch", "-w", "corporate.json", "--trace"): "5ba3604cc07754bb1edfcc44aa408249baf6aa90dab8a80448daf595942fa557",
    ("eval-batch", "-w", "corporate.json", "--metrics"): "95b6c40910c23b2510920ac7fdc655debbc63684a332841d73dd9a3e49b1bc23",
    ("eval-batch", "-w", "corporate.json", "--explain"): "cecdfba22171df2abd228a1831a03ef1710aa11dbc5ef3bc6fd7d115822382cc",
    ("eval-batch", "-w", "rbac.json", "--trace"): "f6d77cb0e0f825cf10f2e5e1ae033e5c1b4232db508114d6f6e4323744d5909a",
    ("eval-batch", "-w", "rbac.json", "--metrics"): "0020504ff203b5bd04cae0ee18461326656a019ae552dd344e27f4e09b0fb9fc",
    ("eval-batch", "-w", "rbac.json", "--explain"): "4b45e0b1633a2c2b589c35d93f47d5fed9e670c6c6690632ff225462d22466f1",
    ("eval-batch", "-w", "unix.json", "--trace"): "1f3ba10c3bba3af70e740c51d9e19959fc4fd24dc564e1098e16904fb2c70f42",
    ("eval-batch", "-w", "unix.json", "--metrics"): "d3fe1830951139e95136bee8baafb1c2355b0ac806ec61f96d28b40392dfbb35",
    ("eval-batch", "-w", "unix.json", "--explain"): "d1f55619f6a8c60b9368b2cb785fdf573f2a9b76668a6476ff4ce54a328dae3b",
    ("validate", "-w", "corporate.json"): "87cbfe5b192c78e6b5a1a59f9d208aa97cfc19c8ff3d1be257cee9cdc60dfa8d",
    ("validate", "-w", "rbac.json"): "130d844706efbe8e661a41145c7287532cac0805411d3fee36d52dbdb2fbfcc5",
    ("validate", "-w", "unix.json"): "baadc9d6ca792dca19d4274c01fdaa7e0f363879cfa538cd0d62e28bf1d3f4b0",
    ("match", "-w", "corporate.json", "-s", "Sales.#2", "-t", "Func.Spec.#1", "-p", "P . ~R . (~M)+", "--metrics"):
        "db3f0f616338ea9319599c4a2462fad66d88529406ad1b0ebf6ea5d9bbac0314",
}


@pytest.fixture(scope="module")
def workspace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("workspaces")
    for name in ("corporate", "rbac", "unix"):
        save_workspace(make_fixture(name), directory / f"{name}.json")
    return directory


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_cli_output_matches_its_digest(argv, workspace_dir, monkeypatch, capsys):
    monkeypatch.chdir(workspace_dir)
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]


def test_metrics_report_output_matches_its_digest(capsys):
    # the bundled corporate workspace: every (request, path rule) row
    path = Path(__file__).resolve().parents[1] / "scripts" / "metrics_report.py"
    spec = importlib.util.spec_from_file_location("metrics_report", path)
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    assert report.main([]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == "34fa5f27dc19dbfd63fc52ccf9050b3a0a8fb7f6c231d37788f81f1095e5fb26"
