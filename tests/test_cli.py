from __future__ import annotations

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebac.differential
from rebac import Decision, Request, dumps_workspace, evaluate, load_workspace, make_fixture, oracle_satisfies
from rebac.cli import main
from rebac.paths import MAX_DEPTH, PathSyntaxError, parse

from strategies import DOCUMENTS, workspace_texts


@pytest.fixture()
def corporate_file(tmp_path):
    path = tmp_path / "corporate.json"
    path.write_text(dumps_workspace(make_fixture("corporate")))
    return str(path)


@pytest.fixture()
def unix_file(tmp_path):
    path = tmp_path / "unix.json"
    path.write_text(dumps_workspace(make_fixture("unix")))
    return str(path)


def test_validate_reports_counts(corporate_file, capsys):
    assert main(["validate", "--workspace", corporate_file]) == 0
    out = capsys.readouterr().out
    assert out == f"{corporate_file}: ok (25 entities, 29 edges, 12 rules)\n"


def test_validate_prints_every_violation_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(dumps_workspace(make_fixture("unix")))
    doc["version"] = 9
    doc["model"]["symmetric"] = ["friend"]
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--workspace", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "version must be 1, found 9" in err
    assert "symmetric label 'friend'" in err


def test_eval_allow_exit_code_and_annotation(corporate_file, capsys):
    code = main(
        ["eval", "-w", corporate_file, "-s", "Tech.#2", "-o", "Func.Spec.#1", "-a", "write"]
    )
    assert code == 0
    assert capsys.readouterr().out == "ALLOW (first match)\n"


def test_eval_deny_exit_code_and_annotation(corporate_file, capsys):
    code = main(
        ["eval", "-w", corporate_file, "-s", "CEO", "-o", "Proj.#1 Report#1", "-a", "read"]
    )
    assert code == 1
    assert capsys.readouterr().out == "DENY (system default)\n"


def test_eval_unambiguous_outcome_has_no_annotation(corporate_file, capsys):
    code = main(
        ["eval", "-w", corporate_file, "-s", "Tech.#2", "-o", "Test.Spec.#1", "-a", "read"]
    )
    assert code == 0
    assert capsys.readouterr().out == "ALLOW\n"


def test_eval_unknown_entity_exits_2(corporate_file, capsys):
    code = main(["eval", "-w", corporate_file, "-s", "ghost", "-o", "Func.Spec.#1", "-a", "read"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_metrics_lists_evaluated_rules(corporate_file, capsys):
    main(
        [
            "eval",
            "-w",
            corporate_file,
            "-s",
            "Sales.#2",
            "-o",
            "Func.Spec.#1",
            "-a",
            "write",
            "--metrics",
        ]
    )
    out = capsys.readouterr().out
    assert "rule 9 " in out
    assert "found=yes n=6 e=16" in out


def test_eval_explain_emits_a_loadable_trace(corporate_file, capsys):
    main(
        [
            "eval",
            "-w",
            corporate_file,
            "-s",
            "Tech.#2",
            "-o",
            "Func.Spec.#1",
            "-a",
            "write",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    _, _, payload = out.partition("\n")
    ws = load_workspace(corporate_file)
    trace = evaluate(ws.graph, ws.system, Request("Tech.#2", "Func.Spec.#1", "write"))
    assert json.loads(payload) == trace.to_dict()
    assert trace.outcome.value == "allow"
    assert trace.resolution == "crs:FirstMatch"
    assert trace.possible_decisions == [True, False]


def test_eval_trace_prefixes_rule_numbers(corporate_file, capsys):
    main(
        [
            "eval",
            "-w",
            corporate_file,
            "-s",
            "CTO",
            "-o",
            "Proj.#1 Report#1",
            "-a",
            "read",
            "--trace",
        ]
    )
    out = capsys.readouterr().out
    assert any(line.startswith("rule ") for line in out.splitlines())


def test_eval_batch_prints_one_line_per_request(corporate_file, capsys):
    assert main(["eval-batch", "--workspace", corporate_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "Tech.#2 Test.Spec.#1 read: ALLOW",
        "Tech.#2 Func.Spec.#1 write: ALLOW (first match)",
        "Sales.#2 Func.Spec.#1 write: DENY",
        "CTO Proj.#1 Report#1 read: ALLOW",
        "CEO Proj.#1 Report#1 read: DENY (system default)",
    ]


def test_eval_batch_explain_collects_all_traces(unix_file, capsys):
    assert main(["eval-batch", "-w", unix_file, "--explain"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("[") :]
    traces = json.loads(payload)
    assert [t["outcome"] for t in traces] == ["allow", "allow", "deny", "deny"]


def test_match_found_with_metrics(corporate_file, capsys):
    code = main(
        [
            "match",
            "-w",
            corporate_file,
            "-s",
            "Sales.#2",
            "-t",
            "Func.Spec.#1",
            "-p",
            "P . ~R . (~M)+",
            "--metrics",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "found=yes\nn=6 e=16 queue_peak=2 pairs_seen=9\n"


def test_match_not_found_exits_1(corporate_file, capsys):
    code = main(
        [
            "match",
            "-w",
            corporate_file,
            "-s",
            "CEO",
            "-t",
            "Proj.#1 Report#1",
            "-p",
            "S+ . ~M . S . ~D . (~M)+",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out == "found=no\n"


def test_match_rejects_unknown_label(corporate_file, capsys):
    code = main(
        ["match", "-w", corporate_file, "-s", "CEO", "-t", "CTO", "-p", "Supervises . nope"]
    )
    assert code == 2
    assert "unknown relationship label" in capsys.readouterr().err


def test_simplify_pushes_reversal_inward(capsys):
    assert main(["simplify", "--path", "~(~(r1 . r2) . (r1 . r3)+)"]) == 0
    assert capsys.readouterr().out == "(~r3 . ~r1)+ . r1 . r2\n"


def test_simplify_resolves_abbreviations_against_workspace(corporate_file, capsys):
    assert main(["simplify", "-p", "S+ . ~M", "--workspace", corporate_file]) == 0
    assert capsys.readouterr().out == "Supervises+ . ~Member-of\n"


def test_simplify_rejects_star_with_position(capsys):
    assert main(["simplify", "--path", "a*"]) == 2
    err = capsys.readouterr().err
    assert "'*' has no surface form" in err


def test_fixture_to_stdout_round_trips(capsys):
    assert main(["fixture", "unix"]) == 0
    out = capsys.readouterr().out
    assert out == dumps_workspace(make_fixture("unix"))


def test_fixture_to_file(tmp_path, capsys):
    out_path = tmp_path / "rbac.json"
    assert main(["fixture", "rbac", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"wrote {out_path}\n"
    assert json.loads(out_path.read_text())["version"] == 1


def test_oracle_check_workspace_and_random_trials(corporate_file, capsys):
    code = main(["oracle-check", "--workspace", corporate_file, "--trials", "200", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    checked = 200 + 5 * 12 + 5  # random trials + requests x path rules + decisions
    assert out == f"{checked}/{checked} agree\n"


def test_oracle_check_names_the_first_decision_disagreement(corporate_file, capsys, monkeypatch):
    def flipped(graph, system, request):
        trace = evaluate(graph, system, request)
        trace.outcome = Decision.DENY if trace.outcome is Decision.ALLOW else Decision.ALLOW
        return trace

    monkeypatch.setattr(rebac.differential, "evaluate", flipped)
    assert main(["oracle-check", "--workspace", corporate_file, "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "60/65 agree\n"
    assert captured.err == (
        "first disagreement: matcher=(['Project Resource Supervisor', 'Project Resource User'], 'deny') "
        "oracle=(['Project Resource Supervisor', 'Project Resource User'], 'allow') "
        "for ('Tech.#2', 'Test.Spec.#1', 'read')\n"
    )


def test_oracle_check_random_only(capsys):
    assert main(["oracle-check", "--trials", "50"]) == 0
    assert capsys.readouterr().out == "50/50 agree\n"


def test_oracle_check_rejects_a_negative_trial_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--trials", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --trials: must be 0 or more, found -3" in captured.err


def test_missing_workspace_file_exits_2(capsys):
    assert main(["validate", "--workspace", "/nonexistent/ws.json"]) == 2
    assert capsys.readouterr().err != ""


def test_eval_decides_on_a_nested_closure_rule(tmp_path, capsys):
    # a rule whose search once broke the matcher's work bound
    labels = ["a", "b", "c"]
    doc = {
        "version": 1,
        "model": {
            "types": ["node"],
            "labels": labels,
            "symmetric": ["c"],
            "permissible": [{"from": "node", "to": "node", "label": l} for l in labels],
        },
        "graph": {
            "entities": [{"id": "n0", "type": "node"}, {"id": "n1", "type": "node"}],
            "edges": [
                {"from": "n0", "to": "n0", "label": "a"},
                {"from": "n0", "to": "n1", "label": "c"},
                {"from": "n1", "to": "n0", "label": "a"},
            ],
        },
        "authorization_system": {
            "pms": "FirstMatch",
            "crs": "FirstMatch",
            "principal_rules": [{"path": "((~c)+ . c)+ . (c . ((~a)+ . ~c)+ . a)+", "principal": "p"}],
            "auth_rules": [{"principal": "p", "object": "*", "action": "read", "allow": True}],
        },
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "-w", str(path)]) == 0
    capsys.readouterr()
    assert main(["eval", "-w", str(path), "-s", "n0", "-o", "n1", "-a", "read"]) == 1
    assert capsys.readouterr().out == "DENY (system default)\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("requests", 5),
        ("path", "(" * 600 + "uo" + ")" * 600),
        ("path", " . ".join(["uo"] * 600)),
    ],
    ids=["requests-not-a-list", "600-nested-parens", "600-label-chain"],
)
def test_eval_exits_2_not_1_on_unusable_input(tmp_path, capsys, field, value):
    doc = json.loads(dumps_workspace(make_fixture("unix")))
    if field == "requests":
        doc["requests"] = value
    else:
        doc["authorization_system"]["principal_rules"][0]["path"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "-w", str(path), "-s", "alice", "-o", "file1", "-a", "read"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1


def _unix_with(tmp_path, change):
    doc = json.loads(dumps_workspace(make_fixture("unix")))
    change(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "change, violation",
    [
        (
            lambda doc: doc["authorization_system"]["auth_rules"][3].update(principal="wrld"),
            "authorization rule 4: principal 'wrld' is not produced by any principal matching rule",
        ),
        (lambda doc: doc["requests"][1].update(object="ghost"), "requests[1]: unknown entity 'ghost'"),
    ],
    ids=["dangling-principal", "unknown-request-entity"],
)
def test_validate_rejects_dangling_principals_and_unknown_request_entities(tmp_path, capsys, change, violation):
    path = _unix_with(tmp_path, change)
    assert main(["validate", "-w", path]) == 2
    assert capsys.readouterr().err == violation + "\n"


# one text per form, `depth` levels deep
DEPTH_FORMS = {
    "plus": lambda depth: "uo" + "+" * (depth - 1),
    "parens": lambda depth: "(" * (depth - 1) + "uo" + ")" * (depth - 1),
    "concat": lambda depth: " . ".join(["uo"] * depth),
    "reverse": lambda depth: "~" * (depth - 1) + "uo",
}


@pytest.mark.parametrize("form", sorted(DEPTH_FORMS))
def test_conditions_at_the_depth_limit_work_end_to_end(tmp_path, capsys, form):
    text = DEPTH_FORMS[form](MAX_DEPTH)
    path = _unix_with(tmp_path, lambda doc: doc["authorization_system"]["principal_rules"][0].update(path=text))
    ws = load_workspace(path)
    found = oracle_satisfies(ws.graph, "alice", "file1", ws.system.principal_rules[0].condition)
    assert main(["validate", "-w", path]) == 0
    # alice reads file1 as its owner or, failing that, as a member of its group
    assert main(["eval", "-w", path, "-s", "alice", "-o", "file1", "-a", "read", "--metrics", "--explain"]) == 0
    assert main(["simplify", "-p", text]) == 0
    assert main(["match", "-w", path, "-s", "alice", "-t", "file1", "-p", text, "--trace"]) == (0 if found else 1)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 10_000])
@pytest.mark.parametrize("form", sorted(DEPTH_FORMS))
def test_conditions_past_the_depth_limit_are_named_violations(tmp_path, unix_file, capsys, form, depth):
    text = DEPTH_FORMS[form](depth)
    with pytest.raises(PathSyntaxError, match=f"more than {MAX_DEPTH} levels deep") as excinfo:
        parse(text)
    assert excinfo.value.position is not None
    message = str(excinfo.value)
    path = _unix_with(tmp_path, lambda doc: doc["authorization_system"]["principal_rules"][0].update(path=text))
    assert main(["validate", "-w", path]) == 2
    assert capsys.readouterr().err == f"principal rule 1: {message}\n"
    assert main(["simplify", "-p", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["match", "-w", unix_file, "-s", "alice", "-t", "file1", "-p", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


DECISION = re.compile(r"(ALLOW|DENY)( \(.+\))?")
ODD_ARGUMENTS = st.none() | st.sampled_from(["", "*", "ghost", "-x", "--", "-s"]) | st.text(max_size=6)


@st.composite
def eval_invocations(draw):
    """A workspace file's text (None: no such file) and ``eval``
    arguments, mostly entities and actions of the fixture it came from."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    text = None if draw(st.integers(0, 7)) == 0 else draw(workspace_texts(name))
    doc = DOCUMENTS[name]
    entities = [e["id"] for e in doc["graph"]["entities"]]
    actions = sorted({r["action"] for r in doc["authorization_system"]["auth_rules"]})
    if draw(st.booleans()):  # one of the fixture's own requests, which include allowed ones
        request = draw(st.sampled_from(doc["requests"]))
        arguments = [request["subject"], request["object"], request["action"]]
    else:
        arguments = []
        for usual in (entities, entities, actions):
            arguments.append(draw(st.sampled_from(usual) if draw(st.integers(0, 3)) else ODD_ARGUMENTS))
    flags = draw(st.sets(st.sampled_from(["--trace", "--metrics", "--explain"])))
    return text, arguments, sorted(flags)


@given(eval_invocations())
@settings(max_examples=300, deadline=None)
def test_eval_exits_0_or_1_only_after_printing_a_decision(invocation):
    text, request_args, flags = invocation
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ws.json")
        if text is not None:  # None: no such file
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = ["eval", "-w", path]
        for option, value in zip(("-s", "-o", "-a"), request_args):
            if value is not None:
                argv += [option, value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv + flags)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
    decisions = [line for line in out.getvalue().splitlines() if DECISION.fullmatch(line)]
    if code in (0, 1):
        assert len(decisions) == 1
        assert decisions[0].startswith("ALLOW" if code == 0 else "DENY")
    else:
        assert code == 2
        assert decisions == []
        assert err.getvalue()
