from __future__ import annotations

import pytest

from rebac import Decision, TOP, evaluate, make_fixture, match_path
from rebac.differential import check_workspace
from rebac.fixtures import FIXTURES
from rebac.graph import validate_model
from rebac.pdp import validate_system


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_are_internally_consistent(name):
    ws = make_fixture(name)
    assert validate_model(ws.model) == []  # the graph was validated when it was built
    assert validate_system(ws.system, ws.graph) == []
    assert ws.requests, "every fixture ships runnable requests"


def test_unknown_fixture_name_is_a_key_error():
    with pytest.raises(KeyError, match="unknown fixture"):
        make_fixture("nope")


def run_all(ws):
    return [evaluate(ws.graph, ws.system, r) for r in ws.requests]


def test_unix_owner_group_world_tiers():
    ws = make_fixture("unix")
    expected = [
        # subject, object, action -> principals, bits, outcome
        (("alice", "file1", "read"), ["owner"], [True], Decision.ALLOW),
        (("bob", "file1", "read"), ["group"], [True], Decision.ALLOW),
        (("carol", "file1", "read"), ["world"], [False], Decision.DENY),
        (("bob", "file1", "write"), ["group"], [], Decision.DENY),
    ]
    for trace, (request, principals, bits, outcome) in zip(run_all(ws), expected, strict=True):
        assert (trace.request.subject, trace.request.object, trace.request.action) == request
        assert trace.matched_principals == principals
        assert trace.possible_decisions == bits
        assert trace.outcome is outcome
    # the write request falls through every rule and lands on the system default
    assert run_all(ws)[3].resolution == "default:system"


def test_unix_matching_stops_at_first_rule():
    ws = make_fixture("unix")
    trace = evaluate(ws.graph, ws.system, ws.requests[0])
    # FirstMatch: alice is owner, so group/world rules are never evaluated
    assert [ev.principal for ev in trace.metrics] == ["owner"]


def test_rbac_role_and_permission_assignments():
    ws = make_fixture("rbac")
    expected = [
        (("alice", "commit-code", "commit"), Decision.ALLOW),
        (("bob", "commit-code", "commit"), Decision.ALLOW),  # via role hierarchy
        (("bob", "approve-release", "approve"), Decision.ALLOW),
        (("carol", "approve-release", "approve"), Decision.ALLOW),  # direct assignment
        (("carol", "commit-code", "commit"), Decision.DENY),
    ]
    for trace, (request, outcome) in zip(run_all(ws), expected, strict=True):
        assert (trace.request.subject, trace.request.object, trace.request.action) == request
        assert trace.outcome is outcome
    denied = run_all(ws)[4]
    assert denied.matched_principals == []
    assert denied.resolution == "default:system"


def test_rbac_matches_both_permission_principals():
    # AllMatch reports every principal whose condition holds; reaching one
    # permission entity also matches the sibling permission's rule because
    # the path shapes are identical.  The authorization rules then pin the
    # decision to the requested object.
    ws = make_fixture("rbac")
    trace = evaluate(ws.graph, ws.system, ws.requests[0])
    assert trace.matched_principals == ["commit-code", "approve-release"]
    assert trace.possible_decisions == [True]


def test_corporate_shape():
    ws = make_fixture("corporate")
    assert len(ws.graph) == 25
    assert len(ws.graph.edges) == 29
    assert len(ws.system.principal_rules) == 12
    assert len(ws.system.auth_rules) == 11
    assert len(ws.requests) == 5
    assert ws.model.labels == frozenset(
        {
            "Client-of",
            "Deliverable-for",
            "Member-of",
            "Participant-of",
            "Resource-for",
            "Supervises",
        }
    )


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_rules_and_decisions_agree_with_oracle(name):
    ws = make_fixture(name)
    report = check_workspace(ws)
    assert report.agreed, report.first_disagreement
    path_rules = sum(rule.condition is not TOP for rule in ws.system.principal_rules)
    assert report.trials == len(ws.requests) * (path_rules + 1)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_builders_return_fresh_objects(name):
    first, second = make_fixture(name), make_fixture(name)
    assert first is not second
    assert first.graph.entity_ids == second.graph.entity_ids


# (found, pairs_seen, edges_considered, nodes_visited) from match_path, for each
# request of a fixture (one list each, in order) and each of its rules; None for TOP
FROZEN_WORK = {
    "corporate": [
        # Tech.#2 -> Test.Spec.#1
        [
            (False, 1, 3, 1), (False, 4, 17, 2), (False, 4, 17, 2), (False, 2, 10, 2),
            (False, 5, 13, 4), (False, 2, 10, 2), (False, 5, 13, 4), (False, 2, 10, 2),
            (True, 10, 17, 7), (False, 2, 10, 2), (True, 10, 17, 7), (False, 2, 7, 2),
        ],
        # Tech.#2 -> Func.Spec.#1
        [
            (False, 1, 3, 1), (False, 4, 17, 2), (False, 4, 17, 2), (False, 2, 10, 2),
            (False, 5, 13, 4), (False, 2, 10, 2), (False, 5, 13, 4), (False, 2, 10, 2),
            (True, 9, 16, 6), (False, 2, 10, 2), (True, 9, 16, 6), (False, 2, 7, 2),
        ],
        # Sales.#2 -> Func.Spec.#1
        [
            (False, 1, 3, 1), (False, 1, 3, 1), (False, 1, 3, 1), (False, 1, 3, 1),
            (False, 1, 3, 1), (False, 2, 10, 2), (False, 5, 13, 4), (False, 1, 3, 1),
            (False, 1, 3, 1), (False, 2, 10, 2), (True, 9, 16, 6), (False, 2, 6, 2),
        ],
        # CTO -> Proj.#1 Report#1
        [
            (False, 1, 2, 1), (False, 8, 28, 6), (True, 14, 33, 10), (False, 2, 6, 2),
            (False, 2, 6, 2), (False, 1, 2, 1), (False, 1, 2, 1), (False, 2, 6, 2),
            (False, 3, 7, 3), (False, 1, 2, 1), (False, 1, 2, 1), (False, 2, 5, 2),
        ],
        # CEO -> Proj.#1 Report#1
        [
            (False, 1, 1, 1), (False, 8, 18, 6), (False, 8, 18, 6), (False, 2, 4, 2),
            (False, 2, 4, 2), (False, 1, 1, 1), (False, 1, 1, 1), (False, 2, 4, 2),
            (False, 2, 4, 2), (False, 1, 1, 1), (False, 1, 1, 1), (False, 1, 1, 1),
        ],
    ],
    "rbac": [
        # alice -> commit-code
        [
            (True, 2, 2, 2), (True, 2, 2, 2), (False, 2, 4, 2), (False, 2, 4, 2),
            (False, 1, 1, 1), (False, 1, 1, 1),
        ],
        # bob -> commit-code
        [
            (False, 2, 4, 2), (False, 2, 4, 2), (True, 5, 8, 3), (True, 5, 8, 3),
            (False, 1, 1, 1), (False, 1, 1, 1),
        ],
        # bob -> approve-release
        [
            (True, 2, 2, 2), (True, 2, 2, 2), (False, 5, 10, 3), (False, 5, 10, 3),
            (False, 1, 1, 1), (False, 1, 1, 1),
        ],
        # carol -> approve-release
        [
            (False, 1, 1, 1), (False, 1, 1, 1), (False, 1, 1, 1), (False, 1, 1, 1),
            (True, 1, 1, 1), (True, 1, 1, 1),
        ],
        # carol -> commit-code
        [
            (False, 1, 1, 1), (False, 1, 1, 1), (False, 1, 1, 1), (False, 1, 1, 1),
            (False, 1, 1, 1), (False, 1, 1, 1),
        ],
    ],
    "unix": [
        # alice -> file1
        [(True, 1, 1, 1), (True, 2, 3, 2), None],
        # bob -> file1
        [(False, 1, 2, 1), (True, 2, 3, 2), None],
        # carol -> file1
        [(False, 1, 0, 1), (False, 1, 0, 1), None],
        # bob -> file1
        [(False, 1, 2, 1), (True, 2, 3, 2), None],
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN_WORK))
def test_per_rule_work_is_frozen(name):
    ws = make_fixture(name)
    got = []
    for request in ws.requests:
        row = []
        for rule in ws.system.principal_rules:
            if rule.condition is TOP:
                row.append(None)
                continue
            found, m = match_path(ws.graph, request.subject, request.object, rule.condition)
            row.append((found, m.pairs_seen, m.edges_considered, m.nodes_visited))
        got.append(row)
    assert got == FROZEN_WORK[name]
