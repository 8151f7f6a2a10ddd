from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from rebac import (
    AuthorizationRule,
    AuthorizationSystem,
    ConflictStrategy,
    Decision,
    MatchStrategy,
    PolicyError,
    PrincipalMatchingRule,
    Request,
    SystemGraph,
    SystemModel,
    TOP,
    UnknownEntityError,
    evaluate,
    parse,
)
from rebac.fixtures import corporate_workspace
from rebac.pdp import WILDCARD, DefaultStage, apply_defaults, possible_decisions, resolve, validate_system

from decision_semantics import decide, decision_list

MODEL = SystemModel(["t"], ["a"], permissible=[("t", "t", "a")])


def tiny_system(auth_rules, *, crs=ConflictStrategy.FIRST_MATCH, **kwargs):
    return AuthorizationSystem(
        principal_rules=[
            PrincipalMatchingRule(parse("a"), "linked"),
            PrincipalMatchingRule(TOP, "anyone"),
        ],
        pms=MatchStrategy.ALL_MATCH,
        auth_rules=auth_rules,
        crs=crs,
        **kwargs,
    )


# -- possible_decisions ------------------------------------------------------


def test_each_principal_contributes_its_first_applicable_rule():
    rules = [
        AuthorizationRule("p1", "o", "read", True),
        AuthorizationRule("p1", "o", "read", False),  # shadowed for p1
        AuthorizationRule("p2", "o", "read", False),
    ]
    assert possible_decisions(["p1", "p2"], "o", "read", rules) == [True, False]


def test_decision_bits_are_deduplicated_in_rule_order():
    rules = [
        AuthorizationRule("p1", "o", "read", True),
        AuthorizationRule("p2", "o", "read", True),
        AuthorizationRule("p3", "o", "read", False),
    ]
    assert possible_decisions(["p1", "p2", "p3"], "o", "read", rules) == [True, False]
    assert possible_decisions(["p3", "p1"], "o", "read", rules) == [True, False]


def test_wildcard_object_matches_any_object():
    rules = [AuthorizationRule("p", WILDCARD, "read", True)]
    assert possible_decisions(["p"], "anything", "read", rules) == [True]
    assert possible_decisions(["p"], "anything", "write", rules) == []


def test_exception_rule_before_wildcard_grant():
    rules = [
        AuthorizationRule("p", "secret", "read", False),
        AuthorizationRule("p", WILDCARD, "read", True),
    ]
    assert possible_decisions(["p"], "secret", "read", rules) == [False]
    assert possible_decisions(["p"], "public", "read", rules) == [True]


def test_unmatched_principal_and_action_yield_no_bits():
    rules = [AuthorizationRule("p", "o", "read", True)]
    assert possible_decisions(["q"], "o", "read", rules) == []
    assert possible_decisions(["p"], "o", "delete", rules) == []
    assert possible_decisions([], "o", "read", rules) == []


# -- resolve -----------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(ConflictStrategy))
def test_resolution_of_empty_and_singleton_bit_lists(strategy):
    assert resolve([], strategy) is None
    assert resolve([True], strategy) is Decision.ALLOW
    assert resolve([False], strategy) is Decision.DENY


def test_resolution_of_conflicting_bits():
    assert resolve([True, False], ConflictStrategy.FIRST_MATCH) is Decision.ALLOW
    assert resolve([False, True], ConflictStrategy.FIRST_MATCH) is Decision.DENY
    assert resolve([True, False], ConflictStrategy.DENY_OVERRIDE) is Decision.DENY
    assert resolve([False, True], ConflictStrategy.DENY_OVERRIDE) is Decision.DENY
    assert resolve([True, False], ConflictStrategy.ALLOW_OVERRIDE) is Decision.ALLOW
    assert resolve([False, True], ConflictStrategy.ALLOW_OVERRIDE) is Decision.ALLOW


# -- apply_defaults ----------------------------------------------------------


def test_default_chain_prefers_subject_then_object_then_system():
    system = tiny_system(
        [],
        subject_defaults={"u": Decision.ALLOW},
        object_defaults={"o": Decision.DENY},
    )
    assert apply_defaults(DefaultStage.NO_PRINCIPALS, "u", "o", system) == (
        Decision.ALLOW,
        "subject",
    )
    assert apply_defaults(DefaultStage.NO_PRINCIPALS, "w", "o", system) == (
        Decision.DENY,
        "object",
    )
    assert apply_defaults(DefaultStage.NO_PRINCIPALS, "w", "w", system) == (
        Decision.DENY,
        "system",
    )


def test_no_decision_stage_skips_subject_defaults():
    system = tiny_system([], subject_defaults={"u": Decision.ALLOW})
    assert apply_defaults(DefaultStage.NO_DECISION, "u", "o", system) == (
        Decision.DENY,
        "system",
    )
    with_object = tiny_system(
        [],
        subject_defaults={"u": Decision.DENY},
        object_defaults={"o": Decision.ALLOW},
    )
    assert apply_defaults(DefaultStage.NO_DECISION, "u", "o", with_object) == (
        Decision.ALLOW,
        "object",
    )


# -- evaluate ----------------------------------------------------------------


def linked_graph():
    return SystemGraph(MODEL, {"u": "t", "o": "t", "w": "t"}, [("u", "o", "a")])


def test_single_bit_resolution_is_reported_unambiguous():
    system = tiny_system([AuthorizationRule("linked", "o", "read", True)])
    trace = evaluate(linked_graph(), system, Request("u", "o", "read"))
    assert trace.outcome is Decision.ALLOW
    assert trace.resolution == "unambiguous"
    assert trace.matched_principals == ["linked", "anyone"]
    assert trace.possible_decisions == [True]


def test_conflicting_bits_name_the_conflict_strategy():
    rules = [
        AuthorizationRule("linked", "o", "read", True),
        AuthorizationRule("anyone", "o", "read", False),
    ]
    for crs, outcome in [
        (ConflictStrategy.FIRST_MATCH, Decision.ALLOW),
        (ConflictStrategy.DENY_OVERRIDE, Decision.DENY),
        (ConflictStrategy.ALLOW_OVERRIDE, Decision.ALLOW),
    ]:
        trace = evaluate(linked_graph(), system := tiny_system(rules, crs=crs), Request("u", "o", "read"))
        assert trace.outcome is outcome
        assert trace.resolution == f"crs:{crs.value}"
        assert trace.possible_decisions == [True, False]


def test_no_matching_rule_falls_back_to_object_then_system_default():
    system = tiny_system(
        [AuthorizationRule("linked", "o", "write", True)],
        object_defaults={"o": Decision.ALLOW},
    )
    trace = evaluate(linked_graph(), system, Request("u", "o", "read"))
    assert trace.outcome is Decision.ALLOW
    assert trace.resolution == "default:object"
    assert trace.possible_decisions == []

    bare = tiny_system([AuthorizationRule("linked", "o", "write", True)])
    trace = evaluate(linked_graph(), bare, Request("u", "o", "read"))
    assert (trace.outcome, trace.resolution) == (Decision.DENY, "default:system")


def test_no_matched_principal_uses_subject_default_first():
    system = AuthorizationSystem(
        principal_rules=[PrincipalMatchingRule(parse("a"), "linked")],
        pms=MatchStrategy.ALL_MATCH,
        auth_rules=[],
        crs=ConflictStrategy.FIRST_MATCH,
        subject_defaults={"w": Decision.ALLOW},
    )
    trace = evaluate(linked_graph(), system, Request("w", "o", "read"))
    assert (trace.outcome, trace.resolution) == (Decision.ALLOW, "default:subject")
    assert trace.matched_principals == []
    assert trace.possible_decisions == []


def test_subject_default_ignored_once_principals_match():
    system = tiny_system(
        [AuthorizationRule("linked", "o", "read", False)],
        subject_defaults={"u": Decision.ALLOW},
    )
    trace = evaluate(linked_graph(), system, Request("u", "o", "read"))
    assert trace.outcome is Decision.DENY
    assert trace.resolution == "unambiguous"


def test_empty_path_rule_matches_only_self_requests():
    system = AuthorizationSystem(
        principal_rules=[PrincipalMatchingRule(parse("@"), "self")],
        pms=MatchStrategy.ALL_MATCH,
        auth_rules=[AuthorizationRule("self", WILDCARD, "read", True)],
        crs=ConflictStrategy.FIRST_MATCH,
    )
    graph = linked_graph()
    assert evaluate(graph, system, Request("u", "u", "read")).outcome is Decision.ALLOW
    assert evaluate(graph, system, Request("u", "o", "read")).outcome is Decision.DENY


def test_unknown_request_entities_raise():
    system = tiny_system([])
    with pytest.raises(UnknownEntityError):
        evaluate(linked_graph(), system, Request("ghost", "o", "read"))
    with pytest.raises(UnknownEntityError):
        evaluate(linked_graph(), system, Request("u", "ghost", "read"))


def test_corporate_walkthrough_decisions(corporate):
    graph, system, requests = corporate.graph, corporate.system, corporate.requests
    expected = [
        (["Project Resource Supervisor", "Project Resource User"], [True], "unambiguous", Decision.ALLOW),
        (["Project Resource Supervisor", "Project Resource User"], [True, False], "crs:FirstMatch", Decision.ALLOW),
        (["Project Resource User"], [False], "unambiguous", Decision.DENY),
        (["Deliverable Reviewer"], [True], "unambiguous", Decision.ALLOW),
        ([], [], "default:system", Decision.DENY),
    ]
    for request, (principals, bits, resolution, outcome) in zip(requests, expected, strict=True):
        trace = evaluate(graph, system, request)
        assert trace.matched_principals == principals
        assert trace.possible_decisions == bits
        assert trace.resolution == resolution
        assert trace.outcome is outcome


def test_trace_dict_is_plain_json(corporate):
    trace = evaluate(corporate.graph, corporate.system, corporate.requests[1])
    data = trace.to_dict()
    assert data["request"] == {"subject": "Tech.#2", "object": "Func.Spec.#1", "action": "write"}
    assert data["outcome"] == "allow"
    assert all(set(row) >= {"rule", "principal", "condition", "found"} for row in data["metrics"])
    assert json.loads(json.dumps(data)) == data


def test_validate_system_reports_dangling_principals():
    system = tiny_system([AuthorizationRule("nobody", "o", "read", True)])
    problems = validate_system(system, linked_graph())
    assert any("nobody" in p for p in problems)
    assert validate_system(tiny_system([AuthorizationRule("linked", "o", "read", True)]), linked_graph()) == []


def test_validate_system_reports_entities_missing_from_the_graph():
    system = tiny_system(
        [AuthorizationRule("linked", "ghost", "read", True), AuthorizationRule("anyone", WILDCARD, "read", False)],
        subject_defaults={"u": Decision.ALLOW, "nobody": Decision.DENY},
        object_defaults={"phantom": Decision.ALLOW},
    )
    assert validate_system(system, linked_graph()) == [
        "authorization rule 1: object 'ghost' is not an entity or \"*\"",
        "defaults.subjects: unknown entity 'nobody'",
        "defaults.objects: unknown entity 'phantom'",
    ]


def test_evaluation_neither_renders_nor_walks_rules(monkeypatch):
    ws = corporate_workspace()
    expected = [evaluate(ws.graph, ws.system, r).to_dict() for r in ws.requests]

    def refuse(*args, **kwargs):
        raise AssertionError("per-rule work repeated for a request")

    monkeypatch.setattr("rebac.matching.render", refuse)
    monkeypatch.setattr("rebac.matching._contains_star", refuse)
    monkeypatch.setattr("rebac.matching.validate_policy", refuse)
    monkeypatch.setattr("rebac.pdp.validate_policy", refuse)
    assert [evaluate(ws.graph, ws.system, r).to_dict() for r in ws.requests] == expected
    assert len(expected) == 5


# -- a system checks itself when built ----------------------------------------


def two_principal_system() -> AuthorizationSystem:
    return AuthorizationSystem(
        [
            PrincipalMatchingRule(parse("a"), "p1"),
            PrincipalMatchingRule(parse("a"), "p2"),
            PrincipalMatchingRule(TOP, "any"),
        ],
        MatchStrategy.FIRST_MATCH,
        [AuthorizationRule("p1", "o", "read", True), AuthorizationRule("p2", "o", "read", False)],
        ConflictStrategy.DENY_OVERRIDE,
    )


def test_a_built_system_is_frozen_and_decides_by_its_strategies():
    system = two_principal_system()
    trace = evaluate(linked_graph(), system, Request("u", "o", "read"))
    assert (trace.matched_principals, trace.outcome) == (["p1"], Decision.ALLOW)
    assert type(system.principal_rules) is tuple and type(system.auth_rules) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.pms = MatchStrategy.ALL_MATCH


@pytest.mark.parametrize(
    "changes, message",
    [
        # as a string, FirstMatch would evaluate as AllMatch
        ({"pms": "FirstMatch"}, "unknown principal matching strategy 'FirstMatch'"),
        # as a string, DenyOverride would fail in resolve on a conflict
        ({"crs": "DenyOverride"}, "unknown conflict resolution strategy 'DenyOverride'"),
        ({"auth_rules": [AuthorizationRule("p1", "o", "read", "no")]}, "authorization rule 1: allow must be a boolean"),
        (
            {"principal_rules": [PrincipalMatchingRule("a", "p1"), PrincipalMatchingRule(TOP, "any")]},
            "rule 1: condition is neither a path condition nor TOP",
        ),
        (
            {"principal_rules": [PrincipalMatchingRule(TOP, "any"), PrincipalMatchingRule(parse("a"), "p1")],
             "pms": "AllMatch", "crs": "DenyOverride"},
            "rule 1: TOP is only allowed as the last rule; unknown principal matching strategy 'AllMatch';"
            " unknown conflict resolution strategy 'DenyOverride'",
        ),
    ],
    ids=["string-pms", "string-crs", "non-bool-allow", "non-condition", "every-problem"],
)
def test_a_system_that_evaluation_would_misread_is_refused_when_built(changes, message):
    with pytest.raises(PolicyError) as excinfo:
        dataclasses.replace(two_principal_system(), **changes)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"system_default": "allow"}, "system default must be a Decision, found 'allow'"),
        (
            {"subject_defaults": {"u": "allow"}, "object_defaults": {"o": Decision.DENY, "x": None}},
            "subject default for 'u' must be a Decision, found 'allow';"
            " object default for 'x' must be a Decision, found None",
        ),
    ],
    ids=["string-system-default", "entity-defaults"],
)
def test_a_default_that_is_not_a_decision_is_refused_when_built(changes, message):
    # evaluate would return the string as the outcome, and to_dict would fail on it
    with pytest.raises(PolicyError) as excinfo:
        dataclasses.replace(two_principal_system(), **changes)
    assert str(excinfo.value) == message


def test_a_built_system_keeps_its_defaults_when_the_maps_change():
    subjects, objects = {"u": Decision.ALLOW}, {}
    system = tiny_system([], subject_defaults=subjects, object_defaults=objects)
    subjects["u"] = "allow"
    objects["o"] = Decision.ALLOW
    assert apply_defaults(DefaultStage.NO_PRINCIPALS, "u", "o", system) == (Decision.ALLOW, "subject")
    assert apply_defaults(DefaultStage.NO_DECISION, "u", "o", system) == (Decision.DENY, "system")
    with pytest.raises(TypeError):
        system.subject_defaults["w"] = Decision.DENY
    with pytest.raises(TypeError):
        system.object_defaults["o"] = Decision.ALLOW


# -- stage two against its definition, exhaustively -----------------------------

STAGE_TWO_RULES = [
    AuthorizationRule(principal, object_, action, allow)
    for principal in ("p", "q")
    for object_ in ("o", WILDCARD, "x")
    for action in ("read", "write")
    for allow in (True, False)
]
MATCHED_LISTS = [[], ["p"], ["q"], ["p", "q"], ["q", "p"]]
# the subject's, the object's and the system's default: each of the first two present or absent
DEFAULT_LEVELS = [
    (None, None, Decision.ALLOW),
    (Decision.ALLOW, None, Decision.DENY),
    (None, Decision.DENY, Decision.ALLOW),
    (Decision.ALLOW, Decision.DENY, Decision.DENY),
]


def test_stage_two_follows_its_definition_on_every_small_policy():
    # every list of at most 3 rules over 2 principals, objects o, * and x,
    # 2 actions and both bits; every matched list; every strategy; every
    # row of DEFAULT_LEVELS; requests are (u, o, read)
    systems = [
        (crs, {"subject": s, "object": o, "system": system},
         tiny_system([], crs=crs, subject_defaults={"u": s} if s else {}, object_defaults={"o": o} if o else {},
                     system_default=system))
        for crs in ConflictStrategy
        for s, o, system in DEFAULT_LEVELS
    ]
    rule_lists = [rules for size in range(4) for rules in itertools.product(STAGE_TWO_RULES, repeat=size)]
    assert len(rule_lists) == 1 + 24 + 24**2 + 24**3
    for rules in rule_lists:
        for matched in MATCHED_LISTS:
            bits = possible_decisions(matched, "o", "read", rules)
            assert bits == decision_list(rules, matched, "o", "read"), (rules, matched)
            stage = DefaultStage.NO_DECISION if matched else DefaultStage.NO_PRINCIPALS
            for crs, defaults, system in systems:
                got = (resolve(bits, crs), "rules") if bits else apply_defaults(stage, "u", "o", system)
                assert got == decide(bits, matched, crs, defaults), (rules, matched, crs, defaults)
