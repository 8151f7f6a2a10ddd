"""Acceptance gate: the eight headline behaviors, one test per criterion.

Each test runs inside the ``criterion`` context manager so the terminal
summary prints one PASS/FAIL line per criterion after the suite.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from rebac import (
    AuthorizationRule,
    AuthorizationSystem,
    ConflictStrategy,
    Decision,
    MatchStrategy,
    PrincipalMatchingRule,
    Request,
    SystemGraph,
    SystemModel,
    TOP,
    Workspace,
    WorkspaceError,
    dumps_workspace,
    evaluate,
    loads_workspace,
    make_fixture,
    match_path,
    oracle_satisfies,
    parse,
    simplify,
)
from rebac.differential import (
    DEFAULT_LABELS,
    check_workspace,
    random_condition,
    random_graph,
    random_simple_condition,
    run_differential,
)
from rebac.paths import Concat, Diamond, head, length, plus_count, suffix

from conftest import criterion
from relational_semantics import relation


@pytest.fixture(scope="module")
def corporate_ws():
    return make_fixture("corporate")


def test_criterion_1_corporate_decisions(corporate_ws):
    with criterion(1, "corporate walkthrough: decisions and resolutions") as record:
        expected = [
            ([True], "unambiguous", Decision.ALLOW),
            ([True, False], "crs:FirstMatch", Decision.ALLOW),
            ([False], "unambiguous", Decision.DENY),
            ([True], "unambiguous", Decision.ALLOW),
            ([], "default:system", Decision.DENY),
        ]
        started = time.perf_counter()
        traces = [evaluate(corporate_ws.graph, corporate_ws.system, r) for r in corporate_ws.requests]
        elapsed = time.perf_counter() - started
        for trace, (bits, resolution, outcome) in zip(traces, expected, strict=True):
            assert trace.possible_decisions == bits
            assert trace.resolution == resolution
            assert trace.outcome is outcome
        assert elapsed < 1.0
        record["detail"] = f"5 requests in {elapsed * 1000:.1f}ms"


def test_criterion_2_corporate_principals(corporate_ws):
    with criterion(2, "corporate walkthrough: matched principals") as record:
        expected = [
            ["Project Resource Supervisor", "Project Resource User"],
            ["Project Resource Supervisor", "Project Resource User"],
            ["Project Resource User"],
            ["Deliverable Reviewer"],
            [],
        ]
        for request, principals in zip(corporate_ws.requests, expected, strict=True):
            trace = evaluate(corporate_ws.graph, corporate_ws.system, request)
            assert trace.matched_principals == principals
        record["detail"] = "5 principal lists exact"


def test_criterion_3_match_metrics(corporate_ws):
    with criterion(3, "matcher metrics: found flags, counts, and work bound") as record:
        graph = corporate_ws.graph
        labels = corporate_ws.model.labels
        rows = [
            # condition, source, target, found, nodes, edges, pairs_seen
            ("P . ~R . (~M)+", "Sales.#2", "Func.Spec.#1", True, 6, 16, 9),
            ("P . ~R . (~M)+", "Tech.#2", "Test.Spec.#1", True, 7, 17, 10),
            ("S . ~R . (~M)+", "Tech.#2", "Func.Spec.#1", True, 6, 16, 9),
            ("S+ . ~M . S . ~D . (~M)+", "CTO", "Proj.#1 Report#1", True, 10, 33, 14),
            ("S+ . ~M . S . ~D . (~M)+", "CEO", "Proj.#1 Report#1", False, 6, 18, 8),
        ]
        details = []
        for text, source, target, want_found, nodes, edges, seen in rows:
            pc = parse(text, labels)
            found, metrics = match_path(graph, source, target, pc)
            assert found is want_found
            assert metrics.nodes_visited == nodes
            assert metrics.edges_considered == edges
            assert metrics.pairs_seen == seen
            bound = len(graph) * (length(simplify(pc)) + plus_count(simplify(pc)) + 1)
            assert metrics.nodes_visited <= bound
            assert metrics.pairs_seen <= bound
            details.append(f"n={nodes} e={edges}")
        record["detail"] = "; ".join(details)


def test_criterion_4_differential_agreement():
    with criterion(4, "matcher vs oracle: 10000 random trials agree") as record:
        report = run_differential(seed=0, trials=10_000)
        assert report.agreed, str(report.first_disagreement)
        assert report.agreements == report.trials == 10_000
        assert report.elapsed < 60.0
        record["detail"] = f"10000/10000 in {report.elapsed:.1f}s"


def test_criterion_5_rewrites_preserve_meaning():
    with criterion(5, "simplification and head/suffix preserve reachability") as record:
        rng = random.Random(5)
        graphs = [random_graph(rng) for _ in range(100)]
        checked = 0
        for i in range(1000):
            pc = random_condition(rng)
            graph = graphs[i % len(graphs)]
            reference = relation(graph, pc)
            simple = simplify(pc)
            assert relation(graph, simple) == reference, pc
            checked += 1
            if not isinstance(simple, Diamond):
                assert relation(graph, Concat(head(simple), suffix(simple))) == reference, pc
                checked += 1
        record["detail"] = f"1000 conditions, {checked} relation checks"


def test_criterion_6_classic_policies():
    with criterion(6, "unix and rbac fixtures: frozen decision tables") as record:
        unix = make_fixture("unix")
        unix_expected = [
            (["owner"], [True], Decision.ALLOW),
            (["group"], [True], Decision.ALLOW),
            (["world"], [False], Decision.DENY),
            (["group"], [], Decision.DENY),
        ]
        for request, (principals, bits, outcome) in zip(unix.requests, unix_expected, strict=True):
            trace = evaluate(unix.graph, unix.system, request)
            assert trace.matched_principals == principals
            assert trace.possible_decisions == bits
            assert trace.outcome is outcome

        rbac = make_fixture("rbac")
        rbac_expected = [
            Decision.ALLOW,
            Decision.ALLOW,
            Decision.ALLOW,
            Decision.ALLOW,
            Decision.DENY,
        ]
        for request, outcome in zip(rbac.requests, rbac_expected, strict=True):
            assert evaluate(rbac.graph, rbac.system, request).outcome is outcome

        agreements = 0
        for ws in (unix, rbac):
            report = check_workspace(ws)
            assert report.agreed, report.first_disagreement
            agreements += report.agreements
        record["detail"] = f"9 requests, {agreements} oracle cross-checks"


def _large_graph():
    """1000 nodes / 5000 edges with one planted a.b+.c.d.e chain."""
    labels = ("a", "b", "c", "d", "e")
    model = SystemModel(
        types=["node"],
        labels=labels,
        permissible=[("node", "node", label) for label in labels],
    )
    rng = random.Random(20260816)
    pool = [f"n{i}" for i in range(994)]
    edges = set()
    while len(edges) < 4995:
        edges.add((rng.choice(pool), rng.choice(pool), rng.choice(labels)))
    chain = [f"n{i}" for i in range(994, 1000)]
    for (u, v), label in zip(zip(chain, chain[1:]), labels, strict=True):
        edges.add((u, v, label))
    entities = {f"n{i}": "node" for i in range(1000)}
    return SystemGraph(model, entities, edges), chain[0], chain[-1]


def test_criterion_7_scale():
    with criterion(7, "1000-node / 5000-edge graph: fast, bounded, deterministic") as record:
        graph, source, target = _large_graph()
        assert len(graph) == 1000 and len(graph.edges) == 5000
        pc = parse("a . b+ . c . d . e")
        started = time.perf_counter()
        first = match_path(graph, source, target, pc)
        elapsed = time.perf_counter() - started
        assert first.found
        assert elapsed < 1.0
        bound = len(graph) * (length(pc) + plus_count(pc) + 1)
        assert first.metrics.pairs_seen <= bound
        assert match_path(graph, source, target, pc) == first
        miss = parse("(a . ~b)+ . c+")
        assert not match_path(graph, "n0", "n999", miss).found
        started = time.perf_counter()
        assert oracle_satisfies(graph, source, target, pc)
        assert not oracle_satisfies(graph, "n0", "n999", miss)
        oracle_elapsed = time.perf_counter() - started
        record["detail"] = (
            f"match in {elapsed * 1000:.0f}ms, "
            f"pairs_seen={first.metrics.pairs_seen} <= {bound}, "
            f"oracle hit + miss in {oracle_elapsed * 1000:.0f}ms"
        )


def _random_workspace(rng: random.Random) -> Workspace:
    graph = random_graph(rng)
    nodes = sorted(graph.entity_ids)
    principal_rules = [
        PrincipalMatchingRule(random_simple_condition(rng), f"p{i}")
        for i in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.5:
        principal_rules.append(PrincipalMatchingRule(TOP, "anyone"))
    names = [rule.principal for rule in principal_rules]
    actions = ("read", "write")
    # wildcard objects and up to 8 rules let two matched principals
    # disagree often enough for every conflict strategy to decide
    auth_rules = [
        AuthorizationRule(
            rng.choice(names),
            "*" if rng.random() < 0.5 else rng.choice(nodes),
            rng.choice(actions),
            rng.random() < 0.6,
        )
        for _ in range(rng.randint(0, 8))
    ]
    system = AuthorizationSystem(
        principal_rules=principal_rules,
        pms=rng.choice(list(MatchStrategy)),
        auth_rules=auth_rules,
        crs=rng.choice(list(ConflictStrategy)),
        system_default=rng.choice(list(Decision)),
        subject_defaults={n: rng.choice(list(Decision)) for n in nodes if rng.random() < 0.2},
        object_defaults={n: rng.choice(list(Decision)) for n in nodes if rng.random() < 0.2},
    )
    requests = [
        Request(rng.choice(nodes), rng.choice(nodes), rng.choice(actions))
        for _ in range(rng.randint(1, 3))
    ]
    return Workspace(graph.model, graph, system, requests)


def test_criterion_8_totality():
    with criterion(8, "random workspaces always reach a decision; bad ones are named") as record:
        rng = random.Random(8)
        decisions = 0
        resolutions = set()
        for _ in range(1000):
            ws = loads_workspace(dumps_workspace(_random_workspace(rng)))
            for request in ws.requests:
                trace = evaluate(ws.graph, ws.system, request)
                assert isinstance(trace.outcome, Decision)
                resolutions.add(trace.resolution)
                decisions += 1
            report = check_workspace(ws)
            assert report.agreed, report.first_disagreement
        defaults = {f"default:{level}" for level in ("subject", "object", "system")}
        conflicts = {f"crs:{strategy.value}" for strategy in ConflictStrategy}
        assert resolutions == {"unambiguous"} | defaults | conflicts

        base = json.loads(dumps_workspace(make_fixture("unix")))
        negatives = []
        doc = json.loads(json.dumps(base))
        doc["version"] = 99
        negatives.append((doc, "version must be 1"))
        doc = json.loads(json.dumps(base))
        doc["graph"]["edges"].append({"from": "file1", "to": "alice", "label": "uo"})
        negatives.append((doc, "not permissible"))
        doc = json.loads(json.dumps(base))
        doc["authorization_system"]["principal_rules"][0]["path"] = "uo*"
        negatives.append((doc, "'*' has no surface form"))
        doc = json.loads(json.dumps(base))
        doc["authorization_system"]["defaults"]["subjects"] = {"mallory": "allow"}
        negatives.append((doc, "unknown entity 'mallory'"))
        for doc, needle in negatives:
            with pytest.raises(WorkspaceError) as excinfo:
                loads_workspace(json.dumps(doc))
            assert any(needle in v for v in excinfo.value.violations), needle
        record["detail"] = f"{decisions} decisions, each the oracle's; {len(negatives)} named rejections"
