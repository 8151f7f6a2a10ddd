from __future__ import annotations

import pytest

import rebac.paths
from rebac import SystemGraph, SystemModel, TOP, UnknownEntityError, make_fixture, oracle_satisfies, parse
from rebac.fixtures import FIXTURES
from rebac.oracle import compile_nfa
from rebac.paths import DIAMOND, EdgeCondition

from relational_semantics import relation


def chain(labels_on_edges):
    """n0 -l-> n1 -l-> ... chain graph over one label vocabulary."""
    labels = sorted(set(labels_on_edges))
    model = SystemModel(["t"], labels, permissible=[("t", "t", l) for l in labels])
    nodes = {f"n{i}": "t" for i in range(len(labels_on_edges) + 1)}
    edges = [(f"n{i}", f"n{i+1}", l) for i, l in enumerate(labels_on_edges)]
    return SystemGraph(model, nodes, edges)


def test_single_label_compiles_to_two_states_one_transition():
    nfa = compile_nfa(EdgeCondition("r"))
    assert nfa.state_count == 2
    assert nfa.transitions == ((nfa.start, EdgeCondition("r"), nfa.accept),)


def test_empty_condition_compiles_to_single_epsilon():
    nfa = compile_nfa(DIAMOND)
    assert nfa.transitions == ((nfa.start, None, nfa.accept),)


def test_state_count_stays_linear_in_condition_size():
    pc = parse("(a . b)+ . ~c . (a+ . c)+")
    nfa = compile_nfa(pc)
    assert nfa.state_count <= 2 * 12
    # as written: nested reversal, '@' under '.' and under '+', and '~~'
    raw = parse("~(a . ~(b . @)) . (@ . c)+ . ~~a . @+")
    assert compile_nfa(raw).state_count <= 2 * 19  # 19 nodes in the raw tree


def test_reversal_walks_a_concatenation_backwards():
    g = chain(["a", "b"])  # n0 -a-> n1 -b-> n2
    assert oracle_satisfies(g, "n2", "n0", parse("~(a . b)"))
    assert not oracle_satisfies(g, "n2", "n0", parse("~(b . a)"))
    nfa = compile_nfa(parse("~(a . b)"))
    assert [cond for _, cond, _ in nfa.transitions] == [EdgeCondition("b", True), EdgeCondition("a", True)]


def test_repetition_needs_at_least_one_occurrence():
    g = chain(["r", "r"])
    pc = parse("r+")
    assert oracle_satisfies(g, "n0", "n1", pc)
    assert oracle_satisfies(g, "n0", "n2", pc)
    assert not oracle_satisfies(g, "n0", "n0", pc)


def test_empty_condition_is_identity():
    g = chain(["r"])
    assert oracle_satisfies(g, "n0", "n0", DIAMOND)
    assert not oracle_satisfies(g, "n0", "n1", DIAMOND)


def test_reversed_label_walks_against_the_edge():
    g = chain(["r"])
    assert oracle_satisfies(g, "n1", "n0", parse("~r"))
    assert not oracle_satisfies(g, "n0", "n1", parse("~r"))


def test_worked_rows_on_five_node_graph(five_node_graph):
    rows = [
        ("r1 . ~r2 . r3 . r4", True),
        ("r1 . r2", False),
        ("r1+ . ~r2 . r3 . r4", True),
        ("r1 . ~r2 . r3 . ~r4", True),
    ]
    for text, expected in rows:
        pc = parse(text, five_node_graph.model.labels)
        assert oracle_satisfies(five_node_graph, "s", "o", pc) is expected


def test_folder_tree_membership(fragment_graph):
    labels = fragment_graph.model.labels
    assert oracle_satisfies(fragment_graph, "D1", "P1", parse("M . M . R", labels))
    assert oracle_satisfies(fragment_graph, "D2", "P1", parse("M+ . R", labels))
    assert not oracle_satisfies(fragment_graph, "D1", "P1", parse("M . R", labels))


def test_satisfying_targets(five_node_graph):
    labels = five_node_graph.model.labels

    def targets(source, text):
        pc = parse(text, labels)
        return {t for t in five_node_graph.entity_ids if oracle_satisfies(five_node_graph, source, t, pc)}

    assert targets("s", "r1") == {"v1"}
    assert targets("v3", "r4") == {"o"}
    assert targets("o", "r4") == {"v3"}


def test_unknown_entities_rejected(five_node_graph):
    with pytest.raises(UnknownEntityError):
        oracle_satisfies(five_node_graph, "s", "ghost", DIAMOND)
    with pytest.raises(UnknownEntityError):
        oracle_satisfies(five_node_graph, "ghost", "s", DIAMOND)


def test_oracle_reads_only_stored_triples(monkeypatch):
    def answers():
        found = []
        for ws in [make_fixture(name) for name in sorted(FIXTURES)]:  # snapshots the oracle has not seen
            conditions = [rule.condition for rule in ws.system.principal_rules if rule.condition is not TOP]
            for request in ws.requests:
                for pc in conditions:
                    found.append(oracle_satisfies(ws.graph, request.subject, request.object, pc))
        return found

    unpatched = answers()

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle read the matcher's lookups")

    for name in ("has_edge", "label_index", "edges_incident"):
        monkeypatch.setattr(SystemGraph, name, forbidden)
    assert answers() == unpatched


def test_oracle_answers_follow_the_snapshot_asked():
    g = chain(["r"])
    wider = g.with_edge("n1", "n0", "r")
    pc = parse("~r")
    assert [oracle_satisfies(s, "n0", "n1", pc) for s in (g, wider, g, wider)] == [False, True, False, True]


def test_oracle_does_no_rewriting(monkeypatch):
    g = chain(["a", "b", "a", "b"])
    conditions = [parse(text) for text in ("~(a . b)", "(@ . a)+", "~~a . @", "~(b . ~(@ . a)+)")]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle rewrote the condition")

    monkeypatch.setattr(rebac.paths, "_simplify", forbidden)
    for pc in conditions:
        pairs = relation(g, pc)
        for source in g.entity_ids:
            for target in g.entity_ids:
                assert oracle_satisfies(g, source, target, pc) is ((source, target) in pairs), (pc, source, target)
