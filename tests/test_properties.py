from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebac import (
    ConflictStrategy,
    Decision,
    MatchStrategy,
    PrincipalMatchingRule,
    SystemGraph,
    match_path,
    oracle_satisfies,
    parse,
    render,
    simplify,
    work_bound,
)
from rebac.matching import match_principals
from rebac.oracle import satisfying_targets
from rebac.paths import (
    DIAMOND,
    Concat,
    Diamond,
    EdgeCondition,
    Plus,
    Reverse,
    Star,
    head,
    length,
    plus_count,
    suffix,
)
from rebac.pdp import resolve

from strategies import LABELS, MODEL, SYMMETRIC, conditions, graph_and_pair, graphs, simple_conditions


@given(graph_and_pair(), conditions())
@settings(max_examples=300, deadline=None)
def test_matcher_agrees_with_oracle(pair, pc):
    graph, source, target = pair
    assert match_path(graph, source, target, pc).found == oracle_satisfies(
        graph, source, target, pc
    )


@given(graphs(), conditions())
@settings(max_examples=150, deadline=None)
def test_simplification_preserves_meaning_everywhere(graph, pc):
    simple = simplify(pc)
    for source in graph.entity_ids:
        assert satisfying_targets(graph, source, pc) == satisfying_targets(graph, source, simple)


@given(conditions())
def test_simplification_is_idempotent(pc):
    simple = simplify(pc)
    assert simplify(simple) == simple


def _is_simple(pc) -> bool:
    if isinstance(pc, (Diamond, EdgeCondition)):
        return True
    if isinstance(pc, Plus):
        return _is_simple(pc.inner)
    if isinstance(pc, Concat):
        # concatenation is right-associated and never contains the empty condition
        return (
            not isinstance(pc.left, (Concat, Diamond))
            and not isinstance(pc.right, Diamond)
            and _is_simple(pc.left)
            and _is_simple(pc.right)
        )
    return False  # Reverse and Star must be gone


@given(conditions())
def test_simple_form_is_structurally_simple(pc):
    assert _is_simple(simplify(pc))


@given(conditions())
def test_rendered_conditions_parse_back_to_the_same_meaning(pc):
    assert simplify(parse(render(simplify(pc)), frozenset(LABELS))) == simplify(pc)


@given(graphs(), simple_conditions())
@settings(max_examples=150, deadline=None)
def test_head_suffix_recomposition(graph, pc):
    simple = simplify(pc)
    if isinstance(simple, Diamond):
        return
    recomposed = Concat(head(simple), suffix(simple))
    for source in graph.entity_ids:
        assert satisfying_targets(graph, source, simple) == satisfying_targets(
            graph, source, recomposed
        )


@given(graph_and_pair(), conditions())
@settings(max_examples=200, deadline=None)
def test_reversal_swaps_source_and_target(pair, pc):
    graph, source, target = pair
    assert (
        match_path(graph, source, target, pc).found
        == match_path(graph, target, source, Reverse(pc)).found
    )


@given(graph_and_pair(), conditions(), st.sampled_from(LABELS))
@settings(max_examples=150, deadline=None)
def test_adding_an_edge_never_breaks_a_match(pair, pc, label):
    graph, source, target = pair
    if not match_path(graph, source, target, pc).found:
        return
    ids = sorted(graph.entity_ids)
    grown = graph
    for from_id in ids[:2]:
        for to_id in ids[-2:]:
            grown = grown.with_edge(from_id, to_id, label)
    assert match_path(grown, source, target, pc).found


@given(graph_and_pair(), simple_conditions())
@settings(max_examples=200, deadline=None)
@example(  # a* . b* sees 7 pairs: more than a bound that leaves out the stars
    (SystemGraph(MODEL, {"x": "node", "y": "node"}, [("x", "y", "a"), ("y", "x", "b"), ("x", "x", "b")]), "x", "y"),
    Concat(Star(EdgeCondition("a")), Star(EdgeCondition("b"))),
)
def test_work_bound_holds(pair, pc):
    graph, source, target = pair
    _, metrics = match_path(graph, source, target, pc)
    bound = work_bound(graph, pc)
    assert metrics.pairs_seen <= bound
    assert metrics.nodes_visited <= bound


@given(graph_and_pair(), st.lists(simple_conditions(max_leaves=3), max_size=4))
@settings(max_examples=100, deadline=None)
def test_first_match_is_prefix_of_all_match(pair, condition_list):
    graph, source, target = pair
    rules = [
        PrincipalMatchingRule(pc, f"p{i}") for i, pc in enumerate(condition_list)
    ]
    first = match_principals(graph, source, target, rules, MatchStrategy.FIRST_MATCH)
    everything = match_principals(graph, source, target, rules, MatchStrategy.ALL_MATCH)
    assert first.principals == everything.principals[:1]


@given(st.lists(st.booleans(), min_size=1, max_size=6))
def test_conflict_resolution_laws(bits):
    assert resolve(bits, ConflictStrategy.FIRST_MATCH) is (
        Decision.ALLOW if bits[0] else Decision.DENY
    )
    assert resolve(bits, ConflictStrategy.DENY_OVERRIDE) is (
        Decision.DENY if False in bits else Decision.ALLOW
    )
    assert resolve(bits, ConflictStrategy.ALLOW_OVERRIDE) is (
        Decision.ALLOW if True in bits else Decision.DENY
    )


@given(graph_and_pair())
def test_empty_condition_means_identity(pair):
    graph, source, target = pair
    assert match_path(graph, source, target, DIAMOND).found == (source == target)


@given(conditions())
def test_length_and_plus_count_survive_simplification(pc):
    simple = simplify(pc)
    assert length(simple) == length(pc)
    assert plus_count(simple) >= 0


@given(graphs())
@settings(max_examples=50, deadline=None)
def test_functional_updates_preserve_wellformedness(graph):
    snapshots = [graph, graph.without_entity(graph.entity_ids[0])] if graph.entity_ids else [graph]
    for snapshot in snapshots:  # the constructor raises on any violation
        SystemGraph(snapshot.model, {e: snapshot.type_of(e) for e in snapshot.entity_ids}, snapshot.edges)


def _answers(graph, conditions):
    """Everything a snapshot answers, for comparing two snapshots."""
    nodes = graph.entity_ids
    return (
        graph.edges,
        graph.edge_count,
        [graph.edges_incident(v) for v in nodes],
        [graph.has_edge(u, v, label) for u in nodes for v in nodes for label in LABELS],
        [match_path(graph, u, v, pc) for u in nodes for v in nodes for pc in conditions],
    )


@given(graphs(max_nodes=4), st.lists(simple_conditions(max_leaves=4), min_size=1, max_size=2), st.data())
@settings(max_examples=150, deadline=None)
def test_updated_snapshots_equal_rebuilt_graphs(graph, conds, data):
    pool = [f"n{i}" for i in range(5)]
    entities = {entity: graph.type_of(entity) for entity in graph.entity_ids}
    edges = set(graph.edges)
    history = []  # (snapshot, its answers) of every snapshot so far
    if data.draw(st.booleans(), label="index the first snapshot before updating it"):
        history.append((graph, _answers(graph, conds)))
    for _ in range(data.draw(st.integers(1, 6), label="updates")):
        kind = data.draw(st.sampled_from(["with_edge", "without_edge", "with_entity", "without_entity"]))
        if kind in ("with_edge", "without_edge"):
            if edges and data.draw(st.booleans(), label="an edge that is present"):
                u, v, label = data.draw(st.sampled_from(sorted(edges)))
                if label in SYMMETRIC and data.draw(st.booleans(), label="reversed"):
                    u, v = v, u
            else:
                nodes = sorted(entities)
                u, v = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
                label = data.draw(st.sampled_from(LABELS))
            graph = getattr(graph, kind)(u, v, label)
            stored = (min(u, v), max(u, v), label) if label in SYMMETRIC else (u, v, label)
            (edges.add if kind == "with_edge" else edges.discard)(stored)
        elif kind == "with_entity":
            absent = sorted(set(pool) - set(entities))
            if not absent:
                continue
            entity = data.draw(st.sampled_from(absent))
            graph = graph.with_entity(entity, "node")
            entities[entity] = "node"
        else:
            if len(entities) == 1:
                continue
            entity = data.draw(st.sampled_from(sorted(entities)))
            graph = graph.without_entity(entity)
            del entities[entity]
            edges = {e for e in edges if entity not in e[:2]}
        answers = _answers(graph, conds)
        assert answers == _answers(SystemGraph(MODEL, entities, edges), conds)
        history.append((graph, answers))
    # no update changed a table that an earlier snapshot shares
    for snapshot, answers in history:
        assert _answers(snapshot, conds) == answers
