from __future__ import annotations

from hypothesis import given, note, settings
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
from rebac.differential import DEFAULT_LABELS, _converse, random_condition, random_graph, random_simple_condition
from rebac.matching import match_principals
from rebac.paths import (
    DIAMOND,
    Concat,
    Diamond,
    EdgeCondition,
    Plus,
    Reverse,
    head,
    length,
    plus_count,
    suffix,
)
from rebac.pdp import resolve

from relational_semantics import relation


def _condition(rng, generate=random_condition):
    pc = generate(rng)
    note(f"condition: {render(pc)}")
    return pc


def _graph(rng):
    graph = random_graph(rng)
    note(f"{len(graph)} nodes, edges {sorted(graph.edges)}")
    return graph


def _pair(rng, graph):
    source, target = rng.choice(graph.entity_ids), rng.choice(graph.entity_ids)
    note(f"pair: ({source!r}, {target!r})")
    return source, target


def _trial(rng, generate=random_condition):
    """A graph, a condition and a pair, in ``run_differential``'s draw order."""
    graph, pc = _graph(rng), _condition(rng, generate)
    return (graph, pc, *_pair(rng, graph))


@given(st.randoms())
@settings(max_examples=300, deadline=None)
def test_matcher_agrees_with_oracle(rng):
    graph, pc, source, target = _trial(rng)
    assert match_path(graph, source, target, pc).found == oracle_satisfies(graph, source, target, pc)


@given(st.randoms())
@settings(max_examples=300, deadline=None)
def test_simplification_preserves_meaning_everywhere(rng):
    # both deciders simplify the raw condition; the relation never does
    graph, pc = _graph(rng), _condition(rng)
    pairs = relation(graph, pc)
    for source in graph.entity_ids:
        for target in graph.entity_ids:
            assert match_path(graph, source, target, pc).found == ((source, target) in pairs), (source, target)
            assert oracle_satisfies(graph, source, target, pc) == ((source, target) in pairs), (source, target)


@given(st.randoms())
def test_simplification_is_idempotent(rng):
    simple = simplify(_condition(rng))
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


@given(st.randoms())
def test_simple_form_is_structurally_simple(rng):
    assert _is_simple(simplify(_condition(rng)))


@given(st.randoms())
def test_rendered_conditions_parse_back_to_the_same_meaning(rng):
    simple = simplify(_condition(rng))
    assert simplify(parse(render(simple), frozenset(DEFAULT_LABELS))) == simple


@given(st.randoms())
@settings(max_examples=150, deadline=None)
def test_head_suffix_recomposition(rng):
    graph = _graph(rng)
    pc = _condition(rng, random_simple_condition)
    simple = simplify(pc)
    if isinstance(simple, Diamond):
        return
    assert relation(graph, Concat(head(simple), suffix(simple))) == relation(graph, pc)


@given(st.randoms())
@settings(max_examples=150, deadline=None)
def test_reversed_converse_means_the_drawn_condition(rng):
    # run_differential asks both deciders this raw form of its drawn condition
    graph = _graph(rng)
    pc = _condition(rng, random_simple_condition)
    assert relation(graph, Reverse(_converse(pc))) == relation(graph, pc)


@given(st.randoms())
@settings(max_examples=200, deadline=None)
def test_reversal_swaps_source_and_target(rng):
    graph, pc, source, target = _trial(rng)
    assert match_path(graph, source, target, pc).found == match_path(graph, target, source, Reverse(pc)).found


@given(st.randoms())
@settings(max_examples=150, deadline=None)
def test_adding_an_edge_never_breaks_a_match(rng):
    graph, pc, source, target = _trial(rng)
    label = rng.choice(sorted(graph.model.labels))
    note(f"added label: {label}")
    if not match_path(graph, source, target, pc).found:
        return
    ids = sorted(graph.entity_ids)
    grown = graph
    for from_id in ids[:2]:
        for to_id in ids[-2:]:
            grown = grown.with_edge(from_id, to_id, label)
    assert match_path(grown, source, target, pc).found


@given(st.randoms())
@settings(max_examples=200, deadline=None)
def test_work_bound_holds(rng):
    graph, pc, source, target = _trial(rng, random_simple_condition)
    _, metrics = match_path(graph, source, target, pc)
    bound = work_bound(graph, pc)
    assert metrics.pairs_seen <= bound
    assert metrics.nodes_visited <= bound


@given(st.randoms())
@settings(max_examples=100, deadline=None)
def test_first_match_is_prefix_of_all_match(rng):
    graph = _graph(rng)
    source, target = _pair(rng, graph)
    rules = [PrincipalMatchingRule(_condition(rng, random_simple_condition), f"p{i}") for i in range(rng.randint(0, 4))]
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


@given(st.randoms())
def test_empty_condition_means_identity(rng):
    graph = _graph(rng)
    source, target = _pair(rng, graph)
    assert match_path(graph, source, target, DIAMOND).found == (source == target)


def _raw_counts(pc) -> tuple[int, int]:
    """Label leaves, and ``+`` nodes with a label under them, of a raw tree."""
    if isinstance(pc, EdgeCondition):
        return 1, 0
    if isinstance(pc, Concat):
        return tuple(map(sum, zip(_raw_counts(pc.left), _raw_counts(pc.right))))
    if isinstance(pc, (Plus, Reverse)):
        labels, pluses = _raw_counts(pc.inner)
        return labels, pluses + (1 if isinstance(pc, Plus) and labels else 0)
    return 0, 0


@given(st.randoms())
def test_length_and_plus_count_survive_simplification(rng):
    # simplification keeps every label and drops only repetitions of the
    # empty condition, so the raw tree's counts are the simple form's
    pc = _condition(rng)
    assert (length(simplify(pc)), plus_count(simplify(pc))) == _raw_counts(pc)


@given(st.randoms())
@settings(max_examples=50, deadline=None)
def test_functional_updates_preserve_wellformedness(rng):
    graph = _graph(rng)
    snapshots = [graph]
    if graph.edges:  # a present edge, so that the update makes a new snapshot
        snapshots.append(graph.without_edge(*rng.choice(sorted(graph.edges))))
    for snapshot in snapshots:  # the constructor raises on any violation
        SystemGraph(snapshot.model, {e: snapshot.type_of(e) for e in snapshot.entity_ids}, snapshot.edges)


def _answers(graph, conditions):
    """Everything a snapshot answers, for comparing two snapshots."""
    nodes = graph.entity_ids
    return (
        {node: (dict(table), count) for node, (table, count) in graph.label_index().items()},
        graph.edges,
        graph.edge_count,
        [graph.edges_incident(v) for v in nodes],
        [graph.has_edge(u, v, label) for u in nodes for v in nodes for label in graph.model.labels],
        [match_path(graph, u, v, pc) for u in nodes for v in nodes for pc in conditions],
    )


@given(st.randoms())
@settings(max_examples=150, deadline=None)
def test_updated_snapshots_equal_rebuilt_graphs(rng):
    drawn = _graph(rng)  # its first four nodes and the edges among them keep the answers cheap
    model, entities = drawn.model, dict.fromkeys(drawn.entity_ids[:4], "node")
    edges = {edge for edge in drawn.edges if edge[0] in entities and edge[1] in entities}
    graph = SystemGraph(model, entities, edges)
    conds = [_condition(rng, random_simple_condition) for _ in range(rng.randint(1, 2))]
    history = []  # (snapshot, its answers) of every snapshot so far
    if rng.random() < 0.5:  # index the first snapshot before updating it
        history.append((graph, _answers(graph, conds)))
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["with_edge", "without_edge"])
        if edges and rng.random() < 0.5:  # an edge that is present
            u, v, label = rng.choice(sorted(edges))
            if label in model.symmetric and rng.random() < 0.5:
                u, v = v, u
        else:
            nodes = sorted(entities)
            u, v, label = rng.choice(nodes), rng.choice(nodes), rng.choice(sorted(model.labels))
        stored = (min(u, v), max(u, v), label) if label in model.symmetric else (u, v, label)
        (edges.add if kind == "with_edge" else edges.discard)(stored)
        note(f"{kind}{(u, v, label)}")
        before = graph.label_index()
        graph = getattr(graph, kind)(u, v, label)
        answers = _answers(graph, conds)
        assert answers == _answers(SystemGraph(model, entities, edges), conds)
        # every node but the edge's ends keeps its entry object
        assert all(entry is before[node] for node, entry in graph.label_index().items() if node not in (u, v))
        history.append((graph, answers))
    # no update changed a table that an earlier snapshot shares
    for snapshot, answers in history:
        assert _answers(snapshot, conds) == answers
