from __future__ import annotations

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from rebac import GraphValidationError, SystemGraph, SystemModel, UnknownEntityError, match_path
from rebac.differential import random_graph
from rebac.graph import validate_model
from rebac.paths import EdgeCondition

FAMILY = SystemModel(
    types=["person"],
    labels=["Sibling-of", "Brother-of", "Sister-of"],
    symmetric=["Sibling-of"],
    permissible=[
        ("person", "person", "Sibling-of"),
        ("person", "person", "Brother-of"),
        ("person", "person", "Sister-of"),
    ],
)


def family_graph(edges) -> SystemGraph:
    people = {name: "person" for name in ("Alice", "Bob", "Chris")}
    return SystemGraph(FAMILY, people, edges)


def test_incident_edges_of_supervisor(fragment_graph):
    assert fragment_graph.edges_incident("U1") == (
        ("P1", "Participant-of", "out"),
        ("P1", "Supervises", "out"),
    )


def test_incident_edges_mix_directions_deterministically(fragment_graph):
    assert fragment_graph.edges_incident("F2") == (
        ("F1", "Member-of", "out"),
        ("D1", "Member-of", "in"),
        ("D2", "Member-of", "in"),
    )


def test_incident_edges_of_isolated_node():
    model = SystemModel(["t"], ["l"], permissible=[("t", "t", "l")])
    g = SystemGraph(model, {"lone": "t"})
    assert g.edges_incident("lone") == ()


def test_incident_edges_unknown_entity(fragment_graph):
    with pytest.raises(UnknownEntityError):
        fragment_graph.edges_incident("nobody")


def test_symmetric_edge_holds_both_ways_and_is_stored_once():
    g = family_graph([("Bob", "Alice", "Sibling-of")])
    assert g.has_edge("Alice", "Bob", "Sibling-of")
    assert g.has_edge("Bob", "Alice", "Sibling-of")
    # canonical storage puts the smaller endpoint first
    assert g.edges == frozenset({("Alice", "Bob", "Sibling-of")})


def test_symmetric_incident_edge_reported_once_per_stored_edge():
    g = family_graph([("Alice", "Bob", "Sibling-of")])
    assert g.edges_incident("Alice") == (("Bob", "Sibling-of", "sym"),)
    assert g.edges_incident("Bob") == (("Alice", "Sibling-of", "sym"),)


def test_directed_edges_are_independent_per_direction():
    g = family_graph([("Chris", "Bob", "Brother-of"), ("Bob", "Chris", "Brother-of")])
    assert g.has_edge("Chris", "Bob", "Brother-of")
    assert g.has_edge("Bob", "Chris", "Brother-of")
    assert len(g.edges) == 2

    g2 = family_graph([("Alice", "Bob", "Sister-of")])
    assert g2.has_edge("Alice", "Bob", "Sister-of")
    assert not g2.has_edge("Bob", "Alice", "Sister-of")


def test_duplicate_triples_collapse():
    g = family_graph(
        [("Alice", "Bob", "Sister-of"), ("Alice", "Bob", "Sister-of"),
         ("Alice", "Bob", "Sibling-of"), ("Bob", "Alice", "Sibling-of")]
    )
    assert len(g.edges) == 2


def test_parallel_edges_with_distinct_labels(fragment_graph):
    assert fragment_graph.has_edge("U1", "P1", "Participant-of")
    assert fragment_graph.has_edge("U1", "P1", "Supervises")


def test_self_loops_are_allowed():
    g = family_graph([("Bob", "Bob", "Brother-of")])
    assert g.has_edge("Bob", "Bob", "Brother-of")
    incident = g.edges_incident("Bob")
    assert ("Bob", "Brother-of", "out") in incident
    assert ("Bob", "Brother-of", "in") in incident


def test_validate_model_accepts_consistent_model():
    assert validate_model(FAMILY) == []


def test_validate_model_rejects_undeclared_symmetric_label():
    model = SystemModel(["t"], ["l"], symmetric=["other"])
    assert any("symmetric label 'other'" in p for p in validate_model(model))


def test_validate_model_rejects_dangling_permissible_parts():
    model = SystemModel(["t"], ["l"], permissible=[("t", "ghost", "l"), ("t", "t", "nope")])
    problems = validate_model(model)
    assert any("unknown type 'ghost'" in p for p in problems)
    assert any("unknown label 'nope'" in p for p in problems)


def _violations(model, entities, edges) -> list[str]:
    try:
        SystemGraph(model, entities, edges)
    except GraphValidationError as exc:
        return exc.violations
    return []


def _entities(graph) -> dict[str, str]:
    return {entity: graph.type_of(entity) for entity in graph.entity_ids}


def test_validate_graph_accepts_wellformed(fragment_graph):
    assert _violations(fragment_graph.model, _entities(fragment_graph), fragment_graph.edges) == []


def test_validate_graph_reports_nonpermissible_edge(fragment_graph):
    edges = set(fragment_graph.edges) | {("U1", "U1", "Supervises")}
    assert _violations(fragment_graph.model, _entities(fragment_graph), edges) == [
        "edge ('U1', 'U1', 'Supervises'): ('user', 'user', 'Supervises') is not permissible"
    ]


def test_validate_graph_reports_unknown_entity_and_type():
    model = SystemModel(["t"], ["l"], permissible=[("t", "t", "l")])
    problems = _violations(model, {"x": "t", "y": "weird"}, [("x", "ghost", "l")])
    assert problems == ["entity 'y' has unknown type 'weird'", "edge ('x', 'ghost', 'l'): unknown entity 'ghost'"]


def test_validate_graph_reserves_wildcard_id():
    model = SystemModel(["t"], ["l"])
    assert _violations(model, {"*": "t"}, []) == ["entity id '*' is reserved for the wildcard object"]


def test_constructor_rejects_illformed_by_default():
    model = SystemModel(["t"], ["l"], permissible=[])
    with pytest.raises(GraphValidationError) as err:
        SystemGraph(model, {"x": "t", "y": "t"}, [("x", "y", "l")])
    assert any("not permissible" in v for v in err.value.violations)


def test_with_edge_validates_eagerly(fragment_graph):
    with pytest.raises(GraphValidationError):
        fragment_graph.with_edge("U1", "U1", "Supervises")
    with pytest.raises(GraphValidationError):
        fragment_graph.with_edge("U1", "P1", "nope")
    larger = SystemGraph(fragment_graph.model, _entities(fragment_graph) | {"U2": "user"}, fragment_graph.edges)
    bigger = larger.with_edge("U2", "P1", "Participant-of")
    assert bigger.has_edge("U2", "P1", "Participant-of")
    # original snapshot unchanged
    assert not larger.has_edge("U2", "P1", "Participant-of")


def test_without_edge_never_breaks_wellformedness(fragment_graph):
    g = fragment_graph.without_edge("U1", "P1", "Supervises")
    assert not g.has_edge("U1", "P1", "Supervises")
    assert _violations(g.model, _entities(g), g.edges) == []


def test_snapshots_are_immutable(fragment_graph):
    with pytest.raises(AttributeError):
        fragment_graph.model = None


def test_edge_count_does_not_build_the_edge_set(fragment_graph, monkeypatch):
    def snapshots():
        added = fragment_graph.with_edge("D1", "F1", "Member-of")
        removed = added.without_edge("U1", "P1", "Supervises")
        return [fragment_graph, added, removed, removed.without_edge("U1", "P1", "Supervises")]

    counts = [len(g.edges) for g in snapshots()]
    assert counts == [6, 7, 6, 6]

    def no_edge_set(graph):
        raise AssertionError("the edge set was built")

    monkeypatch.setattr(SystemGraph, "edges", property(no_edge_set))
    fresh = snapshots()
    assert [g.edge_count for g in fresh] == counts
    assert [repr(g) for g in fresh] == [f"SystemGraph(6 entities, {count} edges)" for count in counts]


# -- the constructor's violations against a walk over every entity and edge --

TYPE_POOL = ["t", "u", "v"]
LABEL_POOL = ["a", "b", "s", "z"]
ID_POOL = ["x", "y", "w", "*", "ghost"]


def _reference_violations(model: SystemModel, types: dict[str, str], edges) -> list[str]:
    """Every entity and every stored edge, each described in sorted order.
    A symmetric edge is stored once, with the smaller endpoint first."""
    stored = {(min(f, t), max(f, t), l) if l in model.symmetric else (f, t, l) for f, t, l in edges}
    problems = []
    for entity in sorted(types):
        if types[entity] not in model.types:
            problems.append(f"entity {entity!r} has unknown type {types[entity]!r}")
        if entity == "*":
            problems.append("entity id '*' is reserved for the wildcard object")
    for from_id, to_id, label in sorted(stored):
        edge = f"edge ({from_id!r}, {to_id!r}, {label!r})"
        if not all(e in types and types[e] in model.types for e in (from_id, to_id)):
            problems.extend(f"{edge}: unknown entity {e!r}" for e in (from_id, to_id) if e not in types)
            continue
        if label not in model.labels:
            problems.append(f"{edge}: unknown label {label!r}")
            continue
        from_type, to_type = types[from_id], types[to_id]
        allowed = (from_type, to_type, label) in model.permissible or (
            label in model.symmetric and (to_type, from_type, label) in model.permissible
        )
        if not allowed:
            problems.append(f"{edge}: ({from_type!r}, {to_type!r}, {label!r}) is not permissible")
    return problems


@st.composite
def unchecked_graphs(draw):
    """Models with undeclared symmetric labels and dangling permissible
    triples; entities of unknown types and the ``*`` id; edges to unknown
    entities and with unknown labels, duplicated, looped and given in
    both orientations.  Invalid on purpose, as ``workspace_texts`` builds
    invalid documents, so it does not draw from ``rebac.differential``,
    whose graphs are valid by construction."""
    model = SystemModel(
        types=draw(st.sets(st.sampled_from(TYPE_POOL), min_size=1)),
        labels=draw(st.sets(st.sampled_from(LABEL_POOL), min_size=1)),
        symmetric=draw(st.sets(st.sampled_from(LABEL_POOL))),
        permissible=draw(st.lists(st.tuples(*[st.sampled_from(TYPE_POOL)] * 2, st.sampled_from(LABEL_POOL)))),
    )
    entities = draw(st.dictionaries(st.sampled_from(ID_POOL[:-1]), st.sampled_from(TYPE_POOL)))
    edges = draw(st.lists(st.tuples(*[st.sampled_from(ID_POOL)] * 2, st.sampled_from(LABEL_POOL)), max_size=12))
    reversed_copies = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges += [(to_id, from_id, label) for from_id, to_id, label in reversed_copies]
    return model, entities, edges


@given(unchecked_graphs())
@settings(max_examples=400, deadline=None)
def test_validate_graph_messages_and_order_are_exact(case):
    model, entities, edges = case
    expected = validate_model(model) + _reference_violations(model, entities, edges)
    assert _violations(model, entities, edges) == expected


# -- the label index against tables computed from raw triples -----------------

DIRECTION_RANK = {"out": 0, "in": 1, "sym": 2}


def _expected_index(triples, symmetric):
    """Stored edges and the label index, ``node -> (table, count)`` with
    ``(label, direction) -> sorted neighbours`` tables and comparison
    counts, from raw triples."""
    stored = {(min(u, v), max(u, v), l) if l in symmetric else (u, v, l) for u, v, l in triples}
    sets: dict[str, dict] = {}
    for u, v, label in stored:
        ends = [(u, "sym", v), (v, "sym", u)] if label in symmetric else [(u, "out", v), (v, "in", u)]
        for node, direction, other in ends:
            sets.setdefault(node, {}).setdefault((label, direction), set()).add(other)
    index = {}
    for node, table in sets.items():
        count = sum(len(others) * (2 if direction == "sym" else 1) for (_, direction), others in table.items())
        index[node] = ({key: tuple(sorted(others)) for key, others in table.items()}, count)
    return stored, index


def _incident(index, node):
    """``node``'s incident edges as ``(neighbour, label, direction)`` in
    incident order: ``out``, then ``in``, then ``sym``, each group by
    (neighbour, label).  A symmetric edge, a loop too, appears once."""
    incident = [(other, label, way) for (label, way), others in index.get(node, ({}, 0))[0].items() for other in others]
    return sorted(incident, key=lambda edge: (DIRECTION_RANK[edge[2]], edge[0], edge[1]))


def _raw_triples(rng) -> tuple[SystemGraph, list]:
    """A generated graph's stored edges with duplicates, reversed copies
    (so symmetric edges come in both orientations) and symmetric loops
    added, all chosen by ``rng``, and the graph built from them."""
    generated = random_graph(rng)
    nodes, triples = generated.entity_ids, sorted(generated.edges)
    if triples:
        triples += rng.choices(triples, k=rng.randint(0, 4))
        triples += [(v, u, label) for u, v, label in rng.choices(triples, k=rng.randint(0, 4))]
    symmetric = sorted(generated.model.symmetric)
    triples += [(node, node, rng.choice(symmetric)) for node in rng.choices(nodes, k=rng.randint(0, 2))]
    note(f"graph: {len(nodes)} nodes, triples {triples}")
    return SystemGraph(generated.model, dict.fromkeys(nodes, "node"), triples), triples


@given(st.randoms())
@settings(max_examples=300, deadline=None)
def test_fresh_label_index_matches_tables_built_from_raw_triples(rng):
    graph, triples = _raw_triples(rng)
    nodes, symmetric = graph.entity_ids, graph.model.symmetric
    stored, index = _expected_index(triples, symmetric)
    assert graph.label_index() == index
    assert graph.edges == stored
    assert graph.edge_count == len(stored)
    for u in nodes:
        assert graph.edges_incident(u) == tuple(_incident(index, u))
        for v in nodes:
            for label in graph.model.labels:
                expected = (min(u, v), max(u, v), label) if label in symmetric else (u, v, label)
                assert graph.has_edge(u, v, label) == (expected in stored)


@given(st.randoms())
@settings(max_examples=300, deadline=None)
def test_found_exit_recount_follows_incident_order(rng):
    """A one-edge condition that holds ends the search at its first work
    item, so ``edges_considered`` is exactly the recount: the comparisons
    of a scan over the source's incident edges, in incident order, up to
    and including the edge that hit."""
    graph, triples = _raw_triples(rng)
    nodes, symmetric = graph.entity_ids, graph.model.symmetric
    _, index = _expected_index(triples, symmetric)
    for u in nodes:
        incident = _incident(index, u)
        for v in nodes:
            for label in graph.model.labels:
                for reversed_ in (False, True):
                    result = match_path(graph, u, v, EdgeCondition(label, reversed_))
                    direction = "sym" if label in symmetric else "in" if reversed_ else "out"
                    hit = next((i for i, edge in enumerate(incident) if edge == (v, label, direction)), None)
                    assert result.found == (hit is not None)
                    if result.found:
                        scanned = incident[: hit + 1]
                        expected = sum(2 if edge[2] == "sym" else 1 for edge in scanned)
                        assert result.metrics.edges_considered == expected
