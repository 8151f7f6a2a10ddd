"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

import copy
import json

import hypothesis.strategies as st

from rebac import SystemGraph, SystemModel, dumps_workspace, make_fixture
from rebac.fixtures import FIXTURES
from rebac.paths import DIAMOND, Concat, EdgeCondition, Plus, Reverse

LABELS = ("a", "b", "c")
SYMMETRIC = ("c",)

MODEL = SystemModel(
    types=["node"],
    labels=LABELS,
    symmetric=SYMMETRIC,
    permissible=[("node", "node", label) for label in LABELS],
)


def edge_conditions():
    return st.builds(EdgeCondition, st.sampled_from(LABELS), st.booleans())


def simple_conditions(max_leaves: int = 6):
    """Conditions already in simple form (reversal only on labels)."""
    trees = st.recursive(
        edge_conditions(),
        lambda kids: st.one_of(st.builds(Concat, kids, kids), st.builds(Plus, kids)),
        max_leaves=max_leaves,
    )
    return st.just(DIAMOND) | trees


def conditions(max_leaves: int = 6):
    """Raw conditions: reversal and the empty condition anywhere."""
    return st.recursive(
        st.just(DIAMOND) | edge_conditions(),
        lambda kids: st.one_of(
            st.builds(Concat, kids, kids),
            st.builds(Plus, kids),
            st.builds(Reverse, kids),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def graphs(draw, max_nodes: int = 6) -> SystemGraph:
    count = draw(st.integers(min_value=2, max_value=max_nodes))
    nodes = [f"n{i}" for i in range(count)]
    edges = draw(
        st.sets(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from(LABELS)),
            max_size=2 * count,
        )
    )
    return SystemGraph(MODEL, {n: "node" for n in nodes}, edges)


@st.composite
def graph_and_pair(draw, max_nodes: int = 6):
    graph = draw(graphs(max_nodes=max_nodes))
    nodes = graph.entity_ids
    return graph, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))


# -- hostile workspace JSON ----------------------------------------------------


def _positions(value, path=()):
    # every section, list entry and record field below the document root
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def json_type(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


DOCUMENTS = {name: json.loads(dumps_workspace(make_fixture(name))) for name in sorted(FIXTURES)}
POSITIONS = [(name, path) for name, doc in DOCUMENTS.items() for path in _positions(doc)]
JSON_VALUES = [None, True, False, 0, 7, 2.5, "", "ghost", [], ["ghost"], {}, {"id": "ghost"}]


@st.composite
def workspace_texts(draw, name: str) -> str:
    """Fixture ``name``'s document, the same with one value replaced by
    any of ``JSON_VALUES``, or arbitrary text."""
    kind = draw(st.sampled_from(["fixture", "replaced", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    doc = copy.deepcopy(DOCUMENTS[name])
    if kind == "replaced":
        *parents, last = draw(st.sampled_from([path for doc_name, path in POSITIONS if doc_name == name]))
        container = doc
        for key in parents:
            container = container[key]
        container[last] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc)
