"""The paper's set semantics of path conditions: the (source, target)
pairs a *raw* condition connects, with no simplification and no
automaton, to check the matcher, the oracle and the rewrites in
:mod:`rebac.paths` against the definition."""

from rebac import SystemGraph
from rebac.paths import Concat, Diamond, EdgeCondition, PathCondition, Plus, Reverse, Star


def converse(pairs) -> frozenset:
    return frozenset((v, u) for u, v in pairs)


def compose(first: frozenset, second: frozenset) -> frozenset:
    after: dict[str, set[str]] = {}
    for u, v in second:
        after.setdefault(u, set()).add(v)
    return frozenset((u, w) for u, v in first for w in after.get(v, ()))


def relation(graph: SystemGraph, pc: PathCondition) -> frozenset[tuple[str, str]]:
    """``@`` is the identity, a label its stored edges (both ways for a
    symmetric label), ``~`` the converse, ``.`` composition, ``+``
    transitive closure and the internal ``*`` the identity joined with it."""
    if isinstance(pc, Diamond):
        return frozenset((v, v) for v in graph.entity_ids)
    if isinstance(pc, EdgeCondition):
        edges = frozenset((u, v) for u, v, label in graph.edges if label == pc.label)
        if pc.label in graph.model.symmetric:
            edges |= converse(edges)
        return converse(edges) if pc.reversed else edges
    if isinstance(pc, Reverse):
        return converse(relation(graph, pc.inner))
    if isinstance(pc, Concat):
        return compose(relation(graph, pc.left), relation(graph, pc.right))
    if isinstance(pc, Plus):
        step = closure = relation(graph, pc.inner)
        while (grown := closure | compose(closure, step)) != closure:
            closure = grown
        return closure
    if isinstance(pc, Star):
        return relation(graph, Diamond()) | relation(graph, Plus(pc.inner))
    raise TypeError(f"not a raw path condition: {pc!r}")
