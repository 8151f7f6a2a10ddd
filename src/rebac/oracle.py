"""Independent decision procedure for path-condition satisfaction.

A condition compiles to a small nondeterministic automaton over edge
conditions; satisfaction between two nodes is reachability in the
product of the graph and the automaton, walked over a neighbour map
built from the stored triples (``SystemGraph.edges``) and kept for the
last snapshot queried.  It never reads the graph's lookups over the
matcher's tables (``has_edge``, ``label_index``, ``edges_incident``) and
shares no traversal code with :mod:`rebac.matching`; the two are kept
separate on purpose so they can check each other differentially.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import SystemGraph, UnknownEntityError
from .paths import (
    Concat,
    Diamond,
    EdgeCondition,
    PathCondition,
    Plus,
    Star,
    simplify,
)

__all__ = ["PathNfa", "compile_nfa", "oracle_satisfies", "satisfying_targets"]


@dataclass(frozen=True)
class PathNfa:
    """Automaton over edge conditions; ``None`` transitions are epsilon."""

    start: int
    accept: int
    transitions: tuple[tuple[int, EdgeCondition | None, int], ...]
    state_count: int


def compile_nfa(pc: PathCondition) -> PathNfa:
    """Compile a condition (any form; canonicalized first) to an NFA.

    The construction is structural: a label becomes a single labelled
    transition, the empty condition an epsilon, concatenation chains
    fragments, and one-or-more adds a loop back around its fragment, so
    the state count stays within twice the condition size.
    """
    pc = simplify(pc)
    counter = itertools.count()
    transitions: list[tuple[int, EdgeCondition | None, int]] = []

    def fresh() -> int:
        return next(counter)

    def build(node: PathCondition, src: int, dst: int) -> None:
        if isinstance(node, Diamond):
            transitions.append((src, None, dst))
        elif isinstance(node, EdgeCondition):
            transitions.append((src, node, dst))
        elif isinstance(node, Concat):
            mid = fresh()
            build(node.left, src, mid)
            build(node.right, mid, dst)
        elif isinstance(node, (Plus, Star)):
            enter, leave = fresh(), fresh()
            transitions.append((src, None, enter))
            build(node.inner, enter, leave)
            transitions.append((leave, None, dst))
            transitions.append((leave, None, enter))  # repeat
            if isinstance(node, Star):
                transitions.append((src, None, dst))  # zero occurrences
        else:
            raise TypeError(f"not a simple path condition: {node!r}")

    start, accept = fresh(), fresh()
    build(pc, start, accept)
    return PathNfa(start, accept, tuple(transitions), next(counter))


# the last snapshot asked about and its neighbour map, which no caller
# changes.  Snapshots never change, and holding one keeps its identity
# from being reused, so the map stays valid while the entry holds it.
_last_map: tuple[SystemGraph | None, dict] = (None, {})


def _neighbour_map(graph: SystemGraph) -> dict[tuple[str, str, bool], list[str]]:
    """``(node, label, reversed) -> neighbours``, from the stored triples."""
    global _last_map
    cached, step = _last_map
    if cached is graph:
        return step
    step = {}
    symmetric = graph.model.symmetric
    for u, v, label in graph.edges:
        step.setdefault((u, label, False), []).append(v)
        step.setdefault((v, label, True), []).append(u)
        if label in symmetric:  # holds both ways under both senses
            step.setdefault((v, label, False), []).append(u)
            step.setdefault((u, label, True), []).append(v)
    _last_map = (graph, step)
    return step


def _product_reach(graph: SystemGraph, source: str, nfa: PathNfa, target: str | None):
    """Graph nodes paired with the accept state, reachable from
    (source, start).  Stops early when ``target`` is among them."""
    epsilon: dict[int, list[int]] = {}
    labelled: dict[int, list[tuple[EdgeCondition, int]]] = {}
    for src, cond, dst in nfa.transitions:
        if cond is None:
            epsilon.setdefault(src, []).append(dst)
        else:
            labelled.setdefault(src, []).append((cond, dst))

    step = _neighbour_map(graph)
    accepting: set[str] = set()
    seen = {(source, nfa.start)}
    stack = [(source, nfa.start)]
    while stack:
        node, state = stack.pop()
        if state == nfa.accept:
            accepting.add(node)
            if node == target:
                return accepting
        for nxt in epsilon.get(state, ()):
            item = (node, nxt)
            if item not in seen:
                seen.add(item)
                stack.append(item)
        for cond, nxt in labelled.get(state, ()):
            for other in step.get((node, cond.label, cond.reversed), ()):
                item = (other, nxt)
                if item not in seen:
                    seen.add(item)
                    stack.append(item)
    return accepting


def oracle_satisfies(graph: SystemGraph, source: str, target: str, pc: PathCondition) -> bool:
    """Ground-truth satisfaction of ``pc`` between two entities."""
    for entity in (source, target):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)
    nfa = compile_nfa(pc)
    return target in _product_reach(graph, source, nfa, target)


def satisfying_targets(graph: SystemGraph, source: str, pc: PathCondition) -> frozenset[str]:
    """All entities the condition connects ``source`` to."""
    if not graph.has_entity(source):
        raise UnknownEntityError(source)
    nfa = compile_nfa(pc)
    return frozenset(_product_reach(graph, source, nfa, None))
