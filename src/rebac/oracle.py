"""Independent decision procedure for path-condition satisfaction.

A condition compiles to a small nondeterministic automaton over edge
conditions; satisfaction between two nodes is reachability in the
product of the graph and the automaton, walked over a neighbour map
built from the stored triples (``SystemGraph.edges``) and kept for the
last snapshot queried.  The automaton is built from the condition as
written (Thompson, "Regular expression search algorithm", CACM 1968):
reversal flips labels and the order of concatenation on the way down,
so nothing is rewritten first.  The oracle never reads the graph's
lookups over the matcher's tables (``has_edge``, ``label_index``,
``edges_incident``) and shares no traversal code and no rewriting with
:mod:`rebac.matching`; the two are kept separate on purpose so they can
check each other differentially.
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
    Reverse,
    Star,
)

__all__ = ["PathNfa", "compile_nfa", "oracle_satisfies"]


@dataclass(frozen=True)
class PathNfa:
    """Automaton over edge conditions; ``None`` transitions are epsilon."""

    start: int
    accept: int
    transitions: tuple[tuple[int, EdgeCondition | None, int], ...]
    state_count: int


def compile_nfa(pc: PathCondition) -> PathNfa:
    """Compile a condition, as written, to an NFA.

    The construction is structural: a label becomes a single labelled
    transition, the empty condition an epsilon, concatenation chains
    fragments, one-or-more adds a loop back around its fragment, and
    reversal adds nothing: below it labels walk the other way and
    concatenations chain right part first.  So the state count stays
    within twice the condition size.
    """
    counter = itertools.count()
    transitions: list[tuple[int, EdgeCondition | None, int]] = []

    def fresh() -> int:
        return next(counter)

    def build(node: PathCondition, src: int, dst: int, flip: bool) -> None:
        if isinstance(node, Diamond):
            transitions.append((src, None, dst))
        elif isinstance(node, EdgeCondition):
            transitions.append((src, EdgeCondition(node.label, node.reversed ^ flip), dst))
        elif isinstance(node, Reverse):
            build(node.inner, src, dst, not flip)
        elif isinstance(node, Concat):
            mid = fresh()
            first, second = (node.right, node.left) if flip else (node.left, node.right)
            build(first, src, mid, flip)
            build(second, mid, dst, flip)
        elif isinstance(node, (Plus, Star)):
            enter, leave = fresh(), fresh()
            transitions.append((src, None, enter))
            build(node.inner, enter, leave, flip)
            transitions.append((leave, None, dst))
            transitions.append((leave, None, enter))  # repeat
            if isinstance(node, Star):
                transitions.append((src, None, dst))  # zero occurrences
        else:
            raise TypeError(f"not a path condition: {node!r}")

    start, accept = fresh(), fresh()
    build(pc, start, accept, False)
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


def _product_reach(graph: SystemGraph, source: str, nfa: PathNfa, target: str) -> bool:
    """Whether (target, accept) is reachable from (source, start)."""
    epsilon: dict[int, list[int]] = {}
    labelled: dict[int, list[tuple[EdgeCondition, int]]] = {}
    for src, cond, dst in nfa.transitions:
        if cond is None:
            epsilon.setdefault(src, []).append(dst)
        else:
            labelled.setdefault(src, []).append((cond, dst))

    step = _neighbour_map(graph)
    goal = (target, nfa.accept)
    seen = {(source, nfa.start)}
    stack = [(source, nfa.start)]
    while stack:
        item = stack.pop()
        if item == goal:
            return True
        node, state = item
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
    return False


def oracle_satisfies(graph: SystemGraph, source: str, target: str, pc: PathCondition) -> bool:
    """Ground-truth satisfaction of ``pc`` between two entities."""
    for entity in (source, target):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)
    return _product_reach(graph, source, compile_nfa(pc), target)
