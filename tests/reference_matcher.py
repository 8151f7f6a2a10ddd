"""A test-only reference for :func:`rebac.matching.match_path`.

The same breadth-first search over the same graph index, written over
(node, residual condition) pairs: the queue and the seen set hold the
residual trees themselves, and every dequeue unfolds its residual again.
It is slow but plainly right, and it fixes what the numbered matcher
must reproduce exactly: the answer, all four metrics and every trace
line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable

from rebac.graph import DIRECTION_RANK, SystemGraph, UnknownEntityError
from rebac.matching import MatchMetrics, MatchResult, work_bound
from rebac.paths import DIAMOND, Concat, PathCondition, Plus, Star, head, render, simplify, suffix


def unfold(residual: PathCondition) -> list[PathCondition]:
    """Expand leading zero-or-more repetitions into star-free-headed
    branches.  May yield the empty condition (a zero branch that
    consumed the whole residual); duplicates are dropped."""
    out: list[PathCondition] = []
    queue = [residual]
    expanded: set[PathCondition] = set()
    while queue:
        pc = queue.pop()
        if pc in expanded:
            continue
        expanded.add(pc)
        if isinstance(pc, Star):
            starred, rest = pc.inner, DIAMOND
        elif isinstance(pc, Concat) and isinstance(pc.left, Star):
            starred, rest = pc.left.inner, pc.right
        else:
            out.append(pc)
            continue
        queue.append(rest)  # zero occurrences
        plussed = Concat(Plus(starred), rest) if rest != DIAMOND else Plus(starred)
        queue.append(plussed)  # one or more occurrences
    return out


def reference_match_path(
    graph: SystemGraph,
    source: str,
    target: str,
    condition: PathCondition,
    *,
    trace: Callable[[str], None] | None = None,
) -> MatchResult:
    for entity in (source, target):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)

    pi = simplify(condition)
    metrics = MatchMetrics()
    if pi == DIAMOND:
        return MatchResult(source == target, metrics)

    bound = work_bound(graph, pi)
    index = graph.label_index()
    seen: set[tuple[str, PathCondition]] = {(source, pi)}
    queue: deque[tuple[str, PathCondition]] = deque([(source, pi)])
    metrics.queue_peak = 1
    visited: set[str] = set()

    def finish(found: bool) -> MatchResult:
        metrics.nodes_visited = len(visited)
        metrics.pairs_seen = len(seen)
        assert len(seen) <= bound, f"seen {len(seen)} pairs, bound {bound}"
        return MatchResult(found, metrics)

    while queue:
        node, residual = queue.popleft()
        visited.add(node)

        active: list[PathCondition] = []
        for branch in unfold(residual):
            if branch == DIAMOND:
                if node == target:
                    if trace:
                        trace(f"{node}  [{render(residual)}]  matched {target}")
                    return finish(True)
                continue
            if branch == residual:
                active.append(branch)
            elif (node, branch) not in seen:
                seen.add((node, branch))
                active.append(branch)

        table, cost = index.get(node, ({}, 0))
        enqueued = 0
        for branch in active:
            want = head(branch)
            rest = suffix(branch)
            way = "in" if want.reversed else "out"
            direct = table.get((want.label, way), ())
            symmetric = table.get((want.label, "sym"), ())
            if rest == DIAMOND:
                if target in direct or target in symmetric:
                    hit = DIRECTION_RANK[way if target in direct else "sym"]
                    for (label, direction), others in table.items():
                        rank = DIRECTION_RANK[direction]
                        if rank <= hit:
                            cut = bisect_right if label <= want.label else bisect_left
                            scanned = len(others) if rank < hit else cut(others, target)
                            metrics.edges_considered += scanned * (2 if direction == "sym" else 1)
                    if trace:
                        trace(f"{node}  [{render(residual)}]  matched {target}")
                    return finish(True)
            else:
                for others in (direct, symmetric):
                    for neighbor in others:
                        item = (neighbor, rest)
                        if item not in seen:
                            seen.add(item)
                            queue.append(item)
                            enqueued += 1
            metrics.edges_considered += cost
        if len(queue) > metrics.queue_peak:
            metrics.queue_peak = len(queue)
        if trace:
            outcome = f"enqueued {enqueued}" if enqueued else "dead end"
            trace(f"{node}  [{render(residual)}]  {outcome}")

    return finish(False)
