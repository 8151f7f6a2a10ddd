"""Principal matching: breadth-first search driven by path conditions.

:func:`match_path` decides whether a condition connects two entities by
exploring (node, residual condition) work items.  Each dequeued item
peels the residual's head edge condition: the graph's label index gives
the neighbours its label and direction reach, and traversing an edge
leaves the residual's suffix to satisfy from the neighbor.  A residual
whose first factor is a zero-or-more repetition is unfolded on dequeue
into its zero branch and its one-or-more branch, recursively, since
zero branches can expose further repetitions.  A seen set over (node,
residual) pairs bounds the work by :func:`work_bound`,
|V| * (length + 2 * plus_count + 1).

:func:`match_principals` runs an ordered rule list against a request
and collects the principals of matching rules, either stopping at the
first match or evaluating every rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .graph import DIRECTION_RANK, SystemGraph, UnknownEntityError
from .paths import (
    DIAMOND,
    Concat,
    PathCondition,
    Plus,
    Star,
    head,
    length,
    plus_count,
    render,
    simplify,
    suffix,
)

__all__ = [
    "TOP",
    "MatchStrategy",
    "PrincipalMatchingRule",
    "PolicyError",
    "MatchMetrics",
    "MatchResult",
    "RuleEvaluation",
    "PrincipalMatching",
    "match_path",
    "match_principals",
    "validate_policy",
    "work_bound",
]


class _Top:
    """Catch-all rule condition: applies to every request."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


class MatchStrategy(str, Enum):
    """How many principal-matching rules a request is evaluated against."""

    FIRST_MATCH = "FirstMatch"
    ALL_MATCH = "AllMatch"


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class PrincipalMatchingRule:
    """Pairs a path condition (or TOP) with the principal it identifies.

    ``text`` (the rendered condition, or "TOP") and ``has_star`` do not
    depend on any request, so they are computed once, here.  Building
    never raises for a condition that :func:`validate_policy` rejects.
    """

    condition: PathCondition | _Top
    principal: str
    text: str = field(init=False, repr=False, compare=False)
    has_star: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.condition, PathCondition):
            has_star = _contains_star(self.condition)
            text = render(self.condition)  # a '*' rule fails validation
        else:
            has_star, text = False, repr(self.condition)
        object.__setattr__(self, "has_star", has_star)
        object.__setattr__(self, "text", text)


@dataclass
class MatchMetrics:
    """Instrumentation for one match_path run.

    ``nodes_visited`` counts distinct graph nodes dequeued,
    ``edges_considered`` counts the comparisons a scan of each active
    branch's node's incident edges against its head would make (symmetric
    edges count twice: both traversal senses are attempted), up to the
    edge that ends a successful search, and
    ``pairs_seen`` is the size of the (node, residual) seen set, the
    quantity the termination bound speaks about.
    """

    nodes_visited: int = 0
    edges_considered: int = 0
    queue_peak: int = 0
    pairs_seen: int = 0


class MatchResult(NamedTuple):
    found: bool
    metrics: MatchMetrics


def _unfold(residual: PathCondition) -> list[PathCondition]:
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


def work_bound(graph: SystemGraph, condition: PathCondition) -> int:
    """Most (node, residual) pairs :func:`match_path` can see for ``condition``.

    Every residual of the simple form is the start, the suffix left
    after one label occurrence (one per occurrence), or one of the two
    branches ``X+ . K`` and ``K`` unfolded from a zero-or-more form
    ``X* . K``, which each ``+`` leaves as its remainder and each ``*``
    is.  ``plus_count`` counts both, so there are at most
    length + 2 * plus_count + 1 residuals, each paired with a node.
    """
    return len(graph) * (length(condition) + 2 * plus_count(condition) + 1)


def match_path(
    graph: SystemGraph,
    source: str,
    target: str,
    condition: PathCondition,
    *,
    trace: Callable[[str], None] | None = None,
) -> MatchResult:
    """Decide whether ``condition`` connects ``source`` to ``target``.

    Deterministic: work items are processed first-in first-out and each
    node's neighbours are crossed in the order of its incident edges
    (``out``, ``in``, then ``sym``, each by neighbour), so repeated runs
    report identical metrics.  ``trace`` receives one line per dequeued
    work item.
    """
    for entity in (source, target):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)

    pi = simplify(condition)
    metrics = MatchMetrics()
    if pi == DIAMOND:
        # the empty condition needs no traversal at all
        return MatchResult(source == target, metrics)

    bound = work_bound(graph, pi)
    neighbours, comparisons = graph.label_index()
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
        for branch in _unfold(residual):
            if branch == DIAMOND:
                # a zero branch consumed everything: target check here
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

        table = neighbours.get(node, {})
        enqueued = 0
        for branch in active:
            want = head(branch)
            rest = suffix(branch)
            way = "in" if want.reversed else "out"
            direct = table.get((want.label, way), ())
            symmetric = table.get((want.label, "sym"), ())
            if rest == DIAMOND:
                if target in direct or target in symmetric:
                    # recount a scan of the incident edges (direction groups in
                    # rank order, each by neighbour, then label) that stops at the hit
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
            metrics.edges_considered += comparisons.get(node, 0)
        if len(queue) > metrics.queue_peak:
            metrics.queue_peak = len(queue)
        if trace:
            outcome = f"enqueued {enqueued}" if enqueued else "dead end"
            trace(f"{node}  [{render(residual)}]  {outcome}")

    return finish(False)


@dataclass
class RuleEvaluation:
    """Record of one rule's run within match_principals."""

    rule_number: int  # 1-based position in the policy
    principal: str
    condition: str  # rendered condition text, or "TOP"
    found: bool
    metrics: MatchMetrics


@dataclass
class PrincipalMatching:
    principals: list[str]
    evaluations: list[RuleEvaluation] = field(default_factory=list)


def validate_policy(rules: Sequence[PrincipalMatchingRule]) -> list[str]:
    """Violations of principal-matching policy shape, as messages."""
    problems = []
    for position, rule in enumerate(rules, start=1):
        if rule.condition is TOP:
            if position != len(rules):
                problems.append(f"rule {position}: TOP is only allowed as the last rule")
        elif isinstance(rule.condition, PathCondition):
            if rule.has_star:
                problems.append(f"rule {position}: '*' conditions are internal and not allowed in policies")
        else:
            problems.append(f"rule {position}: condition is neither a path condition nor TOP")
    return problems


def _contains_star(pc: PathCondition) -> bool:
    if isinstance(pc, Star):
        return True
    if isinstance(pc, Concat):
        return _contains_star(pc.left) or _contains_star(pc.right)
    if isinstance(pc, Plus):
        return _contains_star(pc.inner)
    if hasattr(pc, "inner"):
        return _contains_star(pc.inner)
    return False


def match_principals(
    graph: SystemGraph,
    subject: str,
    object_: str,
    rules: Sequence[PrincipalMatchingRule],
    strategy: MatchStrategy = MatchStrategy.ALL_MATCH,
    *,
    trace: Callable[[str], None] | None = None,
) -> PrincipalMatching:
    """Ordered principals whose rules match the (subject, object) pair.

    FirstMatch stops at the first matching rule; AllMatch evaluates the
    whole policy and deduplicates principals, keeping first occurrence.
    A TOP rule (validated to sit last) matches whenever evaluated, so
    under either strategy it acts as the default principal.
    """
    problems = validate_policy(rules)
    if problems:
        raise PolicyError("; ".join(problems))

    principals: list[str] = []
    evaluations: list[RuleEvaluation] = []
    for number, rule in enumerate(rules, start=1):
        if rule.condition is TOP:
            found, metrics = True, MatchMetrics()
        else:
            rule_trace = None
            if trace:
                rule_trace = lambda line, _n=number: trace(f"rule {_n}: {line}")
            found, metrics = match_path(graph, subject, object_, rule.condition, trace=rule_trace)
        evaluations.append(RuleEvaluation(number, rule.principal, rule.text, found, metrics))
        if found:
            if rule.principal not in principals:
                principals.append(rule.principal)
            if strategy is MatchStrategy.FIRST_MATCH:
                break
    return PrincipalMatching(principals, evaluations)
