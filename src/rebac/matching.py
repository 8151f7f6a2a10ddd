"""Principal matching: breadth-first search driven by path conditions.

:func:`match_path` decides whether a condition connects two entities by
exploring (node, state number) work items, where a state is a residual
condition.  Each search numbers a residual the first time it meets it
and keeps per-search tables indexed by number: the residual's unfolded
branches (a residual whose first factor is a zero-or-more repetition
unfolds into its one-or-more branch and its zero branch, recursively,
since zero branches can expose further repetitions), each branch's
move (the one key of a node's label table its head reads, ``(label,
"sym")`` for a symmetric label and ``(label, "in" | "out")`` otherwise,
and the number of its suffix) and the set of nodes already paired with
it.  So a residual is hashed once per search, however many nodes it
pairs with.  Each dequeued item follows its branches' moves: the key
gives the neighbours a head reaches, and traversing an edge leaves the
suffix to satisfy from the neighbour.  The node sets' total size, the
number of (node, state number) pairs seen, is bounded by
:func:`work_bound`, |V| * (length + 2 * plus_count + 1).

A search starts from the condition's simple form and checks itself
against that bound.  Given a bare condition, :func:`match_path` works
both out when it arrives; given a :class:`PrincipalMatchingRule`, it
reads them from the rule, which works them out once, when it is built.

:func:`match_principals` runs an ordered rule list against a request
and collects the principals of matching rules, either stopping at the
first match or evaluating every rule; it passes each rule itself to
:func:`match_path`.  It checks nothing: an :class:`~rebac.pdp.AuthorizationSystem`
checks its rules' shape (:func:`validate_policy`) once, when it is built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .graph import DIRECTION_RANK, NO_EDGES, SystemGraph, UnknownEntityError
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

    ``text`` (the rendered condition, or "TOP"), ``simple`` (the
    condition's simple form, or None for TOP) and ``bound_factor``
    (``length + 2 * plus_count + 1`` of the condition, so that
    ``len(graph) * bound_factor == work_bound(graph, condition)``; 0 for
    TOP) do not depend on any request, so they are computed once, here,
    and :func:`match_path` reads the last two.  Building never raises for
    a condition that :func:`validate_policy` rejects.
    """

    condition: PathCondition | _Top
    principal: str
    text: str = field(init=False, repr=False, compare=False)
    simple: PathCondition | None = field(init=False, repr=False, compare=False)
    bound_factor: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.condition, PathCondition):
            text = render(self.condition)  # a '*' rule fails validation
            simple = simplify(self.condition)
            factor = _bound_factor(simple)
        else:
            text, simple, factor = repr(self.condition), None, 0
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "simple", simple)
        object.__setattr__(self, "bound_factor", factor)


@dataclass
class MatchMetrics:
    """Instrumentation for one match_path run.

    ``nodes_visited`` counts distinct graph nodes dequeued,
    ``edges_considered`` counts the comparisons a scan of each active
    branch's node's incident edges against its head would make (symmetric
    edges count twice: both traversal senses are attempted), up to the
    edge that ends a successful search, and
    ``pairs_seen`` is the number of (node, state number) pairs seen, the
    total size of the per-state node sets and the quantity the
    termination bound speaks about.
    """

    nodes_visited: int = 0
    edges_considered: int = 0
    queue_peak: int = 0
    pairs_seen: int = 0


class MatchResult(NamedTuple):
    found: bool
    metrics: MatchMetrics


_EMPTY = 0  # the empty condition's state number


class _States:
    """Numbers for the residuals one search meets, and what each needs.

    State ``_EMPTY`` is the empty condition.  A residual gets the next number
    the first time the search meets it, so the search hashes it once
    and handles only ints after that.  ``seen[n]`` is the set of nodes
    already paired with residual ``n``.  ``branches[n]`` lists the
    numbers of residual ``n``'s unfolded branches, worked out by
    :meth:`unfold` when ``n`` is first dequeued; ``moves[b]`` is branch
    ``b``'s label-table key and suffix, worked out by :meth:`move` when
    ``b`` is first active.  ``symmetric`` is the graph's symmetric labels.
    """

    def __init__(self, symmetric: frozenset[str]):
        self.symmetric = symmetric
        self.residuals: list[PathCondition] = [DIAMOND]
        self.numbers: dict[PathCondition, int] = {DIAMOND: _EMPTY}
        self.seen: list[set[str]] = [set()]
        self.branches: list[list[int] | None] = [None]
        self.moves: list[tuple[tuple[str, str], int] | None] = [None]

    def number(self, residual: PathCondition) -> int:
        state = self.numbers.get(residual)
        if state is None:
            state = self.numbers[residual] = len(self.residuals)
            self.residuals.append(residual)
            self.seen.append(set())
            self.branches.append(None)
            self.moves.append(None)
        return state

    def unfold(self, state: int) -> list[int]:
        """Expand leading zero-or-more repetitions into star-free-headed
        branches.  ``X* . K`` yields its one-or-more branch ``X+ . K``,
        then the branches of ``K``, its zero branch, which may be the
        empty condition.  No branch repeats: each ``K`` is a proper part
        of the residual it came from, and each ``X+ . K`` contains its
        ``K``."""
        out: list[int] = []
        residual = self.residuals[state]
        while isinstance(residual, Star) or (isinstance(residual, Concat) and isinstance(residual.left, Star)):
            if isinstance(residual, Star):
                starred, residual = residual.inner, DIAMOND
            else:
                starred, residual = residual.left.inner, residual.right
            out.append(self.number(Concat(Plus(starred), residual) if residual != DIAMOND else Plus(starred)))
        # the star-free rest: the residual itself when it has no leading repetition
        out.append(self.number(residual) if out else state)
        self.branches[state] = out
        return out

    def move(self, branch: int) -> tuple[tuple[str, str], int]:
        """A branch's head as its one key into a node's label table,
        ``(label, "sym")`` for a symmetric label and ``(label, way)``
        otherwise, and its suffix's number."""
        residual = self.residuals[branch]
        want = head(residual)
        way = "sym" if want.label in self.symmetric else "in" if want.reversed else "out"
        move = (want.label, way), self.number(suffix(residual))
        self.moves[branch] = move
        return move


def work_bound(graph: SystemGraph, condition: PathCondition) -> int:
    """Most (node, residual) pairs :func:`match_path` can see for ``condition``.

    Every residual of the simple form is the start, the suffix left
    after one label occurrence (one per occurrence), or one of the two
    branches ``X+ . K`` and ``K`` unfolded from a zero-or-more form
    ``X* . K``, which each ``+`` leaves as its remainder and each ``*``
    is.  ``plus_count`` counts both, so there are at most
    length + 2 * plus_count + 1 residuals, each paired with a node.

    The same count bounds the edge work.  A branch is active at a node
    when that (node, branch) pair is dequeued or when the branch is first
    paired with the node, and the node sets admit each pair once, so each
    pair is active at most once per search; each activation adds the
    node's comparison count ``cost(v)`` from :meth:`SystemGraph.label_index`
    (a hit's recount adds at most that).  Hence ``edges_considered <=
    bound_factor * sum(cost(v) for v in the graph)``, where
    ``bound_factor`` is this bound divided by ``len(graph)``.
    """
    return len(graph) * _bound_factor(simplify(condition))


def _bound_factor(simple: PathCondition) -> int:
    return length(simple) + 2 * plus_count(simple) + 1


def match_path(
    graph: SystemGraph,
    source: str,
    target: str,
    condition: PathCondition | PrincipalMatchingRule,
    *,
    trace: Callable[[str], None] | None = None,
) -> MatchResult:
    """Decide whether ``condition`` connects ``source`` to ``target``.

    ``condition`` is a path condition, or a rule whose prepared simple
    form and bound factor are searched; a TOP rule has no path to match
    and raises :class:`PolicyError`.

    Deterministic: work items are processed first-in first-out and each
    node's neighbours are crossed in the order of its incident edges
    (``out``, ``in``, then ``sym``, each by neighbour), so repeated runs
    report identical metrics.  ``trace`` receives one line per dequeued
    work item.
    """
    for entity in (source, target):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)

    if isinstance(condition, PrincipalMatchingRule):
        pi, factor = condition.simple, condition.bound_factor
        if pi is None:
            raise PolicyError(f"rule for {condition.principal!r}: {condition.text} is not a path condition")
    else:
        pi = simplify(condition)
        factor = _bound_factor(pi)
    if pi == DIAMOND:
        # the empty condition needs no traversal at all
        return MatchResult(source == target, MatchMetrics())

    bound = len(graph) * factor
    index = graph.label_index()
    states = _States(graph.model.symmetric)
    residuals, branches, moves, seen = states.residuals, states.branches, states.moves, states.seen
    start = states.number(pi)
    seen[start].add(source)
    queue: deque[tuple[str, int]] = deque([(source, start)])
    queue_peak, edges_considered = 1, 0
    visited: set[str] = set()

    def finish(found: bool, edges_considered: int, queue_peak: int) -> MatchResult:
        pairs_seen = sum(map(len, seen))
        assert pairs_seen <= bound, f"seen {pairs_seen} pairs, bound {bound}"
        # every numbered residual, the empty condition included, is one work_bound counts
        assert len(residuals) * len(graph) <= bound, f"{len(residuals)} residuals, bound {bound}"
        return MatchResult(found, MatchMetrics(len(visited), edges_considered, queue_peak, pairs_seen))

    while queue:
        node, state = queue.popleft()
        visited.add(node)

        active: list[int] = []
        for branch in branches[state] or states.unfold(state):
            if branch == _EMPTY:
                # a zero branch consumed everything: target check here
                if node == target:
                    if trace:
                        trace(f"{node}  [{render(residuals[state])}]  matched {target}")
                    return finish(True, edges_considered, queue_peak)
                continue
            if branch == state:
                active.append(branch)
            else:
                nodes = seen[branch]
                if node not in nodes:
                    nodes.add(node)
                    active.append(branch)

        table, cost = index.get(node, NO_EDGES)
        before = len(queue)
        for branch in active:
            key, rest = moves[branch] or states.move(branch)
            others = table.get(key, ())
            if rest == _EMPTY:
                if target in others:
                    # recount a scan of the incident edges (direction groups in
                    # rank order, each by neighbour, then label) that stops at the hit
                    want, way = key
                    hit = DIRECTION_RANK[way]
                    for (label, direction), others in table.items():
                        rank = DIRECTION_RANK[direction]
                        if rank <= hit:
                            cut = bisect_right if label <= want else bisect_left
                            scanned = len(others) if rank < hit else cut(others, target)
                            edges_considered += scanned * (2 if direction == "sym" else 1)
                    if trace:
                        trace(f"{node}  [{render(residuals[state])}]  matched {target}")
                    return finish(True, edges_considered, queue_peak)
            else:
                nodes = seen[rest]
                for neighbor in others:
                    if neighbor not in nodes:
                        nodes.add(neighbor)
                        queue.append((neighbor, rest))
            edges_considered += cost
        if len(queue) > queue_peak:
            queue_peak = len(queue)
        if trace:
            enqueued = len(queue) - before
            outcome = f"enqueued {enqueued}" if enqueued else "dead end"
            trace(f"{node}  [{render(residuals[state])}]  {outcome}")

    return finish(False, edges_considered, queue_peak)


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
    """Violations of principal-matching policy shape, as messages; run
    when an :class:`~rebac.pdp.AuthorizationSystem` is built, never per request."""
    problems = []
    for position, rule in enumerate(rules, start=1):
        if rule.condition is TOP:
            if position != len(rules):
                problems.append(f"rule {position}: TOP is only allowed as the last rule")
        elif isinstance(rule.condition, PathCondition):
            if _contains_star(rule.condition):
                problems.append(f"rule {position}: '*' conditions are internal and not allowed in policies")
        else:
            problems.append(f"rule {position}: condition is neither a path condition nor TOP")
    return problems


def _contains_star(pc: PathCondition) -> bool:
    if isinstance(pc, Concat):
        return _contains_star(pc.left) or _contains_star(pc.right)
    return isinstance(pc, Star) or (hasattr(pc, "inner") and _contains_star(pc.inner))


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
    A TOP rule matches whenever evaluated, so under either strategy it
    acts as the default principal.  ``rules`` must be as an
    :class:`~rebac.pdp.AuthorizationSystem` holds them, checked when it is
    built: TOP only last, path conditions only, no ``*``.
    """
    principals: list[str] = []
    evaluations: list[RuleEvaluation] = []
    for number, rule in enumerate(rules, start=1):
        if rule.condition is TOP:
            found, metrics = True, MatchMetrics()
        else:
            rule_trace = None
            if trace:
                rule_trace = lambda line, _n=number: trace(f"rule {_n}: {line}")
            found, metrics = match_path(graph, subject, object_, rule, trace=rule_trace)
        evaluations.append(RuleEvaluation(number, rule.principal, rule.text, found, metrics))
        if found:
            if rule.principal not in principals:
                principals.append(rule.principal)
            if strategy is MatchStrategy.FIRST_MATCH:
                break
    return PrincipalMatching(principals, evaluations)
