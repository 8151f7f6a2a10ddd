"""Differential checking of the matcher against the oracle.

:func:`run_differential` compares :func:`rebac.matching.match_path` with
:func:`rebac.oracle.oracle_satisfies` on seeded random graphs and
conditions; :func:`check_workspace` on a workspace's requests and rules,
and its decisions with the oracle's.  The two deciders share no
traversal code and no rewriting, so agreement over large runs is strong
evidence for both, and for the matcher's :func:`rebac.paths.simplify`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .graph import SystemGraph, SystemModel
from .matching import TOP, MatchStrategy, match_path
from .oracle import oracle_satisfies
from .paths import (
    DIAMOND,
    Concat,
    EdgeCondition,
    PathCondition,
    Plus,
    Reverse,
    render,
)
from .pdp import DefaultStage, apply_defaults, evaluate, possible_decisions, resolve
from .workspace import Workspace

__all__ = [
    "random_graph",
    "random_simple_condition",
    "random_condition",
    "DifferentialReport",
    "run_differential",
    "check_workspace",
]

DEFAULT_LABELS = ("a", "b", "c")
SYMMETRIC = ("c",)
MAX_NODES = 8
MAX_LENGTH = 6  # labels in a random simple condition
MAX_SIZE = 8  # leaves and operators in a random raw condition

# a single entity type keeps every random edge permissible
_MODEL = SystemModel(
    types=["node"],
    labels=DEFAULT_LABELS,
    symmetric=SYMMETRIC,
    permissible=[("node", "node", label) for label in DEFAULT_LABELS],
)


def random_graph(rng: random.Random) -> SystemGraph:
    """Random multigraph over a single node type; self-loops included."""
    count = rng.randint(2, MAX_NODES)
    nodes = [f"n{i}" for i in range(count)]
    edges = set()
    for _ in range(rng.randint(0, 2 * count)):
        edges.add((rng.choice(nodes), rng.choice(nodes), rng.choice(DEFAULT_LABELS)))
    return SystemGraph(_MODEL, {n: "node" for n in nodes}, edges)


def random_simple_condition(rng: random.Random) -> PathCondition:
    """Random condition already in simple form (reversal on labels only)."""
    target = rng.randint(0, MAX_LENGTH)
    if target == 0:
        return DIAMOND

    def build(size: int, depth: int) -> PathCondition:
        if depth < 3 and rng.random() < 0.3:
            return Plus(build(size, depth + 1))
        if size == 1:
            return EdgeCondition(rng.choice(DEFAULT_LABELS), rng.random() < 0.4)
        split = rng.randint(1, size - 1)
        return Concat(build(split, depth), build(size - split, depth))

    return build(target, 0)


def random_condition(rng: random.Random) -> PathCondition:
    """Random raw condition: reversal and the empty condition anywhere."""

    def build(budget: int) -> PathCondition:
        roll = rng.random()
        if budget <= 1:
            if roll < 0.15:
                return DIAMOND
            return EdgeCondition(rng.choice(DEFAULT_LABELS), rng.random() < 0.4)
        if roll < 0.35:
            split = rng.randint(1, budget - 1)
            return Concat(build(split), build(budget - split))
        if roll < 0.55:
            return Reverse(build(budget - 1))
        if roll < 0.75:
            return Plus(build(budget - 1))
        if roll < 0.85:
            return DIAMOND
        return EdgeCondition(rng.choice(DEFAULT_LABELS), rng.random() < 0.4)

    return build(rng.randint(1, MAX_SIZE))


def _converse(pc: PathCondition) -> PathCondition:
    """``pc`` read backwards, built without ``simplify``: each label
    flipped and each concatenation's order reversed, so that
    ``Reverse(_converse(pc))`` means what ``pc`` means."""
    if isinstance(pc, EdgeCondition):
        return EdgeCondition(pc.label, not pc.reversed)
    if isinstance(pc, Concat):
        return Concat(_converse(pc.right), _converse(pc.left))
    if isinstance(pc, Plus):
        return Plus(_converse(pc.inner))
    return pc  # the empty condition


@dataclass
class DifferentialReport:
    trials: int
    agreements: int
    elapsed: float
    first_disagreement: str | None = None  # the first failing check, as printed

    @property
    def agreed(self) -> bool:
        return self.agreements == self.trials


def run_differential(seed: int, trials: int) -> DifferentialReport:
    """Run seeded random instances through both deciders.

    Each trial draws a simple condition and asks both deciders the
    reversal of its converse: the same question, written so that the
    matcher must simplify it back.  Stops recording after the first
    disagreement but keeps counting, so the report always reflects the
    full run.
    """
    rng = random.Random(seed)
    agreements = 0
    first = None
    started = time.perf_counter()
    for _ in range(trials):
        graph = random_graph(rng)
        condition = Reverse(_converse(random_simple_condition(rng)))
        nodes = graph.entity_ids
        source, target = rng.choice(nodes), rng.choice(nodes)
        got = match_path(graph, source, target, condition).found
        expected = oracle_satisfies(graph, source, target, condition)
        if got == expected:
            agreements += 1
        elif first is None:
            first = (
                f"matcher={got} oracle={expected} for ({source!r}, {target!r}) "
                f"under {render(condition)} on {sorted(graph.edges)}"
            )
    return DifferentialReport(trials, agreements, time.perf_counter() - started, first)


def check_workspace(workspace: Workspace) -> DifferentialReport:
    """Check each request of a workspace against the oracle.

    Each (request, rule) pair with a path condition is one check of
    ``match_path`` on the rule, the prepared search ``evaluate`` runs,
    against ``oracle_satisfies`` on the condition as written.  Each
    request is one more check: its principals and outcome as decided from
    the oracle's answers against those of :func:`rebac.pdp.evaluate`.  The
    oracle's principals are the principals of the rules it satisfies (TOP
    always holds) in rule order: the first one under FirstMatch, each
    first occurrence under AllMatch.  Stage two of that decision reuses
    ``possible_decisions``, ``resolve`` and ``apply_defaults``, so it
    checks how ``evaluate`` composes them with principal matching.
    """
    graph, system = workspace.graph, workspace.system
    checks = []  # (matcher's answer, oracle's answer, what was asked)
    started = time.perf_counter()
    for request in workspace.requests:
        subject, object_ = request.subject, request.object
        hits = []
        for rule in system.principal_rules:
            holds = rule.condition is TOP
            if not holds:
                got = match_path(graph, subject, object_, rule).found
                holds = oracle_satisfies(graph, subject, object_, rule.condition)
                checks.append((got, holds, f"({subject!r}, {object_!r}) under {rule.text}"))
            if holds:
                hits.append(rule.principal)
        principals = hits[:1] if system.pms is MatchStrategy.FIRST_MATCH else list(dict.fromkeys(hits))
        bits = possible_decisions(principals, object_, request.action, system.auth_rules)
        if bits:
            outcome = resolve(bits, system.crs)
        else:
            stage = DefaultStage.NO_DECISION if principals else DefaultStage.NO_PRINCIPALS
            outcome = apply_defaults(stage, subject, object_, system)[0]
        trace = evaluate(graph, system, request)
        got = (trace.matched_principals, trace.outcome.value)
        checks.append((got, (principals, outcome.value), f"({subject!r}, {object_!r}, {request.action!r})"))
    failures = [f"matcher={got} oracle={expected} for {what}" for got, expected, what in checks if got != expected]
    agreements = len(checks) - len(failures)
    first = failures[0] if failures else None
    return DifferentialReport(len(checks), agreements, time.perf_counter() - started, first)
