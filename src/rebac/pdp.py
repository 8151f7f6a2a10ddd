"""Policy decision pipeline: from request to Allow or Deny.

Evaluation runs in two stages.  Stage one matches the request's
(subject, object) pair against the principal-matching policy, yielding
an ordered list of principals.  Stage two scans the ordered
authorization rules: a rule applies when its principal was matched, its
action equals the request's and its object is the wildcard or the
request's object; each principal contributes only its first applicable
rule.  The resulting decision list is resolved by the conflict
resolution strategy, and the configured defaults cover the two ways the
pipeline can come up empty (no principals matched; principals matched
but no rule applied).  The pipeline is total: every well-formed request
ends in Allow or Deny.

An :class:`AuthorizationSystem` checks its own shape when it is built and
:func:`validate_system` how it fits a graph; :func:`evaluate` checks neither.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Container, Mapping, Sequence

from .graph import SystemGraph, UnknownEntityError
from .matching import (
    MatchStrategy, PolicyError, PrincipalMatchingRule, RuleEvaluation, match_principals, validate_policy,
)

__all__ = [
    "WILDCARD",
    "Decision",
    "ConflictStrategy",
    "DefaultStage",
    "AuthorizationRule",
    "Request",
    "AuthorizationSystem",
    "DecisionTrace",
    "possible_decisions",
    "resolve",
    "apply_defaults",
    "validate_system",
    "evaluate",
]

WILDCARD = "*"


class Decision(str, Enum):
    ALLOW = "allow"
    DENY = "deny"


class ConflictStrategy(str, Enum):
    """How a mixed allow/deny decision list collapses to one answer."""

    FIRST_MATCH = "FirstMatch"
    DENY_OVERRIDE = "DenyOverride"
    ALLOW_OVERRIDE = "AllowOverride"


class DefaultStage(Enum):
    """Which empty outcome the defaults are covering."""

    NO_PRINCIPALS = "no-principals"
    NO_DECISION = "no-decision"


@dataclass(frozen=True)
class AuthorizationRule:
    """Grants or denies one action on one object (or all: ``*``) to a principal."""

    principal: str
    object: str
    action: str
    allow: bool


@dataclass(frozen=True)
class Request:
    subject: str
    object: str
    action: str


@dataclass(frozen=True)
class AuthorizationSystem:
    """A complete policy configuration: both stages plus defaults.  Building
    stores the rules as tuples and the default maps as read-only copies,
    and raises :class:`PolicyError` for a policy :func:`validate_policy`
    rejects, a strategy outside its enum, a non-bool ``allow``, or a
    default that is not a :class:`Decision`."""

    principal_rules: Sequence[PrincipalMatchingRule]
    pms: MatchStrategy
    auth_rules: Sequence[AuthorizationRule]
    crs: ConflictStrategy
    system_default: Decision = Decision.DENY
    subject_defaults: Mapping[str, Decision] = field(default_factory=dict)
    object_defaults: Mapping[str, Decision] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "principal_rules", tuple(self.principal_rules))
        object.__setattr__(self, "auth_rules", tuple(self.auth_rules))
        object.__setattr__(self, "subject_defaults", MappingProxyType(dict(self.subject_defaults)))
        object.__setattr__(self, "object_defaults", MappingProxyType(dict(self.object_defaults)))
        problems = validate_policy(self.principal_rules)
        if not isinstance(self.pms, MatchStrategy):
            problems.append(f"unknown principal matching strategy {self.pms!r}")
        if not isinstance(self.crs, ConflictStrategy):
            problems.append(f"unknown conflict resolution strategy {self.crs!r}")
        for position, rule in enumerate(self.auth_rules, start=1):
            if not isinstance(rule.allow, bool):
                problems.append(f"authorization rule {position}: allow must be a boolean")
        if not isinstance(self.system_default, Decision):
            problems.append(f"system default must be a Decision, found {self.system_default!r}")
        for level, defaults in (("subject", self.subject_defaults), ("object", self.object_defaults)):
            for entity, decision in defaults.items():
                if not isinstance(decision, Decision):
                    problems.append(f"{level} default for {entity!r} must be a Decision, found {decision!r}")
        if problems:
            raise PolicyError("; ".join(problems))


def possible_decisions(
    matched: Sequence[str],
    object_: str,
    action: str,
    rules: Sequence[AuthorizationRule],
) -> list[bool]:
    """Decision bits contributed by the matched principals, in rule order.

    Scans the rules in order; a rule applies if its principal is among
    the matched ones, its action equals the request's, and its object is
    the wildcard or the request's object.  Each principal contributes
    only its first applicable rule.  Duplicate bits collapse, keeping
    first position.
    """
    matched_set = set(matched)
    decided: set[str] = set()
    bits: list[bool] = []
    for rule in rules:
        if rule.principal not in matched_set or rule.principal in decided:
            continue
        if rule.action != action:
            continue
        if rule.object != WILDCARD and rule.object != object_:
            continue
        decided.add(rule.principal)
        if rule.allow not in bits:
            bits.append(rule.allow)
    return bits


def resolve(bits: Sequence[bool], strategy: ConflictStrategy) -> Decision | None:
    """Collapse a decision list; None when the list is empty."""
    if not bits:
        return None
    if all(bits):
        return Decision.ALLOW
    if not any(bits):
        return Decision.DENY
    if strategy is ConflictStrategy.FIRST_MATCH:
        return Decision.ALLOW if bits[0] else Decision.DENY
    if strategy is ConflictStrategy.DENY_OVERRIDE:
        return Decision.DENY
    return Decision.ALLOW


def apply_defaults(
    stage: DefaultStage,
    subject: str,
    object_: str,
    system: AuthorizationSystem,
) -> tuple[Decision, str]:
    """Default decision and the level that supplied it.

    When no principal matched, the subject's default is consulted, then
    the object's, then the system's.  When principals matched but no
    rule applied, the outcome is about the object, so the subject level
    is skipped.
    """
    if stage is DefaultStage.NO_PRINCIPALS:
        decision = system.subject_defaults.get(subject)
        if decision is not None:
            return decision, "subject"
    decision = system.object_defaults.get(object_)
    if decision is not None:
        return decision, "object"
    return system.system_default, "system"


@dataclass
class DecisionTrace:
    """Everything evaluate() did for one request, serializable to JSON."""

    request: Request
    matched_principals: list[str]
    possible_decisions: list[bool]
    resolution: str
    outcome: Decision
    metrics: list[RuleEvaluation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "request": asdict(self.request),
            "matched_principals": list(self.matched_principals),
            "possible_decisions": list(self.possible_decisions),
            "resolution": self.resolution,
            "outcome": self.outcome.value,
            "metrics": [
                {
                    "rule": ev.rule_number,
                    "principal": ev.principal,
                    "condition": ev.condition,
                    "found": ev.found,
                    **asdict(ev.metrics),
                }
                for ev in self.metrics
            ],
        }


def validate_system(system: AuthorizationSystem, entities: Container[str]) -> list[str]:
    """Violations of how an authorization system fits the entity ids in
    ``entities`` (a :class:`SystemGraph` is one), as messages: authorization
    rules whose principal no principal-matching rule produces or whose
    object is neither an entity nor ``*``, and defaults for unknown entities."""
    problems = []
    known = {rule.principal for rule in system.principal_rules}
    for position, rule in enumerate(system.auth_rules, start=1):
        if rule.principal not in known:
            problems.append(
                f"authorization rule {position}: principal {rule.principal!r}"
                " is not produced by any principal matching rule"
            )
        if rule.object != WILDCARD and rule.object not in entities:
            problems.append(f"authorization rule {position}: object {rule.object!r} is not an entity or \"*\"")
    for bucket, defaults in (("subjects", system.subject_defaults), ("objects", system.object_defaults)):
        for entity in defaults:
            if entity not in entities:
                problems.append(f"defaults.{bucket}: unknown entity {entity!r}")
    return problems


def evaluate(
    graph: SystemGraph,
    system: AuthorizationSystem,
    request: Request,
    *,
    trace: Callable[[str], None] | None = None,
) -> DecisionTrace:
    """Run the full pipeline for one request.  Always lands on a decision.

    Raises :class:`UnknownEntityError` for a request whose subject or
    object is not in the graph; that is a malformed request, distinct
    from a Deny.
    """
    for entity in (request.subject, request.object):
        if not graph.has_entity(entity):
            raise UnknownEntityError(entity)

    matching = match_principals(
        graph, request.subject, request.object, system.principal_rules, system.pms, trace=trace
    )

    if not matching.principals:
        outcome, level = apply_defaults(DefaultStage.NO_PRINCIPALS, request.subject, request.object, system)
        return DecisionTrace(
            request, [], [], f"default:{level}", outcome, matching.evaluations
        )

    bits = possible_decisions(matching.principals, request.object, request.action, system.auth_rules)
    if not bits:
        outcome, level = apply_defaults(DefaultStage.NO_DECISION, request.subject, request.object, system)
        resolution = f"default:{level}"
    else:
        outcome = resolve(bits, system.crs)
        resolution = "unambiguous" if len(bits) == 1 else f"crs:{system.crs.value}"
    return DecisionTrace(
        request, matching.principals, bits, resolution, outcome, matching.evaluations
    )
