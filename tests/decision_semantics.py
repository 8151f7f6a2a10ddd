"""The paper's stage two, transcribed from the :mod:`rebac.pdp` module
docstring over rule indices, to check ``possible_decisions``, ``resolve``
and ``apply_defaults`` against the definition instead of against
themselves.

A rule applies when its principal was matched, its action equals the
request's and its object is the wildcard or the request's object; each
matched principal contributes its first applicable rule in policy order.
The decision list holds those rules' bits in policy order, each bit
once.  One bit is the decision; mixed bits go to the conflict
resolution strategy.  With no principal matched, the subject's default
decides, else the object's, else the system's; with principals matched
but no rule applicable, the object's, else the system's.
"""

from rebac import ConflictStrategy, Decision
from rebac.pdp import WILDCARD


def decision_list(rules, matched, object_, action) -> list[bool]:
    """Bits of each matched principal's first applicable rule, in policy order."""
    applicable = [i for i in range(len(rules)) if rules[i].action == action and rules[i].object in (WILDCARD, object_)]
    firsts = []
    for principal in matched:
        indices = [i for i in applicable if rules[i].principal == principal]
        if indices:
            firsts.append(indices[0])
    bits = [rules[i].allow for i in sorted(firsts)]
    return [bit for position, bit in enumerate(bits) if bit not in bits[:position]]


def decide(bits, matched, crs, defaults) -> tuple[Decision, str]:
    """The decision and what supplied it: ``"rules"``, or the default level.

    ``defaults`` maps ``"subject"``, ``"object"`` and ``"system"`` to the
    request's subject's, object's and the system's default, or to None
    where there is none.
    """
    if bits:
        if len(set(bits)) == 1:
            bit = bits[0]
        elif crs is ConflictStrategy.FIRST_MATCH:
            bit = bits[0]
        else:
            bit = crs is ConflictStrategy.ALLOW_OVERRIDE
        return (Decision.ALLOW if bit else Decision.DENY), "rules"
    levels = ("subject", "object", "system") if not matched else ("object", "system")
    level = next(level for level in levels if defaults[level] is not None)
    return defaults[level], level
