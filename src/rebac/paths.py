"""Path conditions: the pattern language for chains of relationships.

A path condition describes how two entities may be connected in the
system graph.  The atoms are the empty condition ``@`` (satisfied only
by a node and itself), a relationship label ``r`` traversed with the
edge, and its reversal ``~r`` traversed against the edge.  Conditions
compose by concatenation ``.``, one-or-more repetition ``+`` and
reversal of a whole condition ``~( ... )``.

Surface grammar (whitespace insignificant)::

    path  := seq
    seq   := unary ("." unary)*
    unary := atom ("+")*
    atom  := LABEL | "~" atom | "(" seq ")" | "@"
    LABEL := [A-Za-z_][A-Za-z0-9_#-]*

A condition is at most :data:`MAX_DEPTH` levels deep, each label, ``@``,
``~``, ``(`` and ``+`` being one level (``a . b . c``, ``((a))``, ``~~a``
and ``a++`` are three deep).  The simple form chains the factors of a
concatenation, so they count one after another; the limit thus bounds
every tree built from a condition, keeping later steps' recursion shallow.

Zero-or-more repetition (:class:`Star`) has no surface form.  It only
arises internally while matching, as the repetition remainder of a
``+``; policy files express "zero or more" as two rules, one with ``+``
and one with ``@``.

Every condition has a *simple form*: reversal pushed onto labels, the
empty condition eliminated from under concatenation and repetition, and
concatenation associated to the right.  :func:`simplify` computes it.
:func:`head`, :func:`suffix`, :func:`length` and :func:`plus_count` take
a simple condition, never simplify again and keep no cache; a
:class:`Reverse` node, which only a raw condition holds, is a TypeError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "MAX_DEPTH",
    "PathCondition",
    "Diamond",
    "DIAMOND",
    "EdgeCondition",
    "Concat",
    "Plus",
    "Star",
    "Reverse",
    "PathSyntaxError",
    "UnknownLabelError",
    "parse",
    "render",
    "simplify",
    "head",
    "suffix",
    "length",
    "plus_count",
]


class PathSyntaxError(ValueError):
    """Condition text that cannot be parsed.  Carries the 0-based offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownLabelError(PathSyntaxError):
    """A label token that is not in the model vocabulary."""

    def __init__(self, label: str, position: int | None = None, message: str | None = None):
        self.label = label
        super().__init__(message or f"unknown relationship label {label!r}", position)


class PathCondition:
    """Base class for condition AST nodes.  Instances are immutable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True, repr=False)
class Diamond(PathCondition):
    """The empty condition: holds between a node and itself."""


DIAMOND = Diamond()


@dataclass(frozen=True, slots=True, repr=False)
class EdgeCondition(PathCondition):
    """A single relationship hop; ``reversed`` walks against the edge."""

    label: str
    reversed: bool = False


@dataclass(frozen=True, slots=True, repr=False)
class Concat(PathCondition):
    left: PathCondition
    right: PathCondition


@dataclass(frozen=True, slots=True, repr=False)
class Plus(PathCondition):
    """One or more consecutive occurrences of ``inner``."""

    inner: PathCondition


@dataclass(frozen=True, slots=True, repr=False)
class Star(PathCondition):
    """Zero or more occurrences.  Internal to matching; no surface form."""

    inner: PathCondition


@dataclass(frozen=True, slots=True, repr=False)
class Reverse(PathCondition):
    inner: PathCondition


MAX_DEPTH = 100

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_#-]*")
_PUNCT = ".~+()@"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, text, offset); kind is "label" or the punctuation character
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _LABEL_RE.match(text, i)
        if m:
            tokens.append(("label", m.group(), i))
            i = m.end()
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "*":
            raise PathSyntaxError(
                "'*' has no surface form; write zero-or-more as a '+' rule "
                "alongside an '@' rule",
                i,
            )
        raise PathSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _resolve_label(token: str, position: int, labels: frozenset[str] | None) -> str:
    if labels is None or token in labels:
        return token
    if len(token) == 1:
        # one-letter shorthand for the unique label with that initial
        candidates = sorted(l for l in labels if l.startswith(token))
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise UnknownLabelError(
                token,
                position,
                f"ambiguous label abbreviation {token!r}: "
                f"could be any of {', '.join(candidates)}",
            )
    raise UnknownLabelError(token, position)


def parse(text: str, labels=None) -> PathCondition:
    """Parse condition text into a raw AST.

    ``labels``, when given, is the model's relationship vocabulary:
    label tokens must belong to it, except that a single-letter token
    resolves to the unique label starting with that letter.  The result
    is not canonicalized; pass it through :func:`simplify` for the
    simple form.  Text deeper than :data:`MAX_DEPTH` is rejected at the
    token that crosses the limit.
    """
    vocab = None if labels is None else frozenset(labels)
    tokens = _tokenize(text)
    levels = [offset for kind, _, offset in tokens if kind not in ".)"]
    if len(levels) > MAX_DEPTH:
        raise PathSyntaxError(f"condition is more than {MAX_DEPTH} levels deep", levels[MAX_DEPTH])
    pos = 0

    def peek() -> str | None:
        return tokens[pos][0] if pos < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise PathSyntaxError("unexpected end of condition", len(text))
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> PathCondition:
        kind, value, offset = take()
        if kind == "label":
            return EdgeCondition(_resolve_label(value, offset, vocab))
        if kind == "~":
            return Reverse(atom())
        if kind == "@":
            return DIAMOND
        if kind == "(":
            inner = seq()
            kind2, _, offset2 = take()
            if kind2 != ")":
                raise PathSyntaxError("expected ')'", offset2)
            return inner
        raise PathSyntaxError(f"expected a label, '~', '(' or '@', found {value!r}", offset)

    def unary() -> PathCondition:
        node = atom()
        while peek() == "+":
            take()
            node = Plus(node)
        return node

    def seq() -> PathCondition:
        parts = [unary()]
        while peek() == ".":
            take()
            parts.append(unary())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Concat(part, node)
        return node

    result = seq()
    if pos < len(tokens):
        _, value, offset = tokens[pos]
        raise PathSyntaxError(f"unexpected {value!r} after condition", offset)
    return result


def render(pc: PathCondition) -> str:
    """Surface text for a condition; ``parse(render(a))`` is equivalent to a.

    The internal zero-or-more form :class:`Star` is written ``X*``, which
    :func:`parse` rejects, so only conditions without it round-trip.
    """
    if isinstance(pc, Diamond):
        return "@"
    if isinstance(pc, EdgeCondition):
        return ("~" if pc.reversed else "") + pc.label
    if isinstance(pc, Concat):
        return f"{render(pc.left)} . {render(pc.right)}"
    if isinstance(pc, (Plus, Star)):
        mark = "+" if isinstance(pc, Plus) else "*"
        inner = pc.inner
        if isinstance(inner, EdgeCondition) and not inner.reversed:
            return inner.label + mark
        return f"({render(inner)}){mark}"
    if isinstance(pc, Reverse):
        inner = pc.inner
        if isinstance(inner, (EdgeCondition, Diamond, Reverse)):
            return "~" + render(inner)
        return f"~({render(inner)})"
    raise TypeError(f"not a path condition: {pc!r}")


def _concat_canonical(left: PathCondition, right: PathCondition) -> PathCondition:
    # both arguments already canonical
    if left == DIAMOND:
        return right
    if right == DIAMOND:
        return left
    if isinstance(left, Concat):
        return _concat_canonical(left.left, _concat_canonical(left.right, right))
    return Concat(left, right)


def _simplify(pc: PathCondition, flip: bool) -> PathCondition:
    if isinstance(pc, Diamond):
        return DIAMOND
    if isinstance(pc, EdgeCondition):
        return EdgeCondition(pc.label, pc.reversed ^ flip)
    if isinstance(pc, Reverse):
        return _simplify(pc.inner, not flip)
    if isinstance(pc, Plus):
        inner = _simplify(pc.inner, flip)
        return DIAMOND if inner == DIAMOND else Plus(inner)
    if isinstance(pc, Star):
        inner = _simplify(pc.inner, flip)
        return DIAMOND if inner == DIAMOND else Star(inner)
    if isinstance(pc, Concat):
        first, second = (pc.right, pc.left) if flip else (pc.left, pc.right)
        return _concat_canonical(_simplify(first, flip), _simplify(second, flip))
    raise TypeError(f"not a path condition: {pc!r}")


def simplify(pc: PathCondition) -> PathCondition:
    """Simple form: reversal on labels only, no empty condition under
    concatenation or repetition, concatenation right-associated.

    Equivalent to the input on every graph; idempotent.
    """
    return _simplify(pc, False)


def _split(pc: PathCondition, part: str) -> tuple[EdgeCondition, list[PathCondition]]:
    # the head of a simple condition, and what follows it at each level of
    # its spine, outermost first; ``part`` names the one asked for
    follows = []
    node = pc
    while not isinstance(node, EdgeCondition):
        if isinstance(node, Concat):
            follows.append(node.right)
            node = node.left
        elif isinstance(node, Plus):
            follows.append(Star(node.inner))
            node = node.inner
        elif isinstance(node, Diamond):
            raise ValueError(f"the empty condition has no {part}")
        elif isinstance(node, Star):
            raise ValueError(f"a leading zero-or-more repetition has no {part}")
        else:
            raise TypeError(f"not a path condition in simple form: {node!r}")
    return node, follows


def head(pc: PathCondition) -> EdgeCondition:
    """The edge condition any satisfying path of the simple ``pc`` must
    start with.

    Undefined for the empty condition and for conditions whose first
    factor is a zero-or-more repetition (those may be satisfied without
    traversing any edge).
    """
    return _split(pc, "head")[0]


def suffix(pc: PathCondition) -> PathCondition:
    """What remains of the simple ``pc`` after its head edge is traversed.

    ``pc`` is equivalent to its head concatenated with its suffix.  The
    suffix of a repetition keeps a zero-or-more remainder, so the result
    may contain Star; it is returned in simple form.  It is what follows
    the head at each level of ``pc``, innermost first, joined from the
    right so that each part is walked once.
    """
    rest = DIAMOND
    for part in _split(pc, "suffix")[1]:
        rest = _concat_canonical(part, rest)
    return rest


def length(pc: PathCondition) -> int:
    """Number of labels in the simple ``pc``; repetition does not add.

    The empty condition has length 0.
    """
    if isinstance(pc, Diamond):
        return 0
    if isinstance(pc, EdgeCondition):
        return 1
    if isinstance(pc, Concat):
        return length(pc.left) + length(pc.right)
    if isinstance(pc, (Plus, Star)):
        return length(pc.inner)
    raise TypeError(f"not a path condition in simple form: {pc!r}")


def plus_count(pc: PathCondition) -> int:
    """Number of repetitions, ``+`` and the internal ``*``, in the simple ``pc``."""
    if isinstance(pc, (Diamond, EdgeCondition)):
        return 0
    if isinstance(pc, Concat):
        return plus_count(pc.left) + plus_count(pc.right)
    if isinstance(pc, (Plus, Star)):
        return 1 + plus_count(pc.inner)
    raise TypeError(f"not a path condition in simple form: {pc!r}")
