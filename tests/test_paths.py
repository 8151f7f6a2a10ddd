from __future__ import annotations

import pytest

from rebac import PathSyntaxError, parse, render, simplify
from rebac.paths import (
    DIAMOND,
    Concat,
    EdgeCondition,
    Plus,
    Reverse,
    Star,
    UnknownLabelError,
    head,
    length,
    plus_count,
    suffix,
)

CORPORATE_LABELS = [
    "Client-of",
    "Deliverable-for",
    "Member-of",
    "Participant-of",
    "Resource-for",
    "Supervises",
]

A = EdgeCondition("a")
B = EdgeCondition("b")
RA = EdgeCondition("a", reversed=True)
RB = EdgeCondition("b", reversed=True)


def test_parse_builds_right_associated_raw_ast():
    got = parse("P . ~R . (~M)+", CORPORATE_LABELS)
    expected = Concat(
        EdgeCondition("Participant-of"),
        Concat(
            Reverse(EdgeCondition("Resource-for")),
            Plus(Reverse(EdgeCondition("Member-of"))),
        ),
    )
    assert got == expected


def test_parse_empty_condition():
    assert parse("@") == DIAMOND
    assert parse(" @ ") == DIAMOND


def test_parse_without_vocabulary_accepts_any_label():
    assert parse("foo . bar+") == Concat(EdgeCondition("foo"), Plus(EdgeCondition("bar")))


def test_parse_abbreviation_resolves_unique_initial():
    assert parse("S", CORPORATE_LABELS) == EdgeCondition("Supervises")
    assert parse("~D", CORPORATE_LABELS) == Reverse(EdgeCondition("Deliverable-for"))


def test_parse_exact_label_wins_over_abbreviation():
    labels = ["P", "Participant-of"]
    assert parse("P", labels) == EdgeCondition("P")


def test_parse_ambiguous_abbreviation_rejected():
    with pytest.raises(UnknownLabelError) as err:
        parse("u", ["uo", "ug", "go"])
    assert "ambiguous" in str(err.value)


def test_parse_unknown_label_reports_position():
    with pytest.raises(UnknownLabelError) as err:
        parse("uo . nope", ["uo", "ug"])
    assert err.value.position == 5
    assert "nope" in str(err.value)


def test_parse_rejects_star_token():
    with pytest.raises(PathSyntaxError) as err:
        parse("a*")
    assert err.value.position == 1
    assert "'*'" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["", "a .", "(a", ") a", "a b", "~", "a ~ b", "()", "+a"],
)
def test_parse_syntax_errors(text):
    with pytest.raises(PathSyntaxError):
        parse(text)


def test_parse_nested_repetition_and_grouping():
    got = parse("(a . b)+ . ~(a . b)")
    assert got == Concat(Plus(Concat(A, B)), Reverse(Concat(A, B)))


def test_whitespace_is_insignificant():
    assert parse("a.b+") == parse(" a  .  b + ")


def test_render_round_trips_structurally():
    for text in ["@", "a", "~a", "a . b", "a+ . ~b", "(a . ~b)+", "(~a)+", "~(a . b)", "~(a+)"]:
        assert simplify(parse(render(parse(text)))) == simplify(parse(text))


def test_render_pushes_no_parens_on_concat_chains():
    assert render(parse("a . b . a")) == "a . b . a"


def test_render_writes_internal_star():
    assert render(Star(A)) == "a*"
    assert render(Star(parse("a . ~b"))) == "(a . ~b)*"


def test_reversal_of_nested_condition_rewrites_to_simple_form():
    r1, r2, r3 = EdgeCondition("r1"), EdgeCondition("r2"), EdgeCondition("r3")
    nested = Reverse(Concat(Reverse(Concat(r1, r2)), Plus(Concat(r1, r3))))
    assert render(simplify(nested)) == "(~r3 . ~r1)+ . r1 . r2"


@pytest.mark.parametrize(
    "raw, simple",
    [
        (Concat(A, DIAMOND), A),
        (Concat(DIAMOND, A), A),
        (Reverse(DIAMOND), DIAMOND),
        (Reverse(A), RA),
        (Reverse(RA), A),
        (Reverse(Reverse(A)), A),
        (Reverse(Concat(A, B)), Concat(RB, RA)),
        (Reverse(Plus(A)), Plus(RA)),
        (Plus(DIAMOND), DIAMOND),
        (Concat(Concat(A, B), A), Concat(A, Concat(B, A))),
        (Star(DIAMOND), DIAMOND),
        (Reverse(Star(A)), Star(RA)),
        (Plus(Plus(A)), Plus(Plus(A))),  # nested repetition is kept, not collapsed
    ],
)
def test_simplify_rewrites(raw, simple):
    assert simplify(raw) == simple


def test_simplify_is_idempotent_on_examples():
    for text in ["a", "~(a . b+)", "(~a . b)+ . a", "@"]:
        once = simplify(parse(text))
        assert simplify(once) == once


def test_head_of_label_and_composites():
    assert head(simplify(A)) == A
    assert head(simplify(parse("~a"))) == RA
    assert head(simplify(parse("a . b"))) == A
    assert head(simplify(parse("a+ . b"))) == A
    assert head(simplify(parse("(~a . b)+"))) == RA


def test_suffix_of_label_is_empty_condition():
    assert suffix(A) == DIAMOND
    assert suffix(parse("a . b")) == B


def test_suffix_of_repetition_keeps_zero_or_more_remainder():
    assert suffix(parse("a+")) == Star(A)
    got = suffix(parse("S+ . ~M . S . ~D", CORPORATE_LABELS))
    assert render(got) == "Supervises* . ~Member-of . Supervises . ~Deliverable-for"


def test_suffix_result_is_simple_form():
    got = suffix(parse("(a . b)+"))
    # b . (a . b)*  and right-associated
    assert got == Concat(B, Star(Concat(A, B)))


def test_head_and_suffix_undefined_for_empty_condition():
    with pytest.raises(ValueError):
        head(DIAMOND)
    with pytest.raises(ValueError):
        suffix(DIAMOND)


def test_head_and_suffix_undefined_for_leading_star():
    leading = Concat(Star(A), B)
    with pytest.raises(ValueError):
        head(leading)
    with pytest.raises(ValueError):
        suffix(Star(A))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("@", 0),
        ("a", 1),
        ("~a", 1),
        ("a . b", 2),
        ("P . ~R . (~M)+", 3),
        ("S+ . ~M . S . ~D . (~M)+", 5),
    ],
)
def test_length(text, expected):
    vocab = CORPORATE_LABELS if any(ch.isupper() for ch in text) else None
    assert length(simplify(parse(text, vocab))) == expected


@pytest.mark.parametrize(
    "text, expected",
    [("a", 0), ("a+", 1), ("(a+ . b+)+", 3), ("P . ~R . (~M)+", 1)],
)
def test_plus_count(text, expected):
    vocab = CORPORATE_LABELS if any(ch.isupper() for ch in text) else None
    assert plus_count(simplify(parse(text, vocab))) == expected


def test_simplify_identifies_reversal_of_plus():
    assert simplify(parse("~(a+)")) == simplify(parse("(~a)+"))
    assert simplify(parse("a . b")) != simplify(parse("b . a"))


@pytest.mark.parametrize("function", [head, suffix, length, plus_count])
def test_path_algebra_refuses_a_condition_not_yet_simplified(function):
    with pytest.raises(TypeError, match="simple form"):
        function(parse("~a"))
