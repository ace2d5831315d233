"""Concrete syntax: parsing, printing, and the round trip between them."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1ax.formula import And, Iff, Implies, Not, Or, eps
from l1ax.substitution import Substitution
from l1ax.syntax import (
    ParseError,
    parse_formula,
    parse_schema_file,
    parse_substitution_mapping,
    print_formula,
)

ab, ba, cd, aa = eps("a", "b"), eps("b", "a"), eps("c", "d"), eps("a", "a")


def test_parse_simple_implication():
    assert parse_formula("eps(a,b) -> eps(a,a)") == Implies(ab, aa)


def test_connective_precedence():
    # ! binds tighter than &, & tighter than |, | tighter than ->
    f = parse_formula("!eps(a,b) & eps(b,a) | eps(c,d) -> eps(a,a)")
    assert f == Implies(Or(And(Not(ab), ba), cd), aa)


def test_implication_is_right_associative():
    f = parse_formula("eps(a,b) -> eps(b,a) -> eps(c,d)")
    assert f == Implies(ab, Implies(ba, cd))


def test_biconditional_folds_left():
    f = parse_formula("eps(a,b) <-> eps(b,a) <-> eps(c,d)")
    assert f == Iff(Iff(ab, ba), cd)


def test_biconditional_binds_loosest():
    f = parse_formula("eps(a,b) -> eps(b,a) <-> eps(c,d)")
    assert f == Iff(Implies(ab, ba), cd)


def test_parentheses_override_precedence():
    f = parse_formula("(eps(a,b) -> eps(b,a)) -> eps(c,d)")
    assert f == Implies(Implies(ab, ba), cd)


def test_whitespace_is_insignificant():
    assert parse_formula("eps( a , b )->eps(a,a)") == parse_formula(
        "eps(a,b) -> eps(a,a)"
    )


def test_double_negation_parses():
    assert parse_formula("!!eps(a,b)") == Not(Not(ab))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b) -> ")
    assert "error at 1:" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,b")
    assert "error at 1:" in str(exc.value)

    with pytest.raises(ParseError):
        parse_formula("eps(a,b) eps(c,d)")

    with pytest.raises(ParseError):
        parse_formula("")


def test_parse_error_line_offset_is_honoured():
    with pytest.raises(ParseError) as exc:
        parse_formula("eps(a,", line=7)
    assert "error at 7:" in str(exc.value)


def test_corpus_bodies_round_trip(corpus):
    for entry in corpus:
        assert parse_formula(print_formula(entry.body)) == entry.body


variables = st.sampled_from(["a", "b", "c", "d", "e"])
leaves = st.builds(eps, variables, variables)
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=12,
)


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


def test_substitution_mapping_round_trip():
    mapping = {"a": "b", "c": "y1"}
    assert parse_substitution_mapping(str(Substitution.of(mapping))) == mapping
    assert parse_substitution_mapping("{ a ->b ,c-> y1 }") == mapping


def test_substitution_mapping_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_substitution_mapping("{a->b, a->c}")


def test_substitution_mapping_rejects_garbage():
    for bad in ("a->b", "{a->}", "{->b}", "{a=>b}"):
        with pytest.raises(ParseError):
            parse_substitution_mapping(bad)


def test_schema_file_basics():
    text = """# leading comment
X1 := eps(a,b) -> eps(a,a)

X2 := eps(a,b) & eps(b,c) -> eps(a,c)  # trailing note
"""
    entries = parse_schema_file(text)
    assert list(entries) == ["X1", "X2"]
    assert entries["X1"].arity == 2
    assert entries["X2"].body == parse_formula("eps(a,b) & eps(b,c) -> eps(a,c)")


def test_schema_file_rejects_duplicates():
    with pytest.raises(ValueError):
        parse_schema_file("X := eps(a,b)\nX := eps(b,a)\n")


def test_schema_file_errors_report_their_line():
    with pytest.raises(ParseError) as exc:
        parse_schema_file("X1 := eps(a,b)\nX2 := eps(a,\n")
    assert "error at 2:" in str(exc.value)
