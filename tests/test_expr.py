"""Tests for the expression mini-language: parsing, expansion, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ohno.expr import ExprError, MAX_INT_LITERAL, expand, expand_text, parse
from ohno.indices import EMPTY, Index, IndexCombination, combination_to_text


def comb(*pairs):
    return IndexCombination([(Index(entries), coef) for entries, coef in pairs])


# ---------------------------------------------------------------------------
# expansion of well-formed inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(2)", comb(((2,), 1))),
        ("()", IndexCombination.from_index(EMPTY)),
        ("((2))", comb(((2,), 1))),
        ("(1,2,3)", comb(((1, 2, 3), 1))),
        ("rep(2,3)", comb(((2, 2, 2), 1))),
        ("rep(3,0)", IndexCombination.from_index(EMPTY)),
        ("dual((1,3))", comb(((1, 3), 1))),
        ("dual((3))", comb(((1, 2), 1))),
        ("dual(dual((2,3)))", comb(((2, 3), 1))),
        ("hast(2,(2,3))", comb(((2, 5), 1), ((4, 3), 1))),
        ("ohno(1,(3))", comb(((4,), 1))),
        ("ohno(0,(2))", comb(((2,), 1))),
        ("ohno(2,(1,2))", comb(((1, 4), 1), ((2, 3), 1), ((3, 2), 1))),
        ("(2)#(3)", comb(((2, 3), 1), ((3, 2), 1))),
        ("(2)#(1,2)", comb(((1, 2, 2), 2), ((2, 1, 2), 1))),
        ("3*(2)", comb(((2,), 3))),
        ("1/2*(2)", comb(((2,), Fraction(1, 2)))),
        ("-(2)", comb(((2,), -1))),
        ("-(2) + (3)", comb(((2,), -1), ((3,), 1))),
        ("(2) - (3) - (4)", comb(((2,), 1), ((3,), -1), ((4,), -1))),
        ("2*(2) + 1/3*(3)", comb(((2,), 2), ((3,), Fraction(1, 3)))),
        ("(2) - (2)", IndexCombination.zero()),
        ("0", IndexCombination.zero()),
        ("hast(1,rep(2,2))", comb(((2, 3), 1), ((3, 2), 1))),
        ("ohno(1,(2)#(3))", comb(((2, 4), 1), ((3, 3), 2), ((4, 2), 1))),
        ("dual((2)#(2))", comb(((2, 2), 2))),
    ],
)
def test_expand_frozen(text, expected):
    assert expand_text(text) == expected


def test_whitespace_insensitive():
    assert expand_text("  ( 2 , 3 )  #  ( 2 )  ") == expand_text("(2,3)#(2)")


def test_sharp_binds_tighter_than_plus():
    assert expand_text("(2) + (2)#(3)") == comb(((2,), 1), ((2, 3), 1), ((3, 2), 1))


def test_parse_then_expand_equals_expand_text():
    text = "2*(1,2) - dual((3)) + hast(1,(2))"
    assert expand(parse(text)) == expand_text(text)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def test_serialize_is_canonical_text():
    c = comb(((2,), -1), ((3,), Fraction(1, 2)), ((1, 2), 2))
    assert combination_to_text(c) == "-(2) + 1/2*(3) + 2*(1,2)"
    assert expand_text(combination_to_text(c)) == c


def test_serialize_zero_round_trips():
    assert combination_to_text(IndexCombination.zero()) == "0"
    assert expand_text("0") == IndexCombination.zero()


def test_serialize_empty_index_round_trips():
    c = IndexCombination.from_index(EMPTY, 2)
    assert expand_text(combination_to_text(c)) == c


coef_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
entries_st = st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=4)
comb_st = st.lists(
    st.tuples(entries_st.map(lambda es: Index(tuple(es))), coef_st), max_size=5
).map(IndexCombination)


@given(comb_st)
@settings(max_examples=120)
def test_round_trip_random_combinations(c):
    assert expand_text(combination_to_text(c)) == c


# ---------------------------------------------------------------------------
# rejected inputs carry positions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, col, fragment",
    [
        ("(2", 1, 3, "expected '*'"),
        ("(1,)", 1, 4, "integer entry"),
        ("(,2)", 1, 2, "integer entry"),
        ("rep(2)", 1, 6, "','"),
        ("rep(2,3,4)", 1, 8, "')'"),
        ("foo(2)", 1, 1, "unknown function"),
        ("(2)##(3)", 1, 5, "expected an index"),
        ("1/0*(2)", 1, 3, "zero denominator"),
        ("3/(2)", 1, 3, "integer denominator"),
        ("2*", 1, 3, "expected an index"),
        ("(2) (3)", 1, 5, "trailing"),
        ("3*(2)#(3)", 1, 6, "trailing"),
        ("", 1, 1, "expected an index"),
        ("(2) +\n(3", 2, 3, "expected '*'"),
        ("(1000001)", 1, 2, "too large"),
        ("hast(0,(2))", 1, 1, "positive integer"),
        ("dual((1,1))", 1, 1, "admissible"),
        ("ohno(-1,(2))", 1, 6, "integer first argument"),
    ],
)
def test_errors_have_positions(text, line, col, fragment):
    with pytest.raises(ExprError) as excinfo:
        expand_text(text)
    err = excinfo.value
    assert err.line == line
    assert err.col == col
    assert fragment in str(err)
    assert f"(line {line}, column {col})" in str(err)


def test_expr_error_is_value_error():
    assert issubclass(ExprError, ValueError)


def test_int_literal_limit_is_reachable():
    big = MAX_INT_LITERAL
    c = expand_text(f"({big})")
    assert c == IndexCombination.from_index(Index((big,)))


def test_literal_versus_group_disambiguation():
    # pure digits and commas inside parens form a literal; anything else is a group
    assert expand_text("(2,3)") == comb(((2, 3), 1))
    assert expand_text("((2) + (3))") == comb(((2,), 1), ((3,), 1))
    with pytest.raises(ExprError):
        expand_text("(2 + (3))")  # a bare int can only precede '*'
