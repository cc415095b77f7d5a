"""Tests for the expression mini-language: parsing, expansion, serialization.

``expr_golden.json`` pins the outcome of a fixed corpus of texts: the
canonical text of each expansion, or the exact :class:`ExprError` message
with its line and column.  Rewrite it only for an intended change of the
language::

    PYTHONPATH=src python tests/test_expr.py
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ohno.expr import ExprError, MAX_INT_LITERAL, expand_text
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
        ("()", IndexCombination({EMPTY: 1})),
        ("((2))", comb(((2,), 1))),
        ("(1,2,3)", comb(((1, 2, 3), 1))),
        ("rep(2,3)", comb(((2, 2, 2), 1))),
        ("rep(3,0)", IndexCombination({EMPTY: 1})),
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
        ("(2) - (2)", IndexCombination()),
        ("0", IndexCombination()),
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


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def test_serialize_is_canonical_text():
    c = comb(((2,), -1), ((3,), Fraction(1, 2)), ((1, 2), 2))
    assert combination_to_text(c) == "-(2) + 1/2*(3) + 2*(1,2)"
    assert expand_text(combination_to_text(c)) == c


def test_serialize_zero_round_trips():
    assert combination_to_text(IndexCombination()) == "0"
    assert expand_text("0") == IndexCombination()


def test_serialize_empty_index_round_trips():
    c = IndexCombination({EMPTY: 2})
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
        ("(2", 1, 3, "expected ')' closing the index"),
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
        ("(2) +\n(3", 2, 3, "expected ')' closing the index"),
        ("(1000001)", 1, 2, "too large"),
        pytest.param("(" + "9" * 5000 + ")", 1, 2, "too large", id="5000-digits"),
        ("hast(0,(2))", 1, 1, "positive integer"),
        ("dual((1,1))", 1, 1, "admissible"),
        ("ohno(-1,(2))", 1, 6, "integer first argument"),
        ("(²)", 1, 2, "unexpected character '²'"),
        pytest.param("(" * 350 + "(2)" + ")" * 350, 1, 101, "nesting too deep", id="groups-351-deep"),
        pytest.param("dual(" * 300 + "(2,3)" + ")" * 300, 1, 505, "nesting too deep", id="calls-301-deep"),
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


def test_deep_but_bounded_texts_expand():
    """100 levels of '(' are allowed, and a long '#' chain expands in a loop
    rather than by recursion."""
    assert expand_text("(" * 99 + "(2)" + ")" * 99) == expand_text("(2)")
    assert expand_text("dual(" * 99 + "(2,3)" + ")" * 99) == expand_text("(1,2,2)")
    assert expand_text("()#" * 600 + "(2)") == expand_text("(2)")


def test_int_literal_limit_is_reachable():
    big = MAX_INT_LITERAL
    c = expand_text(f"({big})")
    assert c == IndexCombination({Index((big,)): 1})


def test_literal_versus_group_disambiguation():
    # pure digits and commas inside parens form a literal; anything else is a group
    assert expand_text("(2,3)") == comb(((2, 3), 1))
    assert expand_text("((2) + (3))") == comb(((2,), 1), ((3,), 1))
    with pytest.raises(ExprError):
        expand_text("(2 + (3))")  # a bare int can only precede '*'


# ---------------------------------------------------------------------------
# golden corpus: expansions and error messages, positions included
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).with_name("expr_golden.json")

#: The distinct ``table-persist`` benchmark texts of seeds 1-3.
TABLE_TEXTS = tuple(
    f"ohno({m}, {a} # {b}) - ohno({m}, dual({a} # {b}))"
    for m, a, b in [
        (1, "(4)", "(3,1,2)"),
        (1, "(5)", "(3,1,2)"),
        (2, "(2,3)", "(4)"),
        (2, "(3,3)", "(4)"),
        (2, "(4)", "(4,2)"),
        (2, "(5)", "(1,4)"),
        (2, "(4)", "(1,1,5)"),
        (1, "(2)", "(1,2,4,2)"),
        (1, "(4)", "(2,2,2)"),
        (2, "(1,5)", "(4)"),
        (2, "(4)", "(3,3)"),
        (2, "(4)", "(2,1,4)"),
        (1, "(2)", "(1,1,2,5)"),
        (1, "(5)", "(1,1,4)"),
        (2, "(3,2)", "(4)"),
        (2, "(5)", "(3,2)"),
        (2, "(4)", "(1,2,4)"),
        (1, "(2)", "(1,1,4,3)"),
        (2, "(4)", "(1,5)"),
        (2, "(4)", "(3,2,2)"),
        (1, "(2)", "(1,2,3,3)"),
    ]
)

#: Fragments that parse but fail to expand, and fragments that fail to parse.
DOMAIN_ERRORS = ("(0)", "rep(0,2)", "dual((1,1))", "hast(0,(2))", "hast(1,())", "ohno(1,(1))")
SYNTAX_ERRORS = ("(2", "(1,)", "foo(2)", "(2)##(3)", "$", "(1000001)", "1/0*(2)", "(2) (3)")

HAND_TEXTS = (
    # chains of three or more '#'
    "(2)#(3)#(4)",
    "(2)#(3)#(4)#(5)",
    "(1)#(2)#(3)#(4)#(2)",
    "(2,3)#(4)#(2)",
    "rep(2,2)#(3)#(2)",
    "(2)#()#(3)",
    "((2)#(3))#(4)",
    "(2)#((3)#(4))",
    "dual((3)#(2))#(2)#(2)",
    "hast(1,(2)#(3)#(4))",
    "ohno(1,(2)#(3)#(4))",
    "dual((2)#(3)#(4))",
    "-(2)#(3)#(4)",
    "(2) # (3) # (4) + (5) # (2) # (3)",
    "(2)#(3)#(4) - (4)#(3)#(2)",
    "2*(2)#(3)#(4)",
    "(2)#(3)#",
    "(2)#(3)##(4)",
    "(2)#(3)#(0)",
    "(0)#(3)#(4)",
    "(1,1)#(0)#dual((1,1))",
    "dual((1,1))#(0)#(2)",
    # nested groups
    "((2))",
    "(((2)))",
    "((((2,3))))",
    "((2) + ((3) - ((4))))",
    "(((2)#(3)))",
    "-((2) - ((3)))",
    "((()))",
    "(()())",
    "(((2)",
    "((2)))",
    "2*((2) + (3))",
    "1/2*((2)#(3))",
    "dual(((1,3)))",
    "ohno(1,((2) + (3)))",
    "((2,3) + (3))",
    "( (2) )",
    "(2 + (3))",
    # multi-line input
    "(2)\n+ (3)",
    "(2) +\n(3",
    "ohno(1,\n  (2)#(3))\n- ohno(1,\n  dual((2)#(3)))",
    "\n\n(2",
    "(2)\n\n\n)",
    "\t(2)\t#\t(3)\n",
    "(2)\r\n+ (3)",
    "\n",
    "  \n  0  \n",
    "(2) +\n\n  (0)",
    "dual(\n(1,1)\n)",
    "(2)\n$",
    "(2,\n3)",
    "rep(2,\n3\n)",
    "(2)\n#\n(3)\n#\n(4)",
    "(1000001\n)",
    "(0)\n+\n(2",
    # a syntax error and a domain error in one text
    "hast(0, dual((1,1)))",
    "ohno(1, (0)) - foo(2)",
    "foo(2) - (0)",
    "3*(0) +",
    "1/0*(0)",
    "hast(1, ()) + (2) (3)",
    "dual((1,1)) + \u00e9(2)",
    # letters, digits and the rest
    "(\u0663)",
    "\u00e9(2)",
    "0",
    " 0 ",
    "00",
    "-0",
    "0*(2)",
    "0 + (2)",
    "-()",
    "rep(0,0)",
    "ohno(0,())",
    "dual(())",
    "Rep(2,2)",
    "rep (2,2)",
    "dual ((1,3))",
    "2/4*(2) + 1/2*(2)",
    "(2)-(2)+(2)",
)


def _fuzz_texts(count, seed=7):
    """Random texts from the grammar, with small entries so that expansions
    stay short; some carry a bad value, and some a deleted or stray character."""
    rng = random.Random(seed)

    def index():
        entries = [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 2))] + [rng.choice((2, 3, 4))]
        if rng.random() < 0.05:
            entries[rng.randrange(len(entries))] = rng.choice((0, 1))
        return "(" + ",".join(map(str, entries)) + ")" if rng.random() < 0.95 else "()"

    def factor(depth):
        roll = rng.randrange(6 if depth else 2)
        if roll == 0:
            return index()
        if roll == 1:
            return f"rep({rng.choice((0, 2, 2, 2, 3, 3))},{rng.randint(0, 3)})"
        if roll == 2:
            return f"dual({expr(depth - 1)})"
        if roll == 3:
            return f"hast({rng.choice((0, 1, 1, 1, 2, 2))},{expr(depth - 1)})"
        if roll == 4:
            return f"ohno({rng.randint(0, 2)},{expr(depth - 1)})"
        return f"({expr(depth - 1)})"

    def term(depth):
        if rng.random() < 0.2:
            return f"{rng.randint(0, 3)}/{rng.choice((0, 1, 2, 3, 3, 3, 3))}*{factor(depth)}"
        return "#".join(factor(depth) for _ in range(rng.choice((1, 1, 2, 3))))

    def expr(depth):
        out = ("-" if rng.random() < 0.2 else "") + term(depth)
        for _ in range(rng.choice((0, 0, 1))):
            out += rng.choice((" + ", "-", "\n- ")) + term(depth)
        return out

    texts = []
    while len(texts) < count:
        text = expr(rng.randint(0, 2))
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            at = rng.randint(0, len(text))
            if text and rng.random() < 0.5:
                text = text[:at] + text[at + 1 :]
            else:
                text = text[:at] + rng.choice("(),#+-*/ \nx") + text[at:]
        if sum(ch.isdigit() for ch in text) <= 7 and text not in texts:
            texts.append(text)
    return texts


def corpus():
    texts = list(TABLE_TEXTS) + list(HAND_TEXTS)
    for bad in DOMAIN_ERRORS:
        for broken in SYNTAX_ERRORS:
            texts += [f"{bad} + {broken}", f"{broken}\n- {bad}"]
    texts += _fuzz_texts(250)
    return list(dict.fromkeys(texts))


def _outcome(text):
    try:
        return {"expansion": combination_to_text(expand_text(text))}
    except ExprError as exc:
        return {"error": str(exc)}


def test_corpus_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 400
    assert [text for text, want in golden.items() if _outcome(text) != want] == []


if __name__ == "__main__":
    lines = [f"{json.dumps(text)}: {json.dumps(_outcome(text))}" for text in corpus()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
