"""Tests for the exact index algebra: duality, shifts, and the three products."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ohno.indices import (
    EMPTY,
    Index,
    IndexCombination,
    append_entry,
    as_combination,
    combination_to_text,
    dual_linear,
    enumerate_shifts,
    hast,
    iter_admissible,
    repeat,
    sha,
    star_single,
)
from ohno.sums import ohno_sum_symbolic
from ohno.zeta import eval_zeta, eval_zeta_direct, to_word


# ---------------------------------------------------------------------------
# strategies and independent oracles
# ---------------------------------------------------------------------------

entries_st = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=6)
index_st = entries_st.map(lambda es: Index(tuple(es)))
admissible_st = st.tuples(
    st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=5),
    st.integers(min_value=2, max_value=6),
).map(lambda t: Index(tuple(t[0]) + (t[1],)))


def interleave_oracle(a, b):
    """Interleavings by choosing the positions of ``a`` among ``len(a)+len(b)`` slots.

    Completely independent of the recursive implementation under test.
    """
    n, p = len(a) + len(b), len(a)
    out = {}
    for pos in combinations(range(n), p):
        merged = [None] * n
        ai = iter(a)
        bi = iter(b)
        for i in range(n):
            merged[i] = next(ai) if i in pos else next(bi)
        key = tuple(merged)
        out[key] = out.get(key, 0) + 1
    return out


def dual_oracle_via_binary(k):
    """Duality through the binary-run description: encode entries last-to-first as
    runs of 0s followed by a 1, complement-and-reverse, decode.  Independent of the
    pair-decomposition implementation under test."""
    bits = []
    for e in reversed(k):
        bits.extend([0] * (e - 1))
        bits.append(1)
    flipped = [1 - b for b in reversed(bits)]
    entries = []
    run = 0
    for b in flipped:
        if b == 0:
            run += 1
        else:
            entries.append(run + 1)
            run = 0
    return Index(tuple(reversed(entries)))


# ---------------------------------------------------------------------------
# Index basics
# ---------------------------------------------------------------------------


def test_index_construction_and_views():
    k = Index((1, 3, 2))
    assert k == (1, 3, 2)
    assert hash(k) == hash((1, 3, 2))
    assert repr(k) == "Index((1, 3, 2))"
    assert k.weight == 6
    assert k.depth == 3
    assert len(k) == 3
    assert list(k) == [1, 3, 2]
    assert k.admissible


def test_index_accepts_any_iterable_entries():
    assert Index(tuple([2, 3])) == Index((2, 3))


def test_empty_index():
    assert EMPTY == ()
    assert EMPTY.weight == 0
    assert EMPTY.depth == 0
    assert not EMPTY.admissible
    assert str(EMPTY) == "()"
    assert EMPTY.to_text() == "()"


@pytest.mark.parametrize("bad", [(0,), (-1,), (2, 0), (1.5,), ("2",), (True,)])
def test_index_rejects_bad_entries(bad):
    with pytest.raises(ValueError):
        Index(tuple(bad))


@pytest.mark.parametrize(
    "entries, admissible",
    [((), False), ((1,), False), ((2,), True), ((3, 1), False), ((1, 1, 2), True)],
)
def test_admissibility(entries, admissible):
    assert Index(entries).admissible is admissible


def test_text_round_trip():
    for entries in [(), (2,), (1, 3), (4, 1, 2)]:
        k = Index(entries)
        assert Index.from_text(k.to_text()) == k
    assert Index.from_text("()") == EMPTY
    assert Index.from_text("") == EMPTY
    assert Index.from_text(" 1,2 ") == Index((1, 2))
    assert Index.from_text("(2,3)") == Index((2, 3))
    assert str(Index((1, 2))) == "(1,2)"


@pytest.mark.parametrize("text", ["1,,2", "a", "1, -2", "2.5"])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Index.from_text(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+2", "malformed index text '+2'"),
        (" 2 ", (2,)),
        ("2_0", "malformed index text '2_0'"),
        ("(2, 3)", (2, 3)),
        ("()", ()),
        ("", ()),
        ("0,2", "index entries must be positive integers, got (0, 2)"),
        ("-1,2", "index entries must be positive integers, got (-1, 2)"),
        ("2,,3", "malformed index text '2,,3'"),
        ("2.0", "malformed index text '2.0'"),
        ("1_0,2", "malformed index text '1_0,2'"),
        (" +2, 3", "malformed index text '+2, 3'"),
        (" 2 ,\t3 ", (2, 3)),
        ("\u0663,2", (3, 2)),
    ],
)
def test_from_text_accepts_and_refuses_exactly(text, expected):
    """An entry is accepted exactly when it is an integer literal of the
    expression grammar (decimal digits, as ``\\d`` matches them), with spaces
    around it: ``int`` alone would also take ``+2`` and ``1_0``.  Every
    refusal keeps its message, whichever way the entries are checked."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            Index.from_text(text)
        assert str(excinfo.value) == expected
    else:
        k = Index.from_text(text)
        assert type(k) is Index and k == Index(expected)
        assert all(type(e) is int for e in k)


def test_repeat():
    assert repeat(2, 3) == Index((2, 2, 2))
    assert repeat(5, 0) == EMPTY
    with pytest.raises(ValueError):
        repeat(0, 2)
    with pytest.raises(ValueError):
        repeat(2, -1)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

# Every admissible index of weight <= 5 with its dual, checked by hand through
# the run decomposition.
FROZEN_DUALS = [
    ("2", "2"),
    ("3", "1,2"),
    ("1,2", "3"),
    ("4", "1,1,2"),
    ("1,3", "1,3"),
    ("2,2", "2,2"),
    ("1,1,2", "4"),
    ("5", "1,1,1,2"),
    ("1,4", "1,1,3"),
    ("2,3", "1,2,2"),
    ("3,2", "2,1,2"),
    ("1,1,3", "1,4"),
    ("1,2,2", "2,3"),
    ("2,1,2", "3,2"),
    ("1,1,1,2", "5"),
]


@pytest.mark.parametrize("text, dual_text", FROZEN_DUALS)
def test_frozen_duals(text, dual_text):
    assert Index.from_text(text).dual() == Index.from_text(dual_text)


def test_repeated_two_blocks_are_self_dual():
    for n in range(1, 7):
        assert repeat(2, n).dual() == repeat(2, n)


def test_single_entry_dual():
    for k in range(2, 9):
        assert Index((k,)).dual() == Index(tuple([1] * (k - 2) + [2]))


def test_dual_requires_admissible():
    for bad in [EMPTY, Index((1,)), Index((2, 1))]:
        with pytest.raises(ValueError):
            bad.dual()


def test_dual_properties_exhaustive():
    """Involution, weight preservation, depth reflection, and bijectivity for
    every admissible index of weight at most 9 (255 indices)."""
    per_weight = {}
    count = 0
    for k in iter_admissible(9):
        kd = k.dual()
        assert kd.admissible
        assert kd.dual() == k
        assert kd.weight == k.weight
        assert kd.depth == k.weight - k.depth
        per_weight.setdefault(k.weight, []).append(kd)
        count += 1
    assert count == sum(2 ** (w - 2) for w in range(2, 10)) == 255
    # duality permutes each weight class
    for w, duals in per_weight.items():
        assert len(set(duals)) == len(duals) == 2 ** (w - 2)


@given(admissible_st)
def test_dual_matches_binary_oracle(k):
    assert k.dual() == dual_oracle_via_binary(k)


# ---------------------------------------------------------------------------
# componentwise shifts
# ---------------------------------------------------------------------------


def test_enumerate_shifts_frozen():
    assert enumerate_shifts(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_shifts(3, 2) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]
    assert enumerate_shifts(1, 3) == [(3,)]
    assert enumerate_shifts(0, 0) == [()]
    assert enumerate_shifts(2, 0) == [(0, 0)]


def test_enumerate_shifts_rejects():
    with pytest.raises(ValueError):
        enumerate_shifts(0, 1)
    with pytest.raises(ValueError):
        enumerate_shifts(-1, 0)
    with pytest.raises(ValueError):
        enumerate_shifts(2, -1)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=7))
def test_enumerate_shifts_count_and_order(r, m):
    shifts = enumerate_shifts(r, m)
    assert len(shifts) == math.comb(m + r - 1, r - 1)
    assert shifts == sorted(shifts)
    assert len(set(shifts)) == len(shifts)
    assert all(len(s) == r and sum(s) == m and min(s) >= 0 for s in shifts)


def test_enumerate_shifts_is_the_filtered_product():
    """Every vector of ``r`` entries from ``0..m`` with sum ``m``, in the
    lexicographic order ``product`` yields them; no length-0 vector has a
    positive sum."""
    for r in range(7):
        for m in range(7):
            expected = [e for e in product(range(m + 1), repeat=r) if sum(e) == m]
            if r == 0 and m > 0:
                assert expected == []
                with pytest.raises(ValueError):
                    enumerate_shifts(r, m)
            else:
                assert enumerate_shifts(r, m) == expected, (r, m)


def test_enumerate_shifts_deep():
    """A long vector costs no interpreter frame per entry."""
    assert enumerate_shifts(1500, 0) == [(0,) * 1500]
    assert enumerate_shifts(1500, 1)[-1] == (1,) + (0,) * 1499


def test_iter_admissible_is_every_admissible_index_in_order():
    """Every admissible tuple of weight at most 12, sorted by weight, then
    last entry, then entries; a composition of ``w`` is a set of cut points
    among its ``w - 1`` gaps."""
    expected = []
    for w in range(1, 13):
        for cuts in range(1 << (w - 1)):
            ends = [i + 1 for i in range(w - 1) if cuts >> i & 1] + [w]
            entries = tuple(b - a for a, b in zip([0] + ends, ends))
            if entries[-1] >= 2:
                expected.append(entries)
    expected.sort(key=lambda e: (sum(e), e[-1], e))
    got = list(iter_admissible(12))
    assert got == expected
    assert all(type(k) is Index for k in got)


def test_iter_admissible():
    got = list(iter_admissible(4))
    assert len(got) == 1 + 2 + 4
    assert set(got) == {
        Index((2,)), Index((3,)), Index((1, 2)),
        Index((4,)), Index((1, 3)), Index((2, 2)), Index((1, 1, 2)),
    }
    weights = [k.weight for k in got]
    assert weights == sorted(weights)
    assert list(iter_admissible(1)) == list(iter_admissible(0)) == list(iter_admissible(-3)) == []
    with pytest.raises(ValueError):
        list(iter_admissible(2.5))


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def test_combination_construction_merges_and_drops_zeros():
    k = Index((2,))
    c = IndexCombination([(k, 1), (k, -1), (Index((3,)), 2)])
    assert c == IndexCombination({Index((3,)): 2})
    assert k not in c
    assert len(c) == 1
    assert not c.is_zero
    assert IndexCombination().is_zero
    assert IndexCombination({}) == IndexCombination([]) == IndexCombination()


def test_combination_rejects_non_index_keys():
    with pytest.raises(ValueError):
        IndexCombination({(2,): 1})
    with pytest.raises(ValueError):
        as_combination((2,))
    with pytest.raises(ValueError):
        eval_zeta((2, 3))
    with pytest.raises(ValueError):
        eval_zeta_direct((2, 3), 100)
    with pytest.raises(ValueError):
        to_word((2, 3))


def test_combination_items_canonical_order():
    c = (
        IndexCombination({Index((1, 1, 2)): 1})
        + IndexCombination({Index((4,)): 1})
        + IndexCombination({Index((1, 3)): 1})
        + IndexCombination({Index((2, 2)): 1})
    )
    assert [k for k, _ in c.items()] == [(4,), (1, 3), (2, 2), (1, 1, 2)]
    assert list(c) == c.items()


def test_combination_arithmetic():
    a = IndexCombination({Index((2,)): 2})
    b = IndexCombination({Index((3,)): Fraction(1, 2)})
    s = a + b
    assert s.coefficient(Index((2,))) == 2
    assert s.coefficient(Index((3,))) == Fraction(1, 2)
    assert (s - a) == b
    assert (-b).coefficient(Index((3,))) == Fraction(-1, 2)
    assert (b * 4).coefficient(Index((3,))) == 2
    assert (4 * b) == (b * 4)
    assert (b * Fraction(2, 3)).coefficient(Index((3,))) == Fraction(1, 3)
    assert (a - a).is_zero


def test_combination_statistics():
    c = IndexCombination([(Index((2,)), -2), (Index((3,)), Fraction(1, 2))])
    assert c.coefficient_mass() == Fraction(5, 2)
    assert sum(coef for _, coef in c) == Fraction(-3, 2)
    assert c.coefficient(Index((5,))) == 0


def test_combination_not_hashable():
    with pytest.raises(TypeError):
        hash(IndexCombination())


def test_map_indices_merges_collisions():
    c = IndexCombination([(Index((3,)), 1), (Index((1, 2)), 1)])
    merged = c.map_indices(lambda k: Index((k.weight,)))
    assert merged == IndexCombination({Index((3,)): 2})


def test_combination_to_text_frozen():
    zero = IndexCombination()
    assert combination_to_text(zero) == "0"
    one = IndexCombination({Index((2, 3)): 1})
    assert combination_to_text(one) == "(2,3)"
    mixed = IndexCombination(
        [(Index((2,)), -1), (Index((1, 2)), 2), (Index((3,)), Fraction(1, 2))]
    )
    assert combination_to_text(mixed) == "-(2) + 1/2*(3) + 2*(1,2)"
    assert str(mixed) == combination_to_text(mixed)
    assert "IndexCombination" in repr(mixed)


# ---------------------------------------------------------------------------
# the interleaving product
# ---------------------------------------------------------------------------


def test_sha_frozen():
    t = lambda c: combination_to_text(c)
    assert t(sha(Index((2,)), Index((3,)))) == "(2,3) + (3,2)"
    assert t(sha(Index((2,)), Index((1, 2)))) == "2*(1,2,2) + (2,1,2)"
    assert t(sha(Index((1, 2)), Index((1, 2)))) == "4*(1,1,2,2) + 2*(1,2,1,2)"
    assert t(sha(EMPTY, Index((2, 3)))) == "(2,3)"
    assert t(sha(Index((2, 3)), EMPTY)) == "(2,3)"
    assert t(sha(EMPTY, EMPTY)) == "()"


def test_sha_bilinear():
    a = IndexCombination([(Index((2,)), 2)])
    b = IndexCombination([(Index((3,)), Fraction(1, 2))])
    assert sha(a, b) == sha(Index((2,)), Index((3,))) * 1  # same support
    assert sha(a, b).coefficient(Index((2, 3))) == 1


@given(index_st, index_st)
@settings(max_examples=60)
def test_sha_matches_position_oracle(a, b):
    got = dict(sha(a, b).items())
    assert got == {k: Fraction(v) for k, v in interleave_oracle(a, b).items()}


@given(index_st, index_st)
@settings(max_examples=60)
def test_sha_term_count(a, b):
    assert sum(c for _, c in sha(a, b)) == math.comb(a.depth + b.depth, a.depth)


def test_sha_and_difference_settle_fraction_coefficients():
    """Products that cancel are dropped, integral products of ``Fraction``
    coefficients are stored as ``int``, and ``a - a`` of such a product is zero."""
    x = IndexCombination({Index((2,)): Fraction(1, 2), Index((3,)): 1})
    y = IndexCombination({Index((3,)): 1, Index((2,)): Fraction(-1, 2)})
    assert x + y == IndexCombination({Index((3,)): 2}) and Index((2,)) not in x + y
    a = sha(x, y)  # the (2,3) and (3,2) terms of 1/2*(2)#(3) - 1/2*(3)#(2) cancel
    assert a == IndexCombination({Index((2, 2)): Fraction(-1, 2), Index((3, 3)): 2})
    assert Index((2, 3)) not in a and type(a.coefficient(Index((3, 3)))) is int
    whole = sha(IndexCombination({Index((2,)): Fraction(1, 2)}), IndexCombination({Index((3,)): 2}))
    assert whole == IndexCombination({Index((2, 3)): 1, Index((3, 2)): 1})
    assert all(type(c) is int for _, c in whole)
    assert (a - a).is_zero and (a - a)._terms == {} and (a - a) == IndexCombination()


@given(index_st, index_st)
@settings(max_examples=40)
def test_sha_commutative(a, b):
    assert sha(a, b) == sha(b, a)


@given(index_st, index_st, index_st)
@settings(max_examples=30, deadline=None)
def test_sha_associative(a, b, c):
    # Three depth-6 operands give 17,153,136 interleavings, more than a
    # 3 GB address space holds; a depth sum of 15 peaks at 756,756 (5, 5, 5).
    assume(a.depth + b.depth + c.depth <= 15)
    assert sha(sha(a, b), c) == sha(a, sha(b, c))


@given(index_st)
def test_sha_unit(a):
    assert sha(a, EMPTY) == as_combination(a)


# ---------------------------------------------------------------------------
# the position-sum product and the depth-one harmonic product
# ---------------------------------------------------------------------------


def test_hast_frozen():
    t = lambda c: combination_to_text(c)
    assert t(hast(2, Index((2, 3)))) == "(2,5) + (4,3)"
    assert t(hast(1, repeat(2, 3))) == "(2,2,3) + (2,3,2) + (3,2,2)"
    assert t(hast(3, Index((4,)))) == "(7)"


def test_hast_merges_equal_results():
    # both positions of (3,3) give (5,3)/(3,5); on (3,) twice nothing merges,
    # but on (2,2) adding 1 gives two distinct indices while weight-2 targets
    # with equal entries can collide after the shift:
    c = hast(2, Index((3, 5)))
    assert c.coefficient(Index((5, 5))) == 1
    assert c.coefficient(Index((3, 7))) == 1
    sym = hast(2, Index((4, 2)))  # (6,2) + (4,4)
    assert sum(c for _, c in sym) == 2


def test_hast_exact_and_cancelling():
    """Results of two target terms that meet are merged exactly: a cancelled
    term is dropped, and halves that sum to an integer are stored as ``int``."""
    half = Fraction(1, 2)
    diff = IndexCombination([(Index((1, 2)), 1), (Index((2, 1)), -1)])
    assert combination_to_text(hast(1, diff)) == "(1,3) - (3,1)"
    halves = IndexCombination([(Index((1, 2)), half), (Index((2, 1)), half), (Index((2,)), Fraction(1, 3))])
    got = hast(1, halves)
    assert combination_to_text(got) == "1/3*(3) + 1/2*(1,3) + (2,2) + 1/2*(3,1)"
    assert type(got.coefficient(Index((2, 2)))) is int


def test_hast_rejects():
    with pytest.raises(ValueError):
        hast(0, Index((2,)))
    with pytest.raises(ValueError):
        hast(-1, Index((2,)))
    with pytest.raises(ValueError):
        hast(True, Index((2,)))
    with pytest.raises(ValueError):
        hast(2, EMPTY)


@given(st.integers(min_value=1, max_value=4), index_st.filter(lambda k: k.depth > 0))
def test_hast_preserves_depth_and_raises_weight(k, idx):
    out = hast(k, idx)
    assert sum(c for _, c in out) == idx.depth
    for supp, _ in out.items():
        assert supp.depth == idx.depth
        assert supp.weight == idx.weight + k


def test_star_single_frozen():
    t = lambda c: combination_to_text(c)
    assert t(star_single(2, Index((3,)))) == "(5) + (2,3) + (3,2)"
    assert t(star_single(2, Index((1, 2)))) == "(1,4) + (3,2) + 2*(1,2,2) + (2,1,2)"


def test_star_single_is_sha_plus_hast():
    for k, target in [(2, Index((3,))), (3, Index((1, 2))), (2, Index((2, 2)))]:
        assert star_single(k, target) == sha(Index((k,)), target) + hast(k, target)


def test_star_single_rejects_empty():
    with pytest.raises(ValueError):
        star_single(2, EMPTY)


def test_append_entry():
    c = IndexCombination([(Index((2,)), 1), (Index((1, 3)), 2)])
    out = append_entry(c, 2)
    assert out == IndexCombination([(Index((2, 2)), 1), (Index((1, 3, 2)), 2)])
    assert append_entry(EMPTY, 3) == IndexCombination({Index((3,)): 1})
    with pytest.raises(ValueError):
        append_entry(c, 0)


# ---------------------------------------------------------------------------
# duality as a linear map
# ---------------------------------------------------------------------------


def test_dual_linear():
    c = IndexCombination([(Index((3,)), 2), (Index((2, 2)), Fraction(1, 3))])
    out = dual_linear(c)
    assert out.coefficient(Index((1, 2))) == 2
    assert out.coefficient(Index((2, 2))) == Fraction(1, 3)


def test_dual_linear_merges():
    # (3) and (1,2) are dual to each other; their images coincide with swap
    c = IndexCombination([(Index((3,)), 1), (Index((1, 2)), 1)])
    assert dual_linear(dual_linear(c)) == c


@given(st.lists(st.tuples(admissible_st, st.integers(-3, 3)), max_size=5))
def test_dual_linear_involution(pairs):
    c = IndexCombination(pairs)
    assert dual_linear(dual_linear(c)) == c


# ---------------------------------------------------------------------------
# coefficient types: int unless a non-integer appears
# ---------------------------------------------------------------------------


def test_products_have_int_coefficients():
    products = [
        sha(Index((1, 2)), Index((1, 2, 3))),
        sha(sha(Index((2,)), Index((3,))), repeat(2, 2)),
        hast(2, sha(Index((3,)), repeat(2, 2))),
        ohno_sum_symbolic(sha(Index((3,)), repeat(2, 2)), 2),
        dual_linear(sha(Index((3,)), repeat(2, 2))),
        star_single(2, Index((1, 3))),
    ]
    for comb in products:
        assert comb.items()
        assert all(type(c) is int for _, c in comb.items())


def test_integral_fraction_is_stored_as_int():
    k = Index((2,))
    for comb in (
        IndexCombination([(k, Fraction(4, 2))]),
        IndexCombination({k: Fraction(1, 2)}) * Fraction(4),
        IndexCombination({k: Fraction(1, 2)}) + IndexCombination({k: Fraction(3, 2)}),
    ):
        assert comb.coefficient(k) == 2
        assert type(comb.coefficient(k)) is int


def test_half_coefficients_stay_exact():
    half = Fraction(1, 2)
    a = IndexCombination([(Index((2,)), half), (Index((3,)), 1)])
    b = IndexCombination([(Index((2,)), half), (Index((1, 2)), half)])
    total = a + b
    assert total.coefficient(Index((2,))) == 1 and type(total.coefficient(Index((2,)))) is int
    assert total.coefficient(Index((1, 2))) == half
    assert (b * 3).coefficient(Index((1, 2))) == Fraction(3, 2)
    halved = a * half
    assert halved.coefficient(Index((2,))) == Fraction(1, 4)
    assert halved.coefficient(Index((3,))) == half
    assert combination_to_text(total) == "(2) + (3) + 1/2*(1,2)"
    assert combination_to_text(halved) == "1/4*(2) + 1/2*(3)"


def _added_by_loop(a, b):
    """``a + b`` as a term-by-term loop: ``a``'s terms, then ``b``'s new ones,
    zeros dropped and integral coefficients as ``int``."""
    out = dict(a._terms)
    for k, c in b._terms.items():
        out[k] = out.get(k, 0) + c
    return {k: int(c) if c.denominator == 1 else c for k, c in out.items() if c}


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize(
    "a, b",
    [
        ({(2,): 1, (3,): -2}, {(1, 2): 5, (2, 3): 1}),  # disjoint
        ({(2,): 1, (3,): -2}, {(1, 2): 5, (3,): 7}),  # overlapping
        ({(2,): 1, (3,): -2}, {(3,): 2, (2,): -1}),  # cancelling to zero
        ({(2,): 1, (3,): -2, (4,): 3}, {(3,): 2, (1, 3): 4}),  # one term cancels
        ({(2,): _HALF, (3,): 1}, {(1, 2): _THIRD, (2, 2): 2}),  # disjoint, Fraction and int
        ({(2,): _HALF, (3,): _THIRD}, {(2,): _HALF, (3,): -_HALF}),  # overlapping Fractions
        ({(2,): _HALF}, {(2,): -_HALF}),  # Fractions cancelling to zero
        ({}, {(2,): _HALF, (3,): 4}),  # zero plus a combination
    ],
)
def test_sum_matches_the_term_by_term_loop(a, b):
    """``+`` gives the loop's terms, coefficient types and term order, in
    both operand orders, whether the supports are disjoint or not."""
    a = IndexCombination({Index(k): c for k, c in a.items()})
    b = IndexCombination({Index(k): c for k, c in b.items()})
    for x, y in ((a, b), (b, a)):
        expected = _added_by_loop(x, y)
        total = x + y
        assert list(total._terms.items()) == list(expected.items())
        assert [type(c) for c in total._terms.values()] == [type(c) for c in expected.values()]
        assert total == IndexCombination(list(x) + list(y))


def test_statistics_are_exact_for_both_coefficient_types():
    ints = IndexCombination([(Index((2,)), -2), (Index((3,)), 5)])
    assert ints.coefficient_mass() == 7 and type(ints.coefficient_mass()) is int
    total = sum(c for _, c in ints)
    assert total == 3 and type(total) is int
    halves = IndexCombination([(Index((2,)), Fraction(-1, 2)), (Index((3,)), Fraction(1, 3))])
    assert halves.coefficient_mass() == Fraction(5, 6)
    assert sum(c for _, c in halves) == Fraction(-1, 6)
    assert IndexCombination().coefficient_mass() == 0
