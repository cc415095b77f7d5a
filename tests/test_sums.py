"""Tests for shifted sums, dual gaps, and the closed-form families they equal."""

import ast
import importlib
import math
import pathlib
from contextvars import copy_context
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import ohno
import ohno.sums

from ohno.indices import (
    _MEMO,
    EMPTY,
    Index,
    IndexCombination,
    combination_to_text,
    enumerate_shifts,
    hast,
    iter_admissible,
    repeat,
    sha,
)
from ohno.sums import (
    dual_gap_operands,
    dual_gap_skew_sides,
    composed_single,
    composed_split,
    grouped_single,
    grouped_split,
    hast_shifted_sum,
    ohno_sum_symbolic,
    term_a,
    term_c,
)
from ohno.expr import expand_text
from ohno.verify import verify
from ohno.zeta import EvalConfig, eval_combination, eval_zeta, eval_zeta_direct

# The package re-exports the function ``verify`` under the module's name.
catalogue = importlib.import_module("ohno.verify")

T = combination_to_text


def _ohno_value(comb, m, cfg):
    """The numeric order-``m`` shifted sum."""
    return eval_combination(ohno_sum_symbolic(comb, m), cfg)


def _skew(s, t, l, m):
    """The skew gap as one exact combination: its positive minus its negative side."""
    positive, negative = dual_gap_skew_sides(s, t, l, m)
    return positive - negative


def _sides(name, *args):
    """The ``(lhs, rhs)`` pairs of the catalogue entry ``name`` at one point."""
    return catalogue._CATALOGUE[name].sides(*args)


def _swept(name):
    """``verify`` of the catalogue entry ``name`` at the one point given positionally."""
    params = catalogue._CATALOGUE[name].params
    return lambda *values: verify(name, **dict(zip(params, values)))


def _is_entry(node):
    """True for a function that ``@identity(...)`` registers in the catalogue."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "identity" for d in node.decorator_list)


def test_every_public_builder_has_a_non_test_user():
    """Each name ``ohno.sums`` exports is re-exported by the package or has
    at least two users, counting each catalogue entry, each other ``sums``
    function and each other module that imports it: a builder that serves
    one entry belongs in that entry, and one that only tests use nowhere."""
    package = pathlib.Path(ohno.__file__).parent
    users = {name: set() for name in ohno.sums.__all__}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name in ("sums.py", "verify.py"):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and (path.name == "sums.py" or _is_entry(node)):
                    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    for name in (used & users.keys()) - {node.name}:
                        users[name].add(f"{path.stem}.{node.name}")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ohno.sums":
                for alias in node.names:
                    users.get(alias.name, set()).add(path.stem)
    lonely = sorted(name for name, who in users.items() if name not in ohno.__all__ and len(who) < 2)
    assert lonely == []


# ---------------------------------------------------------------------------
# shifted sums
# ---------------------------------------------------------------------------


def test_ohno_shifts_frozen():
    assert T(ohno_sum_symbolic(Index((3,)), 2)) == "(5)"
    assert T(ohno_sum_symbolic(Index((2, 3)), 1)) == "(2,4) + (3,3)"
    assert T(ohno_sum_symbolic(Index((1, 2)), 2)) == "(1,4) + (2,3) + (3,2)"
    assert T(ohno_sum_symbolic(Index((2,)), 0)) == "(2)"


def test_ohno_shifts_counts():
    for entries, m in [((2,), 4), ((1, 2), 3), ((2, 1, 3), 2)]:
        k = Index(entries)
        fam = ohno_sum_symbolic(k, m)
        assert sum(c for _, c in fam) == math.comb(m + k.depth - 1, k.depth - 1)
        for idx, _ in fam.items():
            assert idx.weight == k.weight + m
            assert idx.depth == k.depth
            assert idx.admissible


def test_ohno_shifts_rejects():
    with pytest.raises(ValueError, match="admissible"):
        ohno_sum_symbolic(Index((1,)), 1)
    with pytest.raises(ValueError, match="admissible"):
        ohno_sum_symbolic(IndexCombination([(Index((2,)), 1), (Index((2, 1)), 1)]), 1)
    with pytest.raises(ValueError):
        ohno_sum_symbolic(Index((2,)), -1)


def test_ohno_sum_symbolic_linear():
    c = IndexCombination([(Index((2,)), 2), (Index((3,)), -1)])
    got = ohno_sum_symbolic(c, 1)
    assert got == IndexCombination([(Index((3,)), 2), (Index((4,)), -1)])


def test_ohno_sum_symbolic_exact_and_cancelling():
    """Shifts of two source terms that meet are merged exactly: a cancelled
    term is dropped, and halves that sum to an integer are stored as ``int``."""
    assert T(ohno_sum_symbolic(expand_text("(1,3) - (2,2)"), 1)) == "(1,4) - (3,2)"
    halves = ohno_sum_symbolic(expand_text("1/2*(1,3) + 1/2*(2,2) + 1/3*(2)"), 1)
    assert T(halves) == "1/3*(3) + 1/2*(1,4) + (2,3) + 1/2*(3,2)"
    assert type(halves.coefficient(Index((2, 3)))) is int


def test_ohno_sum_symbolic_enumerates_shifts_once_per_depth(monkeypatch):
    calls = []

    def counted(r, m):
        calls.append((r, m))
        return enumerate_shifts(r, m)

    monkeypatch.setattr(ohno.sums, "_shifts", counted)
    got = ohno_sum_symbolic(expand_text("(2) + (3) + (1,2) + (2,2) + 2*(1,1,3) + (2,1,2)"), 2)
    assert sorted(calls) == [(1, 2), (2, 2), (3, 2)]
    assert sum(c for _, c in got) == 2 * 1 + 2 * 3 + 3 * 6


def _in_memo(build):
    """``build()`` in a fresh sweep memo, as one ``verify`` call runs its points."""
    context = copy_context()
    context.run(_MEMO.set, {})
    return context.run(build)


def _shifted(comb, m):
    """The order-``m`` shifted sum by its definition: ``k + e`` for each term
    ``k`` and each shift vector ``e``, one checked key at a time."""
    out = {}
    for k, c in comb.items():
        for e in enumerate_shifts(len(k), m):
            key = Index(a + b for a, b in zip(k, e))
            out[key] = out.get(key, 0) + c
    return IndexCombination(out)


small_admissible_st = st.tuples(
    st.lists(st.integers(min_value=1, max_value=3), max_size=3), st.integers(min_value=2, max_value=3)
).map(lambda t: Index((*t[0], t[1])))
# Few distinct values, so shifts of two terms that meet often cancel or sum to an integer.
coefficient_st = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
combination_st = st.dictionaries(small_admissible_st, coefficient_st, max_size=5).map(IndexCombination)


@given(st.lists(combination_st, min_size=1, max_size=3), st.integers(min_value=0, max_value=3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ohno_sum_symbolic_is_the_sum_over_shift_vectors(combs, m, memo):
    """With signed ``int`` and ``Fraction`` coefficients, alone or several in
    one sweep memo (which keeps the shift columns of each depth), the result
    has ``Index`` keys and settled coefficients."""
    build = lambda: [ohno_sum_symbolic(comb, m) for comb in combs]
    for comb, got in zip(combs, _in_memo(build) if memo else build()):
        assert got == _shifted(comb, m)
        assert all(type(k) is Index and (type(c) is int or c.denominator > 1) for k, c in got._terms.items())


@given(small_admissible_st, small_admissible_st, st.integers(min_value=0, max_value=3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_shifted_sum_of_a_shuffle_is_the_shuffle_of_shifted_sums(a, b, m, memo):
    """``O_m(a # b) = sum over i + j = m of O_i(a) # O_j(b)``, exactly: the shift
    vectors of an interleaving split into those of its two operands.  One
    side shifts interleavings, the other interleaves shifts."""

    def sides():
        shuffled = reduce(add, (sha(ohno_sum_symbolic(a, i), ohno_sum_symbolic(b, m - i)) for i in range(m + 1)))
        return ohno_sum_symbolic(sha(a, b), m), shuffled

    lhs, rhs = _in_memo(sides) if memo else sides()
    assert lhs == rhs


@given(*[st.integers(min_value=2, max_value=5)] * 2, *[st.integers(min_value=0, max_value=2)] * 2, st.booleans())
@settings(max_examples=40, deadline=None)
def test_dual_gap_skew_sides_swap_with_their_parameters(s, t, l, m, memo):
    """Each side is the shifted sum its definition names, at ``(t, s)`` the
    two sides of ``(s, t)`` are swapped, and at ``s = t`` they are equal."""
    both = lambda: (dual_gap_skew_sides(s, t, l, m), dual_gap_skew_sides(t, s, l, m))
    (positive, negative), swapped = _in_memo(both) if memo else both()
    plain_st, dual_st = dual_gap_operands(s, Index((t + 1,)), l)
    plain_ts, dual_ts = dual_gap_operands(t, Index((s + 1,)), l)
    assert positive == ohno_sum_symbolic(plain_st + dual_ts, m)
    assert negative == ohno_sum_symbolic(dual_st + plain_ts, m)
    assert swapped == (negative, positive)
    assert s != t or positive == negative


@pytest.mark.parametrize("s, t, bad", [("x", 3, "'x'"), (3, "x", "'x'"), (3, 1, "1"), (True, 3, "True")])
def test_dual_gap_skew_sides_refuses_a_bad_factor_before_ordering_its_parameters(s, t, bad):
    """Either parameter not an ``int >= 2`` is named, whichever is larger:
    ordering them first would raise ``TypeError`` for ``'x'`` against ``3``."""
    with pytest.raises(ValueError, match=rf"^the depth-one factor needs an entry >= 2, got {bad}$"):
        dual_gap_skew_sides(s, t, 0, 0)


def test_ohno_sum_symbolic_of_a_deep_index():
    """A shift vector as long as the index costs no interpreter frame per entry."""
    got = ohno_sum_symbolic(repeat(2, 1200), 1)
    assert len(got) == 1200
    assert got.coefficient(Index((2,) * 1199 + (3,))) == 1
    assert sum(c for _, c in got) == 1200


def test_ohno_sum_symbolic_of_order_zero_is_its_operand(monkeypatch):
    """Order 0 shifts nothing: the operand comes back, its terms in their
    order, without a shift table; a non-admissible term is refused alike."""
    monkeypatch.setattr(ohno.sums, "_shifts", lambda r, m: pytest.fail("order 0 built a shift table"))
    comb = expand_text("(2,1,3) + 1/2*(2) - 3*(1,1,2)")
    got = ohno_sum_symbolic(comb, 0)
    assert got == comb and list(got._terms.items()) == list(comb._terms.items())
    assert ohno_sum_symbolic(Index((2, 3)), 0) == IndexCombination({Index((2, 3)): 1})
    monkeypatch.undo()
    for m in (0, 1):
        with pytest.raises(ValueError, match=r"^shifted sums need an admissible index, got \(2,1\)$"):
            ohno_sum_symbolic(expand_text("(2) + (2,1)"), m)


def test_ohno_sum_numeric():
    cfg = EvalConfig(tol=1e-12)
    assert _ohno_value(Index((2,)), 1, cfg) == pytest.approx(eval_zeta(Index((3,)), cfg), abs=1e-12)
    assert _ohno_value(Index((2,)), 2, cfg) == pytest.approx(eval_zeta(Index((4,)), cfg), abs=1e-12)


def test_shifted_sum_invariant_under_duality():
    """The numeric shifted sum agrees between an index and its dual."""
    cfg = EvalConfig(tol=1e-12)
    for entries, m in [((3,), 1), ((2, 2), 2), ((1, 3), 1), ((3, 2), 2)]:
        k = Index(entries)
        assert _ohno_value(k, m, cfg) == pytest.approx(_ohno_value(k.dual(), m, cfg), abs=1e-10)


def test_ohno_series():
    cfg = EvalConfig(tol=1e-12)
    series = [_ohno_value(Index((2,)), m, cfg) for m in range(3)]
    assert series[0] == pytest.approx(eval_zeta(Index((2,)), cfg), abs=1e-12)
    assert series[1] == pytest.approx(eval_zeta(Index((3,)), cfg), abs=1e-12)
    assert series[2] == pytest.approx(eval_zeta(Index((4,)), cfg), abs=1e-12)


# ---------------------------------------------------------------------------
# dual gaps
# ---------------------------------------------------------------------------


def test_dual_gap_operands_frozen():
    plain, dualised = dual_gap_operands(2, Index((3,)), 1)
    assert T(plain) == "2*(2,2,3) + 2*(2,3,2) + 2*(3,2,2)"
    assert T(dualised) == "3*(1,2,2,2) + 3*(2,1,2,2) + 2*(2,2,1,2)"


def test_dual_gap_operands_structure():
    for s, entries, l in [(2, (3,), 0), (3, (4,), 1), (4, (2, 3), 2)]:
        k = Index(entries)
        plain, dualised = dual_gap_operands(s, k, l)
        target_weight = s + k.weight + 2 * l
        for comb in (plain, dualised):
            assert not comb.is_zero
            for idx, _ in comb.items():
                assert idx.weight == target_weight
                assert idx.admissible


def test_dual_gap_operands_rejects():
    with pytest.raises(ValueError):
        dual_gap_operands(1, Index((3,)), 0)
    with pytest.raises(ValueError):
        dual_gap_operands(2, Index((1,)), 0)
    with pytest.raises(ValueError):
        dual_gap_operands(2, Index((3,)), -1)


def test_dual_gap_is_difference_of_shifted_sums():
    """The shifted sum of the operands' difference is the difference of
    their shifted sums."""
    cfg = EvalConfig(tol=1e-12)
    s, k, l, m = 2, Index((3,)), 1, 1
    plain, dualised = dual_gap_operands(s, k, l)
    expected = _ohno_value(plain, m, cfg) - _ohno_value(dualised, m, cfg)
    assert _ohno_value(plain - dualised, m, cfg) == pytest.approx(expected, abs=1e-10)


def test_dual_gap_series():
    cfg = EvalConfig(tol=1e-12)
    plain, dualised = dual_gap_operands(2, Index((3,)), 0)
    for m in range(3):
        expected = _ohno_value(plain, m, cfg) - _ohno_value(dualised, m, cfg)
        assert _ohno_value(plain - dualised, m, cfg) == pytest.approx(expected, abs=1e-10)


def test_dual_gap_skew_antisymmetric_bitwise():
    for s, t, l, m in [(2, 3, 0, 0), (2, 3, 1, 1), (3, 4, 1, 0), (2, 4, 2, 2)]:
        assert _skew(s, t, l, m) == -_skew(t, s, l, m)


def test_dual_gap_skew_diagonal_is_exact_zero():
    assert _skew(3, 3, 1, 1).is_zero
    assert eval_combination(_skew(3, 3, 1, 1)) == 0.0


def test_dual_gap_skew_rejects():
    with pytest.raises(ValueError):
        _skew(1, 3, 0, 0)
    with pytest.raises(ValueError):
        _skew(3, 1, 0, 0)


def test_dual_gap_skew_symbolic_frozen():
    assert _skew(2, 2, 0, 0).is_zero
    assert T(_skew(2, 3, 0, 0)) == (
        "(2,4) - 2*(3,3) + (4,2) + (1,2,3) + (1,3,2) + (3,1,2)"
        " - 2*(1,1,2,2) - (1,2,1,2) - (2,1,1,2)"
    )


def test_dual_gap_skew_symbolic_evaluates_to_skew():
    """The reduced combination evaluates to the difference of the two dual
    gaps, each evaluated from its own operands."""
    cfg = EvalConfig(tol=1e-12)
    for s, t, l, m in [(2, 3, 0, 0), (3, 2, 1, 1), (2, 4, 1, 0)]:
        plain_st, dual_st = dual_gap_operands(s, Index((t + 1,)), l)
        plain_ts, dual_ts = dual_gap_operands(t, Index((s + 1,)), l)
        gaps = (_ohno_value(plain_st, m, cfg) - _ohno_value(dual_st, m, cfg)) - (
            _ohno_value(plain_ts, m, cfg) - _ohno_value(dual_ts, m, cfg)
        )
        symbolic = eval_combination(_skew(s, t, l, m), cfg)
        assert symbolic == pytest.approx(gaps, abs=1e-10)


# ---------------------------------------------------------------------------
# the shifted position-sum family
# ---------------------------------------------------------------------------


def test_hast_shifted_sum_frozen():
    assert T(hast_shifted_sum(Index((3,)), 2, 1)) == "2*(6)"
    assert T(hast_shifted_sum(Index((2, 2)), 3, 0)) == "(2,5) + (5,2)"


def test_hast_shifted_sum_brute_force():
    """Independent re-enumeration: raise entry i by k0 + m1 and distribute the
    remaining m - m1 over all entries, for every split and position."""
    for base, k0, m in [(Index((3,)), 2, 2), (Index((2, 2)), 2, 1), (Index((1, 2)), 3, 2)]:
        expected = IndexCombination()
        for m1 in range(m + 1):
            for shift in enumerate_shifts(base.depth, m - m1):
                shifted = Index(map(add, base, shift))
                for i in range(shifted.depth):
                    entries = list(shifted)
                    entries[i] += k0 + m1
                    expected = expected + IndexCombination({Index(tuple(entries)): 1})
        assert hast_shifted_sum(base, k0, m) == expected


def test_hast_shifted_sum_rejects():
    with pytest.raises(ValueError):
        hast_shifted_sum(Index((3,)), 0, 1)
    with pytest.raises(ValueError):
        hast_shifted_sum(Index((3,)), 2, -1)


# ---------------------------------------------------------------------------
# the three-part decomposition
# ---------------------------------------------------------------------------


def test_term_frozen_values():
    assert T(term_a(2, 1, 0)) == "-(2,5) - (3,4) - (4,3) - (5,2)"
    assert T(term_a(2, 1, 1)) == "-2*(2,6) - 3*(3,5) - 2*(4,4) - 3*(5,3) - 2*(6,2)"
    [(_, bc_rhs)] = _sides("abc_decomposition", 2, 1, 0)
    assert T(bc_rhs - dual_gap_skew_sides(2, 2, 1, 0)[1] - term_c(2, 1, 0)) == (
        "(1,2,4) + (1,4,2) + (2,1,4) + (2,3,2) + (3,2,2) + (4,1,2)"
    )
    assert T(term_c(2, 1, 0)) == "(2,2,3) + (2,3,2)"
    assert T(term_c(3, 0, 0)) == "(2,4) + (3,3)"
    assert T(_sides("abc_closed_forms", 2, 1, 0)[1][1]) == (
        "(1,2,4) + (1,4,2) + (2,1,4) + (2,2,3) + 2*(2,3,2) + (3,2,2) + (4,1,2)"
    )


def test_term_a_layers():
    # term_a(s, l, m) is minus the layered Ohno sums of
    # (s+a+3) # {2}^l + (s+a+2) # (3) # {2}^(l-1), layer a at order m - a
    layers = [
        sha(Index((2 + a + 3,)), repeat(2, 1)) + sha(sha(Index((2 + a + 2,)), Index((3,))), EMPTY)
        for a in (0, 1)
    ]
    assert [T(x) for x in layers] == [
        "(2,5) + (3,4) + (4,3) + (5,2)",
        "(2,6) + (3,5) + (5,3) + (6,2)",
    ]
    assert term_a(2, 1, 1) == -(
        ohno_sum_symbolic(layers[0], 1) + ohno_sum_symbolic(layers[1], 0)
    )


def test_term_bc_closed_is_b_plus_c():
    """The closed form in ``abc_closed_forms`` is the second plus the third
    part of ``abc_decomposition``: its right side less the negative skew side."""
    for s, l, m in product((2, 3, 4), (1, 2), (0, 1, 2)):
        [(_, rhs)] = _sides("abc_decomposition", s, l, m)
        assert _sides("abc_closed_forms", s, l, m)[1][1] == rhs - dual_gap_skew_sides(s, 2, l, m)[1]


def test_term_a_equals_negated_shifted_family():
    for s, l, m in product((2, 3, 4), (0, 1, 2), (0, 1, 2)):
        base = sha(Index((3,)), repeat(2, l))
        assert -term_a(s, l, m) == hast_shifted_sum(base, s, m)


def test_term_a_value_matches_symbolic():
    cfg = EvalConfig(tol=1e-12)
    base = sha(Index((3,)), repeat(2, 1))
    assert eval_combination(term_a(2, 1, 1), cfg) == pytest.approx(
        -eval_combination(hast_shifted_sum(base, 2, 1), cfg), abs=1e-10
    )


def test_term_validation():
    with pytest.raises(ValueError):
        term_a(1, 0, 0)
    with pytest.raises(ValueError):
        term_c(2, 0, -1)


# ---------------------------------------------------------------------------
# the grouped/composed family pairs and their closed forms
# ---------------------------------------------------------------------------


def test_family_frozen_values():
    assert T(grouped_single(2, 1, 1, 1, 1)) == "(5,3) + 2*(6,2)"
    assert T(grouped_single(2, 1, 0, 1, 1)) == "(5,2)"
    assert T(grouped_single(2, 1, 0, 2, 1)) == "(3,4)"
    assert T(grouped_single(2, 1, 0, 1, 2)) == "(4,3)"
    assert T(grouped_single(2, 1, 0, 2, 2)) == "(2,5)"
    assert T(composed_single(2, 1, 0, 1, 1)) == "(5,2)"
    assert T(grouped_split(2, 1, 0, 1, 2)) == "(4,1,2)"
    assert T(composed_split(2, 1, 0, 1, 2)) == "(4,1,2)"


def test_family_totals_match_closed_forms():
    report = verify("abc_closed_forms", s=(2, 3), l=(1, 2), m=(0, 1))
    assert report.passed
    assert len(report.evaluated) == 8 and not report.refusals


def test_expansion_frozen_values():
    *_, (_, raised), (_, split) = _sides("abc_closed_forms", 2, 1, 0)
    assert T(raised) == "(2,5) + (3,4) + (4,3) + (5,2)"
    assert T(split) == (
        "(1,2,4) + (1,4,2) + (2,1,4) + (2,2,3) + 2*(2,3,2) + (3,2,2) + (4,1,2)"
    )


def test_pq_validation():
    with pytest.raises(ValueError):
        grouped_single(2, 1, 0, 0, 1)  # p below range
    with pytest.raises(ValueError):
        grouped_single(2, 1, 0, 1, 3)  # q above l + 1
    with pytest.raises(ValueError):
        grouped_split(2, 0, 0, 1, 1)  # split family needs l >= 1


def test_split_diag_parts_frozen():
    parts = _sides("add2_diagonal", 2, 1, 0, 1)
    assert [(T(lhs), T(rhs)) for lhs, rhs in parts] == [
        ("(1,4,2)", "(1,4,2)"),
        ("(3,2,2)", "(3,2,2)"),
        ("(2,3,2)", "(2,3,2)"),
    ]


# ---------------------------------------------------------------------------
# expansion pairs after dualising
# ---------------------------------------------------------------------------


def test_dualized_expansions_frozen_degenerate():
    (lhs, rhs), _ = _sides("sha_expansion_oooo", 2, 2, 1)
    assert T(lhs) == T(rhs) == "6*(2,2,2)"


# ---------------------------------------------------------------------------
# the position-sum merge identity
# ---------------------------------------------------------------------------


def test_hast_merge_frozen():
    [(lhs, rhs)] = _sides("hast_symmetry", 2, 1, 0)
    assert T(lhs) == T(rhs) == "(3)"
    [(lhs, rhs)] = _sides("hast_symmetry", 3, 2, 1)
    assert T(lhs) == T(rhs) == "(2,5) + (3,4) + (4,3) + (5,2)"


def test_hast_merge_agrees():
    for s, t, l in product((2, 3, 4, 5), (1, 2, 3), (0, 1, 2)):
        [(lhs, rhs)] = _sides("hast_symmetry", s, t, l)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the raise-one-entry versus insert-refined-splits relation
# ---------------------------------------------------------------------------


def test_hoffman_sides_frozen():
    [(lhs, rhs)] = _sides("hoffman", Index((2,)))
    assert T(lhs) == "(3)" and T(rhs) == "(1,2)"
    [(lhs, rhs)] = _sides("hoffman", Index((1, 2)))
    assert T(lhs) == "(1,3) + (2,2)" and T(rhs) == "(1,1,2)"
    [(lhs, rhs)] = _sides("hoffman", Index((2, 3)))
    assert T(lhs) == "(2,4) + (3,3)"
    assert T(rhs) == "(1,2,3) + (2,1,3) + (2,2,2)"


def test_hoffman_defect_small():
    cfg = EvalConfig(tol=1e-12)
    for entries in [(2,), (3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)]:
        [(lhs, rhs)] = _sides("hoffman", Index(entries))
        assert abs(eval_combination(lhs, cfg) - eval_combination(rhs, cfg)) < 1e-10


# ---------------------------------------------------------------------------
# integer arguments: a bool is not an integer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, args",
    [
        pytest.param(term_a, (2, True, 1), id="term_a-l"),
        pytest.param(_swept("abc_decomposition"), (2, 1, True), id="term_b-m"),
        pytest.param(grouped_single, (2, 1, 0, True, 1), id="grouped_single-p"),
        pytest.param(composed_split, (2, 1, 0, 1, True), id="composed_split-q"),
        pytest.param(_swept("sha_expansion_oooo"), (2, 2, True), id="dualized_shuffle_expansion-l"),
        pytest.param(dual_gap_operands, (2, Index((3,)), True), id="dual_gap_operands-l"),
        pytest.param(hast_shifted_sum, (Index((2,)), True, 0), id="hast_shifted_sum-k0"),
        pytest.param(_swept("hast_symmetry"), (2, True, 0), id="hast_merge_sides-t"),
        pytest.param(_swept("hast_symmetry"), (2, 1, True), id="hast_merge_sides-l"),
        pytest.param(ohno_sum_symbolic, (Index((2,)), True), id="ohno_sum_symbolic-m"),
        pytest.param(hast, (True, Index((2,))), id="hast-k"),
        pytest.param(repeat, (2, True), id="repeat-l"),
        pytest.param(repeat, (True, 2), id="repeat-a"),
        pytest.param(enumerate_shifts, (True, 1), id="enumerate_shifts-r"),
        pytest.param(enumerate_shifts, (1, True), id="enumerate_shifts-m"),
        pytest.param(Index, ((True, 2),), id="Index-entry"),
        pytest.param(eval_zeta_direct, (Index((2,)), True), id="eval_zeta_direct-terms"),
        pytest.param(lambda w: list(iter_admissible(w)), (True,), id="iter_admissible-max_weight"),
    ],
)
def test_integer_arguments_reject_bool(build, args):
    """``True == 1``, but every integer argument of the algebra and of the
    families refuses it, through one check, and so does a catalogue grid."""
    with pytest.raises(ValueError):
        build(*args)

