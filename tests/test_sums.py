"""Tests for shifted sums, dual gaps, and the closed-form families they equal."""

import ast
import importlib
import math
import pathlib
from itertools import product
from operator import add

import pytest

import ohno
import ohno.sums

from ohno.indices import (
    EMPTY,
    Index,
    IndexCombination,
    combination_to_text,
    enumerate_shifts,
    hast,
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
    raised_entry_expansion,
    split_diag_parts,
    split_entry_expansion,
    term_a,
    term_b,
    term_bc_closed,
    term_c,
)
from ohno.expr import expand_text
from ohno.verify import verify
from ohno.zeta import EvalConfig, eval_combination, eval_zeta

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


def test_every_public_builder_has_a_non_test_user():
    """Each name ``ohno.sums`` exports is imported by another ``ohno`` module
    or re-exported by the package: a builder that only tests use belongs in
    the catalogue or nowhere."""
    package = pathlib.Path(ohno.__file__).parent
    used = set(ohno.__all__)
    for path in package.glob("*.py"):
        if path.name == "sums.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "ohno.sums":
                used.update(alias.name for alias in node.names)
    assert sorted(set(ohno.sums.__all__) - used) == []


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
    assert ohno_sum_symbolic(Index((2, 3)), 0) == IndexCombination.from_index(Index((2, 3)))
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
        expected = IndexCombination.zero()
        for m1 in range(m + 1):
            for shift in enumerate_shifts(base.depth, m - m1):
                shifted = Index(map(add, base, shift))
                for i in range(shifted.depth):
                    entries = list(shifted)
                    entries[i] += k0 + m1
                    expected = expected + IndexCombination.from_index(Index(tuple(entries)))
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
    assert T(term_b(2, 1, 0)) == (
        "(1,2,4) + (1,4,2) + (2,1,4) + (2,3,2) + (3,2,2) + (4,1,2)"
    )
    assert T(term_c(2, 1, 0)) == "(2,2,3) + (2,3,2)"
    assert T(term_c(3, 0, 0)) == "(2,4) + (3,3)"
    assert T(term_bc_closed(2, 1, 0)) == (
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
    for s, l, m in product((2, 3, 4), (0, 1, 2), (0, 1, 2)):
        assert term_bc_closed(s, l, m) == term_b(s, l, m) + term_c(s, l, m)


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
        term_b(2, -1, 0)
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
    assert T(raised_entry_expansion(2, 1, 0)) == "(2,5) + (3,4) + (4,3) + (5,2)"
    assert T(split_entry_expansion(2, 1, 0)) == (
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
    parts = split_diag_parts(2, 1, 0, 1)
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
        pytest.param(term_b, (2, 1, True), id="term_b-m"),
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
        pytest.param(lambda t: EvalConfig(max_terms=t), (True,), id="EvalConfig-max_terms"),
    ],
)
def test_integer_arguments_reject_bool(build, args):
    """``True == 1``, but every integer argument of the algebra and of the
    families refuses it, through one check, and so does a catalogue grid."""
    with pytest.raises(ValueError):
        build(*args)
