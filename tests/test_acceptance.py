"""Acceptance suite: ten end-to-end criteria with stated tolerances and budgets.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (visible with ``-s``)
and asserts both the mathematical check and its runtime budget.  A shared
evaluation cache is reused across the heavy sweeps, matching intended usage.
"""

import math
import random
import time

from ohno.expr import expand_text
from ohno.indices import (
    Index,
    IndexCombination,
    combination_to_text,
    enumerate_shifts,
    iter_admissible,
    repeat,
    sha,
)
from ohno.verify import verify
from ohno.zeta import EvalConfig, ZetaCache, eval_zeta, eval_zeta_direct

CACHE = ZetaCache()
CFG = EvalConfig(tol=1e-12, cache=CACHE)


def _finish(label: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_budget = elapsed < budget
    tag = "PASS" if (ok and in_budget) else "FAIL"
    print(
        f"[{tag}] {label}: {detail} ({elapsed:.1f}s of {budget:.0f}s budget)",
        flush=True,
    )
    assert ok, f"{label}: {detail}"
    assert in_budget, f"{label}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_01_known_constants():
    """Repeated-two blocks against their classical closed forms."""
    start = time.perf_counter()
    worst = 0.0
    for l in range(1, 5):
        expected = math.pi ** (2 * l) / math.factorial(2 * l + 1)
        got = eval_zeta(repeat(2, l), CFG)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 1 known constants",
        worst <= 1e-10,
        f"max deviation {worst:.2e} (tolerance 1e-10)",
        elapsed,
        5.0,
    )


def test_02_oracle_equivalence():
    """Convolution evaluator vs direct truncated summation, weight <= 6."""
    start = time.perf_counter()
    worst_excess = -math.inf
    count = 0
    for k in iter_admissible(6):
        value, bound = eval_zeta_direct(k, 10_000)
        excess = abs(eval_zeta(k, CFG) - value) - bound
        worst_excess = max(worst_excess, excess)
        count += 1
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 2 oracle equivalence",
        count == 31 and worst_excess <= 1e-12,
        f"{count} indices, worst excess over tail bound {worst_excess:.2e}",
        elapsed,
        60.0,
    )


def test_03_shifted_sum_duality():
    """Order-m shifted sums agree between each index and its dual."""
    start = time.perf_counter()
    report = verify("ohno", cfg=CFG, weight=6, m=(0, 1, 2, 3))
    elapsed = time.perf_counter() - start
    ok = report.passed and not report.refusals and report.max_residual <= 1e-9
    _finish(
        "criterion 3 shifted-sum duality",
        ok,
        f"{len(report.points)} points, max residual {report.max_residual:.2e} (cap 1e-9)",
        elapsed,
        300.0,
    )


def test_04_entry_raise_relation():
    """Raising one entry equals inserting refined splits, weight <= 6."""
    start = time.perf_counter()
    report = verify("hoffman", cfg=CFG, weight=6)
    elapsed = time.perf_counter() - start
    ok = report.passed and not report.refusals and report.max_residual <= 1e-9
    _finish(
        "criterion 4 entry-raise relation",
        ok,
        f"{len(report.points)} points, max residual {report.max_residual:.2e} (cap 1e-9)",
        elapsed,
        120.0,
    )


def test_05_skew_gap_block_zero():
    """The skew dual gap vanishes with no repeated-two padding."""
    start = time.perf_counter()
    report = verify("hmos", cfg=CFG, s=(2, 3, 4, 5), t=(2, 3, 4, 5), m=(0, 1, 2, 3))
    elapsed = time.perf_counter() - start
    ok = report.passed and not report.refusals and report.max_residual <= 1e-8
    _finish(
        "criterion 5 skew gap, no padding",
        ok,
        f"{len(report.points)} points, max residual {report.max_residual:.2e} (cap 1e-8)",
        elapsed,
        300.0,
    )


def test_06_skew_gap_general():
    """The skew dual gap vanishes with repeated-two padding up to length 2."""
    start = time.perf_counter()
    report = verify(
        "main", cfg=CFG, s=(2, 3, 4), t=(2, 3, 4), l=(0, 1, 2), m=(0, 1, 2)
    )
    elapsed = time.perf_counter() - start
    ok = report.passed and not report.refusals and report.max_residual <= 1e-8
    _finish(
        "criterion 6 skew gap, general padding",
        ok,
        f"{len(report.points)} points, max residual {report.max_residual:.2e} (cap 1e-8)",
        elapsed,
        900.0,
    )


def test_07_telescoping_lemmas():
    """The five supporting recurrences on a shared hypothesis-respecting grid."""
    start = time.perf_counter()
    grid = dict(s=(3, 4), t=(3, 4), l=(0, 1), m=(1, 2))
    names = ("lemma_fmpre1", "lemma_fmpre2", "lemma_fm", "lemma_oooo", "lemma_dddd")
    worst = 0.0
    points = 0
    ok = True
    for name in names:
        report = verify(name, cfg=CFG, **grid)
        ok = ok and report.passed and not report.refusals
        worst = max(worst, report.max_residual)
        points += len(report.points)
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 7 telescoping lemmas",
        ok and worst <= 1e-8,
        f"{len(names)} identities, {points} points, max residual {worst:.2e} (cap 1e-8)",
        elapsed,
        300.0,
    )


def test_08_exact_rearrangements():
    """Zero-tolerance rational identities: grouped/composed families, the split
    sub-identities, both dualised expansion formulas, and position-sum merging."""
    start = time.perf_counter()
    ok = True
    points = 0
    for name in ("add1", "add2", "add2_diagonal"):
        report = verify(name, s=(2, 3, 4), l=(1, 2, 3), m=(0, 1, 2, 3))
        ok = ok and report.passed and not report.refusals
        points += len(report.points)
    report = verify("sha_expansion_oooo", s=(2, 3, 4), t=(2, 3, 4), l=(1, 2, 3))
    ok = ok and report.passed and not report.refusals
    points += len(report.points)
    report = verify("hast_symmetry", s=(2, 3, 4), t=(1, 2, 3), l=(1, 2, 3))
    ok = ok and report.passed and not report.refusals
    points += len(report.points)
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 8 exact rearrangements",
        ok,
        f"{points} symbolic points, all coefficientwise equal",
        elapsed,
        60.0,
    )


def test_09_three_part_decomposition():
    """Numeric three-part split of the skew gap, plus its exact identifications."""
    start = time.perf_counter()
    report = verify("abc_decomposition", cfg=CFG, s=(3, 4), l=(1, 2), m=(0, 1))
    ok = report.passed and not report.refusals and report.max_residual <= 1e-8
    closed = verify("abc_closed_forms", s=(3, 4), l=(1, 2), m=(0, 1))
    exact = closed.passed and not closed.refusals
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 9 three-part decomposition",
        ok and exact,
        f"{len(report.points)} numeric points (max residual {report.max_residual:.2e}),"
        f" exact identifications {'hold' if exact else 'FAIL'}",
        elapsed,
        120.0,
    )


def test_10_algebra_properties():
    """Structural laws: involution, weight/depth reflection, product laws,
    counting formulas, and serialization round-trips."""
    start = time.perf_counter()
    ok = True

    # exhaustive duality laws at weight <= 9
    for k in iter_admissible(9):
        kd = k.dual()
        ok = ok and kd.dual() == k and kd.weight == k.weight
        ok = ok and kd.depth == k.weight - k.depth

    # exhaustive shift-enumeration counts
    for r in range(1, 5):
        for m in range(9):
            ok = ok and len(enumerate_shifts(r, m)) == math.comb(m + r - 1, r - 1)

    rng = random.Random(20240817)

    def random_index(max_depth=3, max_entry=4):
        return Index(
            tuple(rng.randint(1, max_entry) for _ in range(rng.randint(0, max_depth)))
        )

    # randomized product laws and term counts (>= 10^3 cases)
    for _ in range(1000):
        a, b, c = random_index(), random_index(), random_index()
        ab = sha(a, b)
        ok = ok and ab == sha(b, a)
        ok = ok and sum(c for _, c in ab) == math.comb(a.depth + b.depth, a.depth)
        ok = ok and sha(ab, c) == sha(a, sha(b, c))

    # randomized serialization round-trips (>= 10^3 cases)
    for _ in range(1000):
        comb = IndexCombination(
            (random_index(), rng.randint(-6, 6)) for _ in range(rng.randint(0, 4))
        )
        ok = ok and expand_text(combination_to_text(comb)) == comb

    elapsed = time.perf_counter() - start
    _finish(
        "criterion 10 algebra properties",
        ok,
        "duality, products, counts, and round-trips all hold",
        elapsed,
        30.0,
    )
