"""Tests for the identity catalogue, its grid driver, and report output."""

import csv
import dataclasses
import importlib
import json
import math
import pathlib
import threading
from contextvars import copy_context

import pytest

import ohno.sums
from ohno.indices import Index, IndexCombination, as_combination, dual_linear, hast, iter_admissible, repeat, sha
from ohno.sums import dual_gap_skew_sides, ohno_sum_symbolic
from ohno.verify import (
    RESIDUAL_MARGIN,
    list_identities,
    report_dict,
    report_to_file,
    verify,
)
from ohno import zeta
from ohno.zeta import EvalConfig, PrecisionError, ZetaCache, clear_factor_cache, eval_combination

# The package re-exports the function ``verify`` under the module's name.
catalogue = importlib.import_module("ohno.verify")

MANIFEST = pathlib.Path(__file__).with_name("identity_manifest.json")


# ---------------------------------------------------------------------------
# the catalogue itself
# ---------------------------------------------------------------------------


def test_registry_matches_checked_in_manifest():
    """Catalogue coverage is pinned: names, order, kinds, parameters,
    statements and lower bounds, so a moved statement, a changed
    ``ohno list`` line or a dropped hypothesis fails here."""
    manifest = json.loads(MANIFEST.read_text())
    specs = list_identities()
    assert [s.name for s in specs] == [row["name"] for row in manifest]
    for spec, row in zip(specs, manifest):
        assert spec.kind == row["kind"]
        assert list(spec.params) == row["params"]
        assert spec.statement == row["statement"]
        assert dict(spec.at_least) == row["at_least"]


def test_registry_statements_and_kinds():
    for spec in list_identities():
        assert spec.kind in ("numeric", "exact-symbolic")
        assert spec.statement.strip()
    kinds = [s.kind for s in list_identities()]
    assert kinds.count("numeric") == 12
    assert kinds.count("exact-symbolic") == 6


# ---------------------------------------------------------------------------
# basic verification runs
# ---------------------------------------------------------------------------


def test_duality_passes_to_weight_five():
    report = verify("duality", weight=5)
    assert report.passed
    assert report.identity == "duality"
    assert report.kind == "numeric"
    assert report.grid == {"weight": 5}
    assert len(report.points) == len(list(iter_admissible(5))) == 15
    assert report.max_residual < report.tol
    for point in report.points:
        assert not point.refused
        assert point.passed
        assert point.evals >= 1
        assert point.elapsed_ms >= 0.0


def test_duality_explicit_index_and_threshold():
    cfg = EvalConfig(tol=1e-12)
    report = verify("duality", cfg=cfg, k="(2,3)")
    assert report.grid == {"k": ["(2,3)"]}
    (point,) = report.points
    assert point.params == {"k": "(2,3)"}
    assert point.evals == 2  # the index and its distinct dual
    assert point.threshold == cfg.tol * 2 * RESIDUAL_MARGIN
    assert point.residual <= point.threshold


def test_self_dual_point_counts_one_evaluation():
    report = verify("duality", k=Index((2, 2)))
    (point,) = report.points
    assert point.evals == 1
    assert point.residual == 0.0


def test_ohno_runner():
    report = verify("ohno", weight=4, m=(0, 1))
    assert report.passed
    assert len(report.points) == 7 * 2


def test_stuffle_runner():
    report = verify("stuffle_single", n=2, weight=4)
    assert report.passed


def test_exact_identity_run():
    report = verify("add1", s=2, l=(1, 2), m=(0, 1))
    assert report.kind == "exact-symbolic"
    assert report.passed
    assert report.max_residual is None
    # p and q expand dynamically to 1..l+1: l=1 gives 4 pairs, l=2 gives 9
    assert len(report.points) == 2 * (4 + 9)
    for point in report.points:
        assert point.equal is True
        assert point.residual is None
    assert "all equal" in report.summary()


def test_main_diagonal_residual_is_exact_zero():
    report = verify("main", s=3, t=3, l=1, m=1)
    assert report.passed
    assert report.max_residual == 0.0


def test_summary_format():
    report = verify("duality", weight=4)
    text = report.summary()
    assert text.startswith("duality: PASS")
    assert "0 refused" in text


# ---------------------------------------------------------------------------
# grid handling and refusals
# ---------------------------------------------------------------------------


def test_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify("nope")


def test_unknown_grid_key():
    with pytest.raises(ValueError, match="unknown grid parameter"):
        verify("duality", bogus=3)


def test_index_list_and_weight_bound_exclude_each_other():
    """``weight`` bounds only the default index family, so with ``k`` it
    would be dropped; the pair is refused instead, naming both."""
    for name in ("duality", "ohno", "hoffman"):
        with pytest.raises(ValueError, match=rf"^grid parameters k and weight exclude each other for {name}; "):
            verify(name, k=["(2,3)"], weight=9)


def test_grid_index_must_be_index_or_text():
    for bad in (5, [5], [(2, 3)]):
        with pytest.raises(ValueError, match="expected an index or index text"):
            verify("duality", k=bad)
    report = verify("duality", k=["(2,3)", "1,2", Index((3,))])
    assert report.grid == {"k": ["(2,3)", "(1,2)", "(3)"]}


@pytest.mark.parametrize("text", ["1_0,2", " +2, 3", "(2,+3)"])
def test_grid_index_text_is_spelt_as_in_expressions(text):
    """Index text in a grid takes the entries an expression takes: ``int``
    alone would read ``1_0`` as 10 and ``+2`` as 2."""
    with pytest.raises(ValueError, match="^malformed index text "):
        verify("duality", k=[text])


def test_grid_value_must_be_an_int():
    """A single grid value that is not exactly an ``int`` is refused like a
    list entry: ``True`` is not ``1``."""
    for bad in (True, 2.5, None):
        with pytest.raises(ValueError, match="grid values must be integers"):
            verify("hmos", s=bad, t=2, m=0)


@pytest.mark.parametrize("axis", ["s", "p", "q"])
def test_empty_grid_is_refused(axis):
    """An explicit empty list is refused, not read as the default ``1..l+1`` window."""
    with pytest.raises(ValueError, match="^the grid for add1 is empty$"):
        verify("add1", **{axis: []})


def test_window_follows_l():
    """Points run in parameter order with the last varying fastest, and
    ``p, q`` range over ``1..l+1`` of the point they extend."""
    report = verify("add1", s=2, l=(1, 2), m=0)
    assert report.grid == {"s": [2], "l": [1, 2], "m": [0], "p": "1..l+1", "q": "1..l+1"}
    assert [list(point.params) for point in report.points] == [["s", "l", "m", "p", "q"]] * 13
    got = [(point.params["l"], point.params["p"], point.params["q"]) for point in report.points]
    assert got == [(l, p, q) for l in (1, 2) for p in range(1, l + 2) for q in range(1, l + 2)]


def test_hypothesis_violations_are_refused():
    report = verify("lemma_fm", s=(2, 3), t=1, l=0, m=1)
    assert report.passed
    refused = report.refusals
    assert len(refused) == 1
    assert refused[0].params["s"] == 2
    assert "at least 3" in refused[0].reason
    assert refused[0].passed is None
    assert len(report.evaluated) == 1


def test_non_admissible_k_is_refused():
    report = verify("duality", k=["2,1", "2,3"])
    assert report.passed
    assert [(str(r.params["k"]), r.reason) for r in report.refusals] == [
        ("(2,1)", "k must be admissible (nonempty, last entry >= 2), got (2,1)")
    ]
    assert [str(p.params["k"]) for p in report.evaluated] == ["(2,3)"]
    report = verify("hoffman", k=["2,1", "()", "2,3"])
    assert report.passed
    assert [r.reason for r in report.refusals] == [
        "k must be admissible (nonempty, last entry >= 2), got (2,1)",
        "k must be admissible (nonempty, last entry >= 2), got ()",
    ]


@pytest.mark.parametrize(
    "name, param, bound",
    [(spec.name, x, b) for spec in list_identities() for x, b in spec.at_least.items()],
)
def test_every_lower_bound_refuses_the_value_below_it(name, param, bound):
    """The decorator's bounds are the only check of an entry's integer
    parameters: one below a bound is refused before any side is built."""
    with pytest.raises(ValueError) as caught:
        verify(name, **{param: bound - 1})
    assert str(caught.value) == (
        f"every grid point violates the hypotheses of {name}: {param} must be at least {bound}, got {bound - 1}"
    )


def test_weight_bound_must_be_an_int_of_at_least_two():
    for bad in (1, True, 2.5):
        with pytest.raises(ValueError, match="^weight must be an integer >= 2, got "):
            verify("duality", weight=bad)


def test_all_points_refused_is_an_error():
    with pytest.raises(ValueError, match="violates the hypotheses"):
        verify("lemma_fm", s=2, t=1, l=0, m=1)


def test_pq_window_refusal():
    report = verify("add1", s=2, l=1, m=0, p=(1, 3), q=1)
    assert len(report.refusals) == 1
    assert "at most l+1" in report.refusals[0].reason
    assert report.passed


def test_p_only_window_refusal():
    """An identity with a position ``p`` but no ``q`` refuses p above l+1."""
    report = verify("add2_diagonal", l=1, p=(1, 2, 3))
    assert report.passed
    assert {r.params["p"] for r in report.refusals} == {3}
    assert {r.reason for r in report.refusals} == {"p must be at most l+1 = 2, got 3"}
    assert {p.params["p"] for p in report.evaluated} == {1, 2}


def test_refused_points_do_not_affect_verdict():
    # m = 0 violates the lemma's hypothesis, m = 1 passes
    report = verify("lemma_dddd", s=3, t=3, l=0, m=(0, 1))
    assert report.passed
    assert len(report.refusals) == 1
    assert len(report.evaluated) == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeat_runs_are_bitwise_identical():
    first = verify("main", s=2, t=3, l=1, m=1)
    second = verify("main", s=2, t=3, l=1, m=1)
    assert first.max_residual == second.max_residual


# ---------------------------------------------------------------------------
# a PASS can fail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [spec.name for spec in list_identities()])
def test_broken_identity_fails_at_every_point(name, monkeypatch):
    """Adding the term (2) to one side must fail every evaluated default
    point, so no verdict holds whatever the sides are."""
    spec = catalogue._CATALOGUE[name]

    def broken(**params):
        (lhs, rhs), *rest = spec.sides(**params)
        return [(lhs, rhs + IndexCombination({Index((2,)): 1}))] + rest

    monkeypatch.setitem(catalogue._CATALOGUE, name, dataclasses.replace(spec, sides=broken))
    report = verify(name)
    assert not report.passed
    assert report.evaluated
    for point in report.evaluated:
        assert point.passed is False
        if spec.kind == "exact-symbolic":
            assert point.equal is False


@pytest.mark.parametrize(
    "name, failing, evaluated",
    [("main", 54, 81), ("hmos", 48, 64), ("ohno", 24, 45), ("duality", 0, 31), ("lemma_fmpre2", 0, 24)],
)
def test_factor_noise_at_every_precision_fails_points(name, failing, evaluated, monkeypatch):
    """A default sweep fills factors at the precision of each weight class
    it reads.  Adding ``2^(P-20)``, a relative 2^-20, to every factor at
    every precision the memo holds fails the points whose sides the noise
    moves apart.  The sides of a ``duality``
    or ``lemma_fmpre2`` pair read the same factor products, so their
    residuals stay 0 and neither fails."""
    filled = set()
    original = zeta._fill_factors
    monkeypatch.setattr(zeta, "_fill_factors", lambda words, fbits: filled.add(fbits) or original(words, fbits))
    clear_factor_cache()
    assert verify(name).passed
    memo = zeta._FACTOR_CACHE
    assert set(memo) == filled
    sizes = {fbits: len(factors) for fbits, factors in memo.items()}
    try:
        for fbits, factors in memo.items():
            for word in factors:
                factors[word] += 1 << (fbits - 20)
        zeta._VALUES.clear()
        report = verify(name)
        # the second sweep read the noisy factors, filled none
        assert {fbits: len(factors) for fbits, factors in memo.items()} == sizes
    finally:
        clear_factor_cache()  # no later test reads a noisy factor
    assert (sum(p.passed is False for p in report.evaluated), len(report.evaluated)) == (failing, evaluated)


@pytest.mark.parametrize("spec", list_identities(), ids=lambda spec: spec.name)
def test_catalogue_sides_have_int_coefficients(spec):
    """Every side the catalogue builds is integral, so its coefficients are
    stored as ``int``: only rational input brings in a ``Fraction``."""
    params = catalogue._grid(spec, {})[1][0]
    assert catalogue._refusal(spec, params) is None
    for pair in spec.sides(**params):
        for side in pair:
            for comb in side if isinstance(side, tuple) else (side,):
                assert comb.items()
                assert all(type(c) is int for _, c in comb.items())
                # a slice or sum of an Index is a plain tuple, and the
                # trusted constructors do not check their keys
                assert all(type(k) is Index for k, _ in comb.items())


# ---------------------------------------------------------------------------
# error-budget chaining
# ---------------------------------------------------------------------------


def test_chained_residual_bounded_by_parts():
    """The three-point recurrence residual never exceeds the summed sizes of
    the skew gaps it is assembled from, up to rounding.  ``lhs - rhs`` is a
    signed sum of the three gaps, term by term, and every combination reads
    the one value of each index, so the two sums differ only by half an ulp
    of each ``c * value`` product and of each sum."""
    cfg = EvalConfig()

    def slack(comb):
        value = eval_combination(comb, cfg)  # fills what the reads below take
        return math.fsum(abs(c) * zeta._VALUES[k] for k, c in comb.items()) * 2.0**-53 + abs(value) * 2.0**-53

    for s, t, l, m in [(3, 3, 0, 1), (3, 4, 1, 1), (4, 3, 0, 2), (4, 4, 1, 2)]:
        report = verify("lemma_dddd", cfg=cfg, s=s, t=t, l=l, m=m)
        (point,) = report.points
        skews = [dual_gap_skew_sides(s, t, l, m - 1), dual_gap_skew_sides(s - 1, t, l, m)]
        skews.append(dual_gap_skew_sides(s, t - 1, l, m))
        gaps = [pos - neg for pos, neg in skews]
        parts = sum(abs(eval_combination(gap, cfg)) for gap in gaps)
        ((lhs, rhs),) = catalogue._CATALOGUE["lemma_dddd"].sides(s=s, t=t, l=l, m=m)
        # 2^-50 covers the roundings of the residual, of parts and of the slack's own sums
        assert point.residual <= (parts + math.fsum(map(slack, (lhs, rhs, *gaps)))) * (1 + 2.0**-50)


# ---------------------------------------------------------------------------
# report serialisation
# ---------------------------------------------------------------------------


def test_report_dict_shape():
    report = verify("duality", weight=4)
    data = report_dict(report)
    assert data["identity"] == "duality"
    assert data["kind"] == "numeric"
    assert data["pass"] is True
    assert data["tol"] == report.tol
    assert data["elapsed_ms"] == round(report.elapsed_ms, 3)
    assert data["elapsed_ms"] >= sum(round(p["elapsed_ms"], 3) for p in data["points"]) - 0.01
    assert len(data["points"]) == 7
    for point in data["points"]:
        assert set(point) == {"params", "residual", "threshold", "evals", "elapsed_ms", "pass"}


def test_report_json_round_trip(tmp_path):
    report = verify("lemma_fm", s=(2, 3), t=1, l=0, m=1)
    path = tmp_path / "report.json"
    report_to_file(report, str(path))
    data = json.loads(path.read_text())
    assert data["pass"] is True
    refused = [p for p in data["points"] if p.get("refused")]
    assert len(refused) == 1
    assert refused[0]["reason"]
    evaluated = [p for p in data["points"] if not p.get("refused")]
    assert evaluated[0]["residual"] <= evaluated[0]["threshold"]


def test_report_csv(tmp_path):
    report = verify("lemma_fm", s=(2, 3), t=1, l=0, m=1)
    path = tmp_path / "report.csv"
    report_to_file(report, str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["identity", "params", "residual", "tol", "pass", "evals", "elapsed_ms"]
    assert len(rows) == 2  # refused points are json-only
    assert rows[1][0] == "lemma_fm"
    assert rows[1][1] == "s=3;t=1;l=0;m=1"
    assert float(rows[1][2]) <= float(rows[1][3])


def test_report_csv_exact_rows(tmp_path):
    report = verify("hast_symmetry", s=2, t=1, l=(0, 1))
    path = tmp_path / "exact.csv"
    report_to_file(report, str(path))
    rows = list(csv.reader(path.open()))
    assert [r[2] for r in rows[1:]] == ["equal", "equal"]
    assert [r[3] for r in rows[1:]] == ["", ""]


@pytest.mark.parametrize(
    "name, shape",
    [("r.csv", "csv"), ("r.CSV", "csv"), ("r.json", "json"), ("r.xml", "json"), ("report", "json")],
)
def test_report_shape_follows_the_path_suffix(tmp_path, name, shape):
    """A path that ends in ``.csv``, in any letter case, gets the CSV rows of
    the evaluated points; any other path gets the JSON of every point."""
    report = verify("lemma_fm", s=(2, 3), t=1, l=0, m=1)
    path = tmp_path / name
    report_to_file(report, str(path))
    text = path.read_text()
    if shape == "csv":
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["identity", "params", "residual", "tol", "pass", "evals", "elapsed_ms"]
        assert [row[:2] for row in rows[1:]] == [["lemma_fm", "s=3;t=1;l=0;m=1"]]
    else:
        assert text == json.dumps(report_dict(report), indent=2) + "\n"
        assert len(json.loads(text)["points"]) == 2  # the refused point too


# ---------------------------------------------------------------------------
# shared caches across sweeps
# ---------------------------------------------------------------------------


def test_verify_with_shared_cache():
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-10, cache=cache)
    first = verify("hmos", cfg=cfg, s=(2, 3), t=(2, 3), m=(0, 1))
    assert first.passed
    assert len(cache) > 0
    again = verify("hmos", cfg=cfg, s=(2, 3), t=(2, 3), m=(0, 1))
    assert again.passed
    assert cache.stats.hits > 0


# ---------------------------------------------------------------------------
# the sweep planner: plan every point, fill once per precision, read
# ---------------------------------------------------------------------------


def _point_by_point(name, cfg, **grid):
    """The residuals of ``verify(name, cfg=cfg, **grid)`` from evaluating each
    combination of each point alone, in point order, with
    :func:`eval_combination`: the reference the planner must reproduce."""
    spec = catalogue._CATALOGUE[name]
    residuals = []
    for params in catalogue._grid(spec, grid)[1]:
        if catalogue._refusal(spec, params) is None:
            values = [
                [math.prod(eval_combination(c, cfg) for c in catalogue._factors(side)) for side in pair]
                for pair in spec.sides(**params)
            ]
            residuals.append(max(abs(lhs - rhs) for lhs, rhs in values))
    return residuals


def _outcome(run):
    """What ``run`` returns or raises, and the factor memo it leaves from cold."""
    clear_factor_cache()
    try:
        result = ("returned", run())
    except (ValueError, PrecisionError) as exc:
        result = ("raised", type(exc), str(exc))
    return result, {p: dict(f) for p, f in zeta._FACTOR_CACHE.items()}


def _distinct_sides(name, shared=True, **grid):
    """The distinct side objects of the points of ``grid`` that are not
    refused, built through one sweep memo as ``verify`` builds them, or with
    none (each point builds its own sides)."""
    spec, sides = catalogue._CATALOGUE[name], {}

    def build():
        if shared:
            ohno.sums._MEMO.set({})
        for params in catalogue._grid(spec, grid)[1]:
            if catalogue._refusal(spec, params) is None:
                pairs = spec.sides(**params)
                sides.update((id(c), c) for pair in pairs for side in pair for c in catalogue._factors(side))

    copy_context().run(build)
    return list(sides.values())


def test_cold_sweep_fills_once_per_precision(monkeypatch):
    """A grid of ``main`` whose sides span two weight classes fills once per
    precision of their terms."""
    grid = {"s": (2, 8), "t": (3, 8), "l": 0, "m": 0}
    precisions = {zeta._default_precision(sum(k)) for comb in _distinct_sides("main", **grid) for k, _ in comb.items()}
    fills = []
    original = zeta._fill_factors
    monkeypatch.setattr(zeta, "_fill_factors", lambda words, fbits: fills.append(fbits) or original(words, fbits))
    clear_factor_cache()
    verify("main", **grid)
    assert sorted(fills) == sorted(precisions)
    assert len(precisions) > 1


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_planned_sweep_matches_point_by_point_evaluation(tol, cached):
    """Residuals, memoised factors and the cache's entries and misses are
    those of evaluating every side alone, bit for bit.  The sweep reads each
    distinct side once, so its hits are the term reads of those sides less
    its misses."""
    caches = [ZetaCache() if cached else None for _ in range(2)]
    grid = {"s": (2, 4), "t": (3, 2), "l": (0, 2), "m": (1, 0, 2)}
    planned = _outcome(lambda: [p.residual for p in verify("main", cfg=EvalConfig(tol=tol, cache=caches[0]), **grid).points])
    alone = _outcome(lambda: _point_by_point("main", EvalConfig(tol=tol, cache=caches[1]), **grid))
    assert planned == alone
    if cached:
        misses = caches[0].stats.misses
        assert misses == caches[1].stats.misses == len(caches[0])
        assert caches[0].stats.hits == sum(map(len, _distinct_sides("main", **grid))) - misses
        assert caches[0]._entries == caches[1]._entries


def test_planning_error_of_the_first_point(monkeypatch):
    monkeypatch.setattr(zeta, "MAX_DEPTH", 2)
    first_side = catalogue._CATALOGUE["main"].sides(s=2, t=2, l=0, m=0)[0][0]
    with pytest.raises(PrecisionError) as expected:
        eval_combination(first_side)
    with pytest.raises(PrecisionError) as got:
        verify("main")
    assert str(got.value) == str(expected.value)


def test_planning_error_at_a_later_point_leaves_what_point_by_point_leaves(monkeypatch):
    """The third point is deeper than the depth limit allows; the two before
    it are still read, so the cache ends as a point-by-point run leaves it."""
    grid = {"k": ["(2)", "(2,3)", "(2,2,9)", "(1,2)"]}
    caches = [ZetaCache(), ZetaCache()]
    monkeypatch.setattr(zeta, "MAX_DEPTH", 9)  # short of the depth-10 dual of (2,2,9)
    planned = _outcome(lambda: verify("duality", cfg=EvalConfig(cache=caches[0]), **grid))
    alone = _outcome(lambda: _point_by_point("duality", EvalConfig(cache=caches[1]), **grid))
    assert planned == alone
    assert planned[0][:2] == ("raised", PrecisionError)
    assert "index (2,2,9)" in planned[0][2]
    assert caches[0].stats == caches[1].stats
    assert caches[0]._entries == caches[1]._entries and len(caches[0]) == 3


def test_read_error_of_an_earlier_point_comes_first(monkeypatch):
    """A value beyond the double range at the first point is raised, not the
    planning error of the second point."""
    spec = catalogue._CATALOGUE["duality"]
    huge = IndexCombination({Index((2,)): 15 * 10**307})

    def sides(k):
        return [(huge, huge)] if k == Index((2,)) else spec.sides(k=k)

    monkeypatch.setitem(catalogue._CATALOGUE, "duality", dataclasses.replace(spec, sides=sides))
    # enough for the first point (depth 1), not for the depth-13 dual of (2,2,12)
    monkeypatch.setattr(zeta, "MAX_DEPTH", 12)
    with pytest.raises(ValueError, match="value of the combination is beyond the double range"):
        verify("duality", k=["(2)", "(2,2,12)"])
    with pytest.raises(PrecisionError, match=r"index \(2,2,12\)"):
        verify("duality", k=["(2,2,12)", "(2)"])


# ---------------------------------------------------------------------------
# the sweep memo
# ---------------------------------------------------------------------------


def test_sweep_memo_lives_only_for_one_verify_call(monkeypatch):
    verify("hmos", m=(0, 1))
    assert ohno.sums._MEMO.get() is None
    monkeypatch.setattr(zeta, "MAX_DEPTH", 2)
    with pytest.raises(PrecisionError):
        verify("main")
    assert ohno.sums._MEMO.get() is None
    first, second = (ohno_sum_symbolic(Index((2, 3)), 2) for _ in range(2))
    assert first == second and first is not second
    assert dual_gap_skew_sides(2, 3, 1, 1)[0] is not dual_gap_skew_sides(2, 3, 1, 1)[0]
    body = sha(Index((4,)), repeat(2, 2))
    for build in (lambda: sha(Index((3,)), body), lambda: hast(2, body), lambda: dual_linear(body)):
        first, second = build(), build()
        assert first == second and first is not second


def test_sweep_memo_keeps_argument_checks():
    """In an open memo, an argument that a builder refuses is refused after an
    equal one of another type was built: a plain tuple for an index, or a
    ``bool`` for an integer."""
    body, k = sha(Index((4,)), repeat(2, 1)), Index((2, 3))

    def sweep():
        ohno.sums._MEMO.set({})
        sha(Index((3,)), body)
        hast(1, body)
        ohno_sum_symbolic(k, 1)
        for refused in (lambda: sha((3,), body), lambda: hast(True, body), lambda: ohno_sum_symbolic(k, True)):
            with pytest.raises(ValueError):
                refused()

    copy_context().run(sweep)


def test_sweep_memo_builds_each_distinct_sha_product_once(monkeypatch):
    """``lemma_oooo`` asks for 144 interleaving products of 14 distinct argument
    pairs; each distinct pair is built once, so the sweep interleaves the
    term pairs of those 14 and no more."""
    calls, interleaved = [], []
    memoised, interleave = catalogue.sha, ohno.indices._interleave

    def recorded(left, right):
        calls.append(tuple(frozenset(as_combination(x)._terms.items()) for x in (left, right)))
        return memoised(left, right)

    monkeypatch.setattr(catalogue, "sha", recorded)
    monkeypatch.setattr(ohno.indices, "_interleave", lambda a, b: interleaved.append(1) or interleave(a, b))
    verify("lemma_oooo")
    distinct = set(calls)
    assert (len(calls), len(distinct)) == (144, 14)
    assert len(interleaved) == sum(len(left) * len(right) for left, right in distinct) == 18


def test_sweep_memo_builds_each_dual_gap_operand_once(monkeypatch):
    """``main`` meets 27 operand triples (s, (t+1), l), each three products."""
    calls = []
    original = ohno.sums.sha
    monkeypatch.setattr(ohno.sums, "sha", lambda a, b: calls.append(1) or original(a, b))
    spec = catalogue._CATALOGUE["main"]
    for params in catalogue._grid(spec, {})[1]:
        spec.sides(**params)
    assert len(calls) == 81 * 2 * 3
    calls.clear()
    verify("main")
    assert len(calls) == 27 * 3


@pytest.mark.parametrize(
    "name", ["main", "hmos", "lemma_dddd", "lemma_fmpre1", "lemma_fmpre2", "lemma_fm", "lemma_oooo"]
)
def test_sweep_memo_leaves_residuals_bit_identical(name):
    """Every point's sides, built outside ``verify`` and evaluated alone, give
    the report's residual bits and ``evals``."""
    spec, cfg = catalogue._CATALOGUE[name], EvalConfig()
    for point in verify(name, cfg=cfg).points:
        pairs = spec.sides(**point.params)
        combs = [[catalogue._factors(side) for side in pair] for pair in pairs]
        values = [[math.prod(eval_combination(c, cfg) for c in side) for side in pair] for pair in combs]
        residual = max(abs(lhs - rhs) for lhs, rhs in values)
        evals = len({k for pair in combs for side in pair for c in side for k in c._terms})
        assert (residual.hex(), evals) == (point.residual.hex(), point.evals)


def _bare(report):
    """The report's dictionary form without its timings."""
    out = report_dict(report)
    del out["elapsed_ms"]
    for point in out["points"]:
        point.pop("elapsed_ms", None)
    return out


def test_sweeps_in_two_threads_keep_their_own_memo(monkeypatch):
    """Two sweeps at once each build through one memo of their own and
    report what serial runs report, timings aside."""
    names = ("hmos", "main")
    serial = {name: _bare(verify(name)) for name in names}
    memos = {name: [] for name in names}
    for name in names:
        spec = catalogue._CATALOGUE[name]

        def sides(*args, _sides=spec.sides, _seen=memos[name], **kwargs):
            _seen.append(ohno.sums._MEMO.get())
            return _sides(*args, **kwargs)

        monkeypatch.setitem(catalogue._CATALOGUE, name, dataclasses.replace(spec, sides=sides))
    got = {}
    threads = [threading.Thread(target=lambda n=name: got.update({n: _bare(verify(n))})) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial
    hmos_memo, main_memo = memos["hmos"][0], memos["main"][0]
    assert hmos_memo is not None and main_memo is not None and hmos_memo is not main_memo
    assert all(m is hmos_memo for m in memos["hmos"]) and all(m is main_memo for m in memos["main"])


# ---------------------------------------------------------------------------
# one plan and one read per distinct side
# ---------------------------------------------------------------------------


class _NoMemo:
    """Stands in for the sweep memo: ``verify`` opens none, so every point builds fresh sides."""

    @staticmethod
    def set(value):
        return None


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "shared-cache"])
def test_fresh_sides_report_what_shared_sides_report(cached, monkeypatch):
    """Without the memo no side repeats as one object, and on the warm path a
    point's sides are read before the next point is built, so a freed side's
    id could come back.  Plans keyed by id must still give every report field
    but timing, and the cache's entries and misses, of a run with the memo.
    Each run reads each distinct side once: its hits are the term reads of
    those sides less its misses, so the run without the memo, whose points
    share no side, has more."""
    numeric = [spec.name for spec in list_identities() if spec.kind == "numeric"]
    for name in numeric:
        verify(name)  # fills every factor and value the runs below read
    fills = []
    fill = catalogue._fill
    monkeypatch.setattr(catalogue, "_fill", lambda todo: fills.append(bool(todo)) or fill(todo))
    runs, hits = [], []
    for memo in (catalogue._MEMO, _NoMemo):
        monkeypatch.setattr(catalogue, "_MEMO", memo)
        cache = ZetaCache() if cached else None
        reports = [_bare(verify(name, cfg=EvalConfig(tol=1e-12, cache=cache))) for name in numeric]
        runs.append((reports, cache and (cache.stats.misses, cache._entries)))
        if cached:
            reads = sum(len(c) for name in numeric for c in _distinct_sides(name, shared=memo is not _NoMemo))
            assert cache.stats.hits == reads - cache.stats.misses
            hits.append(cache.stats.hits)
    assert not any(fills)  # the warm path: nothing waited for a fill
    assert runs[0] == runs[1]
    assert not cached or hits[0] < hits[1]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_cold_sweep_plans_each_distinct_side_once(cached, monkeypatch):
    """``main`` at (t, s) has the sides of (s, t) swapped, and at s = t both
    sides are one object: 81 distinct sides among 162.  Each is planned once
    and read once, with or without a cache; a cache's hits are the term
    reads of those sides less its misses."""
    spec = catalogue._CATALOGUE["main"]
    assert sum(2 * len(spec.sides(**params)) for params in catalogue._grid(spec, {})[1]) == 162
    planned, read = [], []
    plan, read_plan = catalogue._plan, catalogue._read
    monkeypatch.setattr(catalogue, "_plan", lambda comb, *rest: planned.append(comb) or plan(comb, *rest))
    monkeypatch.setattr(catalogue, "_read", lambda *args: read.append(args) or read_plan(*args))
    clear_factor_cache()
    cache = ZetaCache() if cached else None
    verify("main", cfg=EvalConfig(cache=cache))
    assert len(planned) == len({id(comb) for comb in planned}) == 81
    assert len(read) == 81
    if cached:
        assert cache.stats.hits == sum(map(len, _distinct_sides("main"))) - cache.stats.misses
        assert cache.stats.misses == len(cache)
