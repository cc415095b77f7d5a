"""Tests for the word codec, the nested-series evaluator, and its cache."""

import hashlib
import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ohno import zeta
from ohno.indices import EMPTY, Index, IndexCombination, iter_admissible, repeat
from ohno.sums import dual_gap_skew_sides
from ohno.zeta import (
    DEFAULT_CONFIG,
    EvalConfig,
    PrecisionError,
    ZetaCache,
    clear_factor_cache,
    eval_combination,
    eval_zeta,
    eval_zeta_direct,
    from_word,
    reverse_swap,
    to_word,
)

# float64-rounded reference constants, independent of the evaluator under test
PI = math.pi
ZETA2 = PI**2 / 6
ZETA3 = 1.2020569031595942854  # classical series value, rounded to double
ZETA4 = PI**4 / 90
ZETA5 = 1.0369277551433699263
ZETA6 = PI**6 / 945

TIGHT = EvalConfig(tol=1e-15)


# ---------------------------------------------------------------------------
# word codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries, word",
    [
        ((2,), "XY"),
        ((3,), "XXY"),
        ((1, 2), "XYY"),
        ((2, 2), "XYXY"),
        ((1, 1, 2), "XYYY"),
        ((2, 3), "XXYXY"),
        ((1, 3), "XXYY"),
    ],
)
def test_to_word_frozen(entries, word):
    k = Index(entries)
    assert to_word(k) == word
    assert from_word(word) == k


def test_to_word_requires_admissible():
    for bad in [EMPTY, Index((1,)), Index((2, 1))]:
        with pytest.raises(ValueError):
            to_word(bad)


@pytest.mark.parametrize("word", ["", "YX", "XYZ", "Y", "X", "XYX"])
def test_from_word_rejects_malformed(word):
    with pytest.raises(ValueError):
        from_word(word)


def test_reverse_swap_frozen():
    assert reverse_swap("XY") == "XY"
    assert reverse_swap("XXY") == "XYY"
    assert reverse_swap("XXYXY") == "XYXYY"


def test_word_codec_coherent_with_duality():
    """For every admissible index of weight <= 9 the word round-trips, has
    length equal to the weight, and duality is reverse-and-swap on words."""
    for k in iter_admissible(9):
        w = to_word(k)
        assert len(w) == k.weight
        assert w[0] == "X" and w[-1] == "Y"
        assert from_word(w) == k
        assert to_word(k.dual()) == reverse_swap(w)


@given(st.text(alphabet="XY", min_size=1, max_size=12))
def test_reverse_swap_involution(word):
    assert reverse_swap(reverse_swap(word)) == word


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    assert DEFAULT_CONFIG.tol == 1e-12
    assert DEFAULT_CONFIG.max_terms == 256
    assert DEFAULT_CONFIG.cache is None


@pytest.mark.parametrize(
    "tol, bucket, precision",
    [(1e-12, 12, 96), (1e-10, 10, 84), (1e-15, 15, 116), (0.5, 1, 24)],
)
def test_config_derived_precision(tol, bucket, precision):
    cfg = EvalConfig(tol=tol)
    assert cfg.bucket == bucket
    assert cfg.precision == precision


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1e-16, float("inf"), float("nan"), True])
def test_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        EvalConfig(tol=tol)


def test_config_rejects_bad_max_terms():
    with pytest.raises(ValueError):
        EvalConfig(max_terms=7)
    with pytest.raises(ValueError):
        EvalConfig(max_terms=2.5)


def test_config_equality_ignores_cache():
    assert EvalConfig(cache=ZetaCache()) == EvalConfig()


# ---------------------------------------------------------------------------
# known values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries, expected",
    [
        ((2,), ZETA2),
        ((3,), ZETA3),
        ((4,), ZETA4),
        ((5,), ZETA5),
        ((6,), ZETA6),
        ((1, 2), ZETA3),          # classical depth-2 reduction
        ((1, 1, 2), ZETA4),
        ((2, 2), PI**4 / 120),
        ((1, 3), PI**4 / 360),
        ((2, 2, 2), PI**6 / 5040),
        ((2, 2, 2, 2), PI**8 / 362880),
    ],
)
def test_known_values(entries, expected):
    got = eval_zeta(Index(entries), TIGHT)
    assert got == pytest.approx(expected, abs=5e-15, rel=5e-15)


def test_depth_two_stuffle_cross_checks():
    """Product decompositions give evaluator-independent relations."""
    z22 = eval_zeta(Index((2, 2)), TIGHT)
    assert 2 * z22 + ZETA4 == pytest.approx(ZETA2**2, abs=1e-14)
    z23 = eval_zeta(Index((2, 3)), TIGHT)
    z32 = eval_zeta(Index((3, 2)), TIGHT)
    assert z23 + z32 + ZETA5 == pytest.approx(ZETA2 * ZETA3, abs=1e-14)


def test_eval_requires_admissible():
    for bad in [EMPTY, Index((1,)), Index((2, 1))]:
        with pytest.raises(ValueError):
            eval_zeta(bad)


def test_loose_tolerance_still_close():
    assert eval_zeta(Index((2,)), EvalConfig(tol=1e-6)) == pytest.approx(ZETA2, abs=1e-6)


# ---------------------------------------------------------------------------
# the direct-summation oracle
# ---------------------------------------------------------------------------


def test_direct_oracle_depth_one():
    value, bound = eval_zeta_direct(Index((2,)), 10_000)
    assert 0 < bound
    assert 0 < ZETA2 - value <= bound  # monotone truncation from below


def test_direct_oracle_matches_evaluator():
    for entries in [(2,), (3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)]:
        k = Index(entries)
        value, bound = eval_zeta_direct(k, 4_000)
        assert abs(eval_zeta(k, TIGHT) - value) <= bound + 1e-12


def test_direct_oracle_bound_shrinks():
    _, b1 = eval_zeta_direct(Index((1, 2)), 1_000)
    _, b2 = eval_zeta_direct(Index((1, 2)), 10_000)
    assert b2 < b1


def test_direct_oracle_value_monotone():
    v1, _ = eval_zeta_direct(Index((2, 3)), 500)
    v2, _ = eval_zeta_direct(Index((2, 3)), 2_000)
    assert v1 < v2


def test_direct_oracle_requires_admissible():
    with pytest.raises(ValueError):
        eval_zeta_direct(Index((1,)), 100)


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def test_eval_combination_zero():
    assert eval_combination(IndexCombination.zero()) == 0.0


def test_eval_combination_linear():
    c = IndexCombination([(Index((2,)), 2), (Index((3,)), -1)])
    got = eval_combination(c, TIGHT)
    assert got == pytest.approx(2 * ZETA2 - ZETA3, abs=1e-14)


def test_eval_combination_accepts_bare_index():
    assert eval_combination(Index((2,)), TIGHT) == eval_zeta(Index((2,)), TIGHT)


def test_eval_combination_checks_support_first():
    c = IndexCombination([(Index((1,)), 1), (Index((2,)), 1)])
    with pytest.raises(ValueError):
        eval_combination(c)


def test_eval_combination_large_mass():
    c = IndexCombination.from_index(Index((2,)), 10**6)
    got = eval_combination(c, EvalConfig(tol=1e-12))
    assert got == pytest.approx(10**6 * ZETA2, rel=1e-12)


# ---------------------------------------------------------------------------
# precision failure is loud
# ---------------------------------------------------------------------------


def test_series_cap_exhaustion_raises():
    clear_factor_cache()
    cfg = EvalConfig(tol=1e-12, max_terms=8)
    with pytest.raises(PrecisionError):
        eval_zeta(Index((2,)), cfg)


def test_series_cap_ignores_warm_factors():
    """The cap is a property of the request: factors memoised by an earlier
    call at the default cap must not let a short cap through."""
    eval_zeta(Index((2,)), EvalConfig(tol=1e-12))
    with pytest.raises(PrecisionError):
        eval_zeta(Index((2,)), EvalConfig(tol=1e-12, max_terms=8))


def test_series_cap_ignores_warm_value_memo():
    """The memoised value of an index must not let a short cap through
    either: the cap check comes first."""
    k = Index((2,))
    value = eval_zeta(k)
    assert zeta._VALUES[DEFAULT_CONFIG.precision][k.entries] == value
    with pytest.raises(PrecisionError):
        eval_zeta(k, EvalConfig(max_terms=8))


@pytest.mark.parametrize("evaluate", [eval_zeta, eval_combination])
def test_series_cap_ignores_warm_zeta_cache(evaluate):
    """A value held by a ZetaCache must not let a short cap through: the
    cap is checked before the cache is read."""
    cache = ZetaCache()
    k = Index((2, 3))
    eval_zeta(k, EvalConfig(cache=cache))
    with pytest.raises(PrecisionError):
        evaluate(k, EvalConfig(max_terms=8, cache=cache))
    assert cache.stats.hits == 0


def test_combination_reads_each_term_through_eval_zeta(monkeypatch):
    """eval_combination asks eval_zeta for every term at the combination's
    bucket, so a wrapper around eval_zeta (the benchmark's tracer) sees
    each per-term request; the cap is checked once, before any of them."""
    seen = []

    def spy(k, cfg=None):
        seen.append((k, cfg.bucket))
        return original(k, cfg)

    original = zeta.eval_zeta
    monkeypatch.setattr(zeta, "eval_zeta", spy)
    a, b = Index((2, 3)), Index((1, 2, 1, 3))
    comb = IndexCombination({a: 100, b: 200})  # mass 300: bucket 11 at tol 1e-8
    eval_combination(comb, EvalConfig(tol=1e-8))
    assert len(seen) == 2 and set(seen) == {(a, 11), (b, 11)}
    seen.clear()
    with pytest.raises(PrecisionError):
        eval_combination(comb, EvalConfig(tol=1e-8, max_terms=8))
    assert seen == []


def test_clear_factor_cache_empties_value_memo():
    eval_zeta(Index((2, 3)))
    assert zeta._VALUES
    clear_factor_cache()
    assert not zeta._VALUES


def test_series_cap_exhaustion_from_combination():
    clear_factor_cache()
    cfg = EvalConfig(tol=1e-12, max_terms=8)
    with pytest.raises(PrecisionError):
        eval_combination(IndexCombination.from_index(Index((3,))), cfg)


def test_errors_name_the_first_bad_index_in_canonical_order():
    """Terms are read in storage order, but an error still names the first
    index at fault in canonical order (by depth, then entries)."""
    deep = IndexCombination({Index((3, 2)): 1, Index((2, 3)): 1})  # both depth-3 factors
    with pytest.raises(PrecisionError, match=r"index \(2,3\),"):
        eval_combination(deep, EvalConfig(max_terms=8))
    bad = IndexCombination({Index((2, 1)): 1, Index((1,)): 1})
    with pytest.raises(ValueError, match=r"non-admissible index \(1\)$"):
        eval_combination(bad)


# ---------------------------------------------------------------------------
# one batch of series factors per combination
# ---------------------------------------------------------------------------


def _memo_of(evaluate):
    clear_factor_cache()
    evaluate()
    return dict(zeta._FACTOR_CACHE), {p: dict(v) for p, v in zeta._VALUES.items()}


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-15])
def test_batch_fills_the_memo_of_terms_alone(tol, monkeypatch):
    """Both sides of a skew gap, each filled in one batch, leave the same
    factors and values, bit for bit, as their terms evaluated one by one at
    the combination's bucket."""
    sides = dual_gap_skew_sides(4, 4, 2, 2)
    requests = []

    def spy(k, cfg=None):
        requests.append((k, cfg.bucket))
        return original(k, cfg)

    def by_combination():
        for side in sides:
            eval_combination(side, EvalConfig(tol=tol))

    original = zeta.eval_zeta
    monkeypatch.setattr(zeta, "eval_zeta", spy)
    batched = _memo_of(by_combination)
    monkeypatch.undo()
    assert len(requests) == sum(len(side) for side in sides)
    alone = _memo_of(lambda: [eval_zeta(k, EvalConfig(tol=10.0**-b)) for k, b in requests])
    assert batched == alone


def test_cold_combination_fills_its_factors_in_one_batch(monkeypatch):
    fills = []
    original = zeta._fill_factors
    monkeypatch.setattr(zeta, "_fill_factors", lambda words, fbits: fills.append(1) or original(words, fbits))
    clear_factor_cache()
    eval_combination(dual_gap_skew_sides(3, 4, 1, 1)[0])
    assert len(fills) == 1


def test_batch_skips_terms_the_cache_or_value_memo_answers():
    """No factor is computed for a term that a warm ZetaCache or the value
    memo answers, and the cache's hit and miss counts are left alone."""
    comb = IndexCombination({Index((2, 3)): 1, Index((1, 2, 3)): 2, Index((4, 1, 2)): 3})
    cache = ZetaCache()
    eval_combination(comb, EvalConfig(cache=cache))
    clear_factor_cache()
    eval_combination(comb, EvalConfig(cache=cache))
    assert zeta._FACTOR_CACHE == {}
    assert cache.stats == zeta.ZetaCacheStats(hits=3, misses=3)
    eval_combination(comb)
    zeta._FACTOR_CACHE.clear()  # the value memo is warm, the factor memo cold
    eval_combination(comb)
    assert zeta._FACTOR_CACHE == {}
    answered = ZetaCache()
    answered.store(Index((4, 1, 2)), 15, 0.5)
    clear_factor_cache()
    eval_combination(comb, EvalConfig(cache=answered))
    words = [w for k in (Index((2, 3)), Index((1, 2, 3))) for w in (to_word(k), reverse_swap(to_word(k)))]
    assert {w for w, _ in zeta._FACTOR_CACHE} == {w[j:] for w in words for j in range(len(w))}


def test_factor_memo_is_closed_under_suffixes():
    """A fill stores every missing suffix of its word, so a held word has
    all its suffixes held: the fill skips a word with one lookup on that."""
    clear_factor_cache()
    for tol in (1e-8, 1e-12, 1e-15):
        cfg = EvalConfig(tol=tol)
        for k in iter_admissible(9):
            eval_zeta(k, cfg)
    eval_combination(dual_gap_skew_sides(3, 4, 1, 1)[0])
    memo = zeta._FACTOR_CACHE
    assert all((w[j:], b) in memo for w, b in memo for j in range(len(w)))


def test_refused_request_writes_no_memo():
    """The cap is checked before any factor is filled or value memoised."""
    clear_factor_cache()
    with pytest.raises(PrecisionError):
        eval_combination(dual_gap_skew_sides(3, 4, 1, 1)[0], EvalConfig(max_terms=8))
    assert zeta._FACTOR_CACHE == {}
    assert not zeta._VALUES


def test_batch_keeps_one_stack_of_chains():
    """A cold 132-term side peaks less than 1 MB above what it retains: the
    chains of a batch live on one stack (0.03 MB here), not in a dict of
    every chain (3.5 MB here, 14.7 MB on the 553-term side of (4, 4, 2, 2),
    which takes 14 s under tracemalloc)."""
    positive, _ = dual_gap_skew_sides(3, 4, 2, 1)
    assert len(positive) == 132
    clear_factor_cache()
    tracemalloc.start()
    try:
        eval_combination(positive)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 1_000_000


def test_factor_memo_pinned():
    """Every memoised series factor of a cold sweep over all admissible
    indices of weight <= 12 at three tolerances, pinned bit for bit.  The
    digest also pins the memo's key set: no factor is stored that no
    deconcatenation uses."""
    clear_factor_cache()
    for tol in (1e-8, 1e-12, 1e-15):
        cfg = EvalConfig(tol=tol)
        for k in iter_admissible(12):
            eval_zeta(k, cfg)
    table = "".join(f"{w}\t{b}\t{v:x}\n" for (w, b), v in sorted(zeta._FACTOR_CACHE.items()))
    assert len(zeta._FACTOR_CACHE) == 9213
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "693dad3e96608862b57588ba6e0634e92aaff98f1458d0882c7e18c6905e1b25"
    )


def test_generous_cap_succeeds():
    cfg = EvalConfig(tol=1e-12, max_terms=200)
    assert eval_zeta(Index((2,)), cfg) == pytest.approx(ZETA2, abs=1e-12)


# ---------------------------------------------------------------------------
# determinism and cache
# ---------------------------------------------------------------------------


def test_eval_deterministic_across_cold_starts():
    k = Index((2, 1, 3))
    first = eval_zeta(k, DEFAULT_CONFIG)
    clear_factor_cache()
    assert eval_zeta(k, DEFAULT_CONFIG) == first


def test_cache_is_transparent():
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-12, cache=cache)
    plain = EvalConfig(tol=1e-12)
    for entries in [(2,), (3,), (1, 2), (2, 3)]:
        k = Index(entries)
        assert eval_zeta(k, cfg) == eval_zeta(k, plain)
        assert eval_zeta(k, cfg) == eval_zeta(k, plain)  # second pass hits


def test_cache_answers_with_its_finest_value():
    """A cache returns the finest value it holds for an index: after a
    combination of mass 300 at tol 1e-8 (bucket 11), a single index at
    tol 1e-8 gets the bucket-11 value, which differs in the last bit from
    the bucket-8 value computed without the cache."""
    k = Index((1, 2, 1, 3))
    cfg = EvalConfig(tol=1e-8, cache=ZetaCache())
    eval_combination(IndexCombination.from_index(k, 300), cfg)
    cached = eval_zeta(k, cfg)
    assert cached == eval_zeta(k, EvalConfig(tol=1e-11))
    assert cached != eval_zeta(k, EvalConfig(tol=1e-8))
    assert cached == pytest.approx(eval_zeta(k, EvalConfig(tol=1e-8)), abs=1e-8)


def test_cache_counts_hits_and_misses():
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-12, cache=cache)
    k = Index((4,))
    eval_zeta(k, cfg)
    assert cache.stats.misses == 1
    eval_zeta(k, cfg)
    assert cache.stats.hits == 1
    assert len(cache) == 1


def test_cache_bucket_semantics():
    cache = ZetaCache()
    k = Index((2,))
    cache.store(k, 12, 1.25)
    assert cache.lookup(k, 10) == 1.25  # coarser request reuses finer value
    assert cache.lookup(k, 14) is None  # finer request misses
    cache.store(k, 8, 99.0)  # coarser store must not clobber the finer entry
    assert cache.lookup(k, 10) == 1.25
    cache.store(k, 14, 2.5)
    assert cache.lookup(k, 14) == 2.5


def test_cache_save_load_round_trip(tmp_path):
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-12, cache=cache)
    values = {k: eval_zeta(k, cfg) for k in (Index((2,)), Index((1, 2)), Index((2, 3)))}
    path = tmp_path / "cache.tsv"
    cache.save(str(path))

    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        text, bucket, hexval = line.split("\t")
        assert float.fromhex(hexval) == values[Index.from_text(text)]
        assert int(bucket) == 12

    reloaded = ZetaCache(str(path))  # constructor auto-loads existing files
    assert len(reloaded) == 3
    for k, v in values.items():
        assert reloaded.lookup(k, 12) == v


def test_cache_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "cache.tsv"
    previous = ZetaCache()
    previous.store(Index((2,)), 12, 1.5)
    previous.store(Index((3,)), 12, 2.5)
    previous.save(str(path))
    before = path.read_text()

    class DiskFull(float):
        def hex(self):
            raise OSError("disk full")

    cache = ZetaCache()
    cache.store(Index((2,)), 12, 1.25)  # written first: "2" sorts before "9"
    cache.store(Index((9,)), 12, DiskFull(0.5))
    with pytest.raises(OSError, match="disk full"):
        cache.save(str(path))

    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["cache.tsv"]
    reloaded = ZetaCache(str(path))
    assert reloaded.lookup(Index((2,)), 12) == 1.5
    assert reloaded.lookup(Index((3,)), 12) == 2.5


def test_cache_constructor_with_missing_path(tmp_path):
    cache = ZetaCache(str(tmp_path / "absent.tsv"))
    assert len(cache) == 0


def test_cache_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a cache line\n")
    with pytest.raises(ValueError):
        ZetaCache().load(str(path))


@pytest.mark.parametrize(
    "line",
    [
        "(2)\t12\tnan",
        "(2)\t12\tinf",
        "(2)\t12\t-inf",
        "(2)\t0\t0x1.0p+0",
        "(2)\t16\t0x1.0p+0",
        "(2)\t99\t0x1.0p+0",
        "(1)\t12\t0x1.0p+0",
        "()\t12\t0x1.0p+0",
    ],
)
def test_cache_load_rejects_values_it_cannot_serve(tmp_path, line):
    """A non-finite value, a bucket outside 1..15 or a non-admissible index
    is refused like an unparsable line, also after good lines."""
    path = tmp_path / "bad.tsv"
    path.write_text(f"(3)\t12\t0x1.33ba004f00621p+0\n{line}\n")
    with pytest.raises(ValueError, match="malformed cache line"):
        ZetaCache().load(str(path))


def test_cache_failed_load_changes_nothing(tmp_path):
    """A load that meets a malformed line stores none of the lines before it."""
    cache = ZetaCache()
    cache.store(Index((2,)), 12, 1.5)
    path = tmp_path / "bad.tsv"
    path.write_text("(2)\t15\t0x1.0p+1\n(3)\t12\t0x1.33ba004f00621p+0\n(2,3)\t12\tnan\n")
    with pytest.raises(ValueError, match="malformed cache line"):
        cache.load(str(path))
    assert len(cache) == 1
    assert cache.lookup(Index((2,)), 12) == 1.5
    assert cache.lookup(Index((2,)), 13) is None
    assert cache.lookup(Index((3,)), 1) is None


def test_cached_values_feed_combinations():
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-12, cache=cache)
    c = IndexCombination([(Index((2,)), 1), (Index((3,)), 1)])
    total = eval_combination(c, cfg)
    assert total == pytest.approx(ZETA2 + ZETA3, abs=1e-11)
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# cross-validation against duality on a wider sweep
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([k for k in iter_admissible(8)]))
def test_eval_agrees_with_dual(k):
    assert eval_zeta(k, DEFAULT_CONFIG) == pytest.approx(
        eval_zeta(k.dual(), DEFAULT_CONFIG), abs=1e-11
    )
