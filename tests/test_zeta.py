"""Tests for the word codec, the nested-series evaluator, and its cache."""

import hashlib
import itertools
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

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
    reverse_swap,
    to_word,
)

@pytest.fixture
def parsed(monkeypatch):
    """The index texts that cache loads parse, starting from an empty memo of
    the last cache file."""
    texts = []
    parse = Index.from_text
    monkeypatch.setattr(Index, "from_text", staticmethod(lambda text: texts.append(text) or parse(text)))
    monkeypatch.setattr(zeta, "_LAST_FILE", ("", {}))
    return texts


# A cache file with a coarser and a finer line for (2, 3), the coarser first.
_LOADED = "2,3\t9\t0x1.4000000000000p+1\n3\t12\t0x1.33ba004f00621p+0\n2,3\t14\t0x1.8000000000000p+0\n"


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


def from_word(word: str) -> Index:
    """The inverse of ``to_word``, the reference decoder of the round-trip tests."""
    if not word or set(word) - {"X", "Y"} or word[0] != "X" or word[-1] != "Y":
        raise ValueError(f"malformed word {word!r}")
    return Index(len(run) + 1 for run in reversed(word[:-1].split("Y")))


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
    """The reference decoder refuses what no index encodes to."""
    assert word not in {to_word(k) for k in iter_admissible(max(len(word), 2))}
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
    [(1e-12, 12, 54), (1e-10, 10, 47), (1e-15, 15, 64), (0.5, 1, 17)],
)
def test_config_derived_precision(tol, bucket, precision):
    cfg = EvalConfig(tol=tol)
    assert cfg.bucket == bucket
    assert cfg.precision == precision


def _unrounded_sum(k, fbits):
    """``zeta(k)`` in units of ``2^-fbits`` before it rounds to a double: the
    sum over the splits of the word of ``k`` of the product of the factor of
    the part after the split and that of the dual of the part before it."""
    word = to_word(k)
    splits = [(word[j:], reverse_swap(word[:j])) for j in range(len(word) + 1)]
    zeta._fill_factors([w for split in splits for w in split if w], fbits)
    factor = {w: zeta._FACTOR_CACHE[fbits][w] if w else 1 << fbits for split in splits for w in split}
    return sum((factor[a] * factor[b]) >> fbits for a, b in splits)


def test_error_within_the_proven_bound_at_the_tolerance_limit():
    """Every admissible index of weight <= 10, at buckets 1, 8, 12 and 15,
    evaluates within the proven bound of the same evaluation at 256 bits, and
    the bound is within the bucket's tolerance, which one bit less would not
    give every weight up to 16.  The 256-bit sum is read before rounding, so
    it is short of the exact value by under 2^-240."""
    clear_factor_cache()
    exact = {k: Fraction(_unrounded_sum(k, 256), 1 << 256) for k in iter_admissible(10)}
    assert len(exact) == 511
    for bucket in (1, 8, 12, 15):
        cfg = EvalConfig(tol=10.0**-bucket)
        # the least precision whose bound covers every weight up to 16
        assert zeta._bound(16, 15, cfg.precision) <= 10.0**-bucket < zeta._bound(16, 15, cfg.precision - 1)
        for k, value in exact.items():
            weight, depth = sum(k), len(k)
            bound = zeta._bound(weight, max(depth, weight - depth), cfg.precision)
            assert abs(Fraction(eval_zeta(k, cfg)) - value) <= Fraction(bound) + Fraction(1, 1 << 240), (bucket, k)
            assert bound <= 10.0**-bucket


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
    assert eval_combination(IndexCombination()) == 0.0


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
    c = IndexCombination({Index((2,)): 10**6})
    got = eval_combination(c, EvalConfig(tol=1e-12))
    assert got == pytest.approx(10**6 * ZETA2, rel=1e-12)


@pytest.mark.parametrize("coef", [10**309, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_mass_beyond_double_range_is_an_input_error(coef):
    """A mass a double cannot hold is refused before any memo or cache is read."""
    clear_factor_cache()
    cache = ZetaCache()
    with pytest.raises(ValueError, match="beyond the double range"):
        eval_combination(IndexCombination({Index((2,)): coef}), EvalConfig(cache=cache))
    assert zeta._FACTOR_CACHE == {}
    assert not zeta._VALUES
    assert (len(cache), cache.stats.hits, cache.stats.misses) == (0, 0, 0)


@pytest.mark.parametrize(
    "terms",
    [{(2,): 150 * 10**306}, {(2,): 80 * 10**306, (3,): 80 * 10**306}],
    ids=["term", "partial-sum"],
)
def test_value_beyond_double_range_is_an_input_error(terms):
    """The mass fits a double but the value does not: one term, or only the
    sum of two, overflows."""
    comb = IndexCombination({Index(k): c for k, c in terms.items()})
    assert float(comb.coefficient_mass()) < math.inf
    with pytest.raises(ValueError, match="^the value of the combination is beyond the double range$"):
        eval_combination(comb)


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
    assert zeta._VALUES[DEFAULT_CONFIG.precision][k] == value
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
    """With a ZetaCache, eval_combination asks eval_zeta for every term once,
    at the combination's bucket, so a wrapper around eval_zeta (the
    benchmark's tracer) sees each per-term request.  Without one, it reads
    the value memo in one pass: no term goes through eval_zeta, and the value
    is the per-term reads' sum, bit for bit.  The cap is checked once, before
    any read."""
    seen = []

    def spy(k, cfg=None):
        seen.append((k, cfg.bucket))
        return original(k, cfg)

    a, b, c = Index((2, 3)), Index((1, 2, 1, 3)), Index((3,))
    comb = IndexCombination({a: 100, b: 200, c: Fraction(1, 3)})  # mass 300 1/3: bucket 11 at tol 1e-8
    reference = math.fsum(float(x) * eval_zeta(k, EvalConfig(tol=1e-11)) for k, x in comb)
    original = zeta.eval_zeta
    monkeypatch.setattr(zeta, "eval_zeta", spy)
    cache = ZetaCache()
    assert eval_combination(comb, EvalConfig(tol=1e-8, cache=cache)) == reference
    assert sorted(seen) == sorted([(a, 11), (b, 11), (c, 11)])
    assert cache.stats == zeta.ZetaCacheStats(hits=0, misses=3)
    seen.clear()
    assert eval_combination(comb, EvalConfig(tol=1e-8)) == reference
    assert seen == []
    for cfg in (EvalConfig(tol=1e-8, max_terms=8), EvalConfig(tol=1e-8, max_terms=8, cache=cache)):
        with pytest.raises(PrecisionError):
            eval_combination(comb, cfg)
    assert seen == []
    assert cache.stats == zeta.ZetaCacheStats(hits=0, misses=3)


def _memos():
    """A copy of every process-wide memo of ``zeta``."""
    return ({p: dict(v) for p, v in zeta._VALUES.items()}, {p: dict(f) for p, f in zeta._FACTOR_CACHE.items()},
            dict(zeta._TABLES), zeta._stop.cache_info().currsize, zeta._default_precision.cache_info().currsize,
            zeta._LAST_FILE, dict(zeta._LINES))


@pytest.mark.parametrize("with_cache", [False, True])
def test_zero_or_refused_combination_leaves_every_memo(with_cache):
    """The zero combination reads and derives nothing, so from a cleared
    state it leaves every memo empty: no value memo appears for its
    precision.  Neither it nor a combination refused as non-admissible,
    after an admissible term was planned, changes a warm memo or the cache."""
    cache = ZetaCache() if with_cache else None
    zero = IndexCombination()
    bad = IndexCombination({Index((2, 3)): Fraction(1, 2), Index((2, 1)): Fraction(1, 2)})  # mass 1: bucket 8
    clear_factor_cache()
    empty = _memos()
    assert eval_combination(zero, EvalConfig(tol=1e-8, cache=cache)) == 0.0
    assert _memos() == empty
    eval_zeta(Index((3,)), EvalConfig(tol=1e-8))
    before = _memos()
    for tol in (1e-8, 1e-10):
        assert eval_combination(zero, EvalConfig(tol=tol, cache=cache)) == 0.0
    with pytest.raises(ValueError, match=r"non-admissible index \(2,1\)$"):
        eval_combination(bad, EvalConfig(tol=1e-8, cache=cache))
    assert _memos() == before
    if cache is not None:
        assert len(cache) == 0 and cache.stats == zeta.ZetaCacheStats()


def test_clear_factor_cache_empties_value_memo(tmp_path, parsed):
    """Every process-wide memo of values, factors and their tables is emptied."""
    def memos():
        return [zeta._VALUES, zeta._FACTOR_CACHE, zeta._TABLES,
                zeta._stop.cache_info().currsize, zeta._default_precision.cache_info().currsize]

    eval_zeta(Index((2, 3)))
    assert all(memos())
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    ZetaCache(str(path))
    del parsed[:]
    clear_factor_cache()
    assert not any(memos())
    assert len(ZetaCache(str(path))) == 2
    assert len(parsed) == 3  # the last file's text is dropped too, so it is parsed again


def test_series_cap_exhaustion_from_combination():
    clear_factor_cache()
    cfg = EvalConfig(tol=1e-12, max_terms=8)
    with pytest.raises(PrecisionError):
        eval_combination(IndexCombination({Index((3,)): 1}), cfg)


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
    return {p: dict(f) for p, f in zeta._FACTOR_CACHE.items()}, {p: dict(v) for p, v in zeta._VALUES.items()}


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-15])
def test_batch_fills_the_memo_of_terms_alone(tol, monkeypatch):
    """Both sides of a skew gap, each filled in one batch, leave the same
    factors and values, bit for bit, as their terms evaluated one by one at
    the combination's bucket (each term with the bucket its plan reads it at)."""
    sides = dual_gap_skew_sides(4, 4, 2, 2)
    requests = []

    def spy(comb, cfg, todo, held):
        term_cfg, terms = original(comb, cfg, todo, held)
        requests.extend((k, term_cfg.bucket) for k in terms)
        return term_cfg, terms

    def by_combination():
        for side in sides:
            eval_combination(side, EvalConfig(tol=tol))

    original = zeta._plan
    monkeypatch.setattr(zeta, "_plan", spy)
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
    assert {w for memo in zeta._FACTOR_CACHE.values() for w in memo} == {w[j:] for w in words for j in range(len(w))}


def test_factor_memo_is_closed_under_suffixes():
    """A fill stores every missing suffix of its word, so a held word has
    all its suffixes held: the fill skips a word with one lookup on that."""
    clear_factor_cache()
    for tol in (1e-8, 1e-12, 1e-15):
        cfg = EvalConfig(tol=tol)
        for k in iter_admissible(9):
            eval_zeta(k, cfg)
    eval_combination(dual_gap_skew_sides(3, 4, 1, 1)[0])
    assert all(w[j:] in memo for memo in zeta._FACTOR_CACHE.values() for w in memo for j in range(len(w)))


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
    memo = {(w, b): v for b, factors in zeta._FACTOR_CACHE.items() for w, v in factors.items()}
    table = "".join(f"{w}\t{b}\t{v:x}\n" for (w, b), v in sorted(memo.items()))
    assert len(memo) == 9213
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "a82cca547fc21ec1dfed722b71094d6a424b3514895ed4dfbea4ecb2fb680022"
    )


def _reference_fill(words, fbits):
    """Every suffix factor of ``words``, as the fill computed them before it
    summed only the terms that can be nonzero: the same stack of chains, but
    every chain built to ``_stop`` of its word's depth and every term from
    ``m = 1`` to ``_stop`` of the suffix's depth summed.  It also asserts
    what that window rests on: every chain entry at index ``i >= 1`` is at
    most ``i * 2^fbits``, and every term with ``m >= fbits`` is 0."""
    one, factors = 1 << fbits, {}
    runs = {w: tuple(len(x) + 1 for x in reversed(w[:-1].split("Y"))) for w in words}
    stack, path = [[one]], ()
    for word in sorted(runs, key=runs.__getitem__):
        rev = runs[word]
        depth, terms = len(rev), zeta._stop(len(rev), fbits)
        shared = 0
        while shared < min(len(path), depth - 1) and path[shared] == rev[shared]:
            shared += 1
        del stack[shared + 1 :]
        path = rev[: depth - 1]
        stack += ([0] for _ in range(shared + 1, depth))
        stack[0] += [one] * (terms - len(stack[0]))
        for d in range(1, depth):
            chain = stack[d]
            for i in range(len(chain), terms):
                chain.append(chain[-1] + ((one // i ** rev[d - 1]) * stack[d - 1][i - 1] >> fbits))
                assert chain[i] <= i << fbits, (word, d, i)
        j = 0
        for d, run in zip(range(depth, 0, -1), reversed(rev)):
            for n in range(run, 0, -1):
                if word[j:] not in factors:
                    stop = zeta._stop(d, fbits)
                    summed = [(one // m**n) * stack[d - 1][m - 1] >> (fbits + m) for m in range(1, stop + 1)]
                    assert not any(summed[fbits - 1 :]), (word[j:], fbits)
                    factors[word[j:]] = sum(summed)
                j += 1
    return factors


def _filled(words, fbits):
    clear_factor_cache()
    zeta._fill_factors(words, fbits)
    return dict(zeta._FACTOR_CACHE[fbits])


@pytest.mark.parametrize("fbits", [3, 17, 27, 40, 54, 64, 128])
def test_fill_drops_only_zero_terms(fbits):
    """The fill sums each factor over a window of the terms that can be
    nonzero, and gives every factor the full sum gives: on every admissible
    index of weight <= 10 and its dual, at precisions either side of the
    default ones.  At 3 bits term ``fbits - 1`` of the factor of ``Y`` is 1,
    so a chain one entry short shows; at 4 to 54 bits no word of weight
    <= 12 tried had a nonzero term there."""
    words = [w for k in iter_admissible(10) for w in (to_word(k), reverse_swap(to_word(k)))]
    assert _filled(words, fbits) == _reference_fill(words, fbits)
    # Alone, a word has no shorter word in its batch, so the fill also reaches
    # the suffixes that start inside an inner run.
    for word in words[::29]:
        assert _filled([word], fbits) == _reference_fill([word], fbits)


def test_fill_drops_only_zero_terms_of_deep_words():
    """The same on words of depth 40, 120 and 300 at 54 bits, deeper than the
    precision: their chains start with more zeros than a factor sums terms.
    The run tails of (1,...,1,2) are the all-ones chains, where the bound
    ``i * 2^fbits`` on a chain entry is tightest."""
    ks = [Index((1,) * (depth - 1) + (2,)) for depth in (40, 120, 300)] + [Index((2,) * 40), Index((1, 3) * 60)]
    words = [w for k in ks for w in (to_word(k), reverse_swap(to_word(k)))]
    assert _filled(words, 54) == _reference_fill(words, 54)


@pytest.mark.parametrize("fbits", [17, 40, 54, 64])
def test_fill_computes_exactly_the_planned_values(fbits):
    """Planned one by one and filled, every admissible index of weight <= 10
    and one of weight 19 (read at its weight class's precision) land in the
    value memo of the bucket's precision, and nothing else does.  Each value
    is the sum over the splits of its word of the product of the memo's
    factors of the part after the split and of the dual of the part before."""
    bucket = next(b for b in range(1, 16) if zeta._default_precision(b) == fbits)
    heavy, cfg = Index((2,) * 8 + (3,)), EvalConfig(tol=10.0**-bucket)
    light = list(iter_admissible(10))
    clear_factor_cache()
    todo = {}
    for k in [*light, heavy]:
        zeta._plan(k, cfg, todo, {})
    heavy_fbits = zeta._default_precision(bucket, 19)
    assert heavy_fbits > fbits
    assert todo == {fbits: dict.fromkeys(light, fbits), heavy_fbits: {heavy: fbits}}
    zeta._fill(todo)
    assert list(zeta._VALUES) == [fbits]
    assert set(zeta._VALUES[fbits]) == {*light, heavy}
    for p, planned in todo.items():
        memo = zeta._FACTOR_CACHE[p]
        for k in planned:
            word = to_word(k)
            lower = [memo[word[j:]] for j in range(len(word))]
            upper = [memo[reverse_swap(word[:j])] for j in range(1, len(word) + 1)]
            acc = lower[0] + upper[-1] + sum((lower[j] * upper[j - 1]) >> p for j in range(1, len(word)))
            assert zeta._VALUES[fbits][k] == math.ldexp(float(acc), -p), (p, k)


def test_depth_300_index_is_pinned():
    """The depth-300 index (1,...,1,2), whose dual is zeta(301), read bit for
    bit at its weight class's 63 bits, before and after rounding."""
    clear_factor_cache()
    k = Index((1,) * 299 + (2,))
    assert eval_zeta(k, EvalConfig(max_terms=1000)).hex() == "0x1.0000000000000p+0"
    assert zeta._default_precision(12, sum(k)) == 63
    assert _unrounded_sum(k, 63) == 0x7FFFFFFFFFFFFF38


def test_threads_filling_one_new_precision_leave_the_memo_one_fill_leaves():
    """Threads that fill the same words at a precision no memo holds yet build
    the shared factor memo and tables while the others read them; they leave
    every memo as one fill alone leaves it."""
    words = [to_word(k) for k in iter_admissible(9)]

    def memos():
        return {p: dict(f) for p, f in zeta._FACTOR_CACHE.items()}, dict(zeta._TABLES)

    _filled(words, 45)
    alone = memos()
    clear_factor_cache()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=zeta._fill_factors, args=(words, 45)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert memos() == alone


def _tail_below_budget(depth, fbits, n):
    """The stop rule's test at ``n`` terms, as ``_stop``'s docstring states it."""
    rho = math.exp((depth - 1) / n) / 2.0
    if rho >= 1.0:
        return False
    tail_log2 = -n + (depth - 1) * math.log2(1.0 + math.log(n)) + math.log2(rho / (1.0 - rho))
    return tail_log2 < math.log2(n) - fbits


@pytest.mark.parametrize("fbits", [17, 54, 64, 256])
def test_stop_is_the_first_count_that_meets_the_budget(fbits):
    """``_stop`` searches by doubling and bisection; it finds the count that
    a scan up from the depth finds first."""
    for depth in range(1, 81):
        first = next(n for n in itertools.count(depth) if _tail_below_budget(depth, fbits, n))
        assert zeta._stop(depth, fbits) == first, depth
    # the depth of a refused index of weight 2*10^6, too deep to scan
    n = zeta._stop(10**6, fbits)
    assert _tail_below_budget(10**6, fbits, n) and not _tail_below_budget(10**6, fbits, n - 1)


def test_generous_cap_succeeds():
    cfg = EvalConfig(tol=1e-12, max_terms=200)
    assert eval_zeta(Index((2,)), cfg) == pytest.approx(ZETA2, abs=1e-12)


def test_heavier_index_fills_at_its_weight_class_precision(monkeypatch):
    """Weights up to 16 share a bucket's precision; weights 17..32 read two
    bits finer, where the bound of every weight in that class meets the
    tolerance.  A combination of both fills once per precision and reads
    the values its terms get alone."""
    light, heavy = Index((2, 3)), Index((2,) * 8 + (3,))  # weights 5 and 19
    assert [zeta._default_precision(12, w) for w in (2, 16, 17, 32, 33)] == [54, 54, 56, 56, 57]
    assert zeta._bound(32, 31, 56) <= 1e-12 < zeta._bound(32, 31, 55)
    fills = []
    original = zeta._fill_factors
    monkeypatch.setattr(zeta, "_fill_factors", lambda words, fbits: fills.append(fbits) or original(words, fbits))
    clear_factor_cache()
    together = eval_combination(IndexCombination({light: 1, heavy: 1}), EvalConfig(tol=1e-11))  # bucket 12
    assert sorted(fills) == [54, 56]
    assert set(zeta._FACTOR_CACHE) == {54, 56}
    assert set(zeta._VALUES[54]) == {light, heavy}  # the bucket's value memo
    clear_factor_cache()
    assert together == math.fsum([eval_zeta(light), eval_zeta(heavy)])
    with pytest.raises(PrecisionError, match=r"depth-10 factor .* \(index \(2,2,2,2,2,2,2,2,3\), precision 56 bits\)"):
        eval_combination(IndexCombination({light: 1, heavy: 1}), EvalConfig(tol=1e-11, max_terms=zeta._stop(10, 56) - 1))


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
    eval_combination(IndexCombination({k: 300}), cfg)
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


def _old_writer_text(entries):
    """The flat file as the row-by-row writer made it: rows sorted by index
    text, one ``text<TAB>bucket<TAB>hex`` line each."""
    rows = sorted(((k.to_text(), b, v) for k, (b, v) in entries.items()), key=lambda row: row[0])
    return "".join(f"{text}\t{bucket}\t{value.hex()}\n" for text, bucket, value in rows)


_SMALL_CACHE = {
    Index((2, 3)): (12, 1.5),
    Index((10,)): (15, 0.25),
    Index((2,)): (8, 2.5),
    Index((2, 3, 4)): (12, 1.2),
    Index((1, 2)): (1, 1.5),
}


def _saved_cache(path, entries=_SMALL_CACHE):
    cache = ZetaCache()
    for k, (bucket, value) in entries.items():
        cache.store(k, bucket, value)
    cache.save(str(path))
    return cache


def test_cache_file_text_pinned(tmp_path):
    path = tmp_path / "cache.tsv"
    _saved_cache(path)
    assert path.read_text() == (
        "1,2\t1\t0x1.8000000000000p+0\n"
        "10\t15\t0x1.0000000000000p-2\n"
        "2\t8\t0x1.4000000000000p+1\n"
        "2,3\t12\t0x1.8000000000000p+0\n"
        "2,3,4\t12\t0x1.3333333333333p+0\n"
    )
    assert path.read_text() == _old_writer_text(_SMALL_CACHE)

    cache = ZetaCache(str(path))
    cache.store(Index((2, 2)), 13, 0.75)
    cache.save(str(path))
    assert path.read_text() == _old_writer_text({**_SMALL_CACHE, Index((2, 2)): (13, 0.75)})


def _file_state(path):
    stat = os.stat(path)
    return path.read_bytes(), stat.st_ino, stat.st_mtime_ns


def test_cache_save_leaves_a_file_that_holds_every_entry(tmp_path):
    path = tmp_path / "cache.tsv"
    _saved_cache(path)
    before = _file_state(path)

    cache = ZetaCache(str(path))
    assert cache.lookup(Index((2, 3)), 12) == 1.5
    cache.store(Index((2, 3)), 8, 99.0)  # a coarser bucket changes no entry
    cache.save(str(path))
    assert _file_state(path) == before
    assert os.listdir(tmp_path) == ["cache.tsv"]

    saved = _saved_cache(path)  # a completed save is as good as a load
    before = _file_state(path)
    saved.save(str(path))
    assert _file_state(path) == before


def _refine(cache, path):
    cache.store(Index((2,)), 9, 2.5)


def _reload(cache, path):
    cache.load(str(path))


def _delete(cache, path):
    os.remove(path)


@pytest.mark.parametrize("change", [_refine, _reload, _delete, None], ids=["refine", "reload", "deleted", "other-path"])
def test_cache_save_rewrites_after_a_change(tmp_path, change):
    """A refining store, a load into a non-empty cache, a deleted file and
    another path each make ``save`` write the whole file again."""
    path = tmp_path / "cache.tsv"
    _saved_cache(path)
    cache = ZetaCache(str(path))
    ino = os.stat(path).st_ino
    if change is None:
        path = tmp_path / "other.tsv"
    else:
        change(cache, path)
    cache.save(str(path))
    expected = {**_SMALL_CACHE, Index((2,)): (9, 2.5)} if change is _refine else _SMALL_CACHE
    assert path.read_text() == _old_writer_text(expected)
    if change in (_refine, _reload):
        assert os.stat(path).st_ino != ino
    assert sorted(os.listdir(tmp_path)) == sorted({"cache.tsv", path.name})


def test_cache_store_during_a_save_is_written_by_the_next(tmp_path):
    """A store that lands after a save took its rows is not in that file,
    so the next save writes again."""
    path = tmp_path / "cache.tsv"
    cache = ZetaCache()

    class StoresWhileWritten(float):
        def hex(self):
            cache.store(Index((3,)), 12, 2.5)
            return float.hex(self)

    cache.store(Index((2,)), 12, StoresWhileWritten(1.5))
    cache.save(str(path))
    assert path.read_text() == _old_writer_text({Index((2,)): (12, 1.5)})
    cache.save(str(path))
    assert path.read_text() == _old_writer_text({Index((2,)): (12, 1.5), Index((3,)): (12, 2.5)})


@pytest.mark.parametrize("finest_first", [True, False])
def test_cache_load_keeps_the_finest_of_two_lines(tmp_path, finest_first):
    lines = ["2,3\t14\t0x1.8000000000000p+0\n", "2,3\t9\t0x1.4000000000000p+1\n"]
    path = tmp_path / "cache.tsv"
    path.write_text("".join(lines if finest_first else lines[::-1]))
    cache = ZetaCache(str(path))
    assert len(cache) == 1
    assert cache.lookup(Index((2, 3)), 14) == 1.5


def test_cache_threads_saving_one_path_use_their_own_temporary_files(tmp_path):
    """Threads of one process that save to one path each write their own
    temporary file, so every save completes and the file is one of theirs."""
    path = tmp_path / "cache.tsv"
    texts = set()
    errors = []

    def writer(n):
        entries = {Index((2, n + 2)): (12, float(n))}
        texts.add(_old_writer_text(entries))
        try:
            for _ in range(40):
                _saved_cache(path, entries)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == ["cache.tsv"]


def test_cache_threads_loading_and_saving_read_their_own_files(tmp_path):
    """Threads that save and reload files of their own through the one memo
    of the last file each read back exactly their entries."""
    errors = []

    def worker(n):
        path = tmp_path / f"cache{n}.tsv"
        entries = {Index((2, n + 2)): (12, float(n)), Index((n + 3,)): (n + 1, 0.5)}
        try:
            for _ in range(40):
                _saved_cache(path, entries)
                assert ZetaCache(str(path))._entries == entries
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
        "1_0,2\t12\t0x1.0p-1",
        " +2, 3\t12\t0x1.0p-1",
        "10,2\t1_2\t0x1.0p-1",
        "10,2\t+12\t0x1.0p-1",
    ],
)
def test_cache_load_rejects_values_it_cannot_serve(tmp_path, line):
    """A non-finite value, a bucket outside 1..15 or a non-admissible index
    is refused like an unparsable line, also after good lines.  So is an
    index entry or bucket that is no integer literal of the expression
    grammar, though ``int`` alone would read it (with an underscore or a sign)."""
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


def _bits(cache):
    return {k: (bucket, value.hex(), type(value)) for k, (bucket, value) in cache._entries.items()}


@pytest.mark.parametrize("fill", [False, True], ids=["empty", "non-empty"])
def test_cache_load_of_the_last_text_matches_a_parse(tmp_path, parsed, fill):
    """A load of the text this process last parsed does not parse it again,
    and leaves the entries, value bits and save state a parse leaves."""
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    caches = [ZetaCache(), ZetaCache()]
    for cache in caches:
        if fill:
            cache.store(Index((2, 3)), 10, 0.5)
            cache.store(Index((4,)), 12, 0.75)
        cache.load(str(path))
        assert cache._saved == (None if fill else str(path))
    assert len(parsed) == 3
    assert _bits(caches[0]) == _bits(caches[1])
    assert _bits(caches[0])[Index((2, 3))] == (14, "0x1.8000000000000p+0", float)


def test_cache_load_of_a_saved_text_matches_a_parse(tmp_path, parsed):
    """A save seeds the memo with what a load of its file gives back."""
    path = tmp_path / "cache.tsv"
    _saved_cache(path).store(Index((2,)), 15, 0.5)  # after the save: not in the file
    hit = ZetaCache(str(path))
    assert parsed == []
    clear_factor_cache()
    assert _bits(ZetaCache(str(path))) == _bits(hit) == {
        k: (bucket, value.hex(), float) for k, (bucket, value) in _SMALL_CACHE.items()
    }
    assert len(parsed) == len(_SMALL_CACHE)


def _rewrite_in_place(path, other):
    """Same length, same inode and modification time, other values."""
    stat = os.stat(path)
    with open(path, "r+") as fh:
        fh.write(_LOADED.replace("0x1.8", "0x1.c"))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size and os.stat(path).st_ino == stat.st_ino
    return path


def _other_path(path, other):
    other.write_text(_LOADED.replace("0x1.8", "0x1.c"))
    return other


def _cleared(path, other):
    clear_factor_cache()
    return path


@pytest.mark.parametrize("change", [_rewrite_in_place, _other_path, _cleared], ids=["in-place", "other-path", "cleared"])
def test_cache_load_parses_again(tmp_path, parsed, change):
    """The memo is keyed by the file's text, not by its path, size or time."""
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    ZetaCache(str(path))
    del parsed[:]
    path = change(path, tmp_path / "other.tsv")
    cache = ZetaCache(str(path))
    assert len(parsed) == 3
    expected = 1.5 if change is _cleared else 1.75
    assert cache.lookup(Index((2, 3)), 14) == expected


def test_cache_load_refuses_a_malformed_file_every_time(tmp_path, parsed):
    """A malformed file is refused, also right after a good load of its path,
    and the refusal leaves the memo of the good text in place."""
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    cache = ZetaCache(str(path))
    path.write_text(_LOADED + "2\t12\tnan\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="malformed cache line"):
            cache.load(str(path))
        with pytest.raises(ValueError, match="malformed cache line"):
            ZetaCache(str(path))
    assert len(cache) == 2 and cache._saved == str(path)
    path.write_text(_LOADED)
    del parsed[:]
    assert _bits(ZetaCache(str(path))) == _bits(cache)
    assert parsed == []


def test_cache_store_never_reaches_the_memo(tmp_path, parsed):
    """A cache filled by a parse or from the memo holds its own copy of the rows."""
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    for cache in (ZetaCache(str(path)), ZetaCache(str(path))):
        cache.store(Index((2, 3)), 15, 0.5)
        cache.store(Index((5,)), 12, 0.25)
    reloaded = ZetaCache(str(path))
    assert len(parsed) == 3
    assert _bits(reloaded) == {
        Index((2, 3)): (14, "0x1.8000000000000p+0", float),
        Index((3,)): (12, "0x1.33ba004f00621p+0", float),
    }


class _Half(float):
    pass


@pytest.mark.parametrize(
    "k, bucket, value",
    [
        (Index((3,)), 99, 1.0),
        (Index((3,)), 12.0, 1.0),
        (Index((3,)), 12, math.nan),
        (Index((3,)), 12, _Half(0.5)),
        ((3,), 12, 1.0),
        (Index((3, 1)), 12, 1.0),
        (Index((3,)), 0, 1.0),
        (Index((3,)), True, 1.0),
        (Index((3,)), 12, 1),
        (Index((3,)), 12, "1.0"),
        (Index((3,)), 12, -math.inf),
    ],
    ids=[
        "bucket", "float-bucket", "nan", "float-subclass", "tuple", "non-admissible", "bucket-0", "bool-bucket",
        "int-value", "str-value", "inf",
    ],
)
def test_cache_save_seeds_only_what_a_load_gives_back(tmp_path, parsed, k, bucket, value):
    """A row that a load would refuse is refused by ``store``, so the file a
    save writes loads back; a float subclass is written and loads back as a
    float, parsed again."""
    path = tmp_path / "cache.tsv"
    cache = ZetaCache()
    cache.store(Index((2,)), 12, 1.5)
    if type(value) is _Half:
        cache.store(k, bucket, value)
        cache.save(str(path))
        assert type(ZetaCache(str(path)).lookup(k, 12)) is float
        assert len(parsed) == 2
    else:
        with pytest.raises(ValueError, match="cannot cache"):
            cache.store(k, bucket, value)
        cache.save(str(path))
        assert _bits(ZetaCache(str(path))) == {Index((2,)): (12, "0x1.8000000000000p+0", float)}


def test_cache_save_formats_and_checks_only_the_rows_stored_since(tmp_path, monkeypatch):
    """A cache loaded from the file this process last wrote formats and checks
    only its new rows when it saves, and writes the bytes of a full format."""
    path = tmp_path / "cache.tsv"
    _saved_cache(path)
    cache = ZetaCache(str(path))
    cache.store(Index((5,)), 12, 0.25)
    cache.store(Index((2, 3)), 15, 0.5)
    formatted, checked = [], []  # counted from here: store checks each row it is given
    to_text, loads_back = Index.to_text, zeta._loads_back
    monkeypatch.setattr(Index, "to_text", lambda k: formatted.append(k) or to_text(k))
    monkeypatch.setattr(zeta, "_loads_back", lambda k, *row: checked.append(k) or loads_back(k, *row))
    cache.save(str(path))
    assert sorted(formatted) == sorted(checked) == sorted([Index((5,)), Index((2, 3))])
    assert path.read_text() == _old_writer_text(cache._entries)


def test_cache_save_keeps_no_line_of_a_row_that_does_not_load_back(tmp_path, monkeypatch):
    monkeypatch.setattr(zeta, "_LINES", {})
    cache = ZetaCache()
    cache.store(Index((2,)), 12, 1.5)
    cache.store(Index((3,)), 12, _Half(1.0))  # written, but loads back as a float, not as itself
    cache.save(str(tmp_path / "cache.tsv"))
    assert zeta._LINES == {}


def test_cache_load_from_the_memo_keeps_the_finest_bucket(tmp_path, parsed):
    path = tmp_path / "cache.tsv"
    path.write_text(_LOADED)
    ZetaCache(str(path))
    cache = ZetaCache()
    cache.store(Index((2, 3)), 15, 0.5)
    cache.store(Index((3,)), 11, 0.25)
    cache.load(str(path))
    assert len(parsed) == 3
    assert _bits(cache) == {
        Index((2, 3)): (15, "0x1.0000000000000p-1", float),
        Index((3,)): (12, "0x1.33ba004f00621p+0", float),
    }


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_cache_load_reads_any_line_ending(tmp_path, parsed, newline):
    lf, other = tmp_path / "lf.tsv", tmp_path / "other.tsv"
    lf.write_bytes(_LOADED.encode())
    other.write_bytes(_LOADED.replace("\n", newline).encode())
    assert _bits(ZetaCache(str(other))) == _bits(ZetaCache(str(lf)))
    assert len(parsed) == 3  # one parse: both texts read the same


def test_cache_load_skips_blank_lines(tmp_path, parsed):
    path = tmp_path / "cache.tsv"
    lines = _LOADED.splitlines(keepends=True)
    path.write_text("\n" + lines[0] + "   \n\t\n" + lines[1] + " \x0b\x0c\x1c \n" + lines[2] + "\n\n")
    assert len(ZetaCache(str(path))) == 2
    assert len(parsed) == 3


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_cache_load_splits_lines_at_newlines_only(tmp_path, parsed, separator):
    """A separator that ``str.splitlines`` would split at joins two rows into one malformed line."""
    path = tmp_path / "cache.tsv"
    lines = _LOADED.splitlines()
    path.write_text(f"{lines[0]}{separator}{lines[1]}\n")
    with pytest.raises(ValueError, match="malformed cache line"):
        ZetaCache(str(path))


def test_cache_load_keeps_the_first_of_two_lines_of_one_bucket(tmp_path, parsed):
    path = tmp_path / "cache.tsv"
    path.write_text("2,3\t12\t0x1.8000000000000p+0\n2,3\t12\t0x1.4000000000000p+1\n")
    for _ in range(2):  # a parse, then a load from the memo
        assert ZetaCache(str(path)).lookup(Index((2, 3)), 12) == 1.5
    assert len(parsed) == 2


def test_cache_load_refuses_a_non_ascii_byte(tmp_path, parsed):
    path = tmp_path / "cache.tsv"
    path.write_bytes(_LOADED.encode() + b"2\t12\t0x1.4p+1 \xe9\n")
    cache = ZetaCache()
    with pytest.raises(UnicodeDecodeError):
        cache.load(str(path))
    assert len(cache) == 0 and parsed == []


def test_cached_values_feed_combinations():
    cache = ZetaCache()
    cfg = EvalConfig(tol=1e-12, cache=cache)
    c = IndexCombination([(Index((2,)), 1), (Index((3,)), 1)])
    total = eval_combination(c, cfg)
    assert total == pytest.approx(ZETA2 + ZETA3, abs=1e-11)
    assert len(cache) == 2


def _read_term_by_term(comb, cfg):
    """A combination planned and filled, then read one term at a time through
    ``ZetaCache.lookup`` and a ``store`` of each miss."""
    todo = {}
    term_cfg, terms = zeta._plan(comb, cfg, todo, {})
    zeta._fill(todo)
    products = []
    for k, c in terms.items():
        value = cfg.cache.lookup(k, term_cfg.bucket)
        if value is None:
            value = zeta._VALUES[term_cfg.precision][k]
            cfg.cache.store(k, term_cfg.bucket, value)
        products.append(float(c) * value)
    return math.fsum(products)


@pytest.mark.parametrize(
    "terms, hits, misses",
    [
        ({(2, 3): 1, (1, 2, 3): -2, (4, 1, 2): 3, (3, 3): 1, (5,): 2}, 2, 3),  # mass 9: bucket 13
        ({(1, 2, 3): 1, (5,): -1}, 2, 0),  # mass 2: bucket 13, every term held
    ],
)
def test_cached_read_matches_the_term_by_term_read(tmp_path, terms, hits, misses):
    """A cache holding one term at a coarser bucket than the read's, one at a
    finer one and one at the same gives, after one ``eval_combination``, the
    value, entries, counts and saved-path state of a read term by term."""
    comb = IndexCombination({Index(k): c for k, c in terms.items()})

    def saved(name):
        cache, path = ZetaCache(), str(tmp_path / name)
        cache.store(Index((2, 3)), 9, 0.25)  # coarser: a miss, replaced
        cache.store(Index((1, 2, 3)), 15, 0.5)  # finer: a hit
        cache.store(Index((5,)), 13, 0.75)  # the read's bucket: a hit
        cache.save(path)
        return cache, path

    (cache, path), (reference, reference_path) = saved("read.tsv"), saved("reference.tsv")
    value = eval_combination(comb, EvalConfig(cache=cache))
    assert value.hex() == _read_term_by_term(comb, EvalConfig(cache=reference)).hex()
    assert cache._entries == reference._entries
    assert cache.stats == reference.stats == zeta.ZetaCacheStats(hits=hits, misses=misses)
    assert (cache._saved == path) == (reference._saved == reference_path) == (misses == 0)


def test_threads_reading_one_cache_count_every_term():
    """Four threads reading one cache count a hit or a miss for every term
    they read, and leave the entries that one thread's reads leave."""
    sides = dual_gap_skew_sides(3, 4, 1, 1)
    alone = ZetaCache()
    for side in sides:
        eval_combination(side, EvalConfig(cache=alone))
    cache, errors = ZetaCache(), []

    def reader():
        try:
            for _ in range(5):
                for side in sides:
                    eval_combination(side, EvalConfig(cache=cache))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.stats.hits + cache.stats.misses == 4 * 5 * sum(len(side) for side in sides)
    assert cache._entries == alone._entries


# ---------------------------------------------------------------------------
# cross-validation against duality on a wider sweep
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([k for k in iter_admissible(8)]))
def test_eval_agrees_with_dual(k):
    assert eval_zeta(k, DEFAULT_CONFIG) == pytest.approx(
        eval_zeta(k.dual(), DEFAULT_CONFIG), abs=1e-11
    )
