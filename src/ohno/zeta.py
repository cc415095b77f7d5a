"""Numeric evaluation of multiple zeta values.

For an admissible index ``k = (k1, ..., kr)`` the value is the nested sum

    zeta(k) = sum over 0 < m1 < ... < mr of  m1^-k1 * ... * mr^-kr.

Two evaluators are provided:

``eval_zeta``
    Production path.  The index is encoded as a binary word, the associated
    iterated integral is split at 1/2, and the value becomes a finite sum,
    over all deconcatenations of the word, of products of partial integrals
    at 1/2.  Every partial integral is a nested power series with geometric
    ratio 1/2, summed in fixed-point integer arithmetic at a working
    precision derived from the tolerance.  This converges geometrically for
    *every* admissible index, including the ones with entries equal to 1 or
    a final entry of 2 where direct summation is hopeless.

``eval_zeta_direct``
    Independent oracle.  Straight summation of the defining nested sum up to
    a cutoff, together with a proven upper bound on the truncated tail of
    order ``N^(1-kr) * (log N)^(r-1)``.  Slowly convergent by design; used
    only to cross-check the production path.

Error budget of ``eval_zeta`` (absolute, target ``cfg.tol``):

* truncation: each series factor is summed until a provable tail majorant
  drops below ``2^-(P-8)`` where ``P`` is the working precision in bits;
  with ``P >= 2*ceil(log2(1/tol)) + 16`` this leaves every
  deconcatenation term far inside a uniform split of ``tol/2``;
* rounding: fixed-point arithmetic with ``P`` fractional bits keeps the
  accumulated rounding below ``tol/10``;
* the final conversion rounds once to the nearest double.

Cost of ``eval_zeta``.  The tail majorant depends only on the depth of a
factor and on ``P``, so the number of terms a factor sums (its stopping
index) is computed once per (depth, ``P``) and memoised, as are the tables
of fixed-point inverse powers ``2^P // m^n``.  For a word ``w`` of length
``n`` the deconcatenation after ``j`` letters multiplies the lower factor
``w[j:]`` by the upper factor ``reverse_swap(w[:j])``, and

    reverse_swap(w[:j]) == reverse_swap(w)[n-j:],

so both families are suffixes of a single word: ``w`` or its dual.  The
inner sums of a factor form a chain that depends only on its run tail (the
runs after its first), and suffixes share tails across words as well as
within one.  So ``eval_combination`` plans a request in one pass: it finds
the terms that no cache or memo answers, checks the ``max_terms`` cap, and
fills their missing factors in one batch, whose words, sorted by reversed
runs, are walked with one stack of chains, so each chain is built once (a
dict of a batch's chains peaked 15 MB higher on a 553-term combination).
``eval_zeta`` then reads each suffix factor of a term's two words once,
and memoises the final double per (index entries, ``P``), so a repeat costs
one lookup.  Every request takes one path: the precision follows from the
tolerance and the coefficient mass, and the cap is checked before the cache
counts a lookup or any memo is written: it belongs to the request, not the key.

Repeated evaluation with an identical configuration is bit-identical, up
to what a cache may change (see :class:`EvalConfig`).
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul, rshift
from typing import Iterable, Optional, Union

from ohno.indices import Index, IndexCombination, _int_at_least, _sort_key, as_combination

__all__ = [
    "EvalConfig",
    "PrecisionError",
    "ZetaCache",
    "eval_combination",
    "eval_zeta",
    "eval_zeta_direct",
    "from_word",
    "reverse_swap",
    "to_word",
]


class PrecisionError(RuntimeError):
    """Raised when a series cap is exhausted before the error budget is met."""


# -- word codec ---------------------------------------------------------------

_SWAP = str.maketrans("XY", "YX")


def to_word(k: Index) -> str:
    """Encode an admissible index as a word over {X, Y}.

    ``(k1, ..., kr)`` maps to ``X^(kr-1) Y X^(k(r-1)-1) Y ... X^(k1-1) Y``:
    the entries are read last-to-first, each contributing an X-run followed
    by a single Y.  The word length equals the weight; admissibility makes
    the word start with X and end with Y.
    """
    if not k.admissible:
        raise ValueError(f"only admissible indices have a word encoding, got {k}")
    return "".join("X" * (e - 1) + "Y" for e in reversed(k.entries))


def _word_runs(word: str) -> tuple[int, ...]:
    """Split a Y-terminated word into X-run lengths plus one per Y."""
    runs: list[int] = []
    x = 0
    for ch in word:
        if ch == "X":
            x += 1
        else:
            runs.append(x + 1)
            x = 0
    if x:
        raise ValueError(f"series word {word!r} does not end with Y")
    return tuple(runs)


def from_word(word: str) -> Index:
    """Decode a word over {X, Y} back to an admissible index."""
    if not word or set(word) - {"X", "Y"}:
        raise ValueError(f"malformed word {word!r}: expected a nonempty string over X/Y")
    if word[0] != "X" or word[-1] != "Y":
        raise ValueError(f"malformed word {word!r}: must start with X and end with Y")
    return Index(tuple(reversed(_word_runs(word))))


def reverse_swap(word: str) -> str:
    """Reverse the word and exchange X with Y (the word form of duality)."""
    return word[::-1].translate(_SWAP)


# -- configuration and cache --------------------------------------------------

# Finest tolerance bucket of any evaluation, also where eval_combination stops
# refining the per-term budgets it scales by coefficient mass.  Results are
# doubles, so refining past the double-precision floor (tol 1e-15) buys nothing.
_FINEST_BUCKET = 15


def _bucket_of(tol: float) -> int:
    """Tolerance bucket: number of decimal digits, rounded towards finer."""
    return max(1, math.ceil(-math.log10(tol) - 1e-9))


def _default_precision(bucket: int) -> int:
    """Working precision in bits for a given tolerance bucket."""
    return 2 * math.ceil(bucket * math.log2(10)) + 16


@dataclass(frozen=True)
class ZetaCacheStats:
    hits: int = 0
    misses: int = 0


class ZetaCache:
    """Memo for evaluated indices, keyed by index and tolerance bucket.

    Each index stores the value computed at the finest bucket requested so
    far; a request at a coarser tolerance reuses it.  Safe for concurrent
    readers and writers (last write wins, which is idempotent because values
    are deterministic functions of index and bucket).

    The flat-file form has one line per index:
    ``index<TAB>tol-bucket<TAB>hex-float``; a line whose index is not
    admissible, bucket outside 1..15 or value not finite is malformed.
    """

    def __init__(self, path: Optional[str] = None):
        self._entries: dict[Index, tuple[int, float]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        if path is not None and os.path.exists(path):
            self.load(path)

    def lookup(self, k: Index, bucket: int) -> Optional[float]:
        entry = self._entries.get(k)
        if entry is not None and entry[0] >= bucket:
            with self._lock:
                self._hits += 1
            return entry[1]
        with self._lock:
            self._misses += 1
        return None

    def store(self, k: Index, bucket: int, value: float) -> None:
        with self._lock:
            current = self._entries.get(k)
            if current is None or current[0] < bucket:
                self._entries[k] = (bucket, value)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> ZetaCacheStats:
        return ZetaCacheStats(self._hits, self._misses)

    def save(self, path: str) -> None:
        """Write the flat file through a temporary file in the same directory
        that replaces ``path`` only once complete, so a save that fails or is
        killed midway leaves the previous file intact."""
        with self._lock:
            rows = sorted(
                ((k.to_text(), b, v) for k, (b, v) in self._entries.items()),
                key=lambda row: row[0],
            )
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                for text, bucket, value in rows:
                    fh.write(f"{text}\t{bucket}\t{value.hex()}\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    def load(self, path: str) -> None:
        """Merge the flat file at ``path``.  Every line is checked before any
        is stored, so a malformed line leaves the cache as it was."""
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    text, bucket_text, hex_text = line.split("\t")
                    k = Index.from_text(text)
                    bucket = int(bucket_text)
                    value = float.fromhex(hex_text)
                except ValueError:
                    raise ValueError(f"malformed cache line {line!r}") from None
                if not (k.admissible and 1 <= bucket <= _FINEST_BUCKET and math.isfinite(value)):
                    raise ValueError(f"malformed cache line {line!r}")
                rows.append((k, bucket, value))
        for row in rows:
            self.store(*row)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs.

    ``tol``
        Absolute accuracy target for a single value, a finite float or int.
        Values are returned as doubles, so targets below about 1e-15 are not
        honourable; the constructor rejects them.  The working precision:
        ``2*ceil(log2(1/tol)) + 16`` fixed-point bits for the tolerance
        bucket, finer for a combination whose coefficient mass is large.
    ``max_terms``
        Cap on the length of any single series factor.  An evaluation whose
        deepest factor needs more terms than this to meet the error budget
        raises :class:`PrecisionError` rather than returning a degraded
        value, whether or not its value is memoised or cached.
    ``cache``
        Optional :class:`ZetaCache`.  It answers with the value at the
        finest bucket it holds for an index: within the requested tolerance,
        but possibly not bit-identical to the value computed without it.
    """

    tol: float = 1e-12
    max_terms: int = 256
    cache: Optional[ZetaCache] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.tol) not in (float, int) or not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if self.tol < 1e-15:
            raise ValueError(f"tol {self.tol!r} is below the double-precision floor 1e-15")
        if not _int_at_least(self.max_terms, 8):
            raise ValueError(f"max_terms must be an integer >= 8, got {self.max_terms!r}")

    @cached_property
    def bucket(self) -> int:
        return _bucket_of(self.tol)

    @cached_property
    def precision(self) -> int:
        """Working precision in bits for a single index at ``tol``."""
        return _default_precision(self.bucket)


DEFAULT_CONFIG = EvalConfig()


# -- series factors in fixed point --------------------------------------------

# Cache of partial-integral values at 1/2, keyed by (word, precision).  The
# stopping rule depends only on the key, so entries are pure functions of it
# and can be shared freely across evaluations.
_FACTOR_CACHE: dict[tuple[str, int], int] = {}
_FACTOR_LOCK = threading.Lock()
# Stopping index per (depth, precision), and fixed-point inverse powers
# ``(1 << fbits) // m**n`` per (n, precision), indexed by m (entry 0 unused).
# Inverse-power tables only grow, in place, so a shorter read stays valid.
_STOPS: dict[tuple[int, int], int] = {}
_INV_POWERS: dict[tuple[int, int], list[int]] = {}
# Final value per precision and index entries (the index's own tuple, so a
# value costs no key of its own): a pure function of the two, like the
# factors it is summed from.
_VALUES: defaultdict[int, dict[tuple[int, ...], float]] = defaultdict(dict)


def _stop(depth: int, fbits: int) -> int:
    """Number of terms summed for a series factor of depth ``depth >= 1``.

    The factor with ``runs = (n1, ..., nk)``, ``k = depth``, is the nested
    series

        sum over m1 > m2 > ... > mk >= 1 of  (1/2)^m1 / (m1^n1 * ... * mk^nk)

    summed over ``m1 <= N``.  ``N`` is the first ``N >= k`` at which the
    proven tail majorant

        2^-N * (1 + ln N)^(k-1) * rho/(1-rho),   rho = exp((k-1)/N) / 2

    falls below ``2^-(fbits-8)``; the majorant dominates the true tail
    because the inner sums are bounded by (1 + ln N)^(k-1) and
    ``(1 + ln(N+j)) <= (1 + ln N) * exp(j/N)``.  It does not depend on the
    runs, and it grows with the depth.
    """
    key = (depth, fbits)
    stop = _STOPS.get(key)
    if stop is None:
        stop_log2 = -(fbits - 8)
        m = depth - 1
        while True:
            m += 1
            rho = math.exp((depth - 1) / m) / 2.0
            if rho < 1.0:
                tail_log2 = -m + (depth - 1) * math.log2(1.0 + math.log(m)) + math.log2(rho / (1.0 - rho))
                if tail_log2 < stop_log2:
                    break
        stop = _STOPS[key] = m
    return stop


def _inverse_powers(n: int, fbits: int, terms: int) -> list[int]:
    """``(1 << fbits) // m**n`` for ``m = 0..terms`` or more (entry 0 is 0)."""
    table = _INV_POWERS.setdefault((n, fbits), [0])
    if len(table) <= terms:
        one = 1 << fbits
        with _FACTOR_LOCK:
            table.extend([one // m**n for m in range(len(table), terms + 1)])
    return table


def _fill_factors(words: Iterable[str], fbits: int) -> None:
    """Memoise the factors of the suffixes of ``words`` that the memo lacks.

    The factor of a suffix with runs ``(n1, ..., nk)`` adds
    ``(2^fbits // m^n1) * inner(m-1) >> (fbits + m)`` for ``m = 1 ..
    _stop(k, fbits)``, where the chain ``inner(i)`` is the fixed-point nested
    sum over its run tail ``(n2, ..., nk)`` restricted to ``m2 <= i``, built
    alike (shift ``fbits``) from the chain of the tail one run shorter; the
    empty tail's chain is constant 1.  Stack level ``d`` holds the chain of
    the run tail of length ``d``.  Chain entries are prefix sums, so a level
    that a word shares with the word before it is extended, not rebuilt.
    A fill stores every missing suffix of its word, so the memo is closed
    under suffixes, and one lookup of a whole word tells whether it is done.
    """
    todo: dict[str, tuple[int, ...]] = {}  # word -> its runs, reversed
    for word in words:
        if word not in todo and (word, fbits) not in _FACTOR_CACHE:
            todo[word] = _word_runs(word)[::-1]
    one = 1 << fbits
    stack, path = [[one]], ()
    for word in sorted(todo, key=todo.__getitem__):
        if (word, fbits) in _FACTOR_CACHE:  # a suffix of a word filled before it
            continue
        rev = todo[word]
        depth = len(rev)
        terms = _stop(depth, fbits)
        shared = 0
        while shared < min(len(path), depth - 1) and path[shared] == rev[shared]:
            shared += 1
        del stack[shared + 1 :]
        path = rev[: depth - 1]
        stack += ([0] for _ in range(shared + 1, depth))
        stack[0] += repeat(one, terms - len(stack[0]))
        for d in range(1, depth):
            chain, have = stack[d], len(stack[d])
            if have < terms:
                inv = _inverse_powers(rev[d - 1], fbits, terms)
                steps = map(rshift, map(mul, inv[have:terms], stack[d - 1][have - 1 : terms - 1]), repeat(fbits))
                chain[have - 1 :] = accumulate(steps, initial=chain[-1])
        # (depth, first run) of the suffix at each position; the missing come first
        heads = ((d, n) for d, run in zip(range(depth, 0, -1), reversed(rev)) for n in range(run, 0, -1))
        for j, (d, n) in enumerate(heads):
            key = (word[j:], fbits)
            if key in _FACTOR_CACHE:
                break
            stop = _stop(d, fbits)
            inv = _inverse_powers(n, fbits, stop)
            _FACTOR_CACHE[key] = sum(
                map(rshift, map(mul, inv[1 : stop + 1], stack[d - 1]), range(fbits + 1, fbits + stop + 1))
            )


def clear_factor_cache() -> None:
    """Drop memoised values, series factors, stopping indices and
    inverse-power tables (all are recomputed on demand)."""
    with _FACTOR_LOCK:
        _VALUES.clear()
        _FACTOR_CACHE.clear()
        _STOPS.clear()
        _INV_POWERS.clear()


# -- evaluators ---------------------------------------------------------------


class _TermConfig(EvalConfig):
    """The configuration :func:`eval_combination` hands :func:`eval_zeta`
    for each term once the series cap is checked and the missing factors of
    every term are filled, so the term is read without either step."""


def eval_zeta(k: Index, cfg: Optional[EvalConfig] = None) -> float:
    """Evaluate an admissible index to within ``cfg.tol`` (absolute)."""
    cfg = cfg or DEFAULT_CONFIG
    if type(cfg) is not _TermConfig:
        if not isinstance(k, Index):
            raise ValueError(f"expected an Index, got {k!r}")
        return eval_combination(k, cfg)  # checks the cap, fills, then reads k below
    fbits, bucket, cache = cfg.precision, cfg.bucket, cfg.cache
    if cache is not None:
        hit = cache.lookup(k, bucket)
        if hit is not None:
            return hit
    values = _VALUES[fbits]
    value = values.get(k.entries)
    if value is None:
        word = to_word(k)
        dual = reverse_swap(word)
        # The split after j letters multiplies the factor of word[j:] by that
        # of reverse_swap(word[:j]) == dual[n-j:]; the empty word's is 1.
        one, n = 1 << fbits, len(word)
        lower = [_FACTOR_CACHE[word[j:], fbits] for j in range(n)] + [one]
        upper = [one] + [_FACTOR_CACHE[dual[j:], fbits] for j in range(n - 1, -1, -1)]
        acc = sum((u * v) >> fbits for u, v in zip(upper, lower))
        value = values[k.entries] = math.ldexp(float(acc), -fbits)
    if cache is not None:
        cache.store(k, bucket, value)
    return value


def eval_combination(comb: Union[Index, IndexCombination], cfg: Optional[EvalConfig] = None) -> float:
    """Evaluate a rational combination of admissible indices.

    Per-term tolerances are scaled by the combination's coefficient mass so
    the truncation budgets sum to at most ``cfg.tol``; the per-term budget is
    never pushed below 1e-15 because the memoised values are doubles anyway.
    One pass over the terms checks admissibility, finds the deepest factor
    and collects the words of the terms that neither the value memo nor the
    cache (peeked at, no lookup counted) answers.  Then the series cap is
    checked, one :func:`_fill_factors` call fills those words and their
    duals, and every term is read through :func:`eval_zeta`, in any order
    (``fsum`` is exact); errors name the first index in canonical order.
    """
    cfg = cfg or DEFAULT_CONFIG
    terms = {comb: 1} if isinstance(comb, Index) else as_combination(comb)._terms
    if not terms:
        return 0.0
    mass = sum(map(abs, terms.values()))
    bucket = min(max(cfg.bucket, _bucket_of(cfg.tol / max(float(mass), 1.0))), _FINEST_BUCKET)
    term_cfg = _TermConfig(tol=10.0**-bucket, max_terms=cfg.max_terms, cache=cfg.cache)
    fbits = term_cfg.precision
    values = _VALUES.get(fbits, {})
    held = cfg.cache._entries if cfg.cache is not None else {}
    deepest, words = 0, []
    for k in terms:
        entries = k.entries
        if not entries or entries[-1] < 2:  # k.admissible, inlined for the warm path
            bad = min((k for k in terms if not k.admissible), key=_sort_key)
            raise ValueError(f"cannot evaluate non-admissible index {bad}")
        # The two full words (the index's and its dual's, of length the
        # weight) are the deepest factors, and stops grow with depth.
        d = max(len(entries), sum(entries) - len(entries))
        if d > deepest:
            deepest = d
        if entries not in values and held.get(k, (0,))[0] < bucket:
            words.append(to_word(k))
    if _stop(deepest, fbits) > cfg.max_terms:
        tied = (k for k in terms if deepest in (len(k.entries), sum(k.entries) - len(k.entries)))
        worst = min(tied, key=_sort_key)
        raise PrecisionError(
            f"series cap of {cfg.max_terms} terms is below what a depth-{deepest} factor "
            f"needs to meet the error budget (index {worst}, precision {fbits} bits)"
        )
    if words:
        _fill_factors([*words, *map(reverse_swap, words)], fbits)
    return math.fsum(float(c) * eval_zeta(k, term_cfg) for k, c in terms.items())


def eval_zeta_direct(k: Index, terms: int) -> tuple[float, float]:
    """Direct nested summation up to ``mr <= terms``; returns (value, tail bound).

    The bound covers the truncation error:

        tail <= terms^(1-kr) * (1+ln terms)^(r-1)
                / ((kr-1) - (r-1)/(1+ln terms))

    valid once the summand is decreasing and the denominator positive;
    otherwise the bound degenerates to infinity.  Deliberately slow: this is
    the oracle, not the production evaluator.
    """
    if not k.admissible:
        raise ValueError(f"cannot evaluate non-admissible index {k}")
    r = k.depth
    if terms < r:
        raise ValueError(f"need at least depth={r} summation terms, got {terms}")
    ks = k.entries
    partial_terms: list[float] = []
    # levels[j] accumulates the depth-j partial sum over m_j <= current m - 1;
    # levels[0] is the empty-product sentinel.
    levels = [0.0] * (r + 1)
    levels[0] = 1.0
    for m in range(1, terms + 1):
        partial_terms.append(levels[r - 1] / m ** ks[r - 1])
        for j in range(r - 1, 0, -1):
            levels[j] += levels[j - 1] / m ** ks[j - 1]
    value = math.fsum(partial_terms)

    log_n = 1.0 + math.log(terms)
    kr = ks[-1]
    denom = (kr - 1) - (r - 1) / log_n
    decreasing = (r - 1) / log_n <= kr
    if denom <= 0 or not decreasing:
        bound = math.inf
    else:
        bound = terms ** (1 - kr) * log_n ** (r - 1) / denom
    return value, bound
