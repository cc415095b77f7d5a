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
    precision derived from a proven error bound.  This converges geometrically for
    *every* admissible index, including the ones with entries equal to 1 or
    a final entry of 2 where direct summation is hopeless.

``eval_zeta_direct``
    Independent oracle.  Straight summation of the defining nested sum up to
    a cutoff, together with a proven upper bound on the truncated tail of
    order ``N^(1-kr) * (log N)^(r-1)``.  Slowly convergent by design; used
    only to cross-check the production path.

Error budget of ``eval_zeta`` (absolute).  Fixed-point quantities are
integers in units of ``u = 2^-P``, ``P`` the working precision in bits.
Every step rounds down and every dropped term is positive, so each computed
factor, and the value before it becomes a double, falls short of the exact
one by a deficit ``>= 0``:

* inverse powers: ``a_m = 2^P // m^n = 2^P/m^n - eps`` with ``0 <= eps < 1``;
* chains: the exact chain of a run tail is ``c_d(i) = sum over m <= i of
  c_(d-1)(m-1) / m^n``, ``c_0 = 1``, at most ``H_i^d/d! <= L^d/d!`` for
  ``i < N``, where ``L = 1 + ln N``.  A step ``(a_m * C) >> P`` with
  ``C = c * 2^P - delta`` falls short of ``c * 2^P / m^n`` by at most
  ``delta/m + c + 1``, so by induction on ``d`` a chain's deficit at ``i``
  is at most ``i * A_d`` with ``A_d = d + sum_(j<d) L^j/j!``;
* factors: one of depth ``k`` sums ``N = _stop(k, P)`` terms, and term
  ``m`` is shifted ``m`` bits further, so it falls short by at most
  ``(A_(k-1) + L^(k-1)/(k-1)!) * 2^-m + 1``: less than
  ``N + k - 1 + S_k`` for all ``N`` terms, ``S_k = sum_(j<k) L^j/j!``.
  :func:`_stop` gives truncation the same share as those ``N`` floors: a
  tail of at most ``N`` units.  A factor's deficit is at most
  ``E_k = 2N + k - 1 + S_k``;
* read: an exact factor is at most ``Li_(1,...,1)(1/2) = (ln 2)^k/k! < 1``
  and the outer two of the ``w + 1`` products have the factor 1 exactly, so
  a product of factors short by ``e`` and ``f`` is short by at most
  ``e + f`` before its floor, which adds 1 to each of the ``w - 1`` inner
  products.  With ``d = max(r, w - r)`` the deepest factor (``r`` the
  depth, ``w`` the weight), the sum falls short by at most
  ``2w * E_d + w - 1`` units;
* the double: the sum is at most ``zeta(k) <= zeta(w) <= zeta(2) < 2`` (sum
  formula), so rounding it to the nearest double adds at most ``2^-53``.

Hence ``|eval_zeta(k) - zeta(k)| <= 2^-P * (2w * E_d + w - 1) + 2^-53``
(:func:`_bound`).  Factors below ``ln 2`` rather than 1 leave over a quarter
of the factor part as slack, which covers the floating-point evaluation of
the bound and of the stop rule's majorant.  The working precision at
tolerance ``10^-b`` is the least ``P`` at which the bound of the heaviest
index of the weight's class (weights up to 16, 17..32, 33..64, ...) is at
most ``10^-b`` (:func:`_default_precision`): ``log2(10^b)`` plus 13 or 14
guard bits up to weight 16, so 54 bits at ``b = 12``, and 1 or 2 bits more
per doubling of the weight.

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
within one.  So evaluation runs in three phases.  Plan: one pass over a
combination's terms checks the ``max_terms`` cap before the cache counts a
lookup or any memo is written (the cap belongs to the request, not the
key) and finds the terms that no cache or memo will answer.  Fill: one
batch per precision fills their missing factors; its words, sorted by
reversed runs, are walked with one stack of chains, so each chain is built
once per batch (a dict of a batch's chains peaked 15 MB higher on a
553-term combination).  The batch stores each factor in its precision's
memo, keyed by word, then sums each planned value from the suffix factors of
its index's two words and memoises the double per (bucket, index).  Read:
without a cache, one ``fsum`` over that memo in one pass; with one, each term
goes through ``eval_zeta`` to ``ZetaCache.lookup``, which takes the cache's
lock once to count a hit, or a miss and the row it stores from that memo.
``eval_combination`` plans one combination;
:func:`~ohno.verify.verify` plans each distinct combination of a grid once,
all before the fill, so one fill per precision serves the whole sweep and a
chain is built once in it; without a cache it also reads each one once.

The fill's window.  Floors are monotone and ``2^P // m^n <= 2^P // m``, so a
computed chain is at most the chain whose runs are all 1, exactly
``sum_(k>=1) e_k(1, 1/2, ..., 1/i) = prod_(m<=i) (1 + 1/m) - 1 = i`` at
index ``i``: every entry at ``i >= 1`` is at most ``i * 2^P``, so term ``m``
of a factor is below ``2^(P-m)``, and 0 from ``m = P`` on.  A chain of ``d``
runs is 0 below index ``d``.  So chains are built to ``min(N, P - 1)``
entries, and a factor of depth ``k`` sums ``m`` from ``k`` to ``min(N, P -
1)``, short of the first ``m`` with ``bit_length(2^P // m^n) +
bit_length(top) <= P + m``, ``top`` the last chain entry built (the left side
falls with ``m``, the right grows; ``head`` in ``_TABLES``).  Every skipped
term is 0, so every factor, the error budget and each value stand.  A suffix
whose first run is a whole inner run ``n`` reads the chain ``c`` that the
next level ``C`` adds that run to, so its term ``m`` is ``floor(a_m *
c(m-1) / 2^(P+m))``, and as ``floor(floor(x / 2^P) / 2^m) = floor(x /
2^(P+m))`` that is ``(C(m) - C(m-1)) >> m``: a step of ``C``, shifted.

Repeated evaluation with an identical configuration is bit-identical, up
to what a cache may change (see :class:`EvalConfig`).
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, repeat
from operator import mul, rshift, sub
from typing import Iterable, Optional, Union

from ohno.indices import Index, IndexCombination, _int_at_least, _int_text, _named, _sort_key, as_combination

__all__ = [
    "EvalConfig",
    "PrecisionError",
    "ZetaCache",
    "eval_combination",
    "eval_zeta",
    "eval_zeta_direct",
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
    if not isinstance(k, Index):
        raise ValueError(f"expected an Index, got {k!r}")
    if not k.admissible:
        raise ValueError(f"only admissible indices have a word encoding, got {k}")
    return "".join("X" * (e - 1) + "Y" for e in reversed(k))


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


# Weight classes: weights up to 2^c share the precision of class c >= 4, so
# every default grid (weight <= 15) reads at one precision per bucket.
_LIGHT = 16
# Rounding a value below 2 to the nearest double errs by at most half an ulp.
_HALF_ULP = 2.0**-53


def _bound(weight: int, depth: int, fbits: int) -> float:
    """Proven bound on ``|eval_zeta(k) - zeta(k)|`` for ``k`` of ``weight``
    whose deepest factor has ``depth``, read at ``fbits`` bits:
    ``2^-P * (2w * E_d + w - 1) + 2^-53`` in the module docstring."""
    n = _stop(depth, fbits)
    lg, s, t = 1.0 + math.log(n), 0.0, 1.0
    for j in range(1, depth + 1):
        s, t = s + t, t * lg / j
        if j > lg and t < s * 2.0**-54:  # t falls from here on, and s + t rounds to s
            break
    return math.ldexp(2 * weight * (2 * n + depth - 1 + s) + weight - 1, -fbits) + _HALF_ULP


@cache
def _default_precision(bucket: int, weight: int = _LIGHT) -> int:
    """Working precision in bits for an index of ``weight`` at tolerance
    ``10^-bucket``: the least at which :func:`_bound` of the heaviest index of
    the weight's class meets the tolerance."""
    heaviest = 1 << (max(weight, _LIGHT) - 1).bit_length()
    budget, fbits = 10.0**-bucket - _HALF_ULP, math.ceil(bucket * math.log2(10))
    # The bound's fixed-point part is 2^-P times units that grow with P, so no
    # precision short of the jump meets the budget.
    while (excess := (_bound(heaviest, heaviest - 1, fbits) - _HALF_ULP) / budget) > 1:
        fbits += math.ceil(math.log2(excess))
    return fbits


@dataclass(frozen=True)
class ZetaCacheStats:
    hits: int = 0
    misses: int = 0


# The cache-file text this process last parsed or wrote and the rows a parse of
# it keeps, one tuple so threads read a consistent pair; a hit is never stale.
_LAST_FILE: tuple[str, dict[Index, tuple[int, float]]] = ("", {})
# The line of each row of the last file this process wrote, with the entry it
# formats; an entry is immutable and held here, so ``is`` tells a kept line.
_LINES: dict[Index, tuple[tuple[int, float], str]] = {}


def _loads_back(k: object, bucket: object, value: object) -> bool:
    """Whether a cache row is valid, so that its file line loads back as it."""
    return (type(k) is Index and k.admissible and type(bucket) is int and 1 <= bucket <= _FINEST_BUCKET
            and type(value) is float and math.isfinite(value))


class ZetaCache:
    """Memo for evaluated indices, keyed by index and tolerance bucket.

    Each index stores the value computed at the finest bucket requested so
    far; a request at a coarser tolerance reuses it.  Safe for concurrent
    readers and writers (last write wins, which is idempotent because values
    are deterministic functions of index and bucket).

    The flat-file form has one line per index:
    ``index<TAB>tol-bucket<TAB>hex-float``; a line whose index is not
    admissible, bucket outside 1..15 or value not finite is malformed.
    :meth:`save` leaves alone a file that already holds every entry, so a
    hand-written valid file stays as written until something new is stored.
    A process-wide memo keeps the text and rows of the last file this process parsed
    or wrote, a second copy held until another file or :func:`clear_factor_cache`
    replaces it, so loading that file again costs one read and one compare.  The
    lines of the last file written stay beside it, so a save formats and checks
    only the rows stored since; the written bytes are those of a full format.
    """

    def __init__(self, path: Optional[str] = None):
        self._entries: dict[Index, tuple[int, float]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        # The path of a file known to hold every entry, None, or the token of a
        # save in flight, which becomes the path unless a store changes an entry.
        self._saved: object = None
        if path is not None and os.path.exists(path):
            self.load(path)

    def lookup(self, k: Index, bucket: int, precision: Optional[int] = None) -> Optional[float]:
        """The value held for ``k`` at ``bucket`` or finer, counted as a hit; else a miss, counted, and
        None, or with a ``precision`` the value the fill left for ``k`` in that value memo, stored here."""
        entry = self._entries.get(k)
        if entry is not None and entry[0] >= bucket:
            with self._lock:
                self._hits += 1
            return entry[1]
        with self._lock:
            self._misses += 1
            if precision is not None:
                value = _VALUES[precision][k]
                self._merge(((k, bucket, value),))  # a filled value is a valid row, so store's check is skipped
                return value
        return None

    def store(self, k: Index, bucket: int, value: float) -> None:
        """Keep ``value`` unless a finer bucket is held; a row that :meth:`load`
        would refuse (a float subclass loads back as a float) is a ``ValueError``."""
        if not (isinstance(value, float) and _loads_back(k, bucket, float(value))):
            raise ValueError(f"cannot cache bucket {bucket!r} and value {value!r} for {k!r}")
        with self._lock:
            self._merge(((k, bucket, value),))

    def _merge(self, rows: Iterable[tuple[Index, int, float]]) -> None:
        """Keep the finest bucket per index; the caller holds the lock."""
        for k, bucket, value in rows:
            current = self._entries.get(k)
            if current is None or current[0] < bucket:
                self._entries[k] = (bucket, value)
                self._saved = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> ZetaCacheStats:
        return ZetaCacheStats(self._hits, self._misses)

    def save(self, path: str) -> None:
        """Write the flat file through a temporary file in the same directory
        that replaces ``path`` only once complete, so a save that fails or is
        killed midway leaves the previous file intact.  Writes nothing while
        the file at ``path`` is known to hold every entry."""
        global _LAST_FILE, _LINES
        with self._lock:
            if self._saved == path and os.path.exists(path):
                return
            self._saved = token = [path]
            items = list(self._entries.items())
        kept, lines, back = _LINES, {}, True  # a row is formatted and checked once, when it first needs a line
        for k, entry in items:
            line = kept.get(k)
            if line is None or line[0] is not entry:
                line = (entry, f"{k.to_text()}\t{entry[0]}\t{entry[1].hex()}\n")
                back = back and _loads_back(k, *entry)
            lines[k] = line
        # Sorted by index text, since a tab sorts below every character of one.
        text = "".join(sorted(line for _, line in lines.values()))
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        with self._lock:
            if self._saved is token:
                self._saved = path
        if back:  # seed the memos only where a load of the text gives back every entry
            _LAST_FILE, _LINES = (text, dict(items)), lines

    def load(self, path: str) -> None:
        """Merge the flat file at ``path``, parsed unless the memo holds its text.
        Every line is checked before any is stored, so a malformed line leaves the cache as it was."""
        global _LAST_FILE
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        last_text, rows = _LAST_FILE
        if text != last_text:
            rows = {}
            for line in text.split("\n"):  # not splitlines(), which also splits at \x0b, \x0c, \x1c..\x1e
                line = line.strip()
                if not line:
                    continue
                try:
                    index_text, bucket_text, hex_text = line.split("\t")
                    k, bucket, value = Index.from_text(index_text), _int_text(bucket_text), float.fromhex(hex_text)
                    if not _loads_back(k, bucket, value):
                        raise ValueError
                except ValueError:
                    raise ValueError(f"malformed cache line {line!r}") from None
                if rows.get(k, (0,))[0] < bucket:  # the finest bucket, on a tie the first line
                    rows[k] = (bucket, value)
            _LAST_FILE = (text, rows)
        with self._lock:
            if self._entries:
                self._merge((k, b, v) for k, (b, v) in rows.items())
                self._saved = None
            else:
                self._entries.update(rows)  # a copy: a later store must not reach the memo
                self._saved = path


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs.

    ``tol``
        Absolute accuracy target for a single value, a finite float or int.
        Values are returned as doubles, so targets below about 1e-15 are not
        honourable; the constructor rejects them.  A value is within
        ``10^-bucket`` of the exact one, ``bucket`` the number of decimal
        digits of ``tol`` rounded towards finer.  The working precision is
        the least number of fixed-point bits at which the module
        docstring's proven bound meets ``10^-bucket`` for every weight in
        the index's weight class (up to 16, 17..32, 33..64, ...): 54 bits
        at tol 1e-12 up to weight 16.  A combination whose coefficient mass
        is large refines the bucket of its terms.
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
        """Working precision in bits at ``tol`` for an index of weight at most 16."""
        return _default_precision(self.bucket)

    @cached_property
    def _term_configs(self) -> dict[int, "EvalConfig"]:
        return {}  # bucket -> the configuration that :func:`_plan` reads terms at


DEFAULT_CONFIG = EvalConfig()


# -- series factors in fixed point --------------------------------------------

# Partial-integral values at 1/2: one dict per precision, keyed by word,
# made when a fill first stores at that precision.  The stopping rule depends
# only on the word and the precision, so entries are pure functions of both
# and can be shared freely across evaluations.
_FACTOR_CACHE: dict[int, dict[str, int]] = {}
# Per (n, precision) the pair of lists ``(inv, head)`` over ``m = 0..P - 1``
# (entry 0 is 0 in both): ``inv[m] = (1 << P) // m**n``, as far as any chain
# or factor reads, and ``head[m] = m - bit_length(inv[m])``, strictly
# increasing from ``m = 1`` (see :func:`_fill_factors`).
_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
# Final value per bucket and index, like ``ZetaCache``'s entries: a pure
# function of the two, like the factors it is summed from.  A bucket's memo
# is keyed by ``EvalConfig.precision``, its precision for weights up to 16;
# a heavier index summed at its weight class's precision shares that memo.
# :func:`_fill` computes every value, :func:`eval_zeta` reads them.
_VALUES: defaultdict[int, dict[Index, float]] = defaultdict(dict)


@cache
def _stop(depth: int, fbits: int) -> int:
    """Number of terms summed for a series factor of depth ``depth >= 1``.

    The factor with ``runs = (n1, ..., nk)``, ``k = depth``, is the nested
    series

        sum over m1 > m2 > ... > mk >= 1 of  (1/2)^m1 / (m1^n1 * ... * mk^nk)

    summed over ``m1 <= N``.  ``N`` is the first ``N >= k`` at which the
    proven tail majorant

        2^-N * (1 + ln N)^(k-1) * rho/(1-rho),   rho = exp((k-1)/N) / 2

    falls below ``N * 2^-fbits``: truncation takes the same share of the
    error budget as the ``N`` floors of the summed terms (module
    docstring).  The majorant dominates the true tail because the inner
    sums are bounded by (1 + ln N)^(k-1) and
    ``(1 + ln(N+j)) <= (1 + ln N) * exp(j/N)``.  It does not depend on the
    runs, and it grows with the depth.  Past ``rho < 1`` every term of the
    majorant's log falls with ``N``, and so does ``-ln N``, so the test
    fails up to ``N`` and holds beyond it: a doubling search and a
    bisection find ``N`` in ``O(log N)`` tests, also for the depth of a
    million that a refused index can ask for.
    """
    def short(m: int) -> bool:  # the majorant at m is not yet below m * 2^-fbits
        rho = math.exp((depth - 1) / m) / 2.0
        if rho >= 1.0:
            return True
        tail_log2 = -m + (depth - 1) * math.log2(1.0 + math.log(m)) + math.log2(rho / (1.0 - rho))
        return tail_log2 >= math.log2(m) - fbits

    low, stop = depth - 1, depth  # short(low) or low < depth; the stop is in (low, stop]
    while short(stop):
        low, stop = stop, 2 * stop
    while stop - low > 1:
        mid = (low + stop) // 2
        low, stop = (mid, stop) if short(mid) else (low, mid)
    return stop


def _tables(n: int, fbits: int) -> tuple[list[int], list[int]]:
    """The pair ``(inv, head)`` of ``_TABLES`` for ``(n, fbits)``, built on first use."""
    tables = _TABLES.get((n, fbits))
    if tables is None:
        inv = [0, *((1 << fbits) // m**n for m in range(1, fbits))]
        tables = _TABLES.setdefault((n, fbits), (inv, [m - a.bit_length() for m, a in enumerate(inv)]))
    return tables


def _fill_factors(words: Iterable[str], fbits: int) -> None:
    """Memoise the factors of the suffixes of ``words`` that the memo lacks.

    The factor of a suffix with runs ``(n1, ..., nk)`` adds
    ``(2^fbits // m^n1) * inner(m-1) >> (fbits + m)`` for ``m = 1 ..
    _stop(k, fbits)``, where the chain ``inner(i)`` is the fixed-point nested
    sum over its run tail ``(n2, ..., nk)`` restricted to ``m2 <= i``, built
    alike (shift ``fbits``) from the chain of the tail one run shorter; the
    empty tail's chain is constant 1.  Stack level ``d`` holds the chain of
    the run tail of length ``d``.  Chain entries are prefix sums, so a level
    that a word shares with the word before it is extended, not rebuilt, and
    a suffix that starts with a whole inner run reads its terms off the
    steps of the next level (module docstring).  A fill stores every missing
    suffix of its word, so the memo is closed under suffixes, and one lookup
    of a whole word tells whether it is done.  Only the terms that can be
    nonzero are summed, chains only as far as they read (module docstring):
    each factor and the error budget are unchanged.  Each run's tables and
    each depth's stop are looked up once per fill.
    """
    memo = _FACTOR_CACHE.get(fbits, {})
    todo: dict[str, tuple[int, ...]] = {}  # word -> its runs, reversed
    for word in words:
        if word not in todo and word not in memo:
            todo[word] = tuple(len(x) + 1 for x in reversed(word[:-1].split("Y")))
    if not todo:
        return
    memo = _FACTOR_CACHE.setdefault(fbits, memo)
    tables = [None, *(_tables(n, fbits) for n in range(1, max(map(max, todo.values())) + 1))]
    stops = [min(_stop(d, fbits), fbits - 1) for d in range(1, max(map(len, todo.values())) + 1)]
    one = 1 << fbits
    stack, path = [[one]], ()
    for word in sorted(todo, key=todo.__getitem__):
        rev = todo[word]
        depth = len(rev)
        terms = stops[depth - 1]
        shared = 0
        while shared < min(len(path), depth - 1) and path[shared] == rev[shared]:
            shared += 1
        del stack[shared + 1 :]
        path = rev[: depth - 1]
        stack += ([0] * d for d in range(shared + 1, depth))
        stack[0] += repeat(one, terms - len(stack[0]))
        for d in range(1, depth):
            chain, have = stack[d], len(stack[d])
            if have < terms:
                steps = map(mul, tables[rev[d - 1]][0][have:terms], stack[d - 1][have - 1 : terms - 1])
                chain[have - 1 :] = accumulate(map(rshift, steps, repeat(fbits)), initial=chain[-1])
        # (depth, first run) of the suffix at each position; the missing come first
        heads = ((d, n) for d, run in zip(range(depth, 0, -1), reversed(rev)) for n in range(run, 0, -1))
        for j, (d, n) in enumerate(heads):
            suffix = word[j:]
            if suffix in memo:
                break
            inv, head = tables[n]
            chain = stack[d - 1]
            cut = bisect_left(head, chain[-1].bit_length() - fbits, d, stops[d - 1] + 1)
            if d < depth and n == rev[d - 1] and cut <= len(up := stack[d]):  # a whole inner run
                memo[suffix] = sum(map(rshift, map(sub, up[d:cut], up[d - 1 : cut - 1]), range(d, cut)))
            else:
                products = map(mul, inv[d:cut], chain[d - 1 : cut - 1])
                memo[suffix] = sum(map(rshift, products, range(fbits + d, fbits + cut)))


def clear_factor_cache() -> None:
    """Drop every process-wide memo: values, series factors, stopping indices,
    working precisions and inverse-power tables (all are recomputed on demand), and the last
    cache-file text with its rows and lines (the next load parses again)."""
    global _LAST_FILE, _LINES
    _LAST_FILE, _LINES = ("", {}), {}
    _VALUES.clear()
    _FACTOR_CACHE.clear()
    _TABLES.clear()
    _stop.cache_clear()
    _default_precision.cache_clear()


# -- evaluators ---------------------------------------------------------------


class _TermConfig(EvalConfig):
    """What :func:`_plan` hands :func:`_read`, which hands it to :func:`eval_zeta` with each term
    when it has a cache: the term is read off the cache, or on a miss the value memo, without a cap check."""


def eval_zeta(k: Index, cfg: Optional[EvalConfig] = None) -> float:
    """Evaluate an admissible index to within ``10^-cfg.bucket`` (absolute)."""
    cfg = cfg or DEFAULT_CONFIG
    if type(cfg) is not _TermConfig:
        if not isinstance(k, Index):
            raise ValueError(f"expected an Index, got {k!r}")
        return eval_combination(k, cfg)  # checks the cap, fills, then reads k
    return cfg.cache.lookup(k, cfg.bucket, cfg.precision)  # _read passes a term only with a cache


def _plan(comb: Union[Index, IndexCombination], cfg: EvalConfig, todo: dict, held: dict) -> tuple:
    """Check one combination and add the terms whose values the fill must
    compute before it is read to ``todo`` (per precision of the factors, each
    index with the precision of the value memo it is read from); returns what
    :func:`_read` takes.  Per-term tolerances are scaled by the coefficient
    mass so the per-term bounds sum to at most ``cfg.tol``, but never below
    1e-15.  A refusal (errors name the first index in canonical order) leaves
    ``todo`` and ``held`` alone.  ``held`` maps an index to the bucket the
    cache will hold for it once the combinations planned before are read, so
    a plan follows the cache's store order without a lookup counted."""
    terms = {comb: 1} if isinstance(comb, Index) else as_combination(comb)._terms
    if not terms:
        return cfg, terms
    mass = sum(map(abs, terms.values()))
    try:
        scale = max(float(mass), 1.0)
    except OverflowError:
        raise ValueError("the coefficient mass of the combination is beyond the double range") from None
    bucket = min(max(cfg.bucket, _bucket_of(cfg.tol / scale)), _FINEST_BUCKET)
    term_cfg = cfg._term_configs.get(bucket) or cfg._term_configs.setdefault(
        bucket, _TermConfig(tol=10.0**-bucket, max_terms=cfg.max_terms, cache=cfg.cache))
    light = term_cfg.precision
    values = _VALUES.get(light, {})
    deepest: dict[int, int] = {}  # precision -> depth of the deepest factor read at it
    wanted: dict[Index, int] = {}  # index -> its precision
    for k in terms:
        if not k or k[-1] < 2:  # k.admissible, inlined for the warm path
            bad = min((k for k in terms if not k.admissible), key=_sort_key)
            raise ValueError(f"cannot evaluate non-admissible index {_named(bad)}")
        # The two full words (the index's and its dual's, of length the
        # weight) are the deepest factors, and stops grow with depth.
        w = sum(k)
        fbits = light if w <= _LIGHT else _default_precision(bucket, w)  # no call on the warm path
        d = max(len(k), w - len(k))
        if d > deepest.get(fbits, 0):
            deepest[fbits] = d
        if k not in values:
            wanted[k] = fbits
    over = {fbits: d for fbits, d in deepest.items() if _stop(d, fbits) > cfg.max_terms}
    if over:
        fbits_of = {k: _default_precision(bucket, sum(k)) for k in terms}
        tied = (k for k, fbits in fbits_of.items() if over.get(fbits) in (len(k), sum(k) - len(k)))
        worst = min(tied, key=_sort_key)
        fbits = fbits_of[worst]
        raise PrecisionError(
            f"series cap of {cfg.max_terms} terms is below what a depth-{over[fbits]} factor "
            f"needs to meet the error budget (index {_named(worst)}, precision {fbits} bits)"
        )
    if cfg.cache is not None:
        entries = cfg.cache._entries
        missed = {k: bucket for k in terms if (held.get(k) or entries.get(k, (0,))[0]) < bucket}
        wanted = {k: fbits for k, fbits in wanted.items() if k in missed}
        held.update(missed)  # a miss stores the value read at the bucket
    for k, fbits in wanted.items():
        todo.setdefault(fbits, {})[k] = light
    return term_cfg, terms


def _fill(todo: dict[int, dict[Index, int]]) -> None:
    """Per precision, one :func:`_fill_factors` call for the planned words and
    their duals, then each planned value into the value memo it is read from."""
    for fbits, ks in todo.items():
        words = list(map(to_word, ks))
        duals = list(map(reverse_swap, words))
        _fill_factors([*words, *duals], fbits)
        memo = _FACTOR_CACHE[fbits]
        for (k, light), word, dual in zip(ks.items(), words, duals):
            # The split after j letters multiplies the factor of word[j:] by that
            # of reverse_swap(word[:j]) == dual[n-j:]; the empty word's is exactly
            # 1, so the outer two splits add the factors of word and dual.
            n = len(word)
            lower = [memo[word[j:]] for j in range(1, n)]
            upper = [memo[dual[j:]] for j in range(n - 1, 0, -1)]
            acc = memo[word] + memo[dual] + sum(map(rshift, map(mul, lower, upper), repeat(fbits)))
            _VALUES[light][k] = math.ldexp(float(acc), -fbits)


def _read(term_cfg: EvalConfig, terms: dict) -> float:
    """The value of filled terms, read in any order (``fsum`` is exact) and refused beyond the double range.
    Without a cache, the value memo in one pass (an empty side reads none, so makes no memo); with
    one, each term through :func:`eval_zeta`, looked up at each read so that a wrapper of it sees them."""
    if term_cfg.cache is not None:
        values = map(eval_zeta, terms, repeat(term_cfg))
    else:
        values = map(_VALUES[term_cfg.precision].__getitem__, terms) if terms else ()
    try:  # an int or Fraction times a float is float(c) times it; _plan refused a mass beyond the double range
        value = math.fsum(map(mul, terms.values(), values))
    except OverflowError:  # a partial sum beyond the double range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("the value of the combination is beyond the double range")
    return value


def eval_combination(comb: Union[Index, IndexCombination], cfg: Optional[EvalConfig] = None) -> float:
    """Evaluate a rational combination of admissible indices: plan, fill, read."""
    todo: dict[int, dict[Index, int]] = {}
    planned = _plan(comb, cfg or DEFAULT_CONFIG, todo, {})
    _fill(todo)
    return _read(*planned)


def eval_zeta_direct(k: Index, terms: int) -> tuple[float, float]:
    """Direct nested summation up to ``mr <= terms``; returns (value, tail bound).

    The bound covers the truncation error:

        tail <= terms^(1-kr) * (1+ln terms)^(r-1)
                / ((kr-1) - (r-1)/(1+ln terms))

    valid once the summand is decreasing and the denominator positive;
    otherwise the bound degenerates to infinity.  Deliberately slow: this is
    the oracle, not the production evaluator.
    """
    if not isinstance(k, Index):
        raise ValueError(f"expected an Index, got {k!r}")
    if not k.admissible:
        raise ValueError(f"cannot evaluate non-admissible index {k}")
    r = k.depth
    if not _int_at_least(terms, r):
        raise ValueError(f"need at least depth={r} summation terms, got {terms!r}")
    partial_terms: list[float] = []
    # levels[j] accumulates the depth-j partial sum over m_j <= current m - 1;
    # levels[0] is the empty-product sentinel.
    levels = [0.0] * (r + 1)
    levels[0] = 1.0
    for m in range(1, terms + 1):
        partial_terms.append(levels[r - 1] / m ** k[r - 1])
        for j in range(r - 1, 0, -1):
            levels[j] += levels[j - 1] / m ** k[j - 1]
    value = math.fsum(partial_terms)

    log_n = 1.0 + math.log(terms)
    kr = k[-1]
    denom = (kr - 1) - (r - 1) / log_n
    decreasing = (r - 1) / log_n <= kr
    if denom <= 0 or not decreasing:
        bound = math.inf
    else:
        bound = terms ** (1 - kr) * log_n ** (r - 1) / denom
    return value, bound
