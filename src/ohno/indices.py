"""Exact algebra of integer-sequence indices and their rational formal sums.

An *index* is a finite sequence of positive integers.  It is *admissible*
when it is nonempty and its last entry is at least 2; admissible indices are
exactly the ones whose nested sum converges (see :mod:`ohno.zeta`).

On top of single indices the module provides Q-linear formal combinations
and the three products used throughout the package:

* ``sha``      -- the interleaving (shuffle-of-entries) product ``#``,
* ``hast``     -- the position sum: add a fixed amount to one entry, summed
                  over all positions,
* ``star_single`` -- the depth-one harmonic product ``(k) * l = (k)#l + (k) hast l``.

Each linear operator (``sha``, ``hast``, ``map_indices`` and the maps built
on it) is one loop over the terms of its operands that writes into one
dict; no per-term combination is built and merged.  Within one
:func:`~ohno.verify.verify` call, the sweep memo ``_MEMO`` keeps the results
of ``sha``, ``hast`` and ``dual_linear`` per arguments, as it keeps those of
the builders of :mod:`ohno.sums`.

Everything in this module is exact and no floats ever appear.  A
coefficient is an ``int`` whenever its value is an integer and a
``fractions.Fraction`` otherwise; only rational input (a ``Fraction``
scalar, or a ``3/2*`` coefficient in :mod:`ohno.expr` text) brings one
in, and a ``Fraction`` with denominator 1 is stored as an ``int``.  Equal
values compare and hash alike in both types, so the rule changes no result.

An ``Index`` is a ``tuple`` of its entries; it equals, and hashes like, the
plain tuple.  The public constructors ``Index(...)`` and
``IndexCombination(...)`` check what they are given.  What the algebra
builds from checked operands (sums, scalings, products, shifts and duals)
goes through the trusted constructors: ``_trusted_index``, which is
``tuple.__new__`` on ``Index``, and ``_trusted_combination``, which wraps
the one dict an operator built, its zero terms already dropped and its
integral coefficients already ``int``; neither checks anything.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from fractions import Fraction
from functools import partial, wraps
from itertools import combinations_with_replacement
from operator import sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "EMPTY",
    "Index",
    "IndexCombination",
    "append_entry",
    "as_combination",
    "combination_to_text",
    "dual_linear",
    "enumerate_shifts",
    "hast",
    "iter_admissible",
    "repeat",
    "sha",
    "star_single",
]

Scalar = Union[int, Fraction]


def _int_at_least(value: object, low: int) -> bool:
    """The one integer-argument check: exactly an ``int`` (so not a ``bool``) >= ``low``."""
    return type(value) is int and value >= low


def _named(k: "Index") -> str:
    """``k`` as text, or beyond depth 12 its end entries, depth and weight, so an error stays short."""
    return str(k) if len(k) <= 12 else f"({k[0]},...,{k[-1]}) of depth {len(k)} and weight {sum(k)}"


class Index(tuple):
    """A finite sequence of positive integers, stored as the tuple of its entries.

    An index equals, and hashes like, the plain tuple of its entries, so
    ``Index((1, 3)) == (1, 3)`` and either finds the other in a dict or set.
    Slicing or concatenating an index gives a plain tuple; where an index is
    required (a combination key, :func:`~ohno.zeta.eval_zeta`), a plain tuple
    is refused.  The empty index ``EMPTY`` is the multiplicative unit of
    ``sha``; it is never admissible and never evaluated.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "Index":
        entries = tuple(entries)
        for e in entries:
            if not _int_at_least(e, 1):
                raise ValueError(f"index entries must be positive integers, got {entries!r}")
        return tuple.__new__(cls, entries)

    @property
    def weight(self) -> int:
        """Sum of the entries."""
        return sum(self)

    @property
    def depth(self) -> int:
        """Number of entries."""
        return len(self)

    @property
    def admissible(self) -> bool:
        """True when nonempty with last entry >= 2."""
        return bool(self) and self[-1] >= 2

    def dual(self) -> "Index":
        """The dual index.

        Writing the index as ``({1}^(a1-1), b1+1, ..., {1}^(al-1), bl+1)``
        with all ``ap, bq >= 1``, the dual is
        ``({1}^(bl-1), al+1, ..., {1}^(b1-1), a1+1)``.  Duality is an
        involution on admissible indices; it preserves weight and sends
        depth to weight minus depth.
        """
        if not self.admissible:
            raise ValueError(f"dual is defined for admissible indices only, got {_named(self)}")
        pairs: list[tuple[int, int]] = []
        ones = 0
        for e in self:
            if e == 1:
                ones += 1
            else:
                pairs.append((ones + 1, e - 1))
                ones = 0
        out: list[int] = []
        for a, b in reversed(pairs):
            out.extend([1] * (b - 1))
            out.append(a + 1)
        return _trusted_index(out)

    def to_text(self) -> str:
        """Comma-separated entries, e.g. ``"1,3"``; the empty index is ``"()"``."""
        return ",".join(map(str, self)) if self else "()"

    @staticmethod
    def from_text(text: str) -> "Index":
        """Parse ``"2,3"`` or ``"(2,3)"``; ``""`` and ``"()"`` are the empty index.
        Each entry is spelt as in :mod:`ohno.expr` (see :func:`_int_text`)."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1].strip()
        if text == "":
            return EMPTY
        try:
            entries = tuple(map(_int_text, text.split(",")))
        except ValueError:
            raise ValueError(f"malformed index text {text!r}") from None
        return _trusted_index(entries) if min(entries) >= 1 else Index(entries)

    def __str__(self) -> str:
        return f"({self.to_text()})" if self else "()"

    def __repr__(self) -> str:
        return f"Index({tuple.__repr__(self)})"


EMPTY = Index(())

# An integer literal of :mod:`ohno.expr`, with spaces around it and perhaps a
# ``-`` that ``Index`` then refuses (no ``+``, no ``_``), split before its last 18 digits.
_INT_TEXT = re.compile(r"\s*(-?)(\d*?)(\d{1,18})\s*")


def _int_text(text: str) -> int:
    """The int spelt by ``text``, an entry of index text, below 10**18 whatever its length."""
    match = _INT_TEXT.fullmatch(text)
    if not match:
        raise ValueError(f"malformed integer {text!r}")
    if match[2] and any(map(int, match[2])):  # the digits before the last 18 (int(ch) reads any \d)
        raise ValueError("integer too large (limit 999999999999999999)")
    return int(match[1] + match[3])


# An index over positive ints the algebra built itself, without the checks
# of ``Index(...)``.
_trusted_index = partial(tuple.__new__, Index)


def repeat(a: int, l: int) -> Index:
    """The index ``({a}^l)``: the entry ``a`` repeated ``l`` times."""
    if not _int_at_least(a, 1):
        raise ValueError(f"repeat needs a positive entry, got {a!r}")
    if not _int_at_least(l, 0):
        raise ValueError(f"repeat needs a nonnegative count, got {l!r}")
    return Index((a,) * l)


def _sort_key(k: Index) -> tuple[int, tuple[int, ...]]:
    return (len(k), k)


def _scalar(c: Scalar) -> Scalar:
    """``c`` as a stored coefficient: an ``int`` when integral, else a
    ``Fraction``; ``Fraction(c)`` rejects what is not a number."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _settled(terms: dict[Index, Scalar]) -> dict[Index, Scalar]:
    """``terms``, in place, with zero terms dropped and integral coefficients as ``int``."""
    for k in [k for k, c in terms.items() if not c or type(c) is not int]:
        if terms[k]:
            terms[k] = _scalar(terms[k])
        else:
            del terms[k]
    return terms


class IndexCombination:
    """A finite formal sum of indices with exact rational coefficients.

    Zero-coefficient terms are dropped eagerly, so two combinations are equal
    exactly when they carry the same support with the same coefficients.
    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Index, Scalar], Iterable[tuple[Index, Scalar]], None] = None):
        data: dict[Index, Scalar] = {}
        for k, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            if not isinstance(k, Index):
                raise ValueError(f"combination keys must be Index, got {k!r}")
            data[k] = data.get(k, 0) + (c if type(c) is int else _scalar(c))
        self._terms = _settled(data)

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Index, Scalar]]:
        """Terms in canonical order: by depth, then lexicographically."""
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]))

    def coefficient(self, k: Index) -> Scalar:
        return self._terms.get(k, 0)

    def coefficient_mass(self) -> Scalar:
        """Sum of absolute values of the coefficients."""
        return sum(abs(c) for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Index, Scalar]]:
        return iter(self.items())

    def __contains__(self, k: Index) -> bool:
        return k in self._terms

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "IndexCombination") -> "IndexCombination":
        if not isinstance(other, IndexCombination):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():  # settles only the keys that other touches
            if c := out.get(k, 0) + c:
                out[k] = c if type(c) is int else _scalar(c)
            else:
                del out[k]
        return _trusted_combination(out)

    def __sub__(self, other: "IndexCombination") -> "IndexCombination":
        if not isinstance(other, IndexCombination):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "IndexCombination":
        return _trusted_combination({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "IndexCombination":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return _trusted_combination(_settled({k: c * scalar for k, c in self._terms.items()}))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexCombination):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]  # mutable-dict backed; not hashable

    # -- structural maps ------------------------------------------------------

    def map_indices(self, f: Callable[[Index], Index]) -> "IndexCombination":
        """Apply an index-to-index map to the support, keeping coefficients."""
        out: dict[Index, Scalar] = {}
        for k, c in self._terms.items():
            kk = f(k)
            out[kk] = out.get(kk, 0) + c
        return _trusted_combination(_settled(out))

    def __repr__(self) -> str:
        return f"IndexCombination({combination_to_text(self)!r})"

    def __str__(self) -> str:
        return combination_to_text(self)


def _trusted_combination(terms: dict[Index, Scalar]) -> IndexCombination:
    """A combination wrapping ``terms``, a dict the algebra built and settled
    (see :func:`_settled`), without the checks of ``IndexCombination(...)``."""
    comb = object.__new__(IndexCombination)
    comb._terms = terms
    return comb


def as_combination(x: Union[Index, IndexCombination]) -> IndexCombination:
    """Lift an index to a one-term combination; pass combinations through."""
    if isinstance(x, IndexCombination):
        return x
    if isinstance(x, Index):
        return IndexCombination({x: 1})
    raise ValueError(f"expected Index or IndexCombination, got {x!r}")


def combination_to_text(comb: IndexCombination) -> str:
    """Canonical text form: ``coef*(entries)`` terms joined by `` + ``/`` - ``.

    Unit coefficients are left implicit; the zero combination prints ``"0"``.
    The result round-trips through the expression parser in :mod:`ohno.expr`.
    """
    if comb.is_zero:
        return "0"
    parts: list[str] = []
    for i, (k, c) in enumerate(comb.items()):
        body = str(k)
        mag = abs(c)
        term = body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f" - {term}" if c < 0 else f" + {term}")
    return "".join(parts)


_MEMO: ContextVar[Optional[dict]] = ContextVar("ohno_sweep_memo", default=None)


def _memoised(builder: Callable) -> Callable:
    """The pure ``builder``, its results shared in the open memo between positional
    calls with arguments equal in value and type, a combination counting as its terms."""

    @wraps(builder)
    def shared(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None or kwargs:
            return builder(*args, **kwargs)
        key = (builder, *(frozenset(a._terms.items()) if type(a) is IndexCombination else (type(a), a) for a in args))
        if key not in memo:
            memo[key] = builder(*args)
        return memo[key]

    return shared


# -- duality on combinations --------------------------------------------------


@_memoised
def dual_linear(comb: Union[Index, IndexCombination]) -> IndexCombination:
    """Apply duality to every support index, keeping coefficients."""
    return as_combination(comb).map_indices(lambda k: k.dual())


# -- shift enumeration --------------------------------------------------------


def enumerate_shifts(r: int, m: int) -> list[tuple[int, ...]]:
    """All length-``r`` tuples of nonnegative integers with sum ``m``.

    Ordered lexicographically; there are ``C(m + r - 1, r - 1)`` of them.
    """
    if not _int_at_least(r, 0):
        raise ValueError(f"shift length must be a nonnegative integer, got {r!r}")
    if not _int_at_least(m, 0):
        raise ValueError(f"shift total must be a nonnegative integer, got {m!r}")
    return _shifts(r, m)


def _shifts(r: int, m: int) -> list[tuple[int, ...]]:
    """:func:`enumerate_shifts` for arguments already checked: the differences
    of the nondecreasing partial sums ``0 <= s1 <= ... <= s(r-1) <= m``, which
    ``combinations_with_replacement`` yields, and the differences keep, in
    lexicographic order."""
    if r == 0:
        if m > 0:
            raise ValueError(f"no length-0 shift vector has sum {m}")
        return [()]
    return [tuple(map(sub, s + (m,), (0,) + s)) for s in combinations_with_replacement(range(m + 1), r - 1)]


def iter_admissible(max_weight: int) -> Iterator[Index]:
    """All admissible indices of weight at most ``max_weight``, by weight,
    then last entry, then entries.  The entries before the last are a
    composition of the rest ``n`` of the weight: one of ``r`` parts is a shift
    vector of length ``r`` and sum ``n - r``, plus one in every entry.  A
    bound that is no ``int`` is refused when the iteration starts."""
    if type(max_weight) is not int:  # the package's integer rule: a bool is refused
        raise ValueError(f"the weight bound must be an integer, got {max_weight!r}")
    for w in range(2, max_weight + 1):
        for last in range(2, w + 1):
            n = w - last
            parts = range(min(n, 1), n + 1)  # no parts only for an empty head
            heads = sorted(tuple(e + 1 for e in v) for r in parts for v in _shifts(r, n - r))
            for head in heads:
                yield _trusted_index((*head, last))


# -- the interleaving product -------------------------------------------------


def _interleave(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Interleavings of two entry sequences, with multiplicities.

    A count table over positions: ``row[j]`` maps every interleaving of
    ``a[:i]`` and ``b[:j]`` to its multiplicity, and row ``i`` follows from
    row ``i - 1`` by the end-recursion

        (K,k)#(L,l) = (K#(L,l), k) + ((K,k)#L, l)

    with the empty sequence as the unit.  Only two rows are alive at a time,
    and nothing outlives the call.
    """
    row = [{b[:j]: 1} for j in range(len(b) + 1)]
    for x in a:
        cell = {t + (x,): n for t, n in row[0].items()}
        next_row = [cell]
        for above, y in zip(row[1:], b):
            left = cell
            cell = {t + (x,): n for t, n in above.items()}
            for t, n in left.items():
                t += (y,)
                cell[t] = cell.get(t, 0) + n
            next_row.append(cell)
        row = next_row
    return row[-1]


@_memoised
def sha(left: Union[Index, IndexCombination], right: Union[Index, IndexCombination]) -> IndexCombination:
    """The interleaving product ``#``, extended bilinearly.

    For single indices of depths p and q the result has ``C(p+q, p)`` terms
    counted with multiplicity.  ``#`` is commutative and associative with
    unit the empty index.
    """
    a = as_combination(left)
    b = as_combination(right)
    out: dict[tuple[int, ...], Scalar] = {}
    for ka, ca in a._terms.items():
        for kb, cb in b._terms.items():
            c = ca * cb
            for entries, mult in _interleave(ka, kb).items():
                out[entries] = out.get(entries, 0) + c * mult
    return _trusted_combination(_settled({_trusted_index(entries): c for entries, c in out.items()}))


# -- the position-sum product -------------------------------------------------


@_memoised
def hast(k: int, target: Union[Index, IndexCombination]) -> IndexCombination:
    """Add ``k`` to one entry of the target, summed over all positions.

    ``(k) hast (l1, ..., lr) = (l1+k, ..., lr) + ... + (l1, ..., lr+k)``,
    extended linearly.  Undefined against the empty index.
    """
    if not _int_at_least(k, 1):
        raise ValueError(f"hast needs a positive integer summand, got {k!r}")
    out: dict[Index, Scalar] = {}
    for idx, c in as_combination(target)._terms.items():
        if not idx:
            raise ValueError("hast is undefined against the empty index ()")
        for i in range(len(idx)):
            key = _trusted_index(idx[:i] + (idx[i] + k,) + idx[i + 1 :])
            out[key] = out.get(key, 0) + c
    return _trusted_combination(_settled(out))


def star_single(k: int, target: Union[Index, IndexCombination]) -> IndexCombination:
    """The depth-one harmonic product: ``(k) * l = (k)#l + (k) hast l``.

    Against admissible targets this realises the product rule
    ``zeta(k) * zeta(l) = zeta((k) * l)`` for ``k >= 2``.
    """
    comb = as_combination(target)
    if EMPTY in comb:
        raise ValueError("star_single is undefined against the empty index ()")
    return sha(Index((k,)), comb) + hast(k, comb)


# -- misc structural helpers --------------------------------------------------


def append_entry(comb: Union[Index, IndexCombination], entry: int) -> IndexCombination:
    """Append ``entry`` at the end of every support index."""
    if not _int_at_least(entry, 1):
        raise ValueError(f"appended entry must be a positive integer, got {entry!r}")
    return as_combination(comb).map_indices(lambda k: _trusted_index(k + (entry,)))
