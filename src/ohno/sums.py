"""Shifted-sum (Ohno sum) machinery and the composite quantities built on it.

The basic object is the order-``m`` shifted sum of an admissible index:

    O_m(k) = sum over shift vectors e >= 0 with |e| = m of  zeta(k + e)

extended linearly to combinations.  On top of it the module builds the
families used by the identity catalogue in :mod:`ohno.verify`:

* the dual gap ``O_m((s) # k # {2}^l) - O_m((s) # (k # {2}^l)^dual)``
  between a shuffled shifted sum and its dualised partner
  (``dual_gap_operands``), and its antisymmetrised difference
  (``dual_gap_skew_sides``, ``dual_gap_skew_symbolic``);
* a three-part decomposition ``term_a + term_b + term_c`` of a particular
  skew gap, with closed-form re-expansions of each part;
* the block ``{2}^(l+1)`` with one entry raised or split at positions ``p``
  and ``q``, as layered shifted sums (``grouped_*``) and as weighted
  composition sums (``composed_*``); summed over all positions they give
  ``-term_a``, ``term_bc_closed`` and the expansions ``*_entry_expansion``,
  and at ``p = q`` the split family has three parts (``split_diag_parts``);
* the two sides of the derivative-style relation of double shuffle
  (``hoffman_sides``).

Everything here returns exact :class:`~ohno.indices.IndexCombination`
objects; evaluating them is :func:`~ohno.zeta.eval_combination`'s job.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Callable, Iterable, Union

from ohno.indices import (
    Index,
    IndexCombination,
    _int_at_least,
    _trusted_combination,
    _trusted_index,
    append_entry,
    as_combination,
    dual_linear,
    enumerate_shifts,
    hast,
    repeat,
    sha,
)

__all__ = [
    "composed_single",
    "composed_split",
    "dual_gap_operands",
    "dual_gap_skew_sides",
    "dual_gap_skew_symbolic",
    "dualized_hast_expansion",
    "dualized_shuffle_expansion",
    "grouped_single",
    "grouped_split",
    "hast_merge_sides",
    "hast_shifted_sum",
    "hoffman_sides",
    "ohno_shifts",
    "ohno_sum_symbolic",
    "raised_entry_expansion",
    "split_diag_parts",
    "split_entry_expansion",
    "term_a",
    "term_b",
    "term_bc_closed",
    "term_c",
]


def _check_order(m: int) -> None:
    if not _int_at_least(m, 0):
        raise ValueError(f"shift order must be a nonnegative integer, got {m!r}")


def _count(terms: Iterable[tuple[int, ...]]) -> IndexCombination:
    """The combination counting each entry tuple of ``terms`` once per occurrence."""
    return IndexCombination((Index(entries), 1) for entries in terms)


# -- shifted sums -------------------------------------------------------------


def ohno_shifts(k: Index, m: int) -> IndexCombination:
    """The order-``m`` shift family of one admissible index:
    the sum of ``k + e`` over all depth-matching shift vectors with |e| = m."""
    _check_order(m)
    if not k.admissible:
        raise ValueError(f"shifted sums need an admissible index, got {k}")
    entries = k.entries
    shifts = enumerate_shifts(k.depth, m)
    return _trusted_combination({_trusted_index(tuple(map(add, entries, e))): 1 for e in shifts})


def ohno_sum_symbolic(comb: Union[Index, IndexCombination], m: int) -> IndexCombination:
    """Linear extension of :func:`ohno_shifts`."""
    if isinstance(comb, Index):
        return ohno_shifts(comb, m)
    _check_order(m)
    return as_combination(comb).map_linear(lambda k: ohno_shifts(k, m))


# -- the dual gap and its antisymmetrisation ----------------------------------


def dual_gap_operands(s: int, k: Index, l: int) -> tuple[IndexCombination, IndexCombination]:
    """The two combinations whose order-``m`` shifted sums make the dual gap
    ``O_m((s) # k # {2}^l) - O_m((s) # (k # {2}^l)^dual)``."""
    if not _int_at_least(s, 2):
        raise ValueError(f"the depth-one factor needs an entry >= 2, got {s!r}")
    if not _int_at_least(l, 0):
        raise ValueError(f"the {{2}}-block length must be nonnegative, got {l!r}")
    if not k.admissible:
        raise ValueError(f"the dual gap needs an admissible index, got {k}")
    body = sha(k, repeat(2, l))
    plain = sha(Index((s,)), body)
    dualised = sha(Index((s,)), dual_linear(body))
    return plain, dualised


def dual_gap_skew_sides(s: int, t: int, l: int, m: int) -> tuple[IndexCombination, IndexCombination]:
    """The skew gap, the dual gap of ``(s; (t+1))`` minus that of
    ``(t; (s+1))`` at block length ``l``, as its positive and its negative
    part, each with nonnegative coefficients.  The two parts have equal
    values for all ``s, t >= 2`` and ``l, m >= 0``: that is the main identity
    of the catalogue."""
    plain_st, dual_st = dual_gap_operands(s, Index((t + 1,)), l)
    plain_ts, dual_ts = dual_gap_operands(t, Index((s + 1,)), l)
    return ohno_sum_symbolic(plain_st + dual_ts, m), ohno_sum_symbolic(dual_st + plain_ts, m)


def dual_gap_skew_symbolic(s: int, t: int, l: int, m: int) -> IndexCombination:
    """The skew gap as one exact combination."""
    positive, negative = dual_gap_skew_sides(s, t, l, m)
    return positive - negative


def hast_shifted_sum(base: Union[Index, IndexCombination], k0: int, m: int) -> IndexCombination:
    """``sum over m1 + m2 = m of (k0 + m1) hast O_m2-family(base)``.

    This is the recurring building block of the catalogue's telescoping
    identities: expand the order-``m2`` shifts of ``base`` and add
    ``k0 + m1`` to one entry in all ways.
    """
    _check_order(m)
    if not _int_at_least(k0, 1):
        raise ValueError(f"hast base must be a positive integer, got {k0!r}")
    return reduce(add, (hast(k0 + m1, ohno_sum_symbolic(base, m - m1)) for m1 in range(m + 1)))


# -- three-part decomposition of a skew gap -----------------------------------


def _check_block(s: int, l: int, m: int) -> None:
    if not _int_at_least(s, 2):
        raise ValueError(f"need s >= 2, got {s!r}")
    if not _int_at_least(l, 0):
        raise ValueError(f"need l >= 0, got {l!r}")
    _check_order(m)


def _layers(m: int, layer: Callable[[int], Union[Index, IndexCombination]]) -> IndexCombination:
    """``sum over a = 0..m of O_(m-a)-family(layer(a))``, the layered form
    shared by the decomposition parts and the grouped families."""
    return reduce(add, (ohno_sum_symbolic(layer(a), m - a) for a in range(m + 1)))


def _block(n: int, *raises: tuple[int, int], one_before: int = 0) -> Index:
    """The block ``{2}^n`` with each ``(position, amount)`` of ``raises`` added at
    its 1-based position, then a 1 inserted before position ``one_before`` if set."""
    entries = [2] * n
    for position, amount in raises:
        entries[position - 1] += amount
    if one_before:
        entries.insert(one_before - 1, 1)
    return _trusted_index(tuple(entries))


def _pairs(s: int, l: int, m: int, p: int) -> IndexCombination:
    """``sum over 0<=j<=s-2 of O_m-family({2}^(p-1), j+2, s-j+1, {2}^(l-p+1))``."""
    return reduce(add, (ohno_shifts(_block(l + 2, (p, j), (p + 1, s - j - 1)), m) for j in range(s - 1)))


def term_a(s: int, l: int, m: int) -> IndexCombination:
    """First decomposition part, fully expanded and signed:

        - sum over a of O_(m-a)-family((s+a+3) # {2}^l + (s+a+2) # (3) # {2}^(l-1))

    (the second summand is dropped at ``l = 0``)."""
    _check_block(s, l, m)

    def layer(a: int) -> IndexCombination:
        comb = sha(Index((s + a + 3,)), repeat(2, l))
        if l >= 1:
            comb = comb + sha(sha(Index((s + a + 2,)), Index((3,))), repeat(2, l - 1))
        return comb

    return -_layers(m, layer)


def term_b(s: int, l: int, m: int) -> IndexCombination:
    """Second decomposition part: the position-sum family against the
    dualised block, ``sum over m1+m2=m of (s+m1) hast ((3)#{2}^l)^dual + shifts``."""
    _check_block(s, l, m)
    base = dual_linear(sha(Index((3,)), repeat(2, l)))
    return hast_shifted_sum(base, s, m)


def term_c(s: int, l: int, m: int) -> IndexCombination:
    """Third decomposition part, in reduced closed form:
    ``sum over 0<=i<=l, 0<=j<=s-2 of O_m-family({2}^i, j+2, s-j+1, {2}^(l-i))``."""
    _check_block(s, l, m)
    return reduce(add, (_pairs(s, l, m, p) for p in range(1, l + 2)))


def term_bc_closed(s: int, l: int, m: int) -> IndexCombination:
    """Closed form of ``term_b + term_c``: three layered append-families

        sum over a of  O_(m-a)-family((1)#(s+a+2)#{2}^(l-1), 2)
                     + O_(m-a)-family((s+a+1)#{2}^l, 2)
                     + O_(m-a)-family((1)#{2}^l, s+a+2)

    (an appended entry extends every index of the combination; the first
    family is dropped at ``l = 0``) plus the reduced closed form of ``term_c``."""
    _check_block(s, l, m)

    def layer(a: int) -> IndexCombination:
        comb = append_entry(sha(Index((s + a + 1,)), repeat(2, l)), 2)
        comb = comb + append_entry(sha(Index((1,)), repeat(2, l)), s + a + 2)
        if l >= 1:
            comb = comb + append_entry(sha(sha(Index((1,)), Index((s + a + 2,))), repeat(2, l - 1)), 2)
        return comb

    return _layers(m, layer) + term_c(s, l, m)


# -- grouped vs composed block families ---------------------------------------


def _check_pq(s: int, l: int, m: int, p: int, q: int) -> None:
    _check_block(s, l, m)
    if l < 1:
        raise ValueError(f"block families need l >= 1, got l={l!r}")
    for name, v in (("p", p), ("q", q)):
        if not _int_at_least(v, 1) or v > l + 1:
            raise ValueError(f"position {name} must satisfy 1 <= {name} <= l+1 = {l + 1}, got {v!r}")


def _raise_entry(entries: tuple[int, ...], i: int) -> list[tuple[int, ...]]:
    """``entries`` with its entry ``i`` (0-based) raised by one."""
    return [entries[:i] + (entries[i] + 1,) + entries[i + 1 :]]


def _split_entry(entries: tuple[int, ...], i: int) -> list[tuple[int, ...]]:
    """``entries`` with its entry ``i`` (0-based), ``e``, split into each ``(j+1, e-j)``, ``j <= e-2``."""
    e = entries[i]
    return [entries[:i] + (j + 1, e - j) + entries[i + 1 :] for j in range(e - 1)]


def grouped_single(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Layered shifted sums of the block ``{2}^(l+1)`` with ``s+a`` added at
    position ``p`` and 1 added at position ``q``:

        sum over a of O_(m-a)-family({2}^(l+1) + (s+a) at p + 1 at q)

    For ``p < q`` that index is ``({2}^(p-1), s+a+2, {2}^(q-p-1), 3,
    {2}^(l-q+1))``, and for ``p = q`` it is ``({2}^(p-1), s+a+3, {2}^(l-p+1))``.
    """
    _check_pq(s, l, m, p, q)
    return _layers(m, lambda a: _block(l + 1, (p, s + a), (q, 1)))


def composed_single(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Composition-sum form of :func:`grouped_single`:

        sum over m1 + ... + m(l+1) = m + s of
            max(m_p - s + 1, 0) * (m1+2, ..., m_q+3, ..., m(l+1)+2)
    """
    return _composed(s, l, m, p, q, _raise_entry)


def grouped_split(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Layered shifted sums of the block ``{2}^(l+1)`` with ``s+a`` added at
    position ``p`` and an entry 1 inserted before position ``q``, which for
    ``p < q`` is ``({2}^(p-1), s+a+2, {2}^(q-p-1), 1, {2}^(l-q+2))``.  At
    ``p = q`` it is the sum of the three diagonal families of
    :func:`split_diag_parts`, the first of which is that insertion.
    """
    _check_pq(s, l, m, p, q)
    if p == q:
        first, second, third = _split_diagonal(s, l, m, p)
        return first + second + third
    return _layers(m, lambda a: _block(l + 1, (p, s + a), one_before=q))


def composed_split(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Composition-sum form of :func:`grouped_split`:

        sum over m1 + ... + m(l+1) = m + s of  max(m_p - s + 1, 0) *
        sum over 0 <= j <= m_q of
            (m1+2, ..., m(q-1)+2, j+1, m_q-j+2, m(q+1)+2, ..., m(l+1)+2)
    """
    return _composed(s, l, m, p, q, _split_entry)


def _composed(s: int, l: int, m: int, p: int, q: int, expand) -> IndexCombination:
    """``sum over m1+...+m(l+1) = m+s of max(m_p-s+1, 0) * expand((m1+2, ..., m(l+1)+2), q-1)``."""
    _check_pq(s, l, m, p, q)
    return IndexCombination(
        (Index(entries), comp[p - 1] - s + 1)
        for comp in enumerate_shifts(l + 1, m + s)
        if comp[p - 1] >= s
        for entries in expand(tuple(c + 2 for c in comp), q - 1)
    )


def raised_entry_expansion(s: int, l: int, m: int) -> IndexCombination:
    """Independent builder of the composed-single family summed over ``p, q``:

        sum over compositions m1+...+m(l+1) = m+s of
            (sum over p of max(m_p - s + 1, 0)) *
            sum over i of (m1+2, ..., m_i+3, ..., m(l+1)+2)
    """
    return _entry_expansion(s, l, m, _raise_entry)


def split_entry_expansion(s: int, l: int, m: int) -> IndexCombination:
    """Independent builder of the composed-split family summed over ``p, q``:

        sum over compositions m1+...+m(l+1) = m+s of
            (sum over p of max(m_p - s + 1, 0)) *
            sum over i, 0 <= j <= m_i of
            (m1+2, ..., m(i-1)+2, j+1, m_i-j+2, m(i+1)+2, ..., m(l+1)+2)
    """
    return _entry_expansion(s, l, m, _split_entry)


def _entry_expansion(s: int, l: int, m: int, expand) -> IndexCombination:
    """``sum over m1 + ... + m(l+1) = m + s of (sum over p of max(m_p - s + 1, 0))
    * sum over i of expand((m1+2, ..., m(l+1)+2), i)``: the weights of all
    positions are summed first, unlike in :func:`_composed`."""
    _check_pq(s, l, m, 1, 1)
    terms = []
    for comp in enumerate_shifts(l + 1, m + s):
        weight = sum(max(c - s + 1, 0) for c in comp)
        if weight:
            block = tuple(c + 2 for c in comp)
            terms.extend((Index(entries), weight) for i in range(l + 1) for entries in expand(block, i))
    return IndexCombination(terms)


def _split_diagonal(s: int, l: int, m: int, p: int) -> list[IndexCombination]:
    """The three diagonal families whose sum is :func:`grouped_split` at
    ``p = q``:

        sum over a of O_(m-a)-family({2}^(p-1), 1, s+a+2, {2}^(l-p+1))
        sum over a of O_(m-a)-family({2}^(p-1), s+a+1, {2}^(l-p+2))
        sum over 0<=j<=s-2 of O_m-family({2}^(p-1), j+2, s-j+1, {2}^(l-p+1))
    """
    return [
        _layers(m, lambda a: _block(l + 1, (p, s + a), one_before=p)),
        _layers(m, lambda a: _block(l + 2, (p, s + a - 1))),
        _pairs(s, l, m, p),
    ]


def split_diag_parts(s: int, l: int, m: int, p: int) -> list[tuple[IndexCombination, IndexCombination]]:
    """The three diagonal (p = q) split sub-identities as (lhs, rhs) pairs.

    Each lhs is one of the three layered families whose sum is
    :func:`grouped_split` at ``p = q``; each rhs is the matching slice of the
    composed form, a quadruple sum over v, an l-part composition of m - v,
    u <= v and a j-window, of

        ({2->}m1+2, ..., m(p-1)+2, j, s+v-j+3, m_p+2, ..., m_l+2)

    with j-windows  [1, v-u+1],  [s+v-u+1, s+v+1]  and  [v-u+2, s+v-u].
    """
    _check_pq(s, l, m, p, p)

    def rhs_for(window) -> IndexCombination:
        terms = []
        for v in range(m + 1):
            for comp in enumerate_shifts(l, m - v):
                head = tuple(c + 2 for c in comp[: p - 1])
                tail = tuple(c + 2 for c in comp[p - 1 :])
                for u in range(v + 1):
                    lo, hi = window(u, v)
                    terms.extend(head + (j, s + v - j + 3) + tail for j in range(lo, hi + 1))
        return _count(terms)

    windows = (
        lambda u, v: (1, v - u + 1),
        lambda u, v: (s + v - u + 1, s + v + 1),
        lambda u, v: (v - u + 2, s + v - u),
    )
    return list(zip(_split_diagonal(s, l, m, p), map(rhs_for, windows)))


# -- exact expansion identities used by the catalogue -------------------------


def dualized_shuffle_expansion(s: int, t: int, l: int) -> tuple[IndexCombination, IndexCombination]:
    """Exact closed expansion of ``(s) # ((t) # {2}^l)^dual`` for ``l >= 1``:

        sum over 0<=i<=l of
          sum over 0<=j<=i     of ({2}^j, s, {2}^(i-j), {1}^(t-2), {2}^(l-i+1))
        + sum over 1<=j<=t-2   of ({2}^i, {1}^j, s, {1}^(t-j-2), {2}^(l-i+1))
        + sum over 0<=j<=l-i   of ({2}^i, {1}^(t-2), {2}^(j+1), s, {2}^(l-i-j))

    Returns (lhs, rhs).
    """
    _check_expansion_params(s, t, l)
    lhs = sha(Index((s,)), dual_linear(sha(Index((t,)), repeat(2, l))))
    terms = []
    for i in range(l + 1):
        for j in range(i + 1):
            terms.append((2,) * j + (s,) + (2,) * (i - j) + (1,) * (t - 2) + (2,) * (l - i + 1))
        for j in range(1, t - 1):
            terms.append((2,) * i + (1,) * j + (s,) + (1,) * (t - j - 2) + (2,) * (l - i + 1))
        for j in range(l - i + 1):
            terms.append((2,) * i + (1,) * (t - 2) + (2,) * (j + 1) + (s,) + (2,) * (l - i - j))
    return lhs, _count(terms)


def dualized_hast_expansion(s: int, t: int, l: int) -> tuple[IndexCombination, IndexCombination]:
    """Exact closed expansion of ``(s-1) hast ((t+1) # {2}^l)^dual`` for ``l >= 1``:

        sum over 1<=i<=l, 0<=j<=i-1 of ({2}^j, s+1, {2}^(i-j-1), {1}^(t-1), {2}^(l-i+1))
      + sum over 0<=i<=l of
          sum over 0<=j<=t-2 of ({2}^i, {1}^j, s, {1}^(t-j-2), {2}^(l-i+1))
        + sum over 0<=j<=l-i of ({2}^i, {1}^(t-1), {2}^j, s+1, {2}^(l-i-j))

    Returns (lhs, rhs).
    """
    _check_expansion_params(s, t, l)
    lhs = hast(s - 1, dual_linear(sha(Index((t + 1,)), repeat(2, l))))
    terms = []
    for i in range(1, l + 1):
        for j in range(i):
            terms.append((2,) * j + (s + 1,) + (2,) * (i - j - 1) + (1,) * (t - 1) + (2,) * (l - i + 1))
    for i in range(l + 1):
        for j in range(t - 1):
            terms.append((2,) * i + (1,) * j + (s,) + (1,) * (t - j - 2) + (2,) * (l - i + 1))
        for j in range(l - i + 1):
            terms.append((2,) * i + (1,) * (t - 1) + (2,) * j + (s + 1,) + (2,) * (l - i - j))
    return lhs, _count(terms)


def _check_expansion_params(s: int, t: int, l: int) -> None:
    if not _int_at_least(s, 2):
        raise ValueError(f"expansion needs s >= 2, got {s!r}")
    if not _int_at_least(t, 2):
        raise ValueError(f"expansion needs t >= 2, got {t!r}")
    if not _int_at_least(l, 1):
        raise ValueError(f"expansion needs l >= 1, got {l!r}")


def hast_merge_sides(s: int, t: int, l: int) -> tuple[IndexCombination, IndexCombination]:
    """The exact merge identity

        (s-1) hast ((t+1) # {2}^l)  =  (s+t) # {2}^l + (s+1) # (t+1) # {2}^(l-1)

    (the second summand is dropped at ``l = 0``).  Returns (lhs, rhs).
    """
    if not (_int_at_least(s, 2) and _int_at_least(t, 1)):
        raise ValueError(f"merge identity needs s >= 2 and t >= 1, got s={s!r}, t={t!r}")
    if not _int_at_least(l, 0):
        raise ValueError(f"need l >= 0, got {l!r}")
    lhs = hast(s - 1, sha(Index((t + 1,)), repeat(2, l)))
    rhs = sha(Index((s + t,)), repeat(2, l))
    if l >= 1:
        rhs = rhs + sha(sha(Index((s + 1,)), Index((t + 1,))), repeat(2, l - 1))
    return lhs, rhs


# -- the derivative-style relation of double shuffle ---------------------------


def hoffman_sides(k: Index) -> tuple[IndexCombination, IndexCombination]:
    """Both sides of the derivative-style relation, as exact combinations:

        lhs = sum over i of (k1, ..., ki+1, ..., kr)
        rhs = sum over i with ki >= 2, 0 <= j <= ki-2 of
              (k1, ..., k(i-1), j+1, ki-j, k(i+1), ..., kr)
    """
    if not k.admissible:
        raise ValueError(f"the defect needs an admissible index, got {k}")
    positions = range(k.depth)
    lhs = _count(e for i in positions for e in _raise_entry(k.entries, i))
    return lhs, _count(e for i in positions for e in _split_entry(k.entries, i))
