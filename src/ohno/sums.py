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
* two exact rewriting families (``grouped_*`` vs ``composed_*``) expressing
  the same block-shaped shifted sums either as layered shifted sums or as
  composition sums with an explicit weight factor;
* the two sides of the derivative-style relation of double shuffle
  (``hoffman_sides``).

Everything here returns exact :class:`~ohno.indices.IndexCombination`
objects, except ``ohno_sum`` and ``ohno_series``, which evaluate shifted
sums through :func:`~ohno.zeta.eval_combination`.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Union

from ohno.indices import (
    Index,
    IndexCombination,
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
from ohno.zeta import EvalConfig, eval_combination

__all__ = [
    "composed_single",
    "composed_single_total",
    "composed_split",
    "composed_split_total",
    "dual_gap_operands",
    "dual_gap_skew_sides",
    "dual_gap_skew_symbolic",
    "dualized_hast_expansion",
    "dualized_shuffle_expansion",
    "grouped_single",
    "grouped_single_total",
    "grouped_split",
    "grouped_split_total",
    "hast_merge_sides",
    "hast_shifted_sum",
    "hoffman_sides",
    "ohno_series",
    "ohno_shifts",
    "ohno_sum",
    "ohno_sum_symbolic",
    "raised_entry_expansion",
    "split_diag_parts",
    "split_entry_expansion",
    "term_a",
    "term_a_layers",
    "term_b",
    "term_bc_closed",
    "term_c",
]


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"shift order must be a nonnegative integer, got {m!r}")


def _single(entry: int) -> IndexCombination:
    return IndexCombination.from_index(Index((entry,)))


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
    _check_order(m)
    return as_combination(comb).map_linear(lambda k: ohno_shifts(k, m))


def ohno_sum(comb: Union[Index, IndexCombination], m: int, cfg: Optional[EvalConfig] = None) -> float:
    """Numeric order-``m`` shifted sum."""
    return eval_combination(ohno_sum_symbolic(comb, m), cfg)


def ohno_series(
    comb: Union[Index, IndexCombination], order: int, cfg: Optional[EvalConfig] = None
) -> tuple[float, ...]:
    """The first ``order + 1`` coefficients of the shifted-sum generating
    series, each to within ``cfg.tol``."""
    _check_order(order)
    return tuple(ohno_sum(comb, m, cfg) for m in range(order + 1))


# -- the dual gap and its antisymmetrisation ----------------------------------


def dual_gap_operands(s: int, k: Index, l: int) -> tuple[IndexCombination, IndexCombination]:
    """The two combinations whose order-``m`` shifted sums make the dual gap
    ``O_m((s) # k # {2}^l) - O_m((s) # (k # {2}^l)^dual)``."""
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"the depth-one factor needs an entry >= 2, got {s!r}")
    if not isinstance(l, int) or l < 0:
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
    if not isinstance(k0, int) or k0 < 1:
        raise ValueError(f"hast base must be a positive integer, got {k0!r}")
    total = IndexCombination.zero()
    for m1 in range(m + 1):
        total = total + hast(k0 + m1, ohno_sum_symbolic(base, m - m1))
    return total


# -- three-part decomposition of a skew gap -----------------------------------


def _check_block(s: int, l: int, m: int) -> None:
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"need s >= 2, got {s!r}")
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"need l >= 0, got {l!r}")
    _check_order(m)


def term_a_layers(s: int, l: int, m: int) -> list[IndexCombination]:
    """Layer ``a`` of the first decomposition part:
    ``(s+a+3) # {2}^l + (s+a+2) # (3) # {2}^(l-1)`` for ``a = 0..m``
    (the second summand is dropped at ``l = 0``)."""
    _check_block(s, l, m)
    layers = []
    for a in range(m + 1):
        comb = sha(Index((s + a + 3,)), repeat(2, l))
        if l >= 1:
            comb = comb + sha(sha(_single(s + a + 2), _single(3)), repeat(2, l - 1))
        layers.append(comb)
    return layers


def term_a(s: int, l: int, m: int) -> IndexCombination:
    """First decomposition part, fully expanded and signed:
    ``- sum over a of O_(m-a)-family(layer a)``."""
    total = IndexCombination.zero()
    for a, layer in enumerate(term_a_layers(s, l, m)):
        total = total + ohno_sum_symbolic(layer, m - a)
    return -total


def term_b(s: int, l: int, m: int) -> IndexCombination:
    """Second decomposition part: the position-sum family against the
    dualised block, ``sum over m1+m2=m of (s+m1) hast ((3)#{2}^l)^dual + shifts``."""
    _check_block(s, l, m)
    base = dual_linear(sha(_single(3), repeat(2, l)))
    return hast_shifted_sum(base, s, m)


def term_c(s: int, l: int, m: int) -> IndexCombination:
    """Third decomposition part, in reduced closed form:
    ``sum over 0<=i<=l, 0<=j<=s-2 of O_m-family({2}^i, j+2, s-j+1, {2}^(l-i))``."""
    _check_block(s, l, m)
    total = IndexCombination.zero()
    for i in range(l + 1):
        for j in range(s - 1):
            idx = Index((2,) * i + (j + 2, s - j + 1) + (2,) * (l - i))
            total = total + ohno_shifts(idx, m)
    return total


def term_bc_closed(s: int, l: int, m: int) -> IndexCombination:
    """Closed form of ``term_b + term_c``: three layered append-families

        sum over a of  O_(m-a)-family((1)#(s+a+2)#{2}^(l-1), 2)
                     + O_(m-a)-family((s+a+1)#{2}^l, 2)
                     + O_(m-a)-family((1)#{2}^l, s+a+2)

    (an appended entry extends every index of the combination) plus the
    reduced closed form of ``term_c``."""
    _check_block(s, l, m)
    total = IndexCombination.zero()
    for a in range(m + 1):
        if l >= 1:
            first = append_entry(sha(sha(_single(1), _single(s + a + 2)), repeat(2, l - 1)), 2)
            total = total + ohno_sum_symbolic(first, m - a)
        second = append_entry(sha(_single(s + a + 1), repeat(2, l)), 2)
        total = total + ohno_sum_symbolic(second, m - a)
        third = append_entry(sha(_single(1), repeat(2, l)), s + a + 2)
        total = total + ohno_sum_symbolic(third, m - a)
    return total + term_c(s, l, m)


# -- grouped vs composed block families ---------------------------------------


def _check_pq(s: int, l: int, m: int, p: int, q: int) -> None:
    _check_block(s, l, m)
    if l < 1:
        raise ValueError(f"block families need l >= 1, got l={l!r}")
    if not isinstance(p, int) or not 1 <= p <= l + 1:
        raise ValueError(f"position p must satisfy 1 <= p <= l+1 = {l + 1}, got {p!r}")
    if not isinstance(q, int) or not 1 <= q <= l + 1:
        raise ValueError(f"position q must satisfy 1 <= q <= l+1 = {l + 1}, got {q!r}")


def grouped_single(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Layered shifted sums of a {2}-block with one big entry at position
    ``p`` and one raised entry (3) at position ``q``:

        p < q:  sum over a of O_(m-a)-family({2}^(p-1), s+a+2, {2}^(q-p-1), 3, {2}^(l-q+1))
        p = q:  sum over a of O_(m-a)-family({2}^(p-1), s+a+3, {2}^(l-p+1))
        p > q:  sum over a of O_(m-a)-family({2}^(q-1), 3, {2}^(p-q-1), s+a+2, {2}^(l-p+1))
    """
    _check_pq(s, l, m, p, q)
    total = IndexCombination.zero()
    for a in range(m + 1):
        if p < q:
            idx = (2,) * (p - 1) + (s + a + 2,) + (2,) * (q - p - 1) + (3,) + (2,) * (l - q + 1)
        elif p == q:
            idx = (2,) * (p - 1) + (s + a + 3,) + (2,) * (l - p + 1)
        else:
            idx = (2,) * (q - 1) + (3,) + (2,) * (p - q - 1) + (s + a + 2,) + (2,) * (l - p + 1)
        total = total + ohno_shifts(Index(idx), m - a)
    return total


def composed_single(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Composition-sum form of :func:`grouped_single`:

        sum over m1 + ... + m(l+1) = m + s of
            max(m_p - s + 1, 0) * (m1+2, ..., m_q+3, ..., m(l+1)+2)
    """
    _check_pq(s, l, m, p, q)
    terms: dict[Index, int] = {}
    for comp in enumerate_shifts(l + 1, m + s):
        weight = comp[p - 1] - s + 1
        if weight <= 0:
            continue
        entries = tuple(c + 3 if i == q - 1 else c + 2 for i, c in enumerate(comp))
        idx = Index(entries)
        terms[idx] = terms.get(idx, 0) + weight
    return IndexCombination(terms.items())


def grouped_split(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Layered shifted sums with the raised entry replaced by a split pair
    (an extra entry 1 next to the big entry, or a boundary pair):

        p < q:  sum over a of O_(m-a)-family({2}^(p-1), s+a+2, {2}^(q-p-1), 1, {2}^(l-q+2))
        p = q:  sum over a of O_(m-a)-family({2}^(p-1), 1, s+a+2, {2}^(l-p+1))
              + sum over a of O_(m-a)-family({2}^(p-1), s+a+1, {2}^(l-p+2))
              + sum over 0<=j<=s-2 of O_m-family({2}^(p-1), j+2, s-j+1, {2}^(l-p+1))
        p > q:  sum over a of O_(m-a)-family({2}^(q-1), 1, {2}^(p-q), s+a+2, {2}^(l-p+1))
    """
    _check_pq(s, l, m, p, q)
    total = IndexCombination.zero()
    if p < q:
        for a in range(m + 1):
            idx = (2,) * (p - 1) + (s + a + 2,) + (2,) * (q - p - 1) + (1,) + (2,) * (l - q + 2)
            total = total + ohno_shifts(Index(idx), m - a)
    elif p == q:
        for a in range(m + 1):
            idx1 = (2,) * (p - 1) + (1, s + a + 2) + (2,) * (l - p + 1)
            idx2 = (2,) * (p - 1) + (s + a + 1,) + (2,) * (l - p + 2)
            total = total + ohno_shifts(Index(idx1), m - a) + ohno_shifts(Index(idx2), m - a)
        for j in range(s - 1):
            idx3 = (2,) * (p - 1) + (j + 2, s - j + 1) + (2,) * (l - p + 1)
            total = total + ohno_shifts(Index(idx3), m)
    else:
        for a in range(m + 1):
            idx = (2,) * (q - 1) + (1,) + (2,) * (p - q) + (s + a + 2,) + (2,) * (l - p + 1)
            total = total + ohno_shifts(Index(idx), m - a)
    return total


def composed_split(s: int, l: int, m: int, p: int, q: int) -> IndexCombination:
    """Composition-sum form of :func:`grouped_split`:

        sum over m1 + ... + m(l+1) = m + s of  max(m_p - s + 1, 0) *
        sum over 0 <= j <= m_q of
            (m1+2, ..., m(q-1)+2, j+1, m_q-j+2, m(q+1)+2, ..., m(l+1)+2)
    """
    _check_pq(s, l, m, p, q)
    terms: dict[Index, int] = {}
    for comp in enumerate_shifts(l + 1, m + s):
        weight = comp[p - 1] - s + 1
        if weight <= 0:
            continue
        head = tuple(c + 2 for c in comp[: q - 1])
        tail = tuple(c + 2 for c in comp[q:])
        mq = comp[q - 1]
        for j in range(mq + 1):
            idx = Index(head + (j + 1, mq - j + 2) + tail)
            terms[idx] = terms.get(idx, 0) + weight
    return IndexCombination(terms.items())


def _pq_total(fn, s: int, l: int, m: int) -> IndexCombination:
    total = IndexCombination.zero()
    for p in range(1, l + 2):
        for q in range(1, l + 2):
            total = total + fn(s, l, m, p, q)
    return total


def grouped_single_total(s: int, l: int, m: int) -> IndexCombination:
    return _pq_total(grouped_single, s, l, m)


def composed_single_total(s: int, l: int, m: int) -> IndexCombination:
    return _pq_total(composed_single, s, l, m)


def grouped_split_total(s: int, l: int, m: int) -> IndexCombination:
    return _pq_total(grouped_split, s, l, m)


def composed_split_total(s: int, l: int, m: int) -> IndexCombination:
    return _pq_total(composed_split, s, l, m)


def raised_entry_expansion(s: int, l: int, m: int) -> IndexCombination:
    """Independent builder of the aggregated composed-single family:

        sum over compositions m1+...+m(l+1) = m+s of
            (sum over p of max(m_p - s + 1, 0)) *
            sum over i of (m1+2, ..., m_i+3, ..., m(l+1)+2)
    """
    _check_block(s, l, m)
    if l < 1:
        raise ValueError(f"block families need l >= 1, got l={l!r}")
    terms: dict[Index, int] = {}
    for comp in enumerate_shifts(l + 1, m + s):
        weight = sum(max(c - s + 1, 0) for c in comp)
        if weight == 0:
            continue
        for i in range(l + 1):
            entries = tuple(c + 3 if j == i else c + 2 for j, c in enumerate(comp))
            idx = Index(entries)
            terms[idx] = terms.get(idx, 0) + weight
    return IndexCombination(terms.items())


def split_entry_expansion(s: int, l: int, m: int) -> IndexCombination:
    """Independent builder of the aggregated composed-split family:

        sum over compositions m1+...+m(l+1) = m+s of
            (sum over p of max(m_p - s + 1, 0)) *
            sum over i, 0 <= j <= m_i of
            (m1+2, ..., m(i-1)+2, j+1, m_i-j+2, m(i+1)+2, ..., m(l+1)+2)
    """
    _check_block(s, l, m)
    if l < 1:
        raise ValueError(f"block families need l >= 1, got l={l!r}")
    terms: dict[Index, int] = {}
    for comp in enumerate_shifts(l + 1, m + s):
        weight = sum(max(c - s + 1, 0) for c in comp)
        if weight == 0:
            continue
        for i in range(l + 1):
            head = tuple(c + 2 for c in comp[:i])
            tail = tuple(c + 2 for c in comp[i + 1 :])
            mi = comp[i]
            for j in range(mi + 1):
                idx = Index(head + (j + 1, mi - j + 2) + tail)
                terms[idx] = terms.get(idx, 0) + weight
    return IndexCombination(terms.items())


def split_diag_parts(s: int, l: int, m: int, p: int) -> list[tuple[IndexCombination, IndexCombination]]:
    """The three diagonal (p = q) split sub-identities as (lhs, rhs) pairs.

    Each lhs is one of the three layered families in the p = q branch of
    :func:`grouped_split`; each rhs is the matching slice of the composed
    form, a quadruple sum over v, an l-part composition of m - v, u <= v and
    a j-window, of

        ({2->}m1+2, ..., m(p-1)+2, j, s+v-j+3, m_p+2, ..., m_l+2)

    with j-windows  [1, v-u+1],  [s+v-u+1, s+v+1]  and  [v-u+2, s+v-u].
    """
    _check_pq(s, l, m, p, p)

    lhs1 = IndexCombination.zero()
    lhs2 = IndexCombination.zero()
    for a in range(m + 1):
        idx1 = (2,) * (p - 1) + (1, s + a + 2) + (2,) * (l - p + 1)
        idx2 = (2,) * (p - 1) + (s + a + 1,) + (2,) * (l - p + 2)
        lhs1 = lhs1 + ohno_shifts(Index(idx1), m - a)
        lhs2 = lhs2 + ohno_shifts(Index(idx2), m - a)
    lhs3 = IndexCombination.zero()
    for j in range(s - 1):
        idx3 = (2,) * (p - 1) + (j + 2, s - j + 1) + (2,) * (l - p + 1)
        lhs3 = lhs3 + ohno_shifts(Index(idx3), m)

    def rhs_for(window) -> IndexCombination:
        terms: dict[Index, int] = {}
        for v in range(m + 1):
            for comp in enumerate_shifts(l, m - v):
                head = tuple(c + 2 for c in comp[: p - 1])
                tail = tuple(c + 2 for c in comp[p - 1 :])
                for u in range(v + 1):
                    lo, hi = window(u, v)
                    for j in range(lo, hi + 1):
                        idx = Index(head + (j, s + v - j + 3) + tail)
                        terms[idx] = terms.get(idx, 0) + 1
        return IndexCombination(terms.items())

    rhs1 = rhs_for(lambda u, v: (1, v - u + 1))
    rhs2 = rhs_for(lambda u, v: (s + v - u + 1, s + v + 1))
    rhs3 = rhs_for(lambda u, v: (v - u + 2, s + v - u))
    return [(lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3)]


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
    lhs = sha(Index((s,)), dual_linear(sha(_single(t), repeat(2, l))))
    terms: dict[Index, int] = {}

    def add(entries: tuple[int, ...]) -> None:
        idx = Index(entries)
        terms[idx] = terms.get(idx, 0) + 1

    for i in range(l + 1):
        for j in range(i + 1):
            add((2,) * j + (s,) + (2,) * (i - j) + (1,) * (t - 2) + (2,) * (l - i + 1))
        for j in range(1, t - 1):
            add((2,) * i + (1,) * j + (s,) + (1,) * (t - j - 2) + (2,) * (l - i + 1))
        for j in range(l - i + 1):
            add((2,) * i + (1,) * (t - 2) + (2,) * (j + 1) + (s,) + (2,) * (l - i - j))
    return lhs, IndexCombination(terms.items())


def dualized_hast_expansion(s: int, t: int, l: int) -> tuple[IndexCombination, IndexCombination]:
    """Exact closed expansion of ``(s-1) hast ((t+1) # {2}^l)^dual`` for ``l >= 1``:

        sum over 1<=i<=l, 0<=j<=i-1 of ({2}^j, s+1, {2}^(i-j-1), {1}^(t-1), {2}^(l-i+1))
      + sum over 0<=i<=l of
          sum over 0<=j<=t-2 of ({2}^i, {1}^j, s, {1}^(t-j-2), {2}^(l-i+1))
        + sum over 0<=j<=l-i of ({2}^i, {1}^(t-1), {2}^j, s+1, {2}^(l-i-j))

    Returns (lhs, rhs).
    """
    _check_expansion_params(s, t, l)
    lhs = hast(s - 1, dual_linear(sha(_single(t + 1), repeat(2, l))))
    terms: dict[Index, int] = {}

    def add(entries: tuple[int, ...]) -> None:
        idx = Index(entries)
        terms[idx] = terms.get(idx, 0) + 1

    for i in range(1, l + 1):
        for j in range(i):
            add((2,) * j + (s + 1,) + (2,) * (i - j - 1) + (1,) * (t - 1) + (2,) * (l - i + 1))
    for i in range(l + 1):
        for j in range(t - 1):
            add((2,) * i + (1,) * j + (s,) + (1,) * (t - j - 2) + (2,) * (l - i + 1))
        for j in range(l - i + 1):
            add((2,) * i + (1,) * (t - 1) + (2,) * j + (s + 1,) + (2,) * (l - i - j))
    return lhs, IndexCombination(terms.items())


def _check_expansion_params(s: int, t: int, l: int) -> None:
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"expansion needs s >= 2, got {s!r}")
    if not isinstance(t, int) or t < 2:
        raise ValueError(f"expansion needs t >= 2, got {t!r}")
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"expansion needs l >= 1, got {l!r}")


def hast_merge_sides(s: int, t: int, l: int) -> tuple[IndexCombination, IndexCombination]:
    """The exact merge identity

        (s-1) hast ((t+1) # {2}^l)  =  (s+t) # {2}^l + (s+1) # (t+1) # {2}^(l-1)

    (the second summand is dropped at ``l = 0``).  Returns (lhs, rhs).
    """
    if not isinstance(s, int) or s < 2 or not isinstance(t, int) or t < 1:
        raise ValueError(f"merge identity needs s >= 2 and t >= 1, got s={s!r}, t={t!r}")
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"need l >= 0, got {l!r}")
    lhs = hast(s - 1, sha(_single(t + 1), repeat(2, l)))
    rhs = sha(Index((s + t,)), repeat(2, l))
    if l >= 1:
        rhs = rhs + sha(sha(_single(s + 1), _single(t + 1)), repeat(2, l - 1))
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
    lhs: dict[Index, int] = {}
    for i in range(k.depth):
        entries = list(k.entries)
        entries[i] += 1
        idx = Index(tuple(entries))
        lhs[idx] = lhs.get(idx, 0) + 1
    rhs: dict[Index, int] = {}
    for i, e in enumerate(k.entries):
        if e < 2:
            continue
        for j in range(e - 1):
            idx = Index(k.entries[:i] + (j + 1, e - j) + k.entries[i + 1 :])
            rhs[idx] = rhs.get(idx, 0) + 1
    return IndexCombination(lhs.items()), IndexCombination(rhs.items())
