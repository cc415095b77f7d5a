"""Catalogue of identities with grid-based verification and reporting.

Each catalogue entry is one function from its parameters to a list of
``(lhs, rhs)`` pairs of exact :class:`~ohno.indices.IndexCombination` sides;
a side may also be a tuple of combinations whose values multiply.  The
:func:`identity` decorator registers it under its name, with its docstring as
the statement, as an :class:`IdentitySpec`; the decorator gives the kind and
one inclusive ``(low, high)`` range per integer parameter, both its
hypothesis ``>= low`` and its default values.  An entry states its pairs in
its body, from the index algebra and the families that entries share in
:mod:`ohno.sums`, and its hypotheses only in the decorator: :func:`verify`
refuses a point that violates them before any side is built, so the body
checks none of its arguments.  Two kinds exist:

* ``numeric``: every side is evaluated as :func:`~ohno.zeta.eval_combination`
  evaluates it, bit for bit; the residual of a point is
  ``max |value(lhs) - value(rhs)|`` over its pairs, and the point passes
  when it is at most ``cfg.tol * max(evals, 1) * 4``, where ``evals``
  counts the distinct indices across all sides (each contributes one
  evaluation whose error is of order ``cfg.tol``; the factor 4 absorbs
  accumulation and rounding).  Sides carry nonnegative coefficients, so no
  index cancels out of ``evals``.
* ``exact-symbolic``: the two sides of every pair must be identical term by
  term; no floats are involved.

:func:`verify` builds the points of a parameter grid (per-identity defaults,
overridable per parameter) in one pass over its parameters, refuses the
points that violate an identity's hypotheses, and returns a
:class:`VerificationReport`.  A numeric grid runs in three phases.  Plan:
each point in turn builds its sides (what points share once per call, in
the memo of :mod:`ohno.sums`) and plans each distinct side object once,
following the cache's store order.  Fill: one call per working precision
fills what every plan misses.  Read: each point is reduced to its residual
once nothing planned before it waits for the fill.  Without a cache a side
is read once, its value a pure function of its terms; a cache is read at
every occurrence, as it counts each lookup and may have stored a finer
value in between.  So a warm sweep holds the pairs of one point at a time
and the plan and value of every distinct side.  A planning error ends the
plan; the points before it are still filled and read, so the first error in
point order is raised.  A point's ``elapsed_ms`` covers its own side
building, planning, reads and comparison; the shared fill counts only in
the report's.  Reports serialise to JSON (all points, including refusals)
or CSV (evaluated points only) via :func:`report_to_file`.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import time
from contextvars import copy_context
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import add
from typing import Any, Callable, Mapping, Optional, Union

from ohno.indices import (
    Index,
    IndexCombination,
    _int_at_least,
    as_combination,
    dual_linear,
    hast,
    iter_admissible,
    repeat,
    sha,
    star_single,
)
from ohno.sums import (
    _MEMO,
    composed_single,
    composed_split,
    dual_gap_operands,
    dual_gap_skew_sides,
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
from ohno.zeta import EvalConfig, _fill, _plan, _read

__all__ = [
    "IdentitySpec",
    "PointResult",
    "VerificationReport",
    "list_identities",
    "report_to_file",
    "verify",
]

#: Numeric pass threshold is ``cfg.tol * max(evals, 1) * RESIDUAL_MARGIN``.
RESIDUAL_MARGIN = 4

#: One side of an identity: a combination, or a tuple of combinations whose
#: values multiply.
Side = Union[IndexCombination, tuple[IndexCombination, ...]]


@dataclass(frozen=True)
class IdentitySpec:
    """A catalogue entry: what is verified and over which parameters.

    ``grid`` holds the default value tuples (``weight`` bounds the index
    family ``k``; ``None`` for ``p``/``q`` is the window ``1..l+1``).  The
    hypotheses are ``at_least`` (a lower bound per integer parameter),
    admissibility of ``k``, and ``p, q <= l+1``; :func:`identity` derives
    both mappings from one declaration per parameter.  ``sides`` maps the
    parameters of a point to its ``(lhs, rhs)`` pairs.
    """

    name: str
    kind: str  # "numeric" | "exact-symbolic"
    params: tuple[str, ...]
    statement: str
    grid: Mapping[str, Any]
    at_least: Mapping[str, int]
    sides: Callable[..., list[tuple[Side, Side]]] = field(repr=False)


@dataclass(frozen=True)
class PointResult:
    """Outcome at a single grid point.

    Exactly one of ``residual`` (numeric kind) and ``equal`` (exact kind) is
    set for evaluated points; refused points carry a ``reason`` instead.
    """

    params: Mapping[str, Any]
    residual: Optional[float] = None
    equal: Optional[bool] = None
    threshold: Optional[float] = None
    evals: int = 0
    elapsed_ms: float = 0.0
    refused: bool = False
    reason: Optional[str] = None

    @property
    def passed(self) -> Optional[bool]:
        """True/False for evaluated points; None for refused ones."""
        if self.refused:
            return None
        if self.equal is not None:
            return self.equal
        return self.residual <= self.threshold


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate outcome of one :func:`verify` call."""

    identity: str
    kind: str
    grid: Mapping[str, Any]
    tol: float
    passed: bool
    max_residual: Optional[float]
    points: tuple[PointResult, ...]
    elapsed_ms: float

    @property
    def evaluated(self) -> tuple[PointResult, ...]:
        return tuple(p for p in self.points if not p.refused)

    @property
    def refusals(self) -> tuple[PointResult, ...]:
        return tuple(p for p in self.points if p.refused)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        n_eval = len(self.evaluated)
        n_ref = len(self.refusals)
        head = f"{self.identity}: {status} ({n_eval} evaluated, {n_ref} refused"
        if self.kind == "numeric":
            mr = "n/a" if self.max_residual is None else f"{self.max_residual:.3e}"
            return f"{head}, max residual {mr})"
        unequal = sum(1 for p in self.evaluated if p.equal is False)
        tail = "all equal" if unequal == 0 else f"{unequal} unequal"
        return f"{head}, {tail})"


# -- the catalogue ------------------------------------------------------------

_CATALOGUE: dict[str, IdentitySpec] = {}


def identity(kind: str, **declared: Any) -> Callable:
    """Register the decorated function as the catalogue entry of its name.

    The function's parameters are the identity's parameters, its docstring
    is the statement, and it returns the identity's ``(lhs, rhs)`` pairs at
    one point.  An integer parameter is declared once, as an inclusive
    ``(low, high)`` pair: the hypothesis ``>= low`` and the default values
    ``low..high``.  ``None`` gives ``p`` or ``q`` the bound 1 and the window
    ``1..l+1``; ``weight=W`` bounds the default index family ``k``.
    """
    grid = {x: d if x == "weight" or d is None else tuple(range(d[0], d[1] + 1)) for x, d in declared.items()}
    at_least = {x: 1 if d is None else d[0] for x, d in declared.items() if x != "weight"}

    def register(fn: Callable) -> Callable:
        params = tuple(inspect.signature(fn).parameters)
        statement = inspect.getdoc(fn)
        _CATALOGUE[fn.__name__] = IdentitySpec(fn.__name__, kind, params, statement, grid, at_least, fn)
        return fn

    return register


@identity("numeric", weight=6)
def duality(k):
    """the value of an admissible index equals the value of its dual"""
    return [(as_combination(k), as_combination(k.dual()))]


@identity("numeric", weight=5, m=(0, 2))
def ohno(k, m):
    """order-m shifted sums of an admissible index and of its dual agree"""
    return [(ohno_sum_symbolic(k, m), ohno_sum_symbolic(k.dual(), m))]


@identity("numeric", n=(2, 3), weight=4)
def stuffle_single(n, k):
    """the product of a depth-one value with any value expands through the depth-one harmonic product"""
    return [((as_combination(Index((n,))), as_combination(k)), star_single(n, k))]


# The derivative-style relation of double shuffle:
#   (1) hast k = sum over i of (k1, ..., ki+1, ..., kr)
#              = sum over i with ki >= 2, 0 <= j <= ki-2 of (k1, ..., k(i-1), j+1, ki-j, k(i+1), ..., kr)
@identity("numeric", weight=6)
def hoffman(k):
    """raising one entry (summed over positions) equals splitting one entry (summed over splits)"""
    splits = (k[:i] + (j + 1, e - j) + k[i + 1 :] for i, e in enumerate(k) for j in range(e - 1))
    return [(hast(1, k), IndexCombination((Index(split), 1) for split in splits))]


@identity("numeric", s=(2, 5), t=(2, 5), m=(0, 3))
def hmos(s, t, m):
    """the depth-one dual gap at block length zero is symmetric in its two parameters"""
    return [dual_gap_skew_sides(s, t, 0, m)]


@identity("numeric", s=(2, 4), t=(2, 4), l=(0, 2), m=(0, 2))
def main(s, t, l, m):
    """the dual gap against a {2}-block is symmetric in its two parameters"""
    return [dual_gap_skew_sides(s, t, l, m)]


@identity("numeric", s=(2, 3), t=(1, 3), l=(0, 1), m=(0, 2))
def lemma_fmpre1(s, t, l, m):
    """the dual gap equals the signed pair of position-sum families of the shifted body"""
    body = sha(Index((t + 1,)), repeat(2, l))
    plain, dualised = dual_gap_operands(s, Index((t + 1,)), l)
    lhs = ohno_sum_symbolic(plain, m) + hast_shifted_sum(body, s, m)
    rhs = ohno_sum_symbolic(dualised, m) + hast_shifted_sum(dual_linear(body), s, m)
    return [(lhs, rhs)]


@identity("numeric", s=(1, 3), t=(1, 2), l=(0, 1), m=(1, 2))
def lemma_fmpre2(s, t, l, m):
    """telescoping two position-sum families reduces to one shifted position-sum"""
    body = sha(Index((t + 1,)), repeat(2, l))
    pairs = []
    for base in (body, dual_linear(body)):
        rhs = hast_shifted_sum(base, s + 1, m - 1) + ohno_sum_symbolic(hast(s, base), m)
        pairs.append((hast_shifted_sum(base, s, m), rhs))
    return pairs


@identity("numeric", s=(3, 4), t=(1, 2), l=(0, 1), m=(1, 2))
def lemma_fm(s, t, l, m):
    """the first difference of dual gaps equals the signed shifted position-sums"""
    body = sha(Index((t + 1,)), repeat(2, l))
    plain1, dual1 = dual_gap_operands(s - 1, Index((t + 1,)), l)
    plain2, dual2 = dual_gap_operands(s, Index((t + 1,)), l)
    lhs = ohno_sum_symbolic(plain1 + hast(s - 1, body), m) + ohno_sum_symbolic(dual2, m - 1)
    rhs = ohno_sum_symbolic(dual1 + hast(s - 1, dual_linear(body)), m) + ohno_sum_symbolic(plain2, m - 1)
    return [(lhs, rhs)]


@identity("numeric", s=(3, 4), t=(3, 4), l=(0, 1), m=(0, 2))
def lemma_oooo(s, t, l, m):
    """dualised interleave minus dualised position-sum families are symmetric in the two parameters"""

    def interleave(x: int, y: int) -> IndexCombination:
        return sha(Index((x,)), dual_linear(sha(Index((y,)), repeat(2, l))))

    def position(x: int, y: int) -> IndexCombination:
        return hast(x - 1, dual_linear(sha(Index((y + 1,)), repeat(2, l))))

    lhs = ohno_sum_symbolic(interleave(s, t) + position(t, s), m)
    return [(lhs, ohno_sum_symbolic(position(s, t) + interleave(t, s), m))]


@identity("numeric", s=(3, 4), t=(3, 4), l=(0, 1), m=(1, 2))
def lemma_dddd(s, t, l, m):
    """the skew dual gap satisfies the triangle recurrence in (order, parameters)"""
    a_pos, a_neg = dual_gap_skew_sides(s, t, l, m - 1)
    b_pos, b_neg = dual_gap_skew_sides(s - 1, t, l, m)
    c_pos, c_neg = dual_gap_skew_sides(s, t - 1, l, m)
    return [(a_pos + b_neg + c_neg, a_neg + b_pos + c_pos)]


# The exact closed expansions, for l >= 1,
#   (s) # ((t) # {2}^l)^dual
#     = sum over 0<=i<=l of
#         sum over 0<=j<=i     of ({2}^j, s, {2}^(i-j), {1}^(t-2), {2}^(l-i+1))
#       + sum over 1<=j<=t-2   of ({2}^i, {1}^j, s, {1}^(t-j-2), {2}^(l-i+1))
#       + sum over 0<=j<=l-i   of ({2}^i, {1}^(t-2), {2}^(j+1), s, {2}^(l-i-j))
#   (s-1) hast ((t+1) # {2}^l)^dual
#     = sum over 1<=i<=l, 0<=j<=i-1 of ({2}^j, s+1, {2}^(i-j-1), {1}^(t-1), {2}^(l-i+1))
#     + sum over 0<=i<=l of
#         sum over 0<=j<=t-2 of ({2}^i, {1}^j, s, {1}^(t-j-2), {2}^(l-i+1))
#       + sum over 0<=j<=l-i of ({2}^i, {1}^(t-1), {2}^j, s+1, {2}^(l-i-j))
@identity("exact-symbolic", s=(2, 4), t=(2, 4), l=(1, 2))
def sha_expansion_oooo(s, t, l):
    """closed expansions of the dualised interleave and dualised position-sum families"""
    shuffled, merged = [], []
    for i in range(l + 1):
        head, tail = (2,) * i, (2,) * (l - i + 1)
        shuffled += [(2,) * j + (s,) + (2,) * (i - j) + (1,) * (t - 2) + tail for j in range(i + 1)]
        shuffled += [head + (1,) * j + (s,) + (1,) * (t - j - 2) + tail for j in range(1, t - 1)]
        shuffled += [head + (1,) * (t - 2) + (2,) * (j + 1) + (s,) + (2,) * (l - i - j) for j in range(l - i + 1)]
    for i in range(1, l + 1):
        merged += [(2,) * j + (s + 1,) + (2,) * (i - j - 1) + (1,) * (t - 1) + (2,) * (l - i + 1) for j in range(i)]
    for i in range(l + 1):
        head, tail = (2,) * i, (2,) * (l - i + 1)
        merged += [head + (1,) * j + (s,) + (1,) * (t - j - 2) + tail for j in range(t - 1)]
        merged += [head + (1,) * (t - 1) + (2,) * j + (s + 1,) + (2,) * (l - i - j) for j in range(l - i + 1)]
    pairs = [(sha(Index((s,)), dual_linear(sha(Index((t,)), repeat(2, l)))), shuffled)]
    pairs.append((hast(s - 1, dual_linear(sha(Index((t + 1,)), repeat(2, l)))), merged))
    return [(lhs, IndexCombination((Index(e), 1) for e in rhs)) for lhs, rhs in pairs]


# The exact merge identity, its second summand dropped at l = 0:
#   (s-1) hast ((t+1) # {2}^l)  =  (s+t) # {2}^l + (s+1) # (t+1) # {2}^(l-1)
@identity("exact-symbolic", s=(2, 4), t=(1, 3), l=(0, 2))
def hast_symmetry(s, t, l):
    """a position-sum against an interleaved {2}-block merges into a symmetric closed form"""
    rhs = sha(Index((s + t,)), repeat(2, l))
    if l >= 1:
        rhs = rhs + sha(sha(Index((s + 1,)), Index((t + 1,))), repeat(2, l - 1))
    return [(hast(s - 1, sha(Index((t + 1,)), repeat(2, l))), rhs)]


@identity("exact-symbolic", s=(2, 3), l=(1, 2), m=(0, 2), p=None, q=None)
def add1(s, l, m, p, q):
    """layered block sums with a raised entry equal weighted composition sums"""
    return [(grouped_single(s, l, m, p, q), composed_single(s, l, m, p, q))]


@identity("exact-symbolic", s=(2, 3), l=(1, 2), m=(0, 2), p=None, q=None)
def add2(s, l, m, p, q):
    """layered block sums with a split entry equal weighted composition sums"""
    return [(grouped_split(s, l, m, p, q), composed_split(s, l, m, p, q))]


@identity("exact-symbolic", s=(2, 3), l=(1, 2), m=(0, 2), p=None)
def add2_diagonal(s, l, m, p):
    """each of the three diagonal split families equals its slice of the weighted composition sums"""
    return split_diag_parts(s, l, m, p)


@identity("numeric", s=(2, 3), l=(0, 1), m=(0, 1))
def abc_decomposition(s, l, m):
    """the skew dual gap against parameter 2 equals its three-part closed decomposition"""
    pos, neg = dual_gap_skew_sides(s, 2, l, m)
    return [(pos - term_a(s, l, m), neg + term_b(s, l, m) + term_c(s, l, m))]


@identity("exact-symbolic", s=(2, 3), l=(1, 2), m=(0, 1))
def abc_closed_forms(s, l, m):
    """summed over all positions, the block families equal the closed forms of the decomposition parts"""
    window = list(product(range(1, l + 2), repeat=2))
    closed_forms = [
        (grouped_single, -term_a(s, l, m)),
        (grouped_split, term_bc_closed(s, l, m)),
        (composed_single, raised_entry_expansion(s, l, m)),
        (composed_split, split_entry_expansion(s, l, m)),
    ]
    return [(reduce(add, (family(s, l, m, p, q) for p, q in window)), form) for family, form in closed_forms]


def list_identities() -> tuple[IdentitySpec, ...]:
    """All catalogue entries, in stable registry order."""
    return tuple(_CATALOGUE.values())


# -- hypotheses and sides -----------------------------------------------------


def _refusal(spec: IdentitySpec, params: Mapping[str, Any]) -> Optional[str]:
    """The first hypothesis a point violates, in parameter order, or None."""
    for name in spec.params:
        v = params[name]
        if name == "k":
            if not v.admissible:
                return f"k must be admissible (nonempty, last entry >= 2), got {v}"
            continue
        low = spec.at_least[name]
        if v < low:
            return f"{name} must be at least {low}, got {v}"
        if name in ("p", "q") and v > params["l"] + 1:
            return f"{name} must be at most l+1 = {params['l'] + 1}, got {v}"
    return None


def _factors(side: Side) -> tuple[IndexCombination, ...]:
    return side if isinstance(side, tuple) else (side,)


# -- grid handling ------------------------------------------------------------


def _as_list(value: Any, index_valued: bool) -> list[Any]:
    single = isinstance(value, (Index, str)) or not hasattr(value, "__iter__")
    values = [value] if single else list(value)
    if not index_valued:
        for v in values:
            if type(v) is not int:  # the package's integer rule: a bool is refused
                raise ValueError(f"grid values must be integers, got {v!r}")
        return values
    out = [Index.from_text(v) if isinstance(v, str) else v for v in values]
    for v in out:
        if not isinstance(v, Index):
            raise ValueError(f"expected an index or index text, got {v!r}")
    return out


def _grid(spec: IdentitySpec, overrides: Mapping[str, Any]) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """A JSON-friendly description of the grid with the overrides merged in,
    and its points.  Each parameter in turn extends every point built so far
    by its values (the last varies fastest); a ``p`` or ``q`` left at its
    default ``None`` takes ``1..l+1`` from the point it extends."""
    defaults = spec.grid
    allowed = set(spec.params) | ({"weight"} if "weight" in defaults else set())
    unknown = set(overrides) - allowed
    if unknown:
        raise ValueError(
            f"unknown grid parameter(s) {sorted(unknown)} for {spec.name}; allowed: {sorted(allowed)}"
        )
    if "k" in overrides and "weight" in overrides:
        raise ValueError(f"grid parameters k and weight exclude each other for {spec.name}; weight bounds default k")

    desc: dict[str, Any] = {}
    points: list[dict[str, Any]] = [{}]
    for name in spec.params:
        if name == "k":
            if "k" in overrides:
                values = _as_list(overrides["k"], index_valued=True)
                desc["k"] = [str(v) for v in values]
            else:
                weight = overrides.get("weight", defaults["weight"])
                if not _int_at_least(weight, 2):
                    raise ValueError(f"weight must be an integer >= 2, got {weight!r}")
                values = list(iter_admissible(weight))
                desc["weight"] = weight
        elif name in ("p", "q") and defaults[name] is None and name not in overrides:
            values = None
            desc[name] = "1..l+1"
        else:
            values = _as_list(overrides.get(name, defaults[name]), index_valued=False)
            desc[name] = values
        points = [{**pt, name: v} for pt in points for v in (range(1, pt["l"] + 2) if values is None else values)]
    return desc, points


def _display_params(params: Mapping[str, Any]) -> dict[str, Any]:
    return {k: (str(v) if isinstance(v, Index) else v) for k, v in params.items()}


# -- the driver ---------------------------------------------------------------


def _point_results(spec: IdentitySpec, cfg: EvalConfig, points: list[dict[str, Any]]) -> list[PointResult]:
    """Plan the points in order, fill once per precision, then read them (see the module docstring)."""
    plans: dict[int, list] = {}  # id(side) -> [side, plan, value]; holding the side keeps its id unique

    def value(entry: list) -> float:
        if entry[2] is None or cfg.cache is not None:  # a cached read may hit a finer value
            entry[2] = _read(*entry[1])
        return entry[2]

    def read(row: Any) -> PointResult:
        if isinstance(row, PointResult):  # a refusal
            return row
        shown, pairs, planned, seconds = row
        start = time.perf_counter()
        values = iter([value(entry) for entry in planned])
        if isinstance(pairs, Exception):  # a point whose planning raised
            raise pairs
        if spec.kind == "numeric":
            sides = [math.prod(next(values) for _ in _factors(side)) for pair in pairs for side in pair]
            residual = max(abs(lhs - rhs) for lhs, rhs in zip(sides[::2], sides[1::2]))
            evals = len(set().union(*(terms for _, (_, terms), _ in planned)))
            outcome = dict(residual=residual, threshold=cfg.tol * max(evals, 1) * RESIDUAL_MARGIN, evals=evals)
        else:
            outcome = dict(equal=all(lhs == rhs for lhs, rhs in pairs))
        return PointResult(shown, **outcome, elapsed_ms=(seconds + time.perf_counter() - start) * 1000.0)

    todo, held, results, rows = {}, {}, [], []  # rows: refusals and planned points until read
    for params in points:
        shown = _display_params(params)
        reason = _refusal(spec, params)
        if reason is not None:
            rows.append(PointResult(params=shown, refused=True, reason=reason))
            continue
        start, planned = time.perf_counter(), []
        try:
            pairs = spec.sides(**params)
            if spec.kind == "numeric":  # in the order the values are read
                for comb in (c for pair in pairs for side in pair for c in _factors(side)):
                    entry = plans.get(id(comb))
                    if entry is None:  # planning again would add nothing to todo or held
                        entry = plans[id(comb)] = [comb, _plan(comb, cfg, todo, held), None]
                    planned.append(entry)
        except Exception as exc:  # raised by read() once the points before it are read
            rows.append((shown, exc, planned, 0.0))
            break
        rows.append((shown, pairs, planned, time.perf_counter() - start))
        if not todo:  # nothing waits for the fill, so a warm sweep reads each point at once
            results += map(read, rows)
            rows.clear()
    _fill(todo)
    results += map(read, rows)
    return results


def verify(name: str, *, cfg: Optional[EvalConfig] = None, **grid: Any) -> VerificationReport:
    """Verify one catalogue identity over a parameter grid.

    ``grid`` keyword arguments override the per-identity defaults; each value
    may be a single int/index or an iterable.  Index families default to all
    admissible indices up to the identity's default ``weight`` bound (override
    with ``weight=...`` or an explicit ``k=...`` list).  Points violating the
    identity's hypotheses are refused, recorded, and excluded from the
    verdict; if every point is refused a ``ValueError`` is raised.
    """
    if name not in _CATALOGUE:
        known = ", ".join(_CATALOGUE)
        raise ValueError(f"unknown identity {name!r}; known identities: {known}")
    spec = _CATALOGUE[name]
    cfg = cfg or EvalConfig()
    desc, points = _grid(spec, grid)
    if not points:
        raise ValueError(f"the grid for {name} is empty")

    start = time.perf_counter()
    context = copy_context()  # holds the side memo of ohno.sums for this call only
    context.run(_MEMO.set, {})
    results = context.run(_point_results, spec, cfg, points)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    evaluated = [r for r in results if not r.refused]
    if not evaluated:
        reasons = "; ".join(sorted({r.reason for r in results}))
        raise ValueError(f"every grid point violates the hypotheses of {name}: {reasons}")
    passed = all(r.passed for r in evaluated)
    max_residual = max((r.residual for r in evaluated if r.residual is not None), default=None)
    return VerificationReport(name, spec.kind, desc, cfg.tol, passed, max_residual, tuple(results), elapsed_ms)


# -- report serialisation -----------------------------------------------------


def _point_dict(point: PointResult) -> dict[str, Any]:
    if point.refused:
        return {"params": dict(point.params), "refused": True, "reason": point.reason}
    out: dict[str, Any] = {"params": dict(point.params)}
    if point.equal is not None:
        out["equal"] = point.equal
    else:
        out["residual"] = point.residual
        out["threshold"] = point.threshold
    out["evals"] = point.evals
    out["elapsed_ms"] = round(point.elapsed_ms, 3)
    out["pass"] = point.passed
    return out


def report_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-shaped dictionary form of a report."""
    return {
        "identity": report.identity,
        "kind": report.kind,
        "grid": dict(report.grid),
        "tol": report.tol,
        "pass": report.passed,
        "max_residual": report.max_residual,
        "elapsed_ms": round(report.elapsed_ms, 3),
        "points": [_point_dict(p) for p in report.points],
    }


def report_to_file(report: VerificationReport, path: str, fmt: str = "json") -> None:
    """Write a report as ``json`` (all points) or ``csv`` (evaluated points)."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_dict(report), fh, indent=2)
            fh.write("\n")
        return
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["identity", "params", "residual", "tol", "pass", "evals", "elapsed_ms"])
            for point in report.evaluated:
                if point.equal is not None:
                    residual, tol = ("equal" if point.equal else "unequal"), ""
                else:
                    residual, tol = repr(point.residual), repr(point.threshold)
                params = ";".join(f"{k}={v}" for k, v in point.params.items())
                row = [report.identity, params, residual, tol, str(point.passed), point.evals]
                writer.writerow(row + [round(point.elapsed_ms, 3)])
        return
    raise ValueError(f"unknown report format {fmt!r}; use 'json' or 'csv'")
