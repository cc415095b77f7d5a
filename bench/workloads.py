"""Seeded inputs for the benchmark workloads.

Nothing here imports ``ohno``: the benchmark builds plain data (identity
names, grids as lists of ints or entry tuples, expression texts) and the
worker hands it to the package's public functions.

* ``catalogue-cold`` -- the 16 catalogue identities with grids copied from
  the seed commit's defaults, in catalogue order, as ``ohno verify --name
  all`` runs them.  The seed permutes the value order on every grid axis;
  the set of points is the same for every seed.
* ``sweep-warm`` -- five algebra-heavy identities from the same catalogue,
  swept repeatedly in one interpreter.  The seed permutes grid orders.
* ``table-persist`` -- a table of ``ohno(m, A # B) - ohno(m, dual(A # B))``
  texts.  The slot shapes (weights, depths, order ``m``, which earlier item a
  repeat copies) are fixed; the seed deals the entries of ``A`` and ``B``
  from a fixed pool to the slots.
"""

from __future__ import annotations

import math
import random
from typing import Any

WORKLOADS = ("catalogue-cold", "sweep-warm", "table-persist")

# The units of a ``catalogue-cold`` or ``table-persist`` run cycle through
# this many variants of the seed's inputs.  Which points or items pay for
# the factors that others then find in a cache depends on the order of the
# grid or on how the table is dealt, and that moved the latency quantiles
# of one variant by a tenth between seeds; a run pools several.
VARIANTS = 6


def admissible(max_weight: int) -> list[tuple[int, ...]]:
    """Admissible indices (last entry >= 2) of weight 2..max_weight."""
    out: list[tuple[int, ...]] = []
    for weight in range(2, max_weight + 1):
        out.extend(compositions(weight))
    return out


def compositions(weight: int, depth: int | None = None) -> list[tuple[int, ...]]:
    """Compositions of ``weight`` (into ``depth`` parts, if given) whose last
    part is at least 2, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], left: int) -> None:
        if depth is not None and len(prefix) > depth:
            return
        if left == 0:
            if prefix and prefix[-1] >= 2 and (depth is None or len(prefix) == depth):
                out.append(prefix)
            return
        for part in range(1, left + 1):
            rec(prefix + (part,), left - part)

    rec((), weight)
    return out


# -- the catalogue ------------------------------------------------------------

# Grids copied from the seed commit's per-identity defaults, so that a grown
# catalogue or a changed default cannot change the work.  Index families are
# spelled out (every admissible index up to the default weight).  ``add1`` and
# ``add2`` default to the window p, q in 1..l+1; the explicit lists 1..3 cover
# that window for l <= 2 and add refused points outside it.
CATALOGUE: tuple[tuple[str, dict[str, list[Any]]], ...] = (
    ("duality", {"k": admissible(6)}),
    ("ohno", {"k": admissible(5), "m": [0, 1, 2]}),
    ("stuffle_single", {"n": [2, 3], "k": admissible(4)}),
    ("hoffman", {"k": admissible(6)}),
    ("hmos", {"s": [2, 3, 4, 5], "t": [2, 3, 4, 5], "m": [0, 1, 2, 3]}),
    ("main", {"s": [2, 3, 4], "t": [2, 3, 4], "l": [0, 1, 2], "m": [0, 1, 2]}),
    ("lemma_fmpre1", {"s": [2, 3], "t": [1, 2, 3], "l": [0, 1], "m": [0, 1, 2]}),
    ("lemma_fmpre2", {"s": [1, 2, 3], "t": [1, 2], "l": [0, 1], "m": [1, 2]}),
    ("lemma_fm", {"s": [3, 4], "t": [1, 2], "l": [0, 1], "m": [1, 2]}),
    ("lemma_oooo", {"s": [3, 4], "t": [3, 4], "l": [0, 1], "m": [0, 1, 2]}),
    ("lemma_dddd", {"s": [3, 4], "t": [3, 4], "l": [0, 1], "m": [1, 2]}),
    ("sha_expansion_oooo", {"s": [2, 3, 4], "t": [2, 3, 4], "l": [1, 2]}),
    ("hast_symmetry", {"s": [2, 3, 4], "t": [1, 2, 3], "l": [0, 1, 2]}),
    ("add1", {"s": [2, 3], "l": [1, 2], "m": [0, 1, 2], "p": [1, 2, 3], "q": [1, 2, 3]}),
    ("add2", {"s": [2, 3], "l": [1, 2], "m": [0, 1, 2], "p": [1, 2, 3], "q": [1, 2, 3]}),
    ("abc_decomposition", {"s": [2, 3], "l": [0, 1], "m": [0, 1]}),
)

#: (evaluated, refused) points per identity on the grids above, as the seed
#: commit reports them.  A different count is a failed run of that identity.
EXPECTED_COUNTS: dict[str, tuple[int, int]] = {
    "duality": (31, 0),
    "ohno": (45, 0),
    "stuffle_single": (14, 0),
    "hoffman": (31, 0),
    "hmos": (64, 0),
    "main": (81, 0),
    "lemma_fmpre1": (36, 0),
    "lemma_fmpre2": (24, 0),
    "lemma_fm": (16, 0),
    "lemma_oooo": (24, 0),
    "lemma_dddd": (16, 0),
    "sha_expansion_oooo": (18, 0),
    "hast_symmetry": (27, 0),
    "add1": (78, 30),
    "add2": (78, 30),
    "abc_decomposition": (8, 0),
}

SWEEP_IDENTITIES = ("main", "hmos", "lemma_dddd", "lemma_fmpre1", "lemma_oooo")


def _rng(workload: str, seed: Any) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _permuted_grid(rng: random.Random, grid: dict[str, list[Any]]) -> dict[str, list[Any]]:
    out = {}
    for axis, values in grid.items():
        values = list(values)
        rng.shuffle(values)
        out[axis] = values
    return out


def catalogue_plan(seed: int, variant: int = 0) -> list[list[Any]]:
    """``[[identity, grid], ...]`` for ``catalogue-cold``, in catalogue order.

    The identities share one ``ZetaCache``, so an identity's cold cost
    depends on which identities ran before it: permuting their order moved
    the per-point latency quantiles by a quarter between seeds.  The factors
    an identity misses do not depend on the order of its own grid, so its
    time does not move with the seed.
    """
    rng = _rng("catalogue-cold", f"{seed}/{variant}")
    return [[name, _permuted_grid(rng, grid)] for name, grid in CATALOGUE]


def sweep_plan(seed: int) -> list[list[Any]]:
    """``[[identity, grid], ...]`` for ``sweep-warm``, in a fixed identity order."""
    rng = _rng("sweep-warm", seed)
    grids = dict(CATALOGUE)
    return [[name, _permuted_grid(rng, grids[name])] for name in SWEEP_IDENTITIES]


# -- the expression table -----------------------------------------------------

TOLERANCES = (1e-8, 1e-12, 1e-15)

# A new slot is (weight A, depth A, weight B, depth B, m).  Every shape has
# depth(A) + depth(B) != weight(A # B) / 2, so the dual side has another depth
# than the plain side and no seed can make the two cancel term by term.  The
# shapes are ones whose cold cost varies little with the entries the seed
# picks (a depth-one factor leaves few coincident interleavings).
NEW_SHAPES = (
    (4, 1, 6, 3, 1),
    (5, 1, 6, 3, 1),
    (5, 2, 4, 1, 2),
    (6, 2, 4, 1, 2),
    (4, 1, 6, 2, 2),
    (5, 1, 5, 2, 2),
    (4, 1, 7, 3, 2),
    (2, 1, 9, 4, 1),
)
BATCHES = 4
# After its new slots, each batch repeats the items this many places back,
# reaching into the two batches before it.  The tolerance cycles with the
# position, so repeats land at an equal, a coarser or a finer tolerance than
# the item they copy.  Most repeats are served from the cache, so the median
# item times expansion and cache-file I/O and the slowest tenth times cold
# evaluation; with fewer repeats the median sat in the gap between the two
# and moved by a third between seeds.
REPEAT_BACK = (3,) + tuple(range(7, 50, 3))


def _template() -> tuple[tuple[str, int], ...]:
    slots: list[tuple[str, int]] = []
    for _ in range(BATCHES):
        slots.extend(("new", j) for j in range(len(NEW_SHAPES)))
        for back in REPEAT_BACK:
            slots.append(("repeat", max(len(slots) - back, 0)))
    return tuple(slots)


TABLE_TEMPLATE = _template()
BATCH_SIZE = len(NEW_SHAPES) + len(REPEAT_BACK)


def _index_text(entries: tuple[int, ...]) -> str:
    return "(" + ",".join(str(e) for e in entries) + ")"


def mass_bound(shape: tuple[int, int, int, int, int]) -> int:
    """Upper bound on the coefficient mass of a slot's expanded expression.

    ``A # B`` has coefficient mass C(dA+dB, dA); an order-m family of a
    depth-d index has C(m+d-1, d-1) terms of coefficient 1; duality keeps
    the weight w and sends depth d to w - d.
    """
    wa, da, wb, db, m = shape
    w, d = wa + wb, da + db
    return math.comb(d, da) * (math.comb(m + d - 1, d - 1) + math.comb(m + w - d - 1, w - d - 1))


def _entry_pool() -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """One (A, B) pair per batch for every shape, drawn once for all seeds.

    Drawing fresh entries for every seed made the work of a table pass
    (series factors computed) differ by 12% between seeds, because entries
    decide how many words the items of a batch share.  Dealing one pool
    keeps the expressions and lets the seed decide which batch, and so which
    interpreter and which repeats, each pair meets.
    """
    rng = random.Random("table-persist pool")
    return [
        [(rng.choice(compositions(wa, da)), rng.choice(compositions(wb, db))) for _ in range(BATCHES)]
        for wa, da, wb, db, _ in NEW_SHAPES
    ]


def table_items(seed: int, variant: int = 0) -> list[dict[str, Any]]:
    """The ``table-persist`` items of one variant of the seed: expression
    text, tolerance and mass bound."""
    rng = _rng("table-persist", f"{seed}/{variant}")
    dealt = []
    for pairs in _entry_pool():
        rng.shuffle(pairs)
        dealt.append(iter(pairs))
    items: list[dict[str, Any]] = []
    for pos, (kind, ref) in enumerate(TABLE_TEMPLATE):
        tol = TOLERANCES[pos % len(TOLERANCES)]
        if kind == "repeat":
            item = dict(items[ref], tol=tol)
        else:
            shape = NEW_SHAPES[ref]
            a, b = (_index_text(entries) for entries in next(dealt[ref]))
            m = shape[4]
            text = f"ohno({m}, {a} # {b}) - ohno({m}, dual({a} # {b}))"
            item = {"text": text, "tol": tol, "mass_bound": mass_bound(shape)}
        items.append(item)
    return items


def table_batches(seed: int, variant: int) -> list[list[dict[str, Any]]]:
    items = table_items(seed, variant)
    return [items[i : i + BATCH_SIZE] for i in range(0, len(items), BATCH_SIZE)]
