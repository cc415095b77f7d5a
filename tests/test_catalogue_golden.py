"""Golden pin of the catalogue's verdicts on every default grid.

``catalogue_golden.json`` records, for each identity, the report fields
``identity``, ``kind``, ``grid``, ``tol`` and ``pass``, and one row per
point: ``[params, reason]`` for a refused point, ``[params, evals,
threshold, equal, pass]`` for an evaluated one.  Timings are not pinned.
Residuals are pinned apart, as one digest of their bits
(``test_default_residuals_pinned``): a change meant to keep every value
must keep it, and one meant to move values (a new working precision, say)
states so and rewrites the digest, never a verdict or a threshold.  The
sides themselves are pinned per identity, as one digest of the canonical
text of every side at every default point (``test_default_sides_pinned``),
since a residual cannot see a side that is reordered or built wrong in a
way that keeps its value.

The file was written from the catalogue as it stood before identities were
restated as ``(lhs, rhs)`` sides.  Rewrite it only for an intended change of
the catalogue::

    PYTHONPATH=src python tests/test_catalogue_golden.py

A change that moves residuals can list the digested lines, one
``identity<TAB>params<TAB>residual-hex`` line per numeric point, to diff
them before and after::

    PYTHONPATH=src python tests/test_catalogue_golden.py --residuals

and, with ``--shared-cache`` added, the lines of the path of ``ohno verify
--name all`` (one ``ZetaCache`` at tol 1e-12) and then one line of the
cache's hits, misses and entries.
"""

import hashlib
import importlib
import json
import pathlib
import sys

from ohno.indices import combination_to_text
from ohno.verify import list_identities, verify
from ohno.zeta import EvalConfig, ZetaCache, ZetaCacheStats

catalogue = importlib.import_module("ohno.verify")

GOLDEN = pathlib.Path(__file__).with_name("catalogue_golden.json")


def _point_row(point):
    if point.refused:
        return [dict(point.params), point.reason]
    return [dict(point.params), point.evals, point.threshold, point.equal, point.passed]


def catalogue_rows():
    rows = []
    for spec in list_identities():
        report = verify(spec.name)
        rows.append(
            {
                "identity": report.identity,
                "kind": report.kind,
                "grid": dict(report.grid),
                "tol": report.tol,
                "pass": report.passed,
                "points": [_point_row(p) for p in report.points],
            }
        )
    return rows


def _dumps(rows):
    """JSON with one point per line, so a diff names the points that moved."""
    compact = dict(separators=(",", ":"), sort_keys=True)
    out = ["["]
    for i, row in enumerate(rows):
        head = {k: v for k, v in row.items() if k != "points"}
        out.append(json.dumps(head, **compact)[:-1] + ',"points":[')
        points = [json.dumps(p, **compact) for p in row["points"]]
        out.append(",\n".join(points))
        out.append("]}" + ("," if i + 1 < len(rows) else ""))
    out.append("]")
    return "\n".join(out) + "\n"


def test_default_grids_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = json.loads(_dumps(catalogue_rows()))
    assert [r["identity"] for r in got] == [r["identity"] for r in expected]
    for got_row, want_row in zip(got, expected):
        assert got_row == want_row, got_row["identity"]


def _residual_lines(cfg=None):
    """One ``identity<TAB>params<TAB>residual-hex`` line per numeric
    default-grid point, every identity verified in catalogue order with ``cfg``."""
    lines = []
    for spec in list_identities():
        for p in verify(spec.name, cfg=cfg).points:
            if p.residual is not None:
                params = json.dumps(dict(p.params), sort_keys=True)
                lines.append(f"{spec.name}\t{params}\t{p.residual.hex()}\n")
    return lines


def _residual_digest(cfg=None):
    """The number of numeric default-grid points and one digest of their residual bits."""
    lines = _residual_lines(cfg)
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


RESIDUAL_DIGEST = (390, "d3bd827594c26624dd379099d2a2dc509378df20561c0661458865ee2451f644")
SHARED_CACHE_RESIDUAL_DIGEST = (390, "4b6b450d1d8bca2314cd15b30d26e075a49815ce1965a0a00fedc3e7dddbee7f")


def test_default_residuals_pinned():
    """Every residual of every numeric default-grid point, bit for bit.

    The golden file pins verdicts and thresholds only, so a change that
    moves value bits would pass it unnoticed; a speed-up must not."""
    assert _residual_digest() == RESIDUAL_DIGEST


def test_shared_cache_residuals_pinned():
    """The path of ``ohno verify --name all``: every identity through one
    ``ZetaCache`` at tol 1e-12.  A cache answers with the finest value it
    holds, and values at two buckets differ in their last bits, so its
    residuals differ from the uncached ones.  The cache's hits and misses
    pin which requests it served."""
    cache = ZetaCache()
    assert _residual_digest(EvalConfig(tol=1e-12, cache=cache)) == SHARED_CACHE_RESIDUAL_DIGEST
    assert cache.stats == ZetaCacheStats(hits=21210, misses=4208)
    assert len(cache) == 3864


#: sha256 of the canonical text of every side at every default point.
SIDE_DIGESTS = {
    "duality": "1f1ec0396f654daa3ba3df0ab279caebdf8db9159e2314cf75d4e01abcfabe4e",
    "ohno": "42811c7d1bd27d84b00a2a65ca2fcd59f142c00bd9368b54a57039545dd4e6c5",
    "stuffle_single": "5899519538fc0cbc33bafdd633e86960974820191e0c855fcbcaf23fc97ac215",
    "hoffman": "8ffc80a8bf67d2616fd7fb761b46e88155653550a373800d16deb82a2f8bd7ba",
    "hmos": "a0e77d618cb6971ed7ea86826acb72d174f2ca9aa6eae6c3327675eada64a15c",
    "main": "f883aa8e2bf6efa42700f8dd62aced5575f353863d8673592423676f1dd32a2b",
    "lemma_fmpre1": "54025937d4329ad07ec4ef791cfa72661532fae2cd17468c2d1afc3e126114aa",
    "lemma_fmpre2": "3055bc582ef620e62c255a3471b6d6be3e9f2e7dcd2a879b12883ad6b969ce90",
    "lemma_fm": "2ab73a94bc80d8bf8be2c43d828d6a2e0ba3fee4a8556d82856c2d65931fbb4f",
    "lemma_oooo": "6129012a36ea466255ebac4554a8586fb9680aea619271915f99e3247a89ff5a",
    "lemma_dddd": "11ba9b5e6865c877fbcd7cc3f447e2b4a23d2c9230479d6eb30fb537869b80f0",
    "sha_expansion_oooo": "075b8084fda252aa59fc02bff5d3fe5d0bfb56d7b0dd37848df21709ec9d3032",
    "hast_symmetry": "5f14394ea21355c4c90f9464ac82ed63090ce72c07c667975d6899eb7684994a",
    "add1": "859c57fdcafb1e07136d11f583330d2e4bf680b08e831cec1a90e146ad49a11f",
    "add2": "d4d70ed490c2ee9070aa7c77f457a2b717880469646e5853aba756118dc13468",
    "add2_diagonal": "77c6575e813cc2b62fe647c27a13d7e48dbe2e6d3b2c507cdcf74902cb65de0b",
    "abc_decomposition": "3a20e43989975446facd46966a9ec355762192e01960d5f3a30a708f4037089a",
    "abc_closed_forms": "365f1e696bb77c91900ee5d417610342d6558c09b145844ce6a94765ac23772b",
}


def test_default_sides_pinned():
    """Every side of every evaluated default point, term by term.

    One line per pair: the point's parameters, the pair's position, and the
    canonical text of both sides (the factors of a product side joined by
    `` * ``)."""
    digests = {}
    for spec in list_identities():
        lines = []
        for params in catalogue._grid(spec, {})[1]:
            if catalogue._refusal(spec, params) is not None:
                continue
            shown = json.dumps(catalogue._display_params(params), sort_keys=True)
            for i, pair in enumerate(spec.sides(**params)):
                texts = []
                for side in pair:
                    factors = side if isinstance(side, tuple) else (side,)
                    texts.append(" * ".join(combination_to_text(c) for c in factors))
                lines.append(f"{shown}\t{i}\t" + "\t".join(texts) + "\n")
        digests[spec.name] = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digests == SIDE_DIGESTS


if __name__ == "__main__":
    if sys.argv[1:] == ["--residuals"]:
        sys.stdout.write("".join(_residual_lines()))
    elif sys.argv[1:] == ["--residuals", "--shared-cache"]:
        shared = ZetaCache()
        sys.stdout.write("".join(_residual_lines(EvalConfig(tol=1e-12, cache=shared))))
        print(f"hits={shared.stats.hits} misses={shared.stats.misses} entries={len(shared)}")
    else:
        GOLDEN.write_text(_dumps(catalogue_rows()))
