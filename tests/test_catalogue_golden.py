"""Golden pin of the catalogue's verdicts on every default grid.

``catalogue_golden.json`` records, for each identity, the report fields
``identity``, ``kind``, ``grid``, ``tol`` and ``pass``, and one row per
point: ``[params, reason]`` for a refused point, ``[params, evals,
threshold, equal, pass]`` for an evaluated one.  Timings are not pinned.
Residuals are pinned apart, as one digest of their bits
(``test_default_residuals_pinned``): a change meant to keep every value
must keep it, and one meant to move values (a new working precision, say)
states so and rewrites the digest, never a verdict or a threshold.

The file was written from the catalogue as it stood before identities were
restated as ``(lhs, rhs)`` sides.  Rewrite it only for an intended change of
the catalogue::

    PYTHONPATH=src python tests/test_catalogue_golden.py
"""

import hashlib
import json
import pathlib

from ohno.verify import list_identities, verify

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


def test_default_residuals_pinned():
    """Every residual of every numeric default-grid point, bit for bit.

    The golden file pins verdicts and thresholds only, so a change that
    moves value bits would pass it unnoticed; a speed-up must not."""
    lines = []
    for spec in list_identities():
        for p in verify(spec.name).points:
            if p.residual is not None:
                params = json.dumps(dict(p.params), sort_keys=True)
                lines.append(f"{spec.name}\t{params}\t{p.residual.hex()}\n")
    assert len(lines) == 390
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "8ea01c81f9bfe376de2f719017cb3eba9c8cc5b3d0887c60beb4fb71a1598a63"
    )


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(catalogue_rows()))
