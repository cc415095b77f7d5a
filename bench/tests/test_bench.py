"""Tests of the benchmark itself: span arithmetic, speed scaling, seeded
inputs, and that tracing leaves every non-timing output unchanged.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# -- span self-time arithmetic ------------------------------------------------


def test_self_time_subtracts_nested_children():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8].
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert spans.self_times(parent, start, end) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 3.0]
    end = [10.0, 5.0, 7.0]
    assert spans.self_times(parent, start, end) == pytest.approx([4.0, 4.0, 4.0])


def test_span_table_counts_recursion_once_in_inclusive_time():
    names = ["zeta.outer", "zeta.inner"]
    # outer [0, 10] > inner [1, 9] > outer [2, 6] > inner [3, 4]
    name_of = [0, 1, 0, 1]
    parent = [-1, 0, 1, 2]
    start = [0.0, 1.0, 2.0, 3.0]
    end = [10.0, 9.0, 6.0, 4.0]
    table = spans.span_table(names, name_of, parent, start, end)
    assert table["zeta.outer"] == pytest.approx({"calls": 2, "incl_s": 10.0, "self_s": 2.0 + 3.0})
    assert table["zeta.inner"] == pytest.approx({"calls": 2, "incl_s": 8.0, "self_s": 4.0 + 1.0})
    summary = {"spans": table, "counters": {}, "distinct": {}}
    assert spans.layer_self(summary, "zeta") == pytest.approx(10.0)


def test_tracer_records_nested_calls_and_excludes_observers():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "indices.leaf", lambda t, a, k, r, s: seen.append((a, r, s)))

    def outer(x):
        return traced_leaf(x) * 2

    traced_outer = tracer.wrap(outer, "sums.outer")
    assert traced_outer(1) == 4
    # Clock: outer opens at 0, leaf 1..2, observer 3..4, outer closes at 5.
    assert seen == [((1,), 2, 1.0)]
    summary = tracer.summary()
    assert summary["spans"]["sums.outer"] == {"calls": 1, "incl_s": 5.0, "self_s": 3.0}
    assert summary["spans"]["indices.leaf"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
    assert summary["spans"][spans.OBSERVE]["self_s"] == 1.0


def test_install_rebinds_every_namespace_and_uninstall_restores(monkeypatch):
    import types

    def fn():
        return 1

    pkg = types.ModuleType("pkgx")
    sub = types.ModuleType("pkgx.sub")
    pkg.fn = sub.fn = sub.alias = fn
    monkeypatch.setitem(sys.modules, "pkgx", pkg)
    monkeypatch.setitem(sys.modules, "pkgx.sub", sub)
    tracer = spans.Tracer()
    tracer.install("pkgx", [(fn, "sub.fn", None)])
    assert pkg.fn is not fn and sub.fn is pkg.fn and sub.alias is pkg.fn
    pkg.fn()
    sub.alias()
    assert tracer.summary()["spans"]["sub.fn"]["calls"] == 2
    tracer.uninstall()
    assert pkg.fn is fn and sub.fn is fn and sub.alias is fn


# -- seeded inputs ------------------------------------------------------------


def _inputs(seed: int) -> dict:
    return {
        "catalogue": workloads.catalogue_plan(seed),
        "sweep": workloads.sweep_plan(seed),
        "table": workloads.table_items(seed),
    }


def test_seed_reproduces_inputs_across_processes():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(json.dumps({'catalogue': workloads.catalogue_plan(7), "
        "'sweep': workloads.sweep_plan(7), 'table': workloads.table_items(7)}))"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code, BENCH], env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] == json.loads(json.dumps(_inputs(7)))


def test_seeds_permute_the_same_points():
    a, b = _inputs(1), _inputs(2)
    assert a != b
    for plan_a, plan_b in ((a["catalogue"], b["catalogue"]), (a["sweep"], b["sweep"])):
        assert sorted(name for name, _ in plan_a) == sorted(name for name, _ in plan_b)
        grids_b = dict((name, grid) for name, grid in plan_b)
        for name, grid in plan_a:
            assert {axis: sorted(v) for axis, v in grid.items()} == {
                axis: sorted(v) for axis, v in grids_b[name].items()
            }
    assert a["catalogue"] != b["catalogue"]
    assert workloads.catalogue_plan(1, 0) != workloads.catalogue_plan(1, 1)


def test_table_slots_keep_their_shape_across_seeds_and_variants():
    for seed in range(5):
        for variant in range(workloads.VARIANTS):
            items = workloads.table_items(seed, variant)
            assert len(items) == len(workloads.TABLE_TEMPLATE)
            assert [(i["tol"], i["mass_bound"]) for i in items] == [
                (i["tol"], i["mass_bound"]) for i in workloads.table_items(0)
            ]
    assert workloads.table_items(1, 0) != workloads.table_items(1, 1)


def test_table_repeats_cover_equal_coarser_and_finer_tolerances():
    relations = set()
    for pos, (kind, ref) in enumerate(workloads.TABLE_TEMPLATE):
        if kind == "repeat":
            here = workloads.TOLERANCES[pos % 3]
            there = workloads.TOLERANCES[ref % 3]
            relations.add("equal" if here == there else "coarser" if here > there else "finer")
    assert relations == {"equal", "coarser", "finer"}


def test_expected_counts_cover_the_catalogue():
    assert set(workloads.EXPECTED_COUNTS) == {name for name, _ in workloads.CATALOGUE}
    assert set(workloads.SWEEP_IDENTITIES) <= set(workloads.EXPECTED_COUNTS)


def test_mass_bound_bounds_the_expanded_expression():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ohno import expand_text

    for seed in range(3):
        for item in workloads.table_items(seed):
            comb = expand_text(item["text"])
            assert 0 < comb.coefficient_mass() <= item["mass_bound"]


# -- speed scaling ------------------------------------------------------------


def test_scaled_reads_wall_time_at_reference_speed():
    ref = speed.REFERENCE_S
    marks = [(0.0, 1.0, ref), (3.0, 4.0, ref)]
    # Probes are left out: [0, 5] holds 3 s outside them.
    assert speed.scaled(0.0, 5.0, marks) == pytest.approx(3.0)
    assert speed.scaled(1.5, 2.5, marks) == pytest.approx(1.0)


def test_scaled_uses_the_mean_of_neighbouring_probes_and_the_nearest_at_the_ends():
    ref = speed.REFERENCE_S
    marks = [(1.0, 1.0, ref), (3.0, 3.0, 3.0 * ref)]
    # Before the first probe at full speed; between the two at a third of it
    # (mean probe time 2 ref, so half speed); after the last at a third.
    assert speed.scaled(0.0, 1.0, marks) == pytest.approx(1.0)
    assert speed.scaled(1.0, 3.0, marks) == pytest.approx(1.0)
    assert speed.scaled(3.0, 6.0, marks) == pytest.approx(1.0)
    assert speed.unprobed(0.0, 6.0, marks) == pytest.approx(6.0)
    assert speed.unprobed(0.0, 5.0, [(0.0, 1.0, ref), (3.0, 4.0, ref)]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        speed.scaled(0.0, 1.0, [])


def test_point_latencies_leave_out_a_probe_inside_a_point():
    import run

    ref = speed.REFERENCE_S
    # Points of 100, (refused), 500 and 400 ms fill a 1 s loop ending at
    # t = 1; a 100 ms probe ran inside the 500 ms point.
    ident = {"t": [0.0, 1.0], "loop_ms": 1000.0, "point_ms": [100.0, None, 500.0, 400.0]}
    marks = [(-1.0, -1.0, ref), (0.3, 0.4, ref), (2.0, 2.0, ref)]
    assert run.point_latencies(ident, marks) == pytest.approx([100.0, 400.0, 400.0])


def test_probe_times_the_kernel_inside_its_interval():
    start, end, seconds = speed.probe()
    assert 0 < seconds <= end - start


# -- tracing changes no output ------------------------------------------------


def _worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH, "worker.py"), json.dumps(job)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _catalogue_outputs(result: dict) -> list:
    return [
        [(i["name"], i["passed"], i["evaluated"], i["refused"], i["digest"]) for i in one["identities"]]
        for one in [result["warmup"]] + result["passes"]
    ]


def test_traced_run_gives_the_untraced_outputs(tmp_path):
    plan = [
        ["hmos", {"s": [3, 2], "t": [2, 3], "m": [1, 0]}],
        ["ohno", {"k": [[2], [1, 2], [3]], "m": [1]}],
        ["add1", {"s": [2], "l": [1], "m": [1], "p": [1, 2], "q": [2, 1]}],
    ]
    catalogue = {"kind": "catalogue", "plan": plan, "shared_cache": True, "warmup": True, "min_passes": 2, "seconds": 0}
    plain = _worker(dict(catalogue, trace=False))
    traced = _worker(dict(catalogue, trace=True))
    assert _catalogue_outputs(plain) == _catalogue_outputs(traced)
    assert all(i["passed"] for i in plain["passes"][0]["identities"])
    layers = traced["passes"][0]["trace"]
    assert layers["counters"]["verify.points"] == 8 + 3 + 4
    assert layers["spans"]["zeta.eval_zeta"]["calls"] > 0

    items = workloads.table_items(3)[:4]
    outputs = []
    for trace in (False, True):
        path = tmp_path / f"cache-{trace}.tsv"
        result = _worker({"kind": "table", "items": items, "cache_path": str(path), "trace": trace})
        outputs.append([(o["rc"], o["stdout"]) for o in result["items"]])
        with open(path, encoding="ascii") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert all(rc == 0 for rc, _ in outputs[0])
