"""Benchmark of the ohno workbench: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 bench/run.py --workload catalogue-cold --seed 1 --seconds 20 --trace 0

Every unit of work runs in a fresh ``python3 -I bench/worker.py`` process that
imports ``ohno`` from ``src/`` of this checkout.  The run repeats units until
``--seconds`` have passed, checks every output and prints one line per metric
followed by the result as one JSON object on the last line.  With ``--trace 0``
the JSON carries the end-to-end metrics of untraced units; with ``--trace 1``
it alternates untraced and traced units and carries the per-layer metrics of
the traced ones (the end-to-end metrics of the untraced ones are printed
above it).  A full record, with run metadata, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

Times are reported in reference seconds (``speed.py``): every stretch of
wall time is scaled by the speed the worker's probes measured next to it,
so that the host's swings in speed cancel.  The raw wall times are printed
and recorded beside them.

Exit status is 0 when a result was printed (``correct`` says whether every
output checked out) and 2 when the benchmark could not run at all, e.g. when
``src/ohno`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from speed import scaled, unprobed  # noqa: E402

#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0
#: Interpreters per ``sweep-warm`` run, so that set-up is measured more than once.
SWEEP_INTERPRETERS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SWEEP_TIMES = tuple((f"verify.{name}.s", "s") for name in workloads.SWEEP_IDENTITIES)
PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("zeta.self_s", "s"),
    ("zeta.eval_zeta.s", "s"),
    ("zeta.eval_zeta.calls", "count"),
    ("zeta.eval_zeta.distinct", "count"),
    ("zeta.eval_zeta.useful_ratio", "ratio"),
    ("zeta.eval_combination.calls", "count"),
    ("zeta.eval_combination.terms", "count"),
    ("zeta.cache.hits", "count"),
    ("zeta.cache.misses", "count"),
    ("zeta.cache.hit_ratio", "ratio"),
    ("zeta.cache.bytes", "bytes"),
    ("indices.self_s", "s"),
    ("indices.sha.s", "s"),
    ("indices.sha.calls", "count"),
    ("indices.sha.terms", "count"),
    ("indices.dual_linear.s", "s"),
    ("sums.self_s", "s"),
    ("sums.ohno_sum_symbolic.calls", "count"),
    ("sums.ohno_sum_symbolic.terms", "count"),
    ("sums.ohno_sum_symbolic.useful_ratio", "ratio"),
    ("sums.dual_gap.calls", "count"),
    ("verify.points", "count"),
    ("expr.expand_text.calls", "count"),
)
# Times of layers that some workload never calls.  They read 0.0 on every
# traced run of that workload, so the result line leaves them out; the table
# printed above it and the run record carry them.
PRINTED_ONLY = (
    ("zeta.cache.load_s", "s"),
    ("zeta.cache.save_s", "s"),
    ("indices.hast.s", "s"),
    ("verify.self_s", "s"),
    *SWEEP_TIMES,
    ("expr.self_s", "s"),
    ("expr.expand_text.s", "s"),
    ("cli.self_s", "s"),
)


class Fatal(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Unit:
    """One timed unit of work: a cold catalogue process, a warm sweep pass or
    a pass over the whole expression table.  ``wall_s`` is in reference
    seconds, ``raw_s`` in seconds of wall time; neither counts the probes."""

    wall_s: float
    raw_s: float
    ops: int
    op_ms: list[float]
    traced: bool
    trace: Optional[dict] = None


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    started: float = field(default_factory=time.monotonic)
    units: list[Unit] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict[str, Any] = field(default_factory=dict)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 50:
            self.problems.append(message)

    def same_as_reference(self, key: str, value: Any) -> bool:
        """Record the first output under ``key``; later ones must equal it."""
        return self.reference.setdefault(key, value) == value

    def spawn(self, job: dict[str, Any], traced: bool) -> tuple[dict[str, Any], float, float]:
        """Run one worker process; returns its result and the times it was
        started and had ended."""
        job = dict(job, trace=traced)
        env = {k: v for k, v in os.environ.items() if k != "OHNO_CACHE"}
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise Fatal(f"out of time after {self.elapsed():.1f} s")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Fatal(f"worker did not finish within {timeout:.0f} s") from None
        t_exit = time.monotonic()
        lines = stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        if proc.returncode != 0 or "fatal" in result or not result:
            detail = result.get("fatal") or stderr.strip()[-2000:] or "no output"
            raise Fatal(f"worker exited with status {proc.returncode}: {detail}")
        if not traced:
            self.setups.append(scaled(t_spawn, result["t_first_op"], result["marks"]))
            self.raw_setups.append(unprobed(t_spawn, result["t_first_op"], result["marks"]))
            self.probe_s.extend(mark[2] for mark in result["marks"])
            self.rss_mb.append(result["rss_mb"])
        return result, t_spawn, t_exit


# -- checks -------------------------------------------------------------------


def point_latencies(ident: dict[str, Any], marks: list) -> list[float]:
    """Latency of each evaluated point of one identity, in reference ms.

    ``verify`` times each point, but a timer probe that ran inside a point
    counts in that time.  The points run back to back in the loop that
    ``verify`` also times, which ends as the call returns; so each point's
    wall interval is rebuilt back from there, with the loop's untimed rest
    spread evenly before the points, and ``scaled`` leaves out the probes.
    """
    point_ms = ident["point_ms"]
    gap_s = max(ident["loop_ms"] - sum(ms or 0.0 for ms in point_ms), 0.0) / 1000.0 / len(point_ms)
    clock = ident["t"][1] - ident["loop_ms"] / 1000.0
    out = []
    for ms in point_ms:
        clock += gap_s
        if ms is not None:
            out.append(scaled(clock, clock + ms / 1000.0, marks) * 1000.0)
            clock += ms / 1000.0
    return out


def check_catalogue_pass(run: Run, result: dict[str, Any], marks: list, variant: int = 0) -> tuple[int, list[float]]:
    """Gate one pass over a plan; returns (evaluated points, their latencies
    in reference milliseconds)."""
    points = 0
    op_ms: list[float] = []
    for ident in result["identities"]:
        name = ident["name"]
        expected = workloads.EXPECTED_COUNTS[name]
        run.attempted += expected[0]
        if "error" in ident:
            run.fail(expected[0], f"{name}: raised\n{ident['error']}")
            continue
        counts = (ident["evaluated"], ident["refused"])
        points += ident["evaluated"]
        op_ms.extend(point_latencies(ident, marks))
        if counts != expected:
            run.fail(expected[0], f"{name}: evaluated/refused {counts}, expected {expected}")
        elif not run.same_as_reference(f"identity:{variant}:{name}", ident["digest"]):
            run.fail(expected[0], f"{name}: outputs differ from an earlier run with the same seed")
        elif not ident["passed"]:
            run.fail(max(ident["failing"], 1), f"{name}: FAIL at {ident['failing']} points")
    return points, op_ms


def error_bound(tol: float, mass_bound: int) -> float:
    """Absolute error bound of ``eval_combination`` for a combination of
    coefficient mass at most ``mass_bound``.

    Per-term tolerances are scaled so the truncation budgets sum to ``tol``,
    but never below 1e-15, so truncation is at most max(tol, mass * 1e-15).
    Each term adds two roundings of a value below 2 (the stored double and
    its product with an integer coefficient): mass * 2**-51 in all.
    """
    return max(tol, mass_bound * 1e-15) + mass_bound * 2.0**-51


def check_table_item(run: Run, variant: int, pos: int, item: dict[str, Any], out: dict[str, Any]) -> None:
    run.attempted += 1
    where = f"table item {pos} of variant {variant} ({item['text']} at tol {item['tol']})"
    if out["rc"] != 0:
        run.fail(1, f"{where}: exit status {out['rc']}: {out['stderr'].strip()[-500:]}")
        return
    try:
        value = float(out["stdout"].strip())
    except ValueError:
        run.fail(1, f"{where}: unreadable output {out['stdout']!r}")
        return
    bound = error_bound(item["tol"], item["mass_bound"])
    if not abs(value) <= bound:
        run.fail(1, f"{where}: value {value!r} exceeds the error bound {bound:.3e}")
    elif not run.same_as_reference(f"item:{variant}:{pos}", value.hex()):
        run.fail(1, f"{where}: value differs from an earlier run with the same seed")


# -- workloads ----------------------------------------------------------------


def _until(run: Run, units: int, min_units: int) -> bool:
    """Keep going while the run is short of time or of units; in a traced run
    finish on a traced unit, so there are as many of each kind."""
    if run.trace and units % 2:
        return True
    return units < min_units or run.elapsed() < run.seconds


def _variant(run: Run, traced: bool) -> int:
    """Input variant of the next unit: traced and untraced units each cycle
    through ``workloads.VARIANTS`` from the first."""
    return sum(1 for u in run.units if u.traced == traced) % workloads.VARIANTS


def run_catalogue_cold(run: Run) -> None:
    while _until(run, len(run.units), 3):
        traced = run.trace and len(run.units) % 2 == 1
        variant = _variant(run, traced)
        job = {
            "kind": "catalogue",
            "plan": workloads.catalogue_plan(run.seed, variant),
            "shared_cache": True,
            "warmup": False,
            "min_passes": 1,
            "seconds": 0,
        }
        result, t_spawn, t_exit = run.spawn(job, traced)
        marks = result["marks"]
        points, op_ms = check_catalogue_pass(run, result["passes"][0], marks, variant)
        wall = scaled(t_spawn, t_exit, marks)
        run.units.append(Unit(wall, unprobed(t_spawn, t_exit, marks), points, op_ms, traced, result["passes"][0].get("trace")))


def run_sweep_warm(run: Run) -> None:
    job = {
        "kind": "catalogue",
        "plan": workloads.sweep_plan(run.seed),
        "shared_cache": False,
        "warmup": True,
        "min_passes": 2,
        "seconds": run.seconds / SWEEP_INTERPRETERS,
    }
    for i in range(SWEEP_INTERPRETERS):
        traced = run.trace and i % 2 == 1
        result, _, _ = run.spawn(job, traced)
        marks = result["marks"]
        check_catalogue_pass(run, result["warmup"], marks)
        for one in result["passes"]:
            points, op_ms = check_catalogue_pass(run, one, marks)
            t0, t1 = one["t"]
            run.units.append(Unit(scaled(t0, t1, marks), unprobed(t0, t1, marks), points, op_ms, traced, one.get("trace")))


def run_table_persist(run: Run) -> None:
    variants = [workloads.table_batches(run.seed, variant) for variant in range(workloads.VARIANTS)]
    cache_path = os.path.join(OUT_DIR, f"table-cache-{os.getpid()}.tsv")
    try:
        while _until(run, len(run.units), 4):
            traced = run.trace and len(run.units) % 2 == 1
            variant = _variant(run, traced)
            if os.path.exists(cache_path):
                os.remove(cache_path)
            start = time.monotonic()
            op_ms: list[float] = []
            summaries = []
            marks: list = []
            pos = 0
            for batch in variants[variant]:
                job = {"kind": "table", "items": batch, "cache_path": cache_path}
                result, _, _ = run.spawn(job, traced)
                for item, out in zip(batch, result["items"]):
                    check_table_item(run, variant, pos, item, out)
                    op_ms.append(scaled(*out["t"], result["marks"]) * 1000.0)
                    pos += 1
                marks.extend(result["marks"])
                if traced:
                    summaries.append(result["trace"])
            end = time.monotonic()
            trace = spans.merge_summaries(summaries) if traced else None
            run.units.append(Unit(scaled(start, end, marks), unprobed(start, end, marks), len(op_ms), op_ms, traced, trace))
    finally:
        if os.path.exists(cache_path):
            os.remove(cache_path)


RUNNERS = {
    "catalogue-cold": run_catalogue_cold,
    "sweep-warm": run_sweep_warm,
    "table-persist": run_table_persist,
}


# -- metrics ------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, float]:
    """End-to-end metrics of the untraced units, in reference seconds."""
    units = [u for u in run.units if not u.traced]
    op_ms = [ms for u in units for ms in u.op_ms]
    deciles = statistics.quantiles(op_ms, n=10)
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "ops_per_s": statistics.median(u.ops / u.wall_s for u in units),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": deciles[8],
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(run.rss_mb),
    }


def raw_figures(run: Run) -> dict[str, float]:
    """Wall-clock figures of the untraced units, printed beside the metrics."""
    return {
        "raw.wall_s": statistics.median(u.raw_s for u in run.units if not u.traced),
        "raw.setup_s": statistics.median(run.raw_setups),
        "raw.probe_ms": statistics.median(run.probe_s) * 1000.0,
    }


RAW = (("raw.wall_s", "s"), ("raw.setup_s", "s"), ("raw.probe_ms", "ms"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: dict[str, Any], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit."""
    table, counters, distinct = summary["spans"], summary["counters"], summary["distinct"]

    def span(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def count(name: str) -> float:
        return counters.get(name, 0)

    hits, misses = count("zeta.cache.hits"), count("zeta.cache.misses")
    out = {
        "trace.wall_s": wall_s,
        "zeta.eval_zeta.s": span("zeta.eval_zeta", "incl_s"),
        "zeta.eval_zeta.calls": span("zeta.eval_zeta", "calls"),
        "zeta.eval_zeta.distinct": distinct.get("zeta.eval_zeta", 0),
        "zeta.eval_zeta.useful_ratio": _ratio(distinct.get("zeta.eval_zeta", 0), span("zeta.eval_zeta", "calls")),
        "zeta.eval_combination.calls": span("zeta.eval_combination", "calls"),
        "zeta.eval_combination.terms": count("zeta.eval_combination.terms"),
        "zeta.cache.hits": hits,
        "zeta.cache.misses": misses,
        "zeta.cache.hit_ratio": _ratio(hits, hits + misses),
        "zeta.cache.load_s": span("zeta.cache.load", "incl_s"),
        "zeta.cache.save_s": span("zeta.cache.save", "incl_s"),
        "zeta.cache.bytes": count("zeta.cache.bytes"),
        "indices.sha.s": span("indices.sha", "incl_s"),
        "indices.sha.calls": span("indices.sha", "calls"),
        "indices.sha.terms": count("indices.sha.terms"),
        "indices.dual_linear.s": span("indices.dual_linear", "incl_s"),
        "indices.hast.s": span("indices.hast", "incl_s"),
        "sums.ohno_sum_symbolic.calls": span("sums.ohno_sum_symbolic", "calls"),
        "sums.ohno_sum_symbolic.terms": count("sums.ohno_sum_symbolic.terms"),
        "sums.ohno_sum_symbolic.useful_ratio": _ratio(
            distinct.get("sums.ohno_sum_symbolic", 0), span("sums.ohno_sum_symbolic", "calls")
        ),
        "sums.dual_gap.calls": span("sums.dual_gap", "calls"),
        "verify.points": count("verify.points"),
        "expr.expand_text.calls": span("expr.expand_text", "calls"),
        "expr.expand_text.s": span("expr.expand_text", "incl_s"),
    }
    for layer in ("zeta", "indices", "sums", "verify", "expr", "cli"):
        out[f"{layer}.self_s"] = spans.layer_self(summary, layer)
    for name, _ in SWEEP_TIMES:
        out[name] = count(name)
    return out


def per_layer(run: Run) -> dict[str, float]:
    traced = [u for u in run.units if u.traced]
    rows = [layer_metrics(u.trace, u.raw_s) for u in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # Both sides in reference seconds, so a change of the machine's speed
    # between a traced and an untraced unit does not read as overhead.
    untraced_wall = statistics.median(u.wall_s for u in run.units if not u.traced)
    out["trace.overhead_s"] = statistics.median(u.wall_s for u in traced) - untraced_wall
    return out


# -- run metadata -------------------------------------------------------------


def git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_files() -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        out.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))
    return out


def program_hash() -> str:
    """Hash of the package sources and the benchmark's inputs, so stored
    outputs are only compared with runs of the same code."""
    digest = hashlib.sha256()
    for path in src_files() + [os.path.join(HERE, name) for name in ("workloads.py", "worker.py", "speed.py")]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_meta() -> dict[str, Any]:
    lines = 0
    for path in src_files():
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_lines": lines,
    }


# -- entry point --------------------------------------------------------------


def _print_metrics(title: str, values: dict[str, float], units: tuple[tuple[str, str], ...]) -> None:
    print(title)
    for name, unit in units:
        print(f"  {name:38s} {values[name]:>14.6g} {unit}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ohno", "__init__.py")):
        print(f"error: no ohno package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = run_meta()
    run = Run(args.seed, args.seconds, bool(args.trace))
    digest_path = os.path.join(OUT_DIR, "digests", f"{args.workload}-seed{args.seed}-{program_hash()}.json")
    if os.path.exists(digest_path):
        with open(digest_path, encoding="utf-8") as fh:
            run.reference.update(json.load(fh))
    try:
        RUNNERS[args.workload](run)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run.failed == 0:
        os.makedirs(os.path.dirname(digest_path), exist_ok=True)
        with open(digest_path, "w", encoding="utf-8") as fh:
            json.dump(run.reference, fh, indent=1, sort_keys=True)

    e2e = end_to_end(run)
    layers = per_layer(run) if run.trace else None
    fail_ratio = run.failed / run.attempted
    print("meta " + json.dumps(meta))
    for problem in run.problems:
        print("failure: " + problem.replace("\n", "\n  "))
    untraced = sum(1 for u in run.units if not u.traced)
    _print_metrics(
        f"end-to-end, {args.workload}, seed {args.seed}, {untraced} untraced units",
        dict(e2e, fail_ratio=fail_ratio),
        END_TO_END + (("fail_ratio", "ratio"),),
    )
    raw = raw_figures(run)
    _print_metrics(f"wall clock, reference probe {speed.REFERENCE_S * 1000:g} ms", raw, RAW)
    if layers is not None:
        _print_metrics(f"per-layer, {len(run.units) - untraced} traced units", layers, PER_LAYER + PRINTED_ONLY)
    values, spec = (layers, PER_LAYER) if layers is not None else (e2e, END_TO_END)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, meta=meta,
                  end_to_end=e2e, fail_ratio=fail_ratio, wall_clock=raw, problems=run.problems,
                  units=[{"wall_s": u.wall_s, "raw_s": u.raw_s, "ops": u.ops, "traced": u.traced}
                         for u in run.units],
                  setups=run.setups, raw_setups=run.raw_setups)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
