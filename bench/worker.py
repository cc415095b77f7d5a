"""One benchmark interpreter: runs a job given as JSON and prints one JSON line.

``run.py`` starts this file in a fresh ``python3 -I`` process, so each job
pays interpreter start and ``import ohno`` as a user would.  Jobs:

``catalogue``
    Sweep a plan of ``[identity, grid]`` pairs through ``ohno.verify``.
    With ``shared_cache`` it passes one in-memory ``ZetaCache`` at tol 1e-12,
    as ``ohno verify --name all`` does; without it ``verify`` runs on its
    default config.  An optional warm-up pass runs before the timed passes.
``table``
    Run each table item as ``ohno eval --expr TEXT --tol TOL --cache PATH``
    through ``ohno.cli.main``: load the file cache, expand, evaluate, save.

Every job times the speed probe of ``speed.py`` on its own thread at
boundaries of the work it times, and every ``speed.SAMPLE_S`` seconds in
between unless it is traced, and returns the probes as ``marks``, so that
``run.py`` can turn the times it reports into reference seconds.  The worker
only runs and records; ``run.py`` checks the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402

#: Speed probes of this process, in the order they ran.
MARKS: list[tuple[float, float, float]] = []

# Leaf helpers called once or more per evaluated index from inside their own
# layer: a span each would cost more than it tells.
UNTRACED = {"as_combination", "to_word", "from_word", "reverse_swap", "repeat", "enumerate_shifts"}
LAYERS = ("indices", "zeta", "sums", "verify", "expr", "cli")


def _import_ohno():
    sys.path.insert(0, SRC)
    import ohno
    import ohno.cli

    src_pkg = os.path.join(SRC, "ohno")
    if os.path.dirname(os.path.abspath(ohno.__file__)) != src_pkg:
        raise ImportError(f"imported ohno from {ohno.__file__}, expected {src_pkg}")
    return ohno


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ------------------------------------------------------------------


def install_tracer(ohno: Any):
    """Wrap the public functions of the six modules and the cache file I/O."""
    from spans import Tracer

    from ohno import zeta

    default_bucket = zeta.EvalConfig().bucket
    tracer = Tracer()

    def obs_eval_zeta(t, args, kwargs, result, seconds):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        t.distinct["zeta.eval_zeta"].add((args[0], cfg.bucket if cfg is not None else default_bucket))

    def obs_eval_combination(t, args, kwargs, result, seconds):
        comb = args[0]
        t.counters["zeta.eval_combination.terms"] += len(comb) if isinstance(comb, ohno.IndexCombination) else 1

    def obs_sha(t, args, kwargs, result, seconds):
        t.counters["indices.sha.terms"] += len(result)

    def obs_ohno_sum_symbolic(t, args, kwargs, result, seconds):
        m = args[1] if len(args) > 1 else kwargs["m"]
        t.counters["sums.ohno_sum_symbolic.terms"] += len(result)
        comb = args[0]
        key = tuple(comb.items()) if isinstance(comb, ohno.IndexCombination) else comb
        t.distinct["sums.ohno_sum_symbolic"].add((key, m))

    def obs_verify(t, args, kwargs, result, seconds):
        t.counters["verify.points"] += len(result.evaluated)
        t.counters[f"verify.{args[0]}.s"] += seconds

    def obs_save(t, args, kwargs, result, seconds):
        cache, path = args[0], args[1]
        stats = cache.stats
        t.counters["zeta.cache.hits"] += stats.hits
        t.counters["zeta.cache.misses"] += stats.misses
        t.counters["zeta.cache.bytes"] += os.path.getsize(path)

    observers = {
        "zeta.eval_zeta": obs_eval_zeta,
        "zeta.eval_combination": obs_eval_combination,
        "indices.sha": obs_sha,
        "sums.ohno_sum_symbolic": obs_ohno_sum_symbolic,
        "verify.verify": obs_verify,
    }
    functions = []
    for layer in LAYERS:
        module = sys.modules[f"ohno.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)
                and attr not in UNTRACED
            ):
                name = f"{layer}.{attr}"
                functions.append((fn, name, observers.get(name)))
    methods = [
        (zeta.ZetaCache, "load", "zeta.cache.load", None),
        (zeta.ZetaCache, "save", "zeta.cache.save", obs_save),
    ]
    tracer.install("ohno", functions, methods)
    return tracer


# -- jobs ---------------------------------------------------------------------


def _digest(rows: Any) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _outcome(point: Any) -> Any:
    if point.refused:
        return "refused"
    if point.equal is not None:
        return point.equal
    return point.residual.hex()


def _mark() -> None:
    MARKS.append(speed.probe())


def _run_identity(ohno: Any, name: str, grid: dict, cfg: Optional[Any]) -> dict[str, Any]:
    """Verify one identity, then probe the speed."""
    start = time.monotonic()
    try:
        report = ohno.verify(name, cfg=cfg, **grid)
    except Exception:
        _mark()
        return {"name": name, "error": traceback.format_exc()}
    end = time.monotonic()
    _mark()
    rows = [[sorted(p.params.items()), _outcome(p), p.passed] for p in report.points]
    return {
        "name": name,
        "passed": report.passed,
        "evaluated": len(report.evaluated),
        "refused": len(report.refusals),
        "failing": sum(1 for p in report.evaluated if not p.passed),
        "digest": _digest([report.passed, rows]),
        "t": [start, end],
        "loop_ms": report.elapsed_ms,
        "point_ms": [None if p.refused else p.elapsed_ms for p in report.points],
    }


def _catalogue_pass(ohno: Any, plan: list, cfg: Optional[Any], tracer: Optional[Any]) -> dict[str, Any]:
    cache = cfg.cache if cfg is not None else None
    if tracer is not None:
        tracer.clear()
    before = cache.stats if cache is not None else None
    start = time.monotonic()
    identities = [_run_identity(ohno, name, grid, cfg) for name, grid in plan]
    out: dict[str, Any] = {"t": [start, time.monotonic()], "identities": identities}
    if tracer is not None:
        if cache is not None:
            tracer.counters["zeta.cache.hits"] += cache.stats.hits - before.hits
            tracer.counters["zeta.cache.misses"] += cache.stats.misses - before.misses
        out["trace"] = tracer.summary()
    return out


def _grid_values(ohno: Any, grid: dict) -> dict:
    return {axis: [ohno.Index(tuple(v)) for v in values] if axis == "k" else values for axis, values in grid.items()}


def run_catalogue(ohno: Any, job: dict) -> dict[str, Any]:
    plan = [(name, _grid_values(ohno, grid)) for name, grid in job["plan"]]
    cfg = ohno.EvalConfig(tol=1e-12, cache=ohno.ZetaCache()) if job["shared_cache"] else None
    warmup = _catalogue_pass(ohno, plan, cfg, None) if job["warmup"] else None
    tracer = install_tracer(ohno) if job["trace"] else None
    _mark()
    t_first_op = time.monotonic()
    passes = []
    while len(passes) < job["min_passes"] or time.monotonic() - t_first_op < job["seconds"]:
        passes.append(_catalogue_pass(ohno, plan, cfg, tracer))
    return {"t_first_op": t_first_op, "warmup": warmup, "passes": passes}


def run_table(ohno: Any, job: dict) -> dict[str, Any]:
    tracer = install_tracer(ohno) if job["trace"] else None
    path = job["cache_path"]
    items = []
    _mark()
    t_first_op = time.monotonic()
    for item in job["items"]:
        argv = ["eval", "--expr", item["text"], "--tol", repr(item["tol"]), "--cache", path]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ohno.cli.main(argv)
        except Exception:
            rc, err = None, io.StringIO(traceback.format_exc())
        end = time.monotonic()
        if tracer is not None:
            # Untraced workers sample the speed from the timer; a probe after
            # every item as well would add a sixth to the pass.
            _mark()
        items.append({"t": [start, end], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    result: dict[str, Any] = {"t_first_op": t_first_op, "items": items}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    if not job["trace"]:
        # Traced workers probe at boundaries only, so no probe runs inside a span.
        speed.start_sampling(MARKS)
    _mark()
    try:
        ohno = _import_ohno()
    except ImportError as exc:
        print(json.dumps({"fatal": f"cannot import ohno: {exc}"}))
        return 3
    runner = {"catalogue": run_catalogue, "table": run_table}[job["kind"]]
    result = runner(ohno, job)
    result["rss_mb"] = _rss_mb()
    _mark()
    speed.stop_sampling()
    # A tick landing between a boundary probe and its append would be out of order.
    result["marks"] = sorted(MARKS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
