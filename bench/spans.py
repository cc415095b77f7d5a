"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``ohno`` package from outside: each
wrapper records one span (name, parent span, start, end) per call, and an
optional observer turns the call's arguments and result into counters.  A
wrapper is installed by rebinding the function's name in every ``ohno.*``
namespace that holds it, so calls between modules (``sums`` calling
``eval_combination``, ``cli`` calling ``expand_text``) are traced too; calls
to private helpers stay inside their caller's span.

A span's self time is its duration minus the part of it that its child
spans cover.  A layer's self time is the sum of the self times of the spans
of its functions; counter bookkeeping runs in ``trace.observe`` spans of its
own, so it is not charged to any layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Optional

Observer = Callable[["Tracer", tuple, dict, Any, float], None]

OBSERVE = "trace.observe"


class Tracer:
    """Spans kept in flat arrays, plus named counters and distinct-key sets."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self._undo: list[tuple[Any, str, Any]] = []

    def clear(self) -> None:
        """Drop recorded spans and counters (installed wrappers stay)."""
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()
        self.counters.clear()
        self.distinct.clear()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(self.clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, observe: Optional[Observer] = None) -> Callable:
        nid = self._name_id(name)
        oid = self._name_id(OBSERVE)

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                osid = self._open(oid)
                try:
                    observe(self, args, kwargs, result, self.end[sid] - self.start[sid])
                finally:
                    self._close(osid)
            return result

        return traced

    def install(
        self,
        package: str,
        functions: Iterable[tuple[Callable, str, Optional[Observer]]],
        methods: Iterable[tuple[type, str, str, Optional[Observer]]] = (),
    ) -> None:
        """Wrap each function wherever a ``package.*`` module binds it, and
        each listed method on its class.  An observer gets the call's
        arguments, result and duration."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for fn, name, observe in functions:
            traced = self.wrap(fn, name, observe)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, traced)
        for cls, attr, name, observe in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, Any]:
        """Per-name calls, inclusive and self seconds, and the counters."""
        return {
            "spans": span_table(self.names, self.name_of, self.parent, self.start, self.end),
            "counters": dict(self.counters),
            "distinct": {key: len(values) for key, values in self.distinct.items()},
        }


def self_times(parent: Iterable[int], start: Iterable[float], end: Iterable[float]) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it.  Spans are listed parents first."""
    parent, start, end = list(parent), list(start), list(end)
    children: dict[int, list[int]] = defaultdict(list)
    for sid, pid in enumerate(parent):
        if pid >= 0:
            children[pid].append(sid)
    out = []
    for sid in range(len(start)):
        lo, hi = start[sid], end[sid]
        covered = 0.0
        reach = lo
        for cid in sorted(children.get(sid, ()), key=lambda c: start[c]):
            a, b = max(start[cid], reach), min(end[cid], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def span_table(
    names: list[str],
    name_of: Iterable[int],
    parent: Iterable[int],
    start: Iterable[float],
    end: Iterable[float],
) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "incl_s", "self_s"}}``.  Inclusive time counts only
    the outermost span of a name, so recursion is not counted twice."""
    name_of, parent, start, end = list(name_of), list(parent), list(start), list(end)
    selfs = self_times(parent, start, end)
    table: dict[str, dict[str, float]] = {}
    for sid, nid in enumerate(name_of):
        row = table.setdefault(names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        pid = parent[sid]
        while pid >= 0 and name_of[pid] != nid:
            pid = parent[pid]
        if pid < 0:
            row["incl_s"] += end[sid] - start[sid]
    return table


def merge_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Add up summaries of several interpreters that make one unit of work."""
    spans: dict[str, dict[str, float]] = {}
    counters: Counter = Counter()
    distinct: Counter = Counter()
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        counters.update(summary["counters"])
        distinct.update(summary["distinct"])
    return {"spans": spans, "counters": dict(counters), "distinct": dict(distinct)}


def layer_self(summary: dict[str, Any], layer: str) -> float:
    """Self seconds of every span whose name starts with ``layer.``."""
    return sum(row["self_s"] for name, row in summary["spans"].items() if name.split(".", 1)[0] == layer)
