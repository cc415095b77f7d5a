"""Speed probes, so that timings read at one fixed speed of the machine.

A small host shares its cores with other tenants, and on two vCPUs the same
pure-Python loop has been measured to swing between two speeds about 45 %
apart, in phases of a few seconds to half a minute, independently on each
vCPU, with process CPU time tracking wall time and no steal time reported.
A run of half a minute can fall wholly in one phase, so medians over a run
do not cancel the swing.

The worker therefore times a fixed stdlib-only kernel on its own thread at
boundaries of the work it times (before ``import ohno``, between
identities, at the end) and, in untraced workers, every ``SAMPLE_S``
seconds from a timer signal, since one identity can run for seconds.  ``scaled`` turns an interval of wall time into *reference
seconds*: each stretch between two probes is multiplied by ``REFERENCE_S``
over the mean of the two probe times, and the probes themselves are left
out.  A program that does more work reads more
reference seconds whatever the machine's phase; the probe never runs
``ohno`` code, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Sequence

#: Probe time that defines one reference second per second of wall time:
#: about what the probe takes on an idle core of the machine it was tuned on.
REFERENCE_S = 2.0e-3
#: Repetitions per probe; the fastest one counts, so a timer interrupt or a
#: page fault inside one repetition does not read as a slow phase.
REPEATS = 3

#: Interval of the timer that samples the speed inside long stretches of work.
SAMPLE_S = 0.25

Mark = Sequence[float]  # (start, end, probe seconds) on the monotonic clock


@dataclass(frozen=True)
class _Term:
    entries: tuple
    coefficient: int


def _kernel() -> int:
    """Tuple, small-object and dict work, like the index algebra's.

    The kernel was chosen by regressing the log time of cold catalogue
    processes and of warm sweep passes on the log probe time.  This one
    tracked the machine's speed on both (slope 0.98 and 1.04, correlation
    0.92 and 0.97) better than a Fraction-and-float kernel (1.11 and 1.10,
    0.85 and 0.94), a float series (0.89 and 1.12, 0.73 and 0.89) or
    memory-bound kernels (a pointer chase, random lookups in a large dict:
    slopes 0.15 to 0.72), alone or mixed with it.  About 2 ms on an idle
    core.
    """
    table: dict = {}
    for i in range(1, 1500):
        entries = (i % 5, i % 3 + 1, i % 7 + 2)
        term = _Term(entries + (2,), i)
        table[term] = table.get(term, 0) + 1
        sorted(entries)
    return len(table)


_busy = False


def probe() -> tuple[float, float, float]:
    """Time the kernel; returns (start, end, fastest repetition in seconds)."""
    global _busy
    _busy = True
    try:
        start = time.monotonic()
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t)
        return start, time.monotonic(), best
    finally:
        _busy = False


def start_sampling(marks: list) -> None:
    """Append a probe to ``marks`` every ``SAMPLE_S`` seconds, from a timer
    signal handled on the main thread between bytecodes.  A tick that comes
    while a probe runs is skipped, so ``marks`` stays in order."""

    def tick(signum, frame):
        if not _busy:
            marks.append(probe())

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)


def stop_sampling() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _stretches(t0: float, t1: float, marks: Sequence[Mark]):
    """(seconds, probe seconds) of each stretch of [t0, t1] outside the
    probes ``marks`` (sorted by start).

    A stretch between two probes runs at the mean of their speeds; before
    the first probe and after the last, at the speed of the nearest one.
    """
    if not marks:
        raise ValueError("no speed probes to scale by")
    edges = [(float("-inf"), marks[0][0], marks[0][2])]
    for prev, nxt in zip(marks, marks[1:]):
        edges.append((prev[1], nxt[0], (prev[2] + nxt[2]) / 2.0))
    edges.append((marks[-1][1], float("inf"), marks[-1][2]))
    for lo, hi, probe_s in edges:
        overlap = min(hi, t1) - max(lo, t0)
        if overlap > 0:
            yield overlap, probe_s


def scaled(t0: float, t1: float, marks: Sequence[Mark]) -> float:
    """Reference seconds in the wall interval [t0, t1], given the probes
    ``marks`` (sorted by start) taken around it; time inside a probe is not
    counted."""
    return sum(seconds * REFERENCE_S / probe_s for seconds, probe_s in _stretches(t0, t1, marks))


def unprobed(t0: float, t1: float, marks: Sequence[Mark]) -> float:
    """Wall seconds in [t0, t1] outside the probes ``marks``."""
    return sum(seconds for seconds, _ in _stretches(t0, t1, marks))
