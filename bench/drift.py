"""Drift correction: a fixed reference kernel timed around and during each unit.

On a shared host the speed of a core switches between levels about 2x apart,
often within a second, so raw wall time of the same document can differ by a
third between runs.  Each timed unit is therefore reported as

    corrected = raw * REF_NOMINAL_S / ref_measured

where ``ref_measured`` is the median time of a fixed reference kernel run
just before the unit, just after it, and every ``_INTERVAL_S`` during it
from a SIGALRM handler.  The samples taken during the unit matter for the
64-point documents (about a second each): bracketing them only at their ends
left an interquartile spread of 9% across 20-second runs on a 2-core VM,
sampling inside them brought it to 3%.  Time spent in the handler is taken
off the program clock, so ``raw`` is the program's own time.

The kernel calls no prodgeo code.  It repeats the instruction mix of a scalar
jet product: attribute and isinstance checks in Python, a fancy-indexed
gather, a multiply and a ``bincount`` scatter over a 6-variable order-3
multiplication table (84 coefficients), plus the add that follows most
products.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One reference_kernel() call on an unloaded 2-core x86-64 VM at its faster
# speed level.  Any fixed value works; it only sets the scale of the units.
REF_NOMINAL_S = 0.0002
_REPS = 40
_EDGE_RUNS = 4  # kernel runs between two units
_INTERVAL_S = 0.01  # sampling period inside a unit


def _exponents(nvars: int, order: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(prefix + (left,))
            return
        for first in range(left, -1, -1):
            rec(prefix + (first,), left - first, slots - 1)

    for total in range(order + 1):
        rec((), total, nvars)
    return out


def _table(nvars: int, order: int):
    exps = _exponents(nvars, order)
    index = {e: i for i, e in enumerate(exps)}
    ia, ib, iout = [], [], []
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if sum(a) + sum(b) <= order:
                ia.append(i)
                ib.append(j)
                iout.append(index[tuple(x + y for x, y in zip(a, b))])
    return len(exps), np.asarray(ia), np.asarray(ib), np.asarray(iout)


class _Cell:
    __slots__ = ("table", "coeffs")

    def __init__(self, table, coeffs):
        self.table = table
        self.coeffs = coeffs


def _mul(a: _Cell, b) -> _Cell:
    if not isinstance(b, _Cell):
        return NotImplemented
    size, ia, ib, iout = a.table
    w = a.coeffs[ia] * b.coeffs[ib]
    return _Cell(a.table, np.bincount(iout, weights=w, minlength=size))


def _add(a: _Cell, b: _Cell) -> _Cell:
    return _Cell(a.table, a.coeffs + b.coeffs)


_TABLE = _table(6, 3)
_INPUTS = [
    _Cell(_TABLE, np.random.default_rng(seed).uniform(-0.5, 0.5, _TABLE[0]))
    for seed in range(4)
]


def reference_kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    inputs = _INPUTS
    t0 = time.perf_counter()
    for k in range(_REPS):
        a = inputs[k & 3]
        _add(_mul(a, inputs[(k + 1) & 3]), a)
    return time.perf_counter() - t0


class DriftClock:
    """Program clock and drift-corrected timing of units.

    ``now()`` is wall time minus the time spent in the sampling handler, so
    spans read from it exclude the sampler too.  The kernel runs after one
    unit also serve as the runs before the next.
    """

    def __init__(self):
        self.spent = 0.0
        self.refs: list[float] = []  # every kernel time, for reporting
        self._samples: list[float] = []
        self._edge: list[float] = []
        self._busy = False
        self._take_edge()

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _take_edge(self) -> None:
        self._edge = [reference_kernel() for _ in range(_EDGE_RUNS)]
        self.refs.extend(self._edge)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._samples.append(reference_kernel())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def time(self, fn):
        """Run ``fn()``; return (result, raw program seconds, correction factor)."""
        self._samples = list(self._edge)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)
        try:
            t0 = self.now()
            result = fn()
            raw = self.now() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._samples[_EDGE_RUNS:]
        self.refs.extend(inside)
        self._take_edge()
        ref = statistics.median(self._samples[:_EDGE_RUNS] + inside + self._edge)
        return result, raw, REF_NOMINAL_S / ref
