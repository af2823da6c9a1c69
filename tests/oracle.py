"""Finite-difference derivative oracle (imported as ``oracle``).

Deliberately independent of the jet engine: symmetric difference stencils
plus Richardson extrapolation.  The tests use it to cross-check every
directional derivative the jets produce.  Accuracy is bounded by roundoff in
the stencils, so agreement is asserted at looser tolerances than the jet
identities; disagreement beyond those tolerances indicates a jet bug, not
oracle noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["FDConfig", "fd_derivative", "fd_second", "fd_third", "fd_directional"]


@dataclass(frozen=True)
class FDConfig:
    step: float = 1e-5
    richardson_levels: int = 2

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("finite-difference step must be positive")
        if self.richardson_levels < 1:
            raise ValueError("need at least one Richardson level")


def _richardson(estimates: list) -> np.ndarray | float:
    """Extrapolate estimates with steps h, 2h, 4h, ... (even error powers)."""
    table = [np.asarray(e, dtype=float) for e in estimates]
    level = 1
    while len(table) > 1:
        factor = 4.0 ** level
        table = [
            (factor * table[i] - table[i + 1]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
        level += 1
    result = table[0]
    return float(result) if result.ndim == 0 else result


def fd_derivative(fn: Callable[[float], object], t0: float, cfg: FDConfig = FDConfig()):
    """First derivative via central differences and Richardson extrapolation."""

    def central(s: float):
        return (np.asarray(fn(t0 + s), dtype=float) - np.asarray(fn(t0 - s), dtype=float)) / (2.0 * s)

    return _richardson([central(cfg.step * 2.0 ** k) for k in range(cfg.richardson_levels)])


def fd_second(fn: Callable[[float], object], t0: float, cfg: FDConfig = FDConfig(step=1e-4)):
    """Second derivative via the symmetric 3-point stencil."""
    f0 = np.asarray(fn(t0), dtype=float)

    def stencil(s: float):
        plus = np.asarray(fn(t0 + s), dtype=float)
        minus = np.asarray(fn(t0 - s), dtype=float)
        return (plus - 2.0 * f0 + minus) / (s * s)

    return _richardson([stencil(cfg.step * 2.0 ** k) for k in range(cfg.richardson_levels)])


def fd_third(fn: Callable[[float], object], t0: float, cfg: FDConfig = FDConfig(step=1e-3)):
    """Third derivative via the symmetric 4-point stencil."""

    def stencil(s: float):
        f2p = np.asarray(fn(t0 + 2.0 * s), dtype=float)
        f1p = np.asarray(fn(t0 + s), dtype=float)
        f1m = np.asarray(fn(t0 - s), dtype=float)
        f2m = np.asarray(fn(t0 - 2.0 * s), dtype=float)
        return (f2p - 2.0 * f1p + 2.0 * f1m - f2m) / (2.0 * s ** 3)

    return _richardson([stencil(cfg.step * 2.0 ** k) for k in range(cfg.richardson_levels)])


def fd_directional(
    fn: Callable[[Sequence[float]], object],
    base: Sequence[float],
    direction: Sequence[float],
    order: int = 1,
    cfg: FDConfig | None = None,
):
    """Directional derivative of a multivariate function along a straight line."""
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def restricted(t: float):
        return fn(base + t * direction)

    if order == 1:
        return fd_derivative(restricted, 0.0, cfg or FDConfig())
    if order == 2:
        return fd_second(restricted, 0.0, cfg or FDConfig(step=1e-4))
    if order == 3:
        return fd_third(restricted, 0.0, cfg or FDConfig(step=1e-3))
    raise ValueError("orders 1..3 are supported")
