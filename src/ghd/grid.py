"""Truncated momentum grids and quadrature.

The momentum line is truncated to a window [p_min, p_max] chosen so the
neglected kernel tail is negligible (see ``diagnostics.truncation_tail``);
integrals over momentum become weighted sums over the grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# imported here, not on first use: NumPy loads numpy.polynomial lazily
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError

GAUSS_LEGENDRE = "gauss_legendre"
TRAPEZOID = "trapezoid"
MIDPOINT = "midpoint"
RULES = (GAUSS_LEGENDRE, TRAPEZOID, MIDPOINT)

WEIGHT_SUM_RTOL = 1e-12


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes and weights on [p_min, p_max].

    Invariants: nodes strictly increasing inside the window, weights
    positive and summing to the window length.
    """

    p_min: float
    p_max: float
    nodes: np.ndarray
    weights: np.ndarray
    rule: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape or nodes.size < 2:
            raise ConfigError("grid needs matching 1-d nodes/weights, length >= 2")
        if not np.all(np.diff(nodes) > 0):
            raise ConfigError("grid nodes must be strictly increasing")
        if nodes[0] < self.p_min - 1e-14 or nodes[-1] > self.p_max + 1e-14:
            raise ConfigError("grid nodes outside [p_min, p_max]")
        if not np.all(weights > 0):
            raise ConfigError("grid weights must be positive")
        span = self.p_max - self.p_min
        if abs(weights.sum() - span) > WEIGHT_SUM_RTOL * max(span, 1.0):
            raise ConfigError("grid weights do not sum to the window length")

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def span(self) -> float:
        return self.p_max - self.p_min


def build_momentum_grid(p_min: float, p_max: float, count: int,
                        rule: str = GAUSS_LEGENDRE) -> MomentumGrid:
    """Build a quadrature grid on [p_min, p_max] with the given rule."""
    if not (np.isfinite(p_min) and np.isfinite(p_max)) or p_min >= p_max:
        raise ConfigError(f"invalid momentum bounds ({p_min}, {p_max})")
    if int(count) != count or count < 2:
        raise ConfigError(f"invalid node count {count}, need integer >= 2")
    count = int(count)
    span = p_max - p_min
    if rule == GAUSS_LEGENDRE:
        ref_nodes, ref_weights = leggauss(count)
        nodes = p_min + 0.5 * span * (ref_nodes + 1.0)
        weights = 0.5 * span * ref_weights
    elif rule == TRAPEZOID:
        nodes = np.linspace(p_min, p_max, count)
        h = span / (count - 1)
        weights = np.full(count, h)
        weights[0] = weights[-1] = 0.5 * h
    elif rule == MIDPOINT:
        h = span / count
        nodes = p_min + h * (np.arange(count) + 0.5)
        weights = np.full(count, h)
    else:
        raise ConfigError(f"unknown quadrature rule {rule!r}, expected one of {RULES}")
    return MomentumGrid(p_min, p_max, nodes, weights, rule)
