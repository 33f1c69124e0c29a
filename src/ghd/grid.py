"""Truncated momentum grids and quadrature.

The momentum line is truncated to a window [p_min, p_max] chosen so the
neglected kernel tail is negligible (see ``diagnostics.truncation_tail``);
integrals over momentum become weighted sums over the grid nodes.

``gauss_legendre`` is the package's one Gauss-Legendre builder: it gives
the momentum grid's rule and, many counts in one call, the weak-form edge
rules of ``diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

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


def gauss_legendre(counts) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for every
    count in counts, built together.

    The nodes are cos(theta), theta the zeros of P_n(cos theta), found by
    Newton's method in theta (Hale and Townsend, SIAM J. Sci. Comput. 35
    (2013)) from Tricomi's asymptotic starts.  One three-term recurrence
    runs over the nonnegative half of every count at once: the entries are
    ordered by count, largest first, so degree j updates a prefix.  The
    other half is the mirror image, and an odd count's center node is 0
    exactly.  The weights are 2 / (sin(theta) P_n'(cos theta))^2 at the
    converged nodes.  Newton stops after the first step that moves no node
    by more than 1e-10, three steps in practice; the next step would move
    them by round-off only.
    """
    # deduplicated in Python: a first np.unique call adds about 1.5 MB to a
    # forked process's resident size, for code no other step touches
    counts = np.array(sorted({int(c) for c in counts}, reverse=True))
    half = (counts + 1) // 2
    n = np.repeat(counts, half).astype(float)
    k = np.arange(n.size) + 1 - np.repeat(np.cumsum(half) - half, half)
    center = 2 * k - 1 == n
    # Tricomi's cos(theta) = (1 - (n-1)/(8n^3) - (39 - 28/sin^2 phi)/(384n^4)) cos(phi),
    # taken to first order in theta - phi so that no arccos is needed
    phi = (4 * k - 1) * np.pi / (4 * n + 2)
    sin_phi = np.sin(phi)
    theta = phi + ((n - 1.0) / (8.0 * n ** 3) + (39.0 - 28.0 / sin_phi ** 2)
                   / (384.0 * n ** 4)) * np.cos(phi) / sin_phi
    theta[center] = 0.5 * np.pi                # where sin(theta) is 1.0
    active = np.searchsorted(-n, -np.arange(counts[0] + 1), side="right")  # n >= j
    step = np.inf
    for _ in range(10):
        x = np.where(center, 0.0, np.cos(theta))
        p_prev, p = np.ones_like(x), x.copy()      # P_{j-1} and P_j
        for j in range(2, counts[0] + 1):
            a = active[j]
            p_next = ((2 * j - 1) * x[:a] * p[:a] - (j - 1) * p_prev[:a]) / j
            p_prev[:a], p[:a] = p[:a], p_next
        # sin(theta) P_n'(cos theta), as (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x))
        slope = n * (p_prev - x * p) / np.sin(theta)
        if np.max(np.abs(step)) <= 1e-10:
            break
        step = p / slope
        theta += step
    else:
        raise ConvergenceError("Gauss-Legendre nodes: Newton did not settle in 10 steps")
    weights = 2.0 / slope ** 2
    rules = {}
    for count, end, h in zip(counts.tolist(), np.cumsum(half), half):
        xs, ws = x[end - h:end], weights[end - h:end]
        mirrored = h - count % 2
        rules[count] = (np.concatenate((-xs[:mirrored], xs[::-1])),
                        np.concatenate((ws[:mirrored], ws[::-1])))
    return rules


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
        ref_nodes, ref_weights = gauss_legendre([count])[count]
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
