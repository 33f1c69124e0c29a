"""Scattering kernels T(p,q), bare velocities v(p), and their discretization.

Built-in models:
  lieb_liniger   T(p,q) = (1/2pi) * 2c / (c^2 + (p-q)^2),  c > 0
  sinh_gordon    T(p,q) = (1/2pi) * 2 / cosh(p-q)
  hard_rods      T(p,q) = -d,  d > 0
  zero           T = 0 (free gas)
  tabulated      bilinear interpolation of a sampled kernel

``KernelOperator`` binds a kernel and velocity to a momentum grid and
precomputes the dense weighted matrix TW[i,j] = w_j * T(p_i, p_j); every
dressing solve and fixed-point iteration reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import MomentumGrid

SIGN_NON_NEGATIVE = "nonnegative"
SIGN_NON_POSITIVE = "nonpositive"
SIGN_MIXED = "mixed"

# |T| below this is treated as zero when classifying the sign.
SIGN_ZERO_TOL = 1e-14

KERNEL_MODELS = ("lieb_liniger", "sinh_gordon", "hard_rods", "tabulated", "zero")


@dataclass(frozen=True)
class Velocity:
    """Bare velocity v(p): identity or relativistic with mass m."""

    kind: str = "identity"
    m: float = 1.0

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if self.kind == "identity":
            return p.copy()
        if self.kind == "relativistic":
            return p / np.sqrt(p * p + self.m * self.m)
        raise ConfigError(f"unknown velocity kind {self.kind!r}")

    def energy(self, p):
        """Antiderivative of v with E(0) = 0, used by the energy weight."""
        p = np.asarray(p, dtype=float)
        if self.kind == "identity":
            return 0.5 * p * p
        if self.kind == "relativistic":
            return np.sqrt(p * p + self.m * self.m) - self.m
        raise ConfigError(f"unknown velocity kind {self.kind!r}")


def identity_velocity() -> Velocity:
    return Velocity(kind="identity")


def relativistic_velocity(m: float) -> Velocity:
    if m <= 0:
        raise ConfigError("relativistic velocity needs m > 0")
    return Velocity(kind="relativistic", m=float(m))


@dataclass(frozen=True)
class ScatteringKernel:
    """Model pair (T(p,q), v(p)) defining the interaction."""

    model: str
    velocity: Velocity = field(default_factory=identity_velocity)
    c: float | None = None
    d: float | None = None
    table: np.ndarray | None = None
    table_p: np.ndarray | None = None
    table_q: np.ndarray | None = None

    def __post_init__(self):
        if self.model not in KERNEL_MODELS:
            raise ConfigError(f"unknown kernel model {self.model!r}")
        if self.model == "lieb_liniger" and not (self.c and self.c > 0):
            raise ConfigError("lieb_liniger requires coupling c > 0")
        if self.model == "hard_rods" and not (self.d and self.d > 0):
            raise ConfigError("hard_rods requires rod length d > 0")
        if self.model == "tabulated":
            if self.table is None or self.table_p is None or self.table_q is None:
                raise ConfigError("tabulated kernel requires table, table_p, table_q")
            table = np.asarray(self.table, dtype=float)
            if table.shape != (len(self.table_p), len(self.table_q)):
                raise ConfigError("tabulated kernel dimensions do not match its axes")


def lieb_liniger(c: float, velocity: Velocity | None = None) -> ScatteringKernel:
    return ScatteringKernel("lieb_liniger", velocity or identity_velocity(), c=float(c))


def sinh_gordon(velocity: Velocity | None = None) -> ScatteringKernel:
    return ScatteringKernel("sinh_gordon", velocity or identity_velocity())


def hard_rods(d: float, velocity: Velocity | None = None) -> ScatteringKernel:
    return ScatteringKernel("hard_rods", velocity or identity_velocity(), d=float(d))


def zero_kernel(velocity: Velocity | None = None) -> ScatteringKernel:
    return ScatteringKernel("zero", velocity or identity_velocity())


def tabulated_kernel(p_nodes, q_nodes, values,
                     velocity: Velocity | None = None) -> ScatteringKernel:
    return ScatteringKernel(
        "tabulated", velocity or identity_velocity(),
        table=np.asarray(values, dtype=float),
        table_p=np.asarray(p_nodes, dtype=float),
        table_q=np.asarray(q_nodes, dtype=float))


def _bilinear(xs, ys, table, x, y):
    """Bilinear interpolation with clamping outside the sampled rectangle."""
    x = np.clip(x, xs[0], xs[-1])
    y = np.clip(y, ys[0], ys[-1])
    i = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    return ((1 - tx) * (1 - ty) * table[i, j] + tx * (1 - ty) * table[i + 1, j]
            + (1 - tx) * ty * table[i, j + 1] + tx * ty * table[i + 1, j + 1])


def eval_kernel(kernel: ScatteringKernel, p, q):
    """Pointwise kernel value T(p,q); symmetric in (p,q) for built-ins."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if kernel.model == "lieb_liniger":
        c = kernel.c
        return (c / np.pi) / (c * c + (p - q) ** 2)
    if kernel.model == "sinh_gordon":
        return (1.0 / np.pi) / np.cosh(p - q)
    if kernel.model == "hard_rods":
        return np.broadcast_to(np.asarray(-kernel.d), np.broadcast_shapes(p.shape, q.shape)).copy()
    if kernel.model == "zero":
        return np.zeros(np.broadcast_shapes(p.shape, q.shape))
    return _bilinear(kernel.table_p, kernel.table_q, kernel.table, p, q)


def _classify(values: np.ndarray) -> str:
    significant = values[np.abs(values) >= SIGN_ZERO_TOL]
    if significant.size == 0:
        return SIGN_NON_NEGATIVE
    if np.all(significant > 0):
        return SIGN_NON_NEGATIVE
    if np.all(significant < 0):
        return SIGN_NON_POSITIVE
    return SIGN_MIXED


class KernelOperator:
    """Dense discretization of the integral operator T on a momentum grid.

    Immutable after construction; holds T[i,j] = T(p_i, p_j), the weighted
    matrix TW = T * w, the bare velocity sampled at the nodes, the unit
    operator norm and the sign class.
    """

    def __init__(self, kernel: ScatteringKernel, grid: MomentumGrid):
        self.kernel = kernel
        self.grid = grid
        P, Q = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        self.T = np.asarray(eval_kernel(kernel, P, Q), dtype=float)
        self.TW = self.T * grid.weights[None, :]
        self.abs_TW = np.abs(self.TW)
        self.v = kernel.velocity(grid.nodes)
        self.sign_class = _classify(self.T)
        self.unit_norm = float(np.max(self.abs_TW.sum(axis=1)))

    @property
    def count(self) -> int:
        return self.grid.count

    def operator_norm(self, envelope: np.ndarray | None = None) -> float:
        """Discrete sup_p of sum_q w_q |T(p,q)| envelope(q); envelope defaults to 1."""
        if envelope is None:
            return self.unit_norm
        envelope = np.asarray(envelope, dtype=float)
        if np.any(envelope < 0):
            raise ConfigError("operator-norm envelope must be nonnegative")
        return float(np.max(self.abs_TW @ envelope))

    def energy_weights(self) -> np.ndarray:
        return self.kernel.velocity.energy(self.grid.nodes)


def load_tabulated_kernel_csv(path, velocity: Velocity | None = None) -> ScatteringKernel:
    """Kernel table from CSV: header row of q nodes, data rows (p, values...)."""
    raw = np.genfromtxt(path, delimiter=",", dtype=float)
    if raw.ndim != 2 or raw.shape[0] < 3 or raw.shape[1] < 3:
        raise ConfigError(f"tabulated kernel CSV {path} must be at least 2x2 plus axes")
    q_nodes = raw[0, 1:]
    p_nodes = raw[1:, 0]
    values = raw[1:, 1:]
    if np.any(np.isnan(q_nodes)) or np.any(np.isnan(p_nodes)) or np.any(np.isnan(values)):
        raise ConfigError(f"tabulated kernel CSV {path} contains non-numeric cells")
    return tabulated_kernel(p_nodes, q_nodes, values, velocity)
