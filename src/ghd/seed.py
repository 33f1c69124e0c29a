"""Seed coordinate change and seed height tables.

From the seed occupation function n0(x,p) we build, per momentum node,
cumulative tables

    A(x,p) = integral_0^x 1dr_0(y,p) dy          (the coordinate change)
    B(x,p) = integral_0^x n0(y,p) 1dr_0(y,p) dy  (the cumulative height)

anchored at the origin, A(0,p) = B(0,p) = 0.  The seed height function in
the free coordinate is then N0hat(xhat,p) = B(X0(xhat,p),p) with X0 the
inverse of A in x; because both tables live on the same x nodes, N0hat is
evaluated by inverting A within a cell and reading B at the same cell
parameter, which keeps A(x,p) = x + (T N0hat(A))(p) exact at machine
precision on the discrete grid (and with it, exact recovery of the initial
condition at t = 0).

Every cell holds one cubic y0 + c1 s + c2 s^2 + c3 s^3 in s = (x - xl)/h
on [0, 1], evaluated by Horner.  Hermite cells match the exact node slopes
dA = 1dr_0 and dB = n0*1dr_0:
c1 = h d0, c2 = 3 dy - 2 h d0 - h d1 and c3 = h d0 + h d1 - 2 dy.
The tables fall back to LINEAR chords, (c1, c2, c3) = (dy, 0, 0), when the
exact minimum cell slope (the end slopes c1 and c1 + 2 c2 + 3 c3, or the
vertex c1 - c2^2 / (3 c3) inside the cell) of A is not positive or that of
B is below round-off; this cannot happen for resolved smooth data.
Outside the table the columns are extended linearly with the boundary-node
slopes, which is exact for scenarios that are constant or decayed beyond
the window.  Partitioning scenarios bypass quadrature entirely: their
tables are exactly piecewise linear with one slope per side of the jump.

The tables live on uniform nodes x_i = dx (i - origin), origin the index
of the node x = 0, and SeedTables checks that once.  The step is read at
the origin, dx = x_nodes[origin + 1], which is exact as the nodes are
dx k (x_nodes[1] - x_nodes[0] can be off by round-off).  So a position's
cell is one floor of x / dx, and an inverse's x is ((cell - origin) + s)
dx, with no gather of x_nodes.  The forward direction evaluates A
(``xhat0_cols``) or B (``height0_cols``, the fixed point's cold start)
per column that way.

Inversion costs O(1) per query.  The bi-Lipschitz bound dA/dx >= R > 0
makes every cell of column j at least min_i (A[i+1, j] - A[i, j]) wide in
zhat, so a uniform guide table of buckets just narrower than that holds at
most one node per bucket and locates a query's cell with one gather and one
two-sided compare.  The partitioning tables, two lines through the origin,
are declared so by their builder; they skip the cell search and invert in
closed form, X0 = zhat / 1dr_side and N0hat = n_side zhat, the side being
the sign of zhat.

Within a cell the inverse starts at the inverse cubic Hermite in
u = (zhat - a0) / (a1 - a0), accurate to O(h^4) on smooth tables and s = u
on a chord, and takes one clipped Newton step.  Each in-table entry's
residual |A(x) - zhat| is then tested against a rounding floor of 16 ulps
of max(|a0|, |a1|); the entries above it (cells far from a straight line)
are finished by bisection on the certified-monotone cell, and a residual
above INV_TOL after bisection is a NumericalError.  Cell coefficients are
formed per call, never stored.  Every entry's result depends only on its
own query and cell, so a large query is inverted in blocks of whole rows
of at most _INVERT_BLOCK entries: that bounds the cell path's working set
and moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dressing import DressingBounds, dress_batched, sign_threshold
from .errors import AssumptionError, ConfigError, NumericalError
from .kernel import KernelOperator, _bilinear, _read_table_csv

HERMITE = "hermite"
LINEAR = "linear"

DEFAULT_X_RESOLUTION = 2000   # cells per support length
SUPPORT_MARGIN = 0.2          # window extension beyond the support hint
INV_TOL = 1e-10

_FLOOR_ULPS = 16              # Newton's residual test, in ulps of the cell's |A|
_BISECT_ITERS = 60            # 2^-60 is below the resolution of s in [0, 1]
_GUIDE_SHRINK = 1.0 - 2.0 ** -20   # margin over round-off in the bucket index
_GUIDE_BUCKETS_PER_NODE = 16  # caps the guide table at 16 nx N int32 entries
_INVERT_BLOCK = 1 << 14       # entries per block of invert's cell path


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True)
class Scenario:
    """Seed occupation function n0(x,p) with its declared bounds.

    ``n0`` must be vectorized over broadcastable (x, p) arrays and return
    values in [0, declared_sup_n].
    """

    n0: Callable
    declared_sup_n: float
    x_support_hint: tuple[float, float]
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.x_support_hint
        if not (self.declared_sup_n > 0) and self.kind != "zero":
            raise ConfigError("declared_sup_n must be positive")
        if not lo < hi:
            raise ConfigError("x_support_hint must be a nonempty interval")


def gaussian_bump(a: float, sigma: float, gamma: float,
                  p0: float = 0.0) -> Scenario:
    """Smooth bump n0(x,p) = a exp(-x^2/(2 sigma^2)) exp(-gamma (p-p0)^2).

    p0 shifts the momentum distribution, giving the state a net momentum.
    """
    if a <= 0 or sigma <= 0 or gamma <= 0:
        raise ConfigError("gaussian_bump requires a, sigma, gamma > 0")
    if not math.isfinite(sigma):  # the seed window is +-8 sigma
        raise ConfigError(f"gaussian_bump sigma: {sigma} is not a finite number")
    # an infinite gamma or p0 zeroes the seed, a vacuum no check would flag;
    # a NaN gamma or p0 makes the contraction rate NaN, which fails admissibility
    for name, value in (("gamma", gamma), ("p0", p0)):
        if math.isinf(value):
            raise ConfigError(f"gaussian_bump {name}: {value} is not a finite number")

    def n0(x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        return a * np.exp(-0.5 * (x / sigma) ** 2) * np.exp(-gamma * (p - p0) ** 2)

    return Scenario(n0, a, (-8.0 * sigma, 8.0 * sigma), "gaussian_bump",
                    {"a": a, "sigma": sigma, "gamma": gamma, "p0": p0})


def gaussian_profile(amplitude: float, gamma: float) -> Callable:
    if amplitude < 0 or gamma <= 0:
        raise ConfigError("gaussian profile requires amplitude >= 0, gamma > 0")
    return lambda p: amplitude * np.exp(-gamma * np.asarray(p, dtype=float) ** 2)


def constant_profile(value: float) -> Callable:
    if value < 0:
        raise ConfigError("constant profile requires value >= 0")
    return lambda p: np.full_like(np.asarray(p, dtype=float), value)


def partitioning(n_left: Callable, n_right: Callable,
                 declared_sup_n: float | None = None) -> Scenario:
    """Two-reservoir protocol: n0 = n_left(p) for x < 0, n_right(p) for x >= 0."""
    if declared_sup_n is None:
        probe = np.linspace(-64.0, 64.0, 4097)
        declared_sup_n = float(max(np.max(n_left(probe)), np.max(n_right(probe))))

    def n0(x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        left = np.asarray(n_left(p), dtype=float)
        right = np.asarray(n_right(p), dtype=float)
        return np.where(x < 0, left, right)

    return Scenario(n0, declared_sup_n, (-1.0, 1.0), "partitioning",
                    {"n_left": n_left, "n_right": n_right})


def tabulated_xy(x_rows: np.ndarray, p_cols: np.ndarray,
                 values: np.ndarray) -> Scenario:
    """Bilinear scenario from a sampled table; constant beyond the x range."""
    x_rows = np.asarray(x_rows, dtype=float)
    p_cols = np.asarray(p_cols, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x_rows.size, p_cols.size):
        raise ConfigError("tabulated scenario dimensions do not match its axes")
    if np.any(values < 0):
        raise ConfigError("tabulated scenario must be nonnegative")

    def n0(x, p):
        x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
        return _bilinear(x_rows, p_cols, values, x, p)

    return Scenario(n0, float(values.max()), (float(x_rows[0]), float(x_rows[-1])),
                    "tabulated_xy", {})


def load_tabulated_xy_csv(path) -> Scenario:
    """Scenario table from CSV: header row of p nodes, data rows (x, values...)."""
    return tabulated_xy(*_read_table_csv(path, "$.scenario.csv"))


def zero_scenario() -> Scenario:
    def n0(x, p):
        x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
        return np.zeros(x.shape)
    return Scenario(n0, 1e-300, (-1.0, 1.0), "zero", {})


# ---------------------------------------------------------------------------
# spatial grid

@dataclass(frozen=True)
class SpatialGridSpec:
    """Uniform x grid for the seed tables; the origin is always a node."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigError("spatial grid requires x_min < x_max")
        if self.count < 5:
            raise ConfigError("spatial grid requires count >= 5")


def default_spatial_spec(scenario: Scenario,
                         resolution: int = DEFAULT_X_RESOLUTION) -> SpatialGridSpec:
    lo, hi = scenario.x_support_hint
    margin = SUPPORT_MARGIN * (hi - lo)
    x_min, x_max = lo - margin, hi + margin
    dx = (hi - lo) / resolution
    return SpatialGridSpec(x_min, x_max, int(math.ceil((x_max - x_min) / dx)) + 1)


def _anchored_nodes(spec: SpatialGridSpec) -> np.ndarray:
    """Uniform nodes covering the window with 0 exactly on the grid."""
    x_min, x_max = min(spec.x_min, 0.0), max(spec.x_max, 0.0)
    dx = (spec.x_max - spec.x_min) / (spec.count - 1)
    k_neg = int(math.ceil(-x_min / dx - 1e-12))
    k_pos = int(math.ceil(x_max / dx - 1e-12))
    return dx * np.arange(-k_neg, k_pos + 1)


# ---------------------------------------------------------------------------
# the cell cubic y0 + c1 s + c2 s^2 + c3 s^3 on s in [0, 1] (vectorized)

def _cell_cubic(mode, y0, y1, d0, d1, h):
    """Coefficients (c1, c2, c3) of each cell's cubic in s = (x - xl) / h:
    the Hermite cubic with node slopes d0, d1 (per unit x) or the LINEAR
    chord (y1 - y0, 0, 0)."""
    dy = y1 - y0
    if mode == LINEAR:
        zero = np.zeros_like(dy)
        return dy, zero, zero
    c1, t1 = h * d0, h * d1
    return c1, 3.0 * dy - 2.0 * c1 - t1, c1 + t1 - 2.0 * dy


def _horner(y0, c, s):
    return y0 + s * (c[0] + s * (c[1] + s * c[2]))


def _slope(c, s):
    """d/ds of the cell cubic at s."""
    return c[0] + s * (2.0 * c[1] + 3.0 * s * c[2])


def _min_slope(mode, y, d, h):
    """Exact minimum of d/dx over the cells of table y with node slopes d:
    each cell's lower end slope, or its vertex c1 - c2^2 / (3 c3) = c1 + c2 s*
    when s* = -c2 / (3 c3) lies inside."""
    c = _cell_cubic(mode, y[:-1], y[1:], d[:-1], d[1:], h)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = -c[1] / (3.0 * c[2])     # NaN or +-inf when c3 = 0
        vertex = np.where((s_star > 0) & (s_star < 1), c[0] + c[1] * s_star, np.inf)
    return float(np.minimum(np.minimum(c[0], _slope(c, 1.0)), vertex).min() / h)


def _rounding_floor(a0, a1):
    """Residual test of the Newton inverse: _FLOOR_ULPS ulps of max(|a0|, |a1|),
    the scale of the cell's A values (written max(-a0, a1), as a0 < a1)."""
    return (_FLOOR_ULPS * np.finfo(float).eps) * np.maximum(-a0, a1)


def _bisect_cells(y0, c, target):
    """Cell parameter s with y0 + cubic c(s) = target, for cells increasing on [0, 1]."""
    lo = np.zeros_like(target)
    hi = np.ones_like(target)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        above = _horner(y0, c, mid) > target
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# O(1) inversion aids

def _guide_table(A: np.ndarray):
    """Per-column uniform buckets locating zhat among the nodes of A.

    Buckets just narrower than the column's narrowest cell hold at most one
    node each, so the node count up to a query's bucket, minus one, is its
    cell or a neighbour: one round of two-sided compares finishes the
    lookup.  The bi-Lipschitz bounds allow a ratio up to upper/R between the
    widest and the narrowest cell (1/(1 - r)^2 for a one-signed kernel); a
    column that would need more than _GUIDE_BUCKETS_PER_NODE buckets per
    node shares buckets instead and takes one round more than its fullest
    bucket holds nodes.

    Returns (A[0], widths, guide, rounds), guide being the flat (K, N) int32
    table of candidate cells clipped to [0, nx - 2].
    """
    nx, N = A.shape
    width = np.min(np.diff(A, axis=0), axis=0) * _GUIDE_SHRINK
    if not np.all(width > 0):
        raise NumericalError("seed coordinate change is not strictly increasing")
    min_width = (A[-1] - A[0]) / (_GUIDE_BUCKETS_PER_NODE * nx)
    shared = bool(np.any(min_width > width))
    width = np.maximum(width, min_width)
    bucket = np.ceil((A - A[0]) / width).astype(np.intp)  # first bucket at or past the node
    K = int(bucket[-1].max()) + 1
    counts = np.bincount((bucket * N + np.arange(N)).ravel(), minlength=K * N)
    rounds = int(counts.max()) + 1 if shared else 1
    guide = np.cumsum(counts.reshape(K, N), axis=0, dtype=np.int32) - 1
    return A[0], width, np.clip(guide, 0, nx - 2).ravel(), rounds


def _uniform_origin(x_nodes: np.ndarray) -> tuple[int, float]:
    """(origin, dx) of nodes x_i = dx (i - origin): origin the index of the
    node x = 0 and dx the node next to it, exact on such a grid.  Nodes of
    any other form are a NumericalError naming the clause they break."""
    zero = np.flatnonzero(x_nodes == 0.0)
    if zero.size != 1 or x_nodes.size < 2:
        raise NumericalError("seed grid must hold the node x = 0 exactly once "
                             "among at least two nodes")
    origin = int(zero[0])
    dx = float(x_nodes[origin + 1] if origin + 1 < x_nodes.size else -x_nodes[origin - 1])
    if not (dx > 0 and np.array_equal(x_nodes, dx * (np.arange(x_nodes.size) - origin))):
        raise NumericalError("seed grid must be uniform, x_i = dx (i - origin) "
                             "with dx > 0 and x_origin = 0")
    return origin, dx


# ---------------------------------------------------------------------------
# seed tables

@dataclass
class SeedTables:
    """Per-momentum cumulative tables realizing X0hat, X0 and N0hat."""

    scenario: Scenario
    op: KernelOperator
    x_nodes: np.ndarray          # (nx,)
    A: np.ndarray                # (nx, N) coordinate change
    dA: np.ndarray               # (nx, N) = 1dr_0 at the nodes
    B: np.ndarray                # (nx, N) cumulative height
    dB: np.ndarray               # (nx, N) = n0 * 1dr_0 at the nodes
    mode: str                    # interpolation kind actually in use
    envelope: np.ndarray         # (N,) per-p sup over sampled x of n0
    rate: float                  # ||T envelope||_op, the contraction rate
    sup_n0: float
    vn_sup: float
    bounds: DressingBounds
    min_slope_A: float
    # (1dr, n) per side, rows (x < 0, x >= 0), of tables that are two lines
    # through the origin (the partitioning tables); None otherwise
    _sides: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        # invert gathers a cell's entries from flat views (copies unless the
        # tables are in C order)
        self._flat = tuple(a.ravel() for a in (self.A, self.dA, self.B, self.dB))
        self._origin, self._dx = _uniform_origin(self.x_nodes)
        (self._guide_origin, self._guide_width, self._guide,
         self._guide_rounds) = _guide_table(self.A)

    @property
    def x_min(self) -> float:
        return float(self.x_nodes[0])

    @property
    def x_max(self) -> float:
        return float(self.x_nodes[-1])

    # -- forward direction ---------------------------------------------------

    def _forward(self, y: np.ndarray, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Table y with node slopes dy evaluated per column at per-column
        positions x (..., N): the cell cubic inside the window, the boundary
        node's linear extension outside it."""
        x = np.asarray(x, dtype=float)
        nx, N = y.shape
        u = x / self._dx
        # the cell k, counted from the origin, and s = u - k of x = (k + s) dx;
        # fmax/fmin send NaN positions to the first cell
        k = np.fmin(np.fmax(np.floor(u), -self._origin), nx - 2 - self._origin)
        at = (k.astype(np.intp) + self._origin) * N + np.arange(N)
        y, dy = y.ravel(), dy.ravel()
        y0 = y.take(at)
        c = _cell_cubic(self.mode, y0, y.take(at + N), dy.take(at), dy.take(at + N), self._dx)
        out = _horner(y0, c, u - k)
        out = np.where(x < self.x_nodes[0], y[:N] + (x - self.x_nodes[0]) * dy[:N], out)
        return np.where(x > self.x_nodes[-1], y[-N:] + (x - self.x_nodes[-1]) * dy[-N:], out)

    def xhat0_cols(self, x: np.ndarray) -> np.ndarray:
        """X0hat = A evaluated per column at per-column positions x (..., N)."""
        return self._forward(self.A, self.dA, x)

    def height0_cols(self, x: np.ndarray) -> np.ndarray:
        """The seed height B evaluated per column at per-column positions x
        (..., N)."""
        return self._forward(self.B, self.dB, x)

    # -- inverse direction ---------------------------------------------------

    def _cells(self, zhat: np.ndarray) -> np.ndarray:
        """Cell of each query, clip(searchsorted(A[:, j], zhat_j, "right") - 1,
        0, nx - 2), from its guide bucket and the two-sided compares."""
        nx, N = self.A.shape
        col = np.arange(N)
        A = self._flat[0]
        # fmax/fmin send NaN queries to bucket 0
        u = (zhat - self._guide_origin) / self._guide_width
        k = np.fmin(np.fmax(u, 0.0), self._guide.size // N - 1).astype(np.intp)
        cells = self._guide.take(k * N + col)
        for _ in range(self._guide_rounds):
            at = cells * N + col
            cells = np.clip(cells + (A.take(at + N) <= zhat) - (A.take(at) > zhat),
                            0, nx - 2)
        return cells

    def invert(self, zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve A(x, p_j) = zhat_j per column; return (x, N0hat(zhat)).

        ``zhat`` has shape (..., N); both outputs share it.  The height is
        read from B at the same cell parameter, which realizes
        N0hat = B o X0 exactly on the discrete tables.  On Hermite tables
        the cell parameter is one Newton step from the inverse-Hermite
        start; an in-table entry whose residual is then above the rounding
        floor (_rounding_floor) is bisected.  Queries outside the table
        follow the linear extensions.  The cell path runs over blocks of
        whole rows of at most _INVERT_BLOCK entries.
        """
        zhat = np.asarray(zhat, dtype=float)
        if self._sides is not None:
            left = zhat < 0
            one_dr, n = self._sides
            return (zhat / np.where(left, one_dr[0], one_dr[1]),
                    np.where(left, n[0], n[1]) * zhat)
        # the cell path holds ~20 temporaries the size of its query, so it
        # walks whole rows, at most _INVERT_BLOCK entries at a time
        N = self.A.shape[1]
        rows = zhat.reshape(-1, N)
        x, height = np.empty_like(rows), np.empty_like(rows)
        step = max(1, _INVERT_BLOCK // N)
        for lo in range(0, rows.shape[0], step):
            x[lo:lo + step], height[lo:lo + step] = self._invert_cells(rows[lo:lo + step])
        return x.reshape(zhat.shape), height.reshape(zhat.shape)

    def _invert_cells(self, zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``invert`` on the cell path for one block of rows (m, N)."""
        N = self.A.shape[1]
        A, dA, B, dB = self._flat
        h = self._dx
        cells = self._cells(zhat)
        at0 = cells * N + np.arange(N)
        at1 = at0 + N
        a0, a1 = A.take(at0), A.take(at1)
        c = _cell_cubic(self.mode, a0, a1, dA.take(at0), dA.take(at1), h)
        # the inverse-Hermite start: the Hermite cubic from (0, 0) to (1, 1)
        # in u with end slopes d0, d1, O(h^4) on smooth tables and s = u on
        # a chord; then one Newton step
        span = a1 - a0
        u = np.clip((zhat - a0) / span, 0.0, 1.0)
        d0, d1 = span / c[0], span / _slope(c, 1.0)
        s = np.clip(u * (d0 + u * ((3.0 - 2.0 * d0 - d1) + u * (d0 + d1 - 2.0))), 0.0, 1.0)
        s = np.clip(s - (_horner(a0, c, s) - zhat) / _slope(c, s), 0.0, 1.0)
        # a cell far from a straight line can miss the floor; it is certified
        # monotone, so bisection finishes those entries (out-of-range
        # entries are overwritten by the extension below)
        bad = ((np.abs(_horner(a0, c, s) - zhat) > _rounding_floor(a0, a1))
               & (zhat >= self.A[0]) & (zhat <= self.A[-1]))
        if np.any(bad):
            y0, c, z = a0[bad], tuple(k[bad] for k in c), zhat[bad]
            s[bad] = _bisect_cells(y0, c, z)
            worst = float(np.max(np.abs(_horner(y0, c, s[bad]) - z), initial=0.0))
            if worst > INV_TOL:
                raise NumericalError(
                    f"seed inversion residual {worst:.3g} exceeds {INV_TOL:g} "
                    "after bisection; the coordinate change is not monotone")
        b0 = B.take(at0)
        height = _horner(b0, _cell_cubic(self.mode, b0, B.take(at1), dB.take(at0),
                                         dB.take(at1), h), s)
        x = ((cells - self._origin) + s) * h

        below = zhat < self.A[0]
        above = zhat > self.A[-1]
        if np.any(below):
            dz = zhat - self.A[0]
            x = np.where(below, self.x_nodes[0] + dz / self.dA[0], x)
            height = np.where(below, self.B[0] + dz * (self.dB[0] / self.dA[0]), height)
        if np.any(above):
            dz = zhat - self.A[-1]
            x = np.where(above, self.x_nodes[-1] + dz / self.dA[-1], x)
            height = np.where(above, self.B[-1] + dz * (self.dB[-1] / self.dA[-1]), height)
        return x, height


def cumulative_simpson(y: np.ndarray, *, dx: float, axis: int,
                       initial: float) -> np.ndarray:
    """Cumulative Simpson integral of y along ``axis`` on nodes dx apart,
    bit for bit as SciPy's ``integrate.cumulative_simpson`` with a scalar dx.

    Each interval's integral is the Simpson rule over the quadratic through
    three neighbouring nodes: the next two (h1) for every interval but the
    last, the previous two (h2) for every odd interval and the last.  The
    running sum then starts at ``initial``, which is added to every entry
    and prepended.  y needs at least 3 nodes along ``axis``; SpatialGridSpec
    gives the seed grid at least 5.
    """
    y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    if y.shape[0] < 3:
        raise ValueError(f"cumulative Simpson needs 3 nodes, got {y.shape[0]}")
    d = np.float64(dx) / 3

    def h2(f1, f2, f3):
        return d * (5 * f3 / 4 + 2 * f2 - f1 / 4)

    # the quadratics kept start on the even nodes, and the last on node -3
    f1, f2, f3 = y[:-2:2], y[1:-1:2], y[2::2]
    sub = np.empty((y.shape[0] - 1,) + y.shape[1:])
    sub[:-1:2] = d * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    sub[1::2] = h2(f1, f2, f3)
    sub[-1] = h2(*y[-3:])
    res = np.cumsum(sub, axis=0)
    res += initial
    return np.moveaxis(np.concatenate((np.full((1,) + y.shape[1:], initial), res)), 0, axis)


def admission(samples: np.ndarray, op: KernelOperator,
              declared_sup_n: float) -> tuple:
    """Judge seed samples n0 (rows, N) by the admissibility clauses, in order:
    nonnegativity, the declared bound, finiteness of sup |v n0| and the
    operator-norm threshold (sign_threshold).  Returns (the first failed
    clause or None, envelope, rate, n0_min, vn_sup), the envelope being the
    per-p sup over the rows and the rate ||T sup_x n0||_op."""
    envelope, low = samples.max(axis=0), samples.min(axis=0)
    n0_min = float(low.min())
    vn_sup = float(np.max(np.abs(op.v) * np.maximum(np.abs(envelope), np.abs(low))))
    rate = op.operator_norm(envelope=np.maximum(envelope, 0.0))
    threshold = sign_threshold(op.sign_class)
    clause = None
    if n0_min < 0:
        clause = "nonnegativity of the seed occupation"
    elif envelope.max(initial=0.0) > declared_sup_n * (1 + 1e-12) + 1e-300:
        clause = f"declared bound n0 <= declared_sup_n = {declared_sup_n:g}"
    elif not np.isfinite(vn_sup):
        clause = "finiteness of sup |v(p) n0(x,p)|"
    elif not rate < threshold:  # a NaN rate fails too
        clause = (f"operator-norm bound ||T sup_x n0||_op < {threshold:g} "
                  f"for a {op.sign_class} kernel")
    return clause, envelope, rate, n0_min, vn_sup


def _admit(samples: np.ndarray, op: KernelOperator, declared_sup_n: float) -> tuple:
    """(envelope, rate, sup_n0, vn_sup, bounds) of admissible seed samples;
    an AssumptionError naming the first failed clause otherwise."""
    clause, envelope, rate, _, vn_sup = admission(samples, op, declared_sup_n)
    if clause is not None:
        raise AssumptionError(f"seed admissibility fails: {clause} "
                              f"(contraction rate ||T sup_x n0||_op = {rate:.6g})")
    return (envelope, rate, float(envelope.max(initial=0.0)), vn_sup,
            DressingBounds.for_norm(rate, op.sign_class))


def build_seed(scenario: Scenario, op: KernelOperator,
               x_spec: SpatialGridSpec | None = None) -> SeedTables:
    """Build the seed tables by dressing n0 at every spatial node.

    Partitioning scenarios take the exact piecewise-linear route; anything
    else is integrated by cumulative Simpson on a uniform origin-anchored
    grid, with the dressing solved in one batched pass over the nodes.
    """
    if scenario.kind == "partitioning":
        return _build_partitioning(scenario, op)

    spec = x_spec or default_spatial_spec(scenario)
    x_nodes = _anchored_nodes(spec)
    dx = x_nodes[1] - x_nodes[0]
    Ns = np.asarray(scenario.n0(x_nodes[:, None], op.grid.nodes[None, :]), dtype=float)
    admitted = _admit(Ns, op, scenario.declared_sup_n)
    one_rows, = dress_batched(op, Ns, np.ones(op.count))
    dA = one_rows
    dB = Ns * one_rows
    i0 = int(np.argmin(np.abs(x_nodes)))
    A_raw = cumulative_simpson(dA, dx=dx, axis=0, initial=0.0)
    B_raw = cumulative_simpson(dB, dx=dx, axis=0, initial=0.0)
    A = np.subtract(A_raw, A_raw[i0], order="C")   # C order: no copy in SeedTables
    B = np.subtract(B_raw, B_raw[i0], order="C")

    mode = HERMITE
    min_slope_A, min_slope_B = _min_slope(mode, A, dA, dx), _min_slope(mode, B, dB, dx)
    if min_slope_A <= 0 or min_slope_B < -1e-13 * max(dB.max(initial=0.0), 1.0):
        # Under-resolved data: the cubic is not certifiably monotone.
        mode = LINEAR
        min_slope_A = _min_slope(mode, A, dA, dx)
    if min_slope_A <= 0:
        raise NumericalError(
            "seed coordinate change is not strictly increasing; "
            "this is unreachable when the admissibility bounds hold")

    return SeedTables(scenario, op, x_nodes, A, dA, B, dB, mode, *admitted, min_slope_A)


def _build_partitioning(scenario: Scenario, op: KernelOperator) -> SeedTables:
    """Exact three-node tables: one slope per side of the jump at x = 0."""
    n_left = np.asarray(scenario.params["n_left"](op.grid.nodes), dtype=float)
    n_right = np.asarray(scenario.params["n_right"](op.grid.nodes), dtype=float)
    sides = np.vstack([n_left, n_right])
    admitted = _admit(sides, op, scenario.declared_sup_n)
    one_left, one_right = dress_batched(op, sides, np.ones(op.count))[0]

    lo, hi = scenario.x_support_hint
    margin = SUPPORT_MARGIN * (hi - lo)
    x_nodes = np.array([lo - margin, 0.0, hi + margin])
    A = np.vstack([x_nodes[0] * one_left, np.zeros(op.count), x_nodes[2] * one_right])
    dA = np.vstack([one_left, one_right, one_right])
    B = np.vstack([x_nodes[0] * n_left * one_left, np.zeros(op.count),
                   x_nodes[2] * n_right * one_right])
    dB = np.vstack([n_left * one_left, n_right * one_right, n_right * one_right])

    return SeedTables(scenario, op, x_nodes, A, dA, B, dB, LINEAR, *admitted,
                      float(np.minimum(one_left, one_right).min()),
                      (dA[:2], dB[:2] / dA[:2]))
