"""Contracting fixed point for the coordinate change and state reconstruction.

For each space-time point (t,x) we solve

    Xhat(p) = x + (T N0hat(Xhat(.) - v(.) t, .))(p)

by Banach iteration.  The map works row by row, so points with different
t and x are solved together in one batch, t entering each row only
through Xhat - v t; the rigorous contraction rate is the seed envelope
norm r = ||T sup_x n0||_op < 1, and the stopping rule is the a-posteriori
bound ||X_{k+1} - X_k|| * r/(1-r) <= fp_tol.  Every kernel takes this one
route: r < 1 is required of all of them, hard rods included.  The
measured per-iteration ratios are recorded for reporting only, never used
to stop.

Contact crossings are level sets of monotone columns of the solution,
found by the batched bracketed root finder ``Solver.bisect``: Illinois
false position, one solve over all open brackets per step, with a halving
safeguard that keeps every row within twice bisection's solve count.  The solved columns are exact only to
fp_tol, so near a root, where their values are fixed-point noise, the
safeguard's halving steps are what still shrinks the bracket.

From the solved Xhat the full state at (t,x) follows: occupation
n = n0(X0(Xhat - v t)), height N = N0hat(Xhat - v t), densities
rho_s = 1dr/(2 pi), rho_p = n rho_s, effective velocity v_eff = v_dr/1dr,
and the characteristic u = X0(Xhat - v t) (the initial position of the
trajectory through (t,x)).  ``states_batch`` returns a batch as one
``States`` record of arrays (fields below), every row solved cold from
Xhat = x: no point's fixed point needs a neighbour's.  It is the one state
entry point; ``sweep`` is the same call and ``state`` and ``solve`` are
one-row views, kept because the benchmark tracer (ghdbench/tracer.py)
wraps them by name.  The working set of a large batch is bounded inside
``SeedTables.invert``, which walks its cell path in blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dressing import dress_batched, sign_threshold
from .errors import AssumptionError, ConfigError, ConvergenceError
from .kernel import KernelOperator
from .seed import SeedTables

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SolverConfig:
    """Stopping policy for the fixed-point iteration."""

    fp_tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if not 0 < self.fp_tol < math.inf:
            raise ConfigError(f"fp_tol must be positive and finite, got {self.fp_tol}")


@dataclass(frozen=True)
class States:
    """Reconstructed state at a batch of space-time points, one row per point.

    Per row, (rows,) arrays: t, x, iters, residual (the a-posteriori bound
    at the stop) and ratio (the worst measured contraction ratio, 0 when
    none was measured).  Per entry, (rows, N) arrays: xhat, the height N,
    the occupation n, one_dr, v_dr and the characteristic u.  rho_s, rho_p,
    v_eff and tn (||T n||_op of each row) are computed on read.  An int
    index gives a one-row view; any other index, a sub-record.
    """

    op: KernelOperator = field(repr=False, compare=False)
    t: np.ndarray
    x: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    ratio: np.ndarray
    xhat: np.ndarray
    N: np.ndarray
    n: np.ndarray
    one_dr: np.ndarray
    v_dr: np.ndarray
    u: np.ndarray

    @property
    def rho_s(self) -> np.ndarray:
        return self.one_dr / TWO_PI

    @property
    def rho_p(self) -> np.ndarray:
        return self.n * self.rho_s

    @property
    def v_eff(self) -> np.ndarray:
        return self.v_dr / self.one_dr

    @property
    def tn(self) -> np.ndarray:
        return np.max(self.n @ self.op.abs_TW.T, axis=-1)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index) -> States:
        return States(self.op, *(getattr(self, f.name)[index] for f in fields(self)[1:]))


class Solver:
    """Fixed-point solver bound to seed tables and a stopping policy."""

    def __init__(self, tab: SeedTables, config: SolverConfig | None = None):
        self.tab = tab
        self.op = tab.op
        self.config = config or SolverConfig()
        self.rate = tab.rate
        threshold = sign_threshold(self.op.sign_class)
        if not self.rate < threshold:
            raise AssumptionError(
                f"contraction rate {self.rate:.6g} >= {threshold:g}; "
                "fixed-point iteration is not certified for this kernel")
        # a-posteriori factor: ||X_k - X*|| <= delta_k * r/(1-r)
        self._post_factor = self.rate / (1.0 - self.rate)

    # -- the map -------------------------------------------------------------

    def apply_G(self, t, x, f: np.ndarray) -> np.ndarray:
        """One application of the map; f has shape (N,) or (m, N), and t is
        a scalar or one value per row of f."""
        f = np.asarray(f, dtype=float)
        z = f - np.multiply.outer(t, self.op.v)
        _, height = self.tab.invert(z)
        gx = np.asarray(x, dtype=float)
        if f.ndim == 2:
            return gx[:, None] + height @ self.op.TW.T
        return gx + self.op.TW @ height

    # -- solving -------------------------------------------------------------

    @staticmethod
    def _rows(t, xs) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (t, x): a scalar t or x is shared by every row."""
        return np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.atleast_1d(np.asarray(xs, dtype=float)))

    def solve_batch(self, t, xs, warm: np.ndarray | None = None):
        """Solve the fixed point at the points (t_i, x_i).

        t and xs are scalars or 1-D arrays broadcast against each other.
        Returns (xhat (m,N), iters (m,), residuals (m,), ratio (m,)), ratio
        the worst measured contraction ratio of each row (0 when none was
        measured).  Converged rows are frozen so late iterations of slow
        rows do not pollute their statistics: the loop iterates on compacted
        arrays of the rows still open, in input order, and writes a row out
        when it freezes.
        """
        ts, xs = self._rows(t, xs)
        m = xs.size
        N = self.op.count
        xhat = np.broadcast_to(xs[:, None], (m, N)).copy() if warm is None \
            else np.array(np.broadcast_to(warm, (m, N)), dtype=float)
        iters = np.zeros(m, dtype=int)
        resid = np.full(m, np.inf)
        ratio = np.zeros(m)
        # the open rows: input indices, (t, x), iterate, last increment and
        # worst ratio so far
        rows, t_open, x_open, f = np.arange(m), ts, xs, xhat
        prev, worst = None, np.zeros(m)
        history = []              # (rows, increments) per iteration
        for k in range(1, self.config.max_iters + 1):
            f_new = self.apply_G(t_open, x_open, f)
            delta = np.max(np.abs(f_new - f), axis=1)
            history.append((rows, delta))
            if k > 1:
                # below ~1e-12 the increments are dominated by round-off and
                # their ratios are meaningless
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.maximum(worst, delta / prev, out=worst,
                               where=np.isfinite(prev) & (prev > 1e-12))
            bound = delta * self._post_factor
            done = bound <= self.config.fp_tol
            if done.any():
                frozen = rows[done]
                xhat[frozen] = f_new[done]
                iters[frozen] = k
                resid[frozen] = bound[done]
                ratio[frozen] = worst[done]
                left = ~done
                rows, t_open, x_open = rows[left], t_open[left], x_open[left]
                f_new, delta, worst = f_new[left], delta[left], worst[left]
            f, prev = f_new, delta
            if not rows.size:
                return xhat, iters, resid, ratio
        # the first open row; its increments over every iteration
        first = rows[0]
        d = np.array([inc[np.searchsorted(open_rows, first)]
                      for open_rows, inc in history])
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = d[1:] / d[:-1]
        last = steps[np.isfinite(d[:-1]) & (d[:-1] > 1e-12)][-8:].tolist()
        raise ConvergenceError(
            f"fixed point at (t={float(ts[first])}, x={float(xs[first])}) "
            f"missed tol {self.config.fp_tol:g} after "
            f"{self.config.max_iters} iterations; ratio history: "
            f"{[round(r, 4) for r in last]}")

    # -- state reconstruction --------------------------------------------------

    def states_batch(self, t, xs) -> States:
        """Solve and reconstruct the states at the points (t_i, x_i), broadcast
        as in ``solve_batch``; every row starts cold and dressing is batched."""
        ts, xs = self._rows(t, xs)
        xhat, iters, resid, ratio = self.solve_batch(ts, xs)
        z = xhat - np.multiply.outer(ts, self.op.v)
        u, height = self.tab.invert(z)
        n = np.asarray(self.tab.scenario.n0(u, self.op.grid.nodes[None, :]), dtype=float)
        one_dr, v_dr = dress_batched(self.op, n, np.ones(self.op.count), self.op.v)
        return States(self.op, ts.copy(), xs.copy(), iters, resid, ratio,
                      xhat, height, n, one_dr, v_dr, u)

    def state(self, t: float, x: float) -> States:
        """One-row view of ``states_batch`` at (t, x)."""
        return self.states_batch(t, np.array([x]))[0]

    def solve(self, t: float, x: float) -> States:
        """The same one-row view as ``state``, under the name the benchmark
        tracer wraps."""
        return self.states_batch(t, np.array([x]))[0]

    def sweep(self, t: float, xs: np.ndarray) -> States:
        """``states_batch`` at one t, under the name the benchmark tracer wraps."""
        return self.states_batch(t, xs)

    # -- level sets ------------------------------------------------------------

    def bisect(self, at, lo, hi, f_lo, f_hi, cols, level=0.0, *, tol,
               warm: np.ndarray | None = None) -> np.ndarray:
        """Zeros a_i, within tol_i/2, of psi_i(a) = Xhat(t, x)[cols_i] -
        v[cols_i] t - level_i, where (t, x) = at(a, rows) for the values a of
        the rows (indices into the brackets) still open.

        Brackets are oriented: psi_i < 0 at lo_i and >= 0 at hi_i (lo_i > hi_i
        is allowed).  The caller passes the end values f_lo, f_hi it already
        holds.  level and tol are scalars or one value per row, and warm is
        the first step's start.

        Each step is one solve over the open rows, warm-started from each
        row's last iterate, at the Illinois false-position point (the value
        at an end kept through two steps in a row is halved; Dowell and
        Jarratt, BIT 11, 1971).  The bracket always holds the sign change.  A
        row takes the midpoint instead when the halvings it still needs would
        otherwise not fit in 2 ceil(log2(|hi - lo| / tol)) steps, twice
        bisection's count, which no row exceeds.  The safeguard matters near
        the root: psi is computed only to the fixed point's fp_tol, so within
        about fp_tol of a root its values are noise, where false position may
        stall and halving still makes progress.
        """
        a, b, fa, fb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
        cols = np.asarray(cols, dtype=int)
        level, tol = (np.broadcast_to(np.asarray(v, dtype=float), a.shape)
                      for v in (level, tol))
        width = np.abs(b - a)
        cap = 2 * np.ceil(np.log2(np.maximum(width / tol, 1.0)))
        moved = np.zeros(a.size)   # end the last step moved: -1 lo, 1 hi
        last = None if warm is None else np.array(warm, dtype=float)
        rows = np.flatnonzero(width > tol)
        k = 0
        while rows.size:
            k += 1
            ar, br, far, fbr = a[rows], b[rows], fa[rows], fb[rows]
            c = ar + far / (far - fbr) * (br - ar)
            mid = 0.5 * (ar + br)
            needed = np.ceil(np.log2(np.maximum(width[rows] / tol[rows], 1.0)))
            # the budget, a NaN end value, or a false-position point not inside
            halve = (needed > cap[rows] - k) | ~((c - ar) * (c - br) < 0)
            c = np.where(halve, mid, c)
            ts, xs = self._rows(*at(c, rows))
            sol, _, _, _ = self.solve_batch(ts, xs, None if last is None else last[rows])
            if last is None:
                last = np.empty((a.size, sol.shape[1]))
            last[rows] = sol
            col = cols[rows]
            fc = sol[np.arange(rows.size), col] - self.op.v[col] * ts - level[rows]
            neg = fc < 0
            side = np.where(neg, -1.0, 1.0)
            kept = np.where(moved[rows] == side, 0.5, 1.0)
            a[rows], fa[rows] = np.where(neg, c, ar), np.where(neg, fc, kept * far)
            b[rows], fb[rows] = np.where(neg, br, c), np.where(neg, kept * fbr, fc)
            moved[rows] = side
            width[rows] = w = np.abs(b[rows] - a[rows])
            rows = rows[(w > tol[rows]) & (k < cap[rows])]
        return 0.5 * (a + b)
