"""Contracting fixed point for the coordinate change and state reconstruction.

For each space-time point (t,x) we solve

    Xhat(p) = x + (T N0hat(Xhat(.) - v(.) t, .))(p)

by Banach iteration.  The map works row by row, so points with different
t and x are solved together in one batch, t entering each row only
through Xhat - v t; the rigorous contraction rate is the seed envelope
norm r = ||T sup_x n0||_op < 1, and the stopping rule is the a-posteriori
bound ||X_{k+1} - X_k|| * r/(1-r) <= fp_tol.  The measured per-iteration
ratios are recorded for reporting only, never used to stop.

Contact crossings and the inverse of x -> Xhat(t, x, p) are level sets of
monotone columns of the solution, all found by the batched bracketed root
finder ``Solver.bisect``: Illinois false position, one solve over all open
brackets per step, with a halving safeguard that keeps every row within
twice bisection's solve count.  The solved columns are exact only to
fp_tol, so near a root, where their values are fixed-point noise, the
safeguard's halving steps are what still shrinks the bracket.

Constant kernels (hard rods) collapse the map to one scalar equation that
is strictly monotone in the unknown, solved by bracketed root finding; the
scalar solve needs no contraction, but the seed tables it reads are dressed
under r < 1 all the same.

From the solved Xhat the full state at (t,x) follows: occupation
n = n0(X0(Xhat - v t)), height N = N0hat(Xhat - v t), densities
rho_s = 1dr/(2 pi), rho_p = n rho_s, effective velocity v_eff = v_dr/1dr,
and the characteristic u = X0(Xhat - v t) (the initial position of the
trajectory through (t,x)).  ``states_batch`` returns a batch as one
``States`` record of arrays (fields below), ``sweep`` one record in input
order; ``state`` and ``solve`` are one-row views.  The three keep their
names because the benchmark tracer (ghdbench/tracer.py) wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import brentq

from .dressing import dress_batched, sign_threshold
from .errors import AssumptionError, ConfigError, ConvergenceError
from .kernel import KernelOperator
from .seed import SeedTables

TWO_PI = 2.0 * np.pi

# rows per batch of a sweep: the chunks are cache blocks, not an option
SWEEP_CHUNK = 64


@dataclass(frozen=True)
class SolverConfig:
    """Stopping policy for the fixed-point iteration."""

    fp_tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if not self.fp_tol > 0:
            raise ConfigError(f"fp_tol must be positive, got {self.fp_tol}")


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
        # zero kernels contract trivially; a genuine constant kernel takes
        # the scalar route
        self.constant_kernel = (self.op.kernel.constant_in_pq
                                and self.op.kernel.constant_value != 0.0)
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
        rows do not pollute their statistics.
        """
        ts, xs = self._rows(t, xs)
        m = xs.size
        N = self.op.count
        if self.constant_kernel:
            out = np.empty((m, N))
            iters = np.empty(m, dtype=int)
            resid = np.empty(m)
            for i in range(m):
                out[i], iters[i], resid[i] = self._solve_constant_kernel(
                    float(ts[i]), float(xs[i]))
            return out, iters, resid, np.zeros(m)

        f = np.broadcast_to(xs[:, None], (m, N)).copy() if warm is None \
            else np.array(np.broadcast_to(warm, (m, N)), dtype=float)
        active = np.ones(m, dtype=bool)
        iters = np.zeros(m, dtype=int)
        resid = np.full(m, np.inf)
        deltas = []               # per iteration, NaN for frozen rows
        for k in range(1, self.config.max_iters + 1):
            f_new = self.apply_G(ts[active], xs[active], f[active])
            delta = np.max(np.abs(f_new - f[active]), axis=1)
            f[active] = f_new
            idx = np.flatnonzero(active)
            iters[idx] = k
            deltas.append(np.full(m, np.nan))
            deltas[-1][idx] = delta
            bound = delta * self._post_factor
            done = bound <= self.config.fp_tol
            resid[idx[done]] = bound[done]
            active[idx[done]] = False
            if not active.any():
                break
        d = np.array(deltas)
        # ratios delta_k / delta_{k-1} within each row's own iterations; below
        # ~1e-12 the increments are dominated by round-off and their ratios
        # are meaningless
        keep = (np.isfinite(d[:-1]) & (d[:-1] > 1e-12)
                & (np.arange(1, d.shape[0])[:, None] < iters))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = d[1:] / d[:-1]
        if active.any():
            worst = int(np.argmax(resid))
            history = ratio[keep[:, worst], worst][-8:].tolist()
            raise ConvergenceError(
                f"fixed point at (t={float(ts[worst])}, x={float(xs[worst])}) "
                f"missed tol {self.config.fp_tol:g} after "
                f"{self.config.max_iters} iterations; ratio history: "
                f"{[round(r, 4) for r in history]}")
        return f, iters, resid, np.max(ratio, axis=0, where=keep, initial=0.0)

    def _solve_constant_kernel(self, t: float, x: float):
        """Scalar route for kernels constant in (p,q): monotone bracketing.

        The map value is p-independent, so the fixed point is the root of
        phi(xi) = xi - x - tau * sum_q w_q N0hat(xi - v_q t, q), with
        phi' >= 1; no contraction hypothesis is needed.
        """
        tau = self.op.kernel.constant_value
        w = self.op.grid.weights
        vt = self.op.v * t
        evals = [0]

        def phi(xi):
            evals[0] += 1
            _, height = self.tab.invert(xi - vt)
            return xi - x - tau * float(w @ height)

        phi0 = phi(x)
        if phi0 == 0.0:
            root = x
        else:
            a, b = (x - phi0, x) if phi0 > 0 else (x, x - phi0)
            root = brentq(phi, a, b, xtol=1e-14, rtol=8.9e-16)
        residual = abs(phi(root))
        if residual > self.config.fp_tol:
            raise ConvergenceError(
                f"constant-kernel root at (t={t}, x={x}) has defect {residual:g}")
        return np.full(self.op.count, root), evals[0], residual

    # -- state reconstruction --------------------------------------------------

    def states_batch(self, t, xs, warm: np.ndarray | None = None) -> States:
        """Solve and reconstruct the states at the points (t_i, x_i), broadcast
        as in ``solve_batch``; dressing is batched."""
        ts, xs = self._rows(t, xs)
        xhat, iters, resid, ratio = self.solve_batch(ts, xs, warm)
        z = xhat - np.multiply.outer(ts, self.op.v)
        u, height = self.tab.invert(z)
        n = np.asarray(self.tab.scenario.n0(u, self.op.grid.nodes[None, :]), dtype=float)
        one_dr, v_dr = dress_batched(self.op, n, np.ones(self.op.count), self.op.v)
        return States(self.op, ts.copy(), xs.copy(), iters, resid, ratio,
                      xhat, height, n, one_dr, v_dr, u)

    def state(self, t: float, x: float, warm: np.ndarray | None = None) -> States:
        """One-row view of ``states_batch`` at (t, x)."""
        return self.states_batch(t, np.array([x]),
                                 None if warm is None else np.asarray(warm)[None, :])[0]

    def solve(self, t: float, x: float, warm: np.ndarray | None = None) -> States:
        """The same one-row view as ``state``, under the name the benchmark
        tracer wraps."""
        return self.state(t, x, warm)

    def sweep(self, t: float, xs: np.ndarray) -> States:
        """Warm-started sweep over x values at fixed t, rows in input order.

        The sorted values are solved in chunks of SWEEP_CHUNK rows, each
        seeded from the previous chunk's last solution shifted by the x
        offset, an O(dx) initial guess by the spatial Lipschitz bound;
        sweeps of at most two points are solved cold in one batch.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.size <= 2:
            return self.states_batch(t, xs)
        order = np.argsort(xs)
        chunks: list[States] = []
        for lo in range(0, xs.size, SWEEP_CHUNK):
            xb = xs[order[lo:lo + SWEEP_CHUNK]]
            warm = (chunks[-1].xhat[-1][None, :] + (xb - chunks[-1].x[-1])[:, None]
                    if chunks else None)
            chunks.append(self.states_batch(t, xb, warm))
        return States(self.op, *(np.concatenate([getattr(c, f.name) for c in chunks])
                                 for f in fields(States)[1:]))[np.argsort(order)]

    # -- level sets ------------------------------------------------------------

    def bisect(self, at, lo, hi, f_lo, f_hi, cols, level=0.0, *, tol,
               warm: np.ndarray | None = None) -> np.ndarray:
        """Zeros a_i, within tol_i/2, of psi_i(a) = Xhat(t, x)[cols_i] -
        v[cols_i] t - level_i, where (t, x) = at(a, rows) for the values a of
        the rows (indices into the brackets) still open.

        Brackets are oriented: psi_i < 0 at lo_i and >= 0 at hi_i (lo_i > hi_i
        is allowed).  The caller passes the end values f_lo, f_hi it already
        holds; NaN marks an end whose sign alone is known.  level and tol are
        scalars or one value per row, and warm is the first step's start.

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

    def invert_xhat(self, t: float, xhat_target: float, p_index: int) -> float:
        """Real position x with Xhat(t, x, p) = xhat_target, to within fp_tol / R.

        x -> Xhat(t, x, p) increases with slope at least R (the lower 1dr
        bound), so one solve at x = xhat_target brackets the root, and the
        bracket is refined to the accuracy the fixed point certifies.
        """
        slope_lo = self.tab.bounds.r_value
        x0 = float(xhat_target)
        xhat = self.solve_batch(t, x0)[0]
        g0 = float(xhat[0, p_index]) - x0     # Xhat - target < 0 below the root
        x1 = x0 - g0 / slope_lo               # only the sign of its value is known
        lo, hi, f_lo, f_hi = (x1, x0, np.nan, g0) if g0 > 0 else (x0, x1, g0, np.nan)
        level = x0 - float(self.op.v[p_index]) * t
        return float(self.bisect(lambda a, rows: (t, a), [lo], [hi], [f_lo], [f_hi],
                                 [p_index], level, tol=self.config.fp_tol / slope_lo,
                                 warm=xhat)[0])
