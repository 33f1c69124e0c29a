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
trajectory through (t,x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dressing import dress_batched, sign_threshold
from .errors import AssumptionError, ConfigError, ConvergenceError
from .seed import SeedTables

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SolverConfig:
    """Stopping policy for the fixed-point iteration."""

    fp_tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if not self.fp_tol > 0:
            raise ConfigError(f"fp_tol must be positive, got {self.fp_tol}")


@dataclass(frozen=True)
class SolveResult:
    """Solved coordinate change at one (t,x) plus iteration statistics."""

    xhat: np.ndarray
    iters: int
    final_residual: float
    contraction_ratios: tuple


@dataclass(frozen=True)
class StateSlice:
    """Full reconstructed state at one space-time point."""

    t: float
    x: float
    xhat: np.ndarray
    N: np.ndarray
    n: np.ndarray
    rho_p: np.ndarray
    rho_s: np.ndarray
    one_dr: np.ndarray
    v_dr: np.ndarray
    v_eff: np.ndarray
    u: np.ndarray
    tn_norm: float
    iters: int
    final_residual: float
    contraction_ratios: tuple


def _ratios(deltas: list, iters: np.ndarray) -> list[tuple]:
    """Per-row ratios delta_k / delta_{k-1} from the per-iteration increments
    (one (m,) array per iteration), over each row's own iterations."""
    if not deltas:
        return [() for _ in iters]
    d = np.array(deltas).T                       # (m, iterations)
    prev, cur = d[:, :-1], d[:, 1:]
    # below ~1e-12 the increments are dominated by round-off and their
    # ratios are meaningless
    keep = (np.isfinite(prev) & (prev > 1e-12)
            & (np.arange(1, d.shape[1]) < iters[:, None]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = cur / prev
    return [tuple(r[k].tolist()) for r, k in zip(ratio, keep)]


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
        Returns (xhat (m,N), iters (m,), residuals (m,), ratios list of
        tuples).  Converged rows are frozen so late iterations of slow rows
        do not pollute their statistics.
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
            return out, iters, resid, [() for _ in range(m)]

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
        else:
            worst = int(np.argmax(resid))
            raise ConvergenceError(
                f"fixed point at (t={float(ts[worst])}, x={float(xs[worst])}) "
                f"missed tol {self.config.fp_tol:g} after "
                f"{self.config.max_iters} iterations; ratio history: "
                f"{[round(r, 4) for r in _ratios(deltas, iters)[worst][-8:]]}")
        return f, iters, resid, _ratios(deltas, iters)

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

    def solve(self, t: float, x: float, warm: np.ndarray | None = None) -> SolveResult:
        xh, iters, resid, ratios = self.solve_batch(
            t, np.array([x]), None if warm is None else np.asarray(warm)[None, :])
        return SolveResult(xh[0], int(iters[0]), float(resid[0]), ratios[0])

    # -- state reconstruction --------------------------------------------------

    def states_batch(self, t, xs, warm: np.ndarray | None = None) -> list[StateSlice]:
        """Solve and reconstruct full slices at the points (t_i, x_i), broadcast
        as in ``solve_batch``; dressing is batched."""
        ts, xs = self._rows(t, xs)
        xhat, iters, resid, ratios = self.solve_batch(ts, xs, warm)
        z = xhat - np.multiply.outer(ts, self.op.v)
        u, height = self.tab.invert(z)
        n = np.asarray(self.tab.scenario.n0(u, self.op.grid.nodes[None, :]), dtype=float)
        one_dr, v_dr = dress_batched(self.op, n, np.ones(self.op.count), self.op.v)
        tn = np.max(n @ self.op.abs_TW.T, axis=1)
        rho_s = one_dr / TWO_PI
        rho_p = n * rho_s
        v_eff = v_dr / one_dr
        return [
            StateSlice(t=float(ts[i]), x=float(xs[i]), xhat=xhat[i], N=height[i],
                       n=n[i], rho_p=rho_p[i], rho_s=rho_s[i], one_dr=one_dr[i],
                       v_dr=v_dr[i], v_eff=v_eff[i], u=u[i], tn_norm=float(tn[i]),
                       iters=int(iters[i]), final_residual=float(resid[i]),
                       contraction_ratios=ratios[i])
            for i in range(xs.size)
        ]

    def state(self, t: float, x: float, warm: np.ndarray | None = None) -> StateSlice:
        return self.states_batch(t, np.array([x]),
                                 None if warm is None else np.asarray(warm)[None, :])[0]

    def sweep(self, t: float, xs: np.ndarray, chunk: int = 64) -> list[StateSlice]:
        """Warm-started sweep over ordered x values at fixed t.

        Chunks are seeded from the previous chunk's solution shifted by the
        x offset, an O(dx) initial guess by the spatial Lipschitz bound;
        sweeps of at most two points are solved cold in one batch.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.size <= 2:
            return self.states_batch(t, xs)
        order = np.argsort(xs)
        slices: list[StateSlice] = [None] * xs.size
        prev_xhat = None
        prev_x = None
        for lo in range(0, xs.size, chunk):
            sel = order[lo:lo + chunk]
            xb = xs[sel]
            warm = None
            if prev_xhat is not None:
                warm = prev_xhat[None, :] + (xb - prev_x)[:, None]
            batch = self.states_batch(t, xb, warm)
            for j, idx in enumerate(sel):
                slices[idx] = batch[j]
            prev_xhat = batch[-1].xhat
            prev_x = xb[-1]
        return slices

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
