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

Contacts are the level sets Xhat(t,x,q) - v_q t = 0, rising in x, that
``Solver.bisect`` finds along lines of fixed t: Illinois false position,
one solve over all open brackets per step, with a halving safeguard that
keeps every row within twice bisection's solve count.  The columns are
exact only to fp_tol, so near a root, where their values are noise, the
safeguard's halving steps are what still shrinks the bracket.

From the solved Xhat the full state at (t,x) follows: occupation
n = n0(X0(Xhat - v t)), height N = N0hat(Xhat - v t), densities
rho_s = 1dr/(2 pi), rho_p = n rho_s, effective velocity v_eff = v_dr/1dr,
and the characteristic u = X0(Xhat - v t) (the initial position of the
trajectory through (t,x)).  ``states_batch`` returns a batch as one
``States`` record of arrays (fields below).

A row solved cold starts at the seed map Xhat = x + T B(x - v t), the
seed heights free-streamed along x - v t, one order in T closer than x
(Doyon, Spohn and Yoshimura, Nucl. Phys. B 926 (2018), give the
coordinate change).  At t = 0 it is the fixed point A(x) itself to
round-off, so a t = 0 row stops after one iteration, whose increment is
its recovery certificate.  ``states_batch`` solves the points of a batch
coarse to fine along lines of fixed t, one per time with many points: on
each line of t != 0 every STRIDE-th point is solved cold, then the others
from the cubic Hermite of Xhat and its derivative d_x Xhat = 1dr between
solved neighbours (the identity is acceptance criterion 06); every t = 0
point is solved cold.  The start only saves iterations: every row stops
on the same a-posteriori bound.  ``states_batch`` is the one state entry
point; ``sweep`` is the same call and ``state`` and ``solve`` are one-row
views, kept because the benchmark tracer (ghdbench/tracer.py) wraps them
by name.  The working set of a large batch is bounded inside
``SeedTables.invert``, which walks its cell path in blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dressing import dress_batched
from .errors import ConfigError, ConvergenceError
from .kernel import KernelOperator
from .seed import SeedTables

TWO_PI = 2.0 * np.pi

STRIDE = 8                   # every STRIDE-th point of a line is solved cold
MIN_GROUP = 2 * STRIDE + 1   # times with fewer distinct points are solved cold


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


def _levels(ts: np.ndarray, xs: np.ndarray):
    """The distinct points of a batch, the line of fixed t each lies on and
    the level it is solved at.

    Equal points (0.0 and -0.0 alike) are one.  The distinct points are
    sorted by (t, x), so each time's points form its line of fixed t.
    Returns (home, point, level, left, right) over the distinct points:
    home, the input row of each; point, the distinct point of each input
    row; level 0, 1 or 2; and for a level-1 or level-2 point the nearest
    points of lower levels on its left and right on its line.  Along a
    line, position j is level 0 when j % STRIDE == 0 or it is the last,
    level 1 when j is even and level 2 when j is odd; a time with fewer
    than MIN_GROUP distinct points, and t = 0, is all level 0.
    """
    m = xs.size
    order = np.lexsort((xs, ts))
    sorted_t, sorted_x = ts[order], xs[order]
    new_t = np.ones(m, dtype=bool)
    new_t[1:] = sorted_t[1:] != sorted_t[:-1]
    distinct = new_t.copy()
    distinct[1:] |= sorted_x[1:] != sorted_x[:-1]
    home, new_t = order[distinct], new_t[distinct]
    point = np.empty(m, dtype=int)
    point[order] = np.cumsum(distinct) - 1
    pos = np.arange(home.size)
    first = np.flatnonzero(new_t)
    line = np.cumsum(new_t) - 1
    start, end = first[line], np.r_[first[1:], home.size][line] - 1
    j = pos - start
    level = np.where(j % 2 == 0, 1, 2)
    level[(j % STRIDE == 0) | (pos == end) | (end - start + 1 < MIN_GROUP)
          | (ts[home] == 0)] = 0
    step = np.where(level == 1, STRIDE, 2)
    left = pos - j % step
    return home, point, level, left, np.minimum(left + step, end)


def _blend(terms, out=None, work=None) -> np.ndarray:
    """The sum of weight * values[rows] over the (values, rows, weight)
    terms, written to out; work holds one gathered term at a time."""
    (values, rows, weight), *rest = terms
    # mode "clip": with out=, take's default mode copies through a temporary
    out = np.take(values, rows, axis=0, out=out, mode="clip")
    out *= weight
    work = np.empty_like(out) if work is None else work
    for values, rows, weight in rest:
        np.take(values, rows, axis=0, out=work, mode="clip")
        work *= weight
        out += work
    return out


class Solver:
    """Fixed-point solver bound to seed tables and a stopping policy."""

    def __init__(self, tab: SeedTables, config: SolverConfig | None = None):
        self.tab = tab
        self.op = tab.op
        self.config = config or SolverConfig()
        self.rate = tab.rate   # build_seed admitted it: below the sign threshold
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
        Rows start at warm, (m, N) or broadcast to it, or when warm is
        None at the seed map x + T B(x - v t), which at t = 0 is the fixed
        point A(x) to round-off.
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
        if warm is None:
            # the seed map x + T B(x - v t): the seed heights free-streamed
            # to (t, x), the fixed point A(x) itself at t = 0 to round-off
            height = self.tab.height0_cols(xs[:, None] - np.multiply.outer(ts, self.op.v))
            xhat = xs[:, None] + height @ self.op.TW.T
        else:
            xhat = np.array(np.broadcast_to(warm, (m, N)), dtype=float)
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
        as in ``solve_batch``, returned in input order.

        Equal points (0.0 and -0.0 alike) are solved once.  The distinct
        points of each time lie on its line of fixed t, sorted by x
        (``_levels``), solved in three levels: level 0 is every STRIDE-th
        point and the last, and every point at t = 0; level 1 every 2nd
        point left, level 2 the rest.  A level-0 row starts cold, at the
        seed map (``solve_batch``), which a t = 0 row leaves after one
        iteration.  A row of a later level starts at the
        per-column cubic Hermite, in x, of xhat and its x-derivative one_dr
        between its nearest solved neighbours, and its dressing at their
        linear interpolant of (one_dr, v_dr), so no field is added.  A time
        with fewer than MIN_GROUP distinct points is all level 0, solved
        cold.

        Each level is one block, which keeps every block's transients
        small.  A block is one ``solve_batch`` and one invert, n0 and
        dressing pass over its rows, taken in input order and written to
        its own slice of preallocated arrays; one gather per field puts the
        rows in input order at the end.  A batch with no time of MIN_GROUP
        distinct points is one cold pass, bit for bit.
        """
        ts, xs = self._rows(t, xs)
        N = self.op.count
        home, point, level, left, right = _levels(ts, xs)
        # the rows of each level's block, each in input order, and the slot
        # of each distinct point in that order
        solve = np.lexsort((home, level))
        slot = np.empty(home.size, dtype=int)
        slot[solve] = np.arange(home.size)
        ends = np.searchsorted(level[solve], np.arange(4))

        fields = tuple(np.empty((home.size, N)) for _ in range(6))
        xhat, height, n, one_dr, v_dr, u = fields
        iters = np.zeros(home.size, dtype=int)
        resid, ratio = np.empty(home.size), np.empty(home.size)
        unit = np.ones(N)
        for b in range(3):
            block = slice(ends[b], ends[b + 1])
            sel = solve[block]
            if not sel.size:
                continue
            rows = home[sel]
            warm = buffers = None
            if b:
                a, c = slot[left[sel]], slot[right[sel]]
                xa = xs[home[left[sel]]]
                h = (xs[home[right[sel]]] - xa)[:, None]
                s = (xs[rows] - xa)[:, None] / h
                s2 = s * s
                w = s2 * (3.0 - 2.0 * s)
                # cubic Hermite of xhat and its x-derivative one_dr along the line
                warm = _blend(((xhat, a, 1.0 - w), (xhat, c, w),
                               (one_dr, a, h * (s - 2.0 * s2 + s2 * s)),
                               (one_dr, c, h * (s2 * s - s2))))
            xhat[block], iters[block], resid[block], ratio[block] = \
                self.solve_batch(ts[rows], xs[rows], warm)
            del warm
            u[block], height[block] = self.tab.invert(
                xhat[block] - np.multiply.outer(ts[rows], self.op.v))
            n[block] = self.tab.scenario.n0(u[block], self.op.grid.nodes[None, :])
            if b:
                # the dressing starts at the linear interpolant of (one_dr, v_dr)
                buffers = np.empty((3, 2, sel.size, N))
                for k, f in enumerate((one_dr, v_dr)):
                    _blend(((f, a, 1.0 - s), (f, c, s)), out=buffers[0, k], work=buffers[1, k])
            one_dr[block], v_dr[block] = dress_batched(self.op, n[block], unit, self.op.v,
                                                       buffers=buffers)
            del buffers
        del xhat, height, n, one_dr, v_dr, u
        # back to input order, one field at a time
        where = slot[point]
        if not np.array_equal(where, np.arange(where.size)):
            iters, resid, ratio = iters[where], resid[where], ratio[where]
            fields = list(fields)
            for k, values in enumerate(fields):
                fields[k] = values[where]
        return States(self.op, ts.copy(), xs.copy(), iters, resid, ratio, *fields)

    def state(self, t: float, x: float) -> States:
        """One-row view of ``states_batch`` at (t, x)."""
        return self.states_batch(t, np.array([x]))[0]

    # the same view under the name the benchmark tracer wraps for it
    solve = state

    def sweep(self, t: float, xs: np.ndarray) -> States:
        """``states_batch`` at one t, under the name the benchmark tracer wraps."""
        return self.states_batch(t, xs)

    # -- level sets ------------------------------------------------------------

    def bisect(self, t, lo, hi, f_lo, f_hi, cols, *, tol,
               warm: np.ndarray | None = None) -> np.ndarray:
        """Zeros x_i, within tol_i/2, of psi_i(x) = Xhat(t_i, x)[cols_i] -
        v[cols_i] t_i along the line of fixed t_i of each row.

        Brackets are oriented: psi_i < 0 at lo_i and >= 0 at hi_i (lo_i > hi_i
        is allowed).  The caller passes the end values f_lo, f_hi it already
        holds.  t and tol are scalars or one value per row, and warm is the
        first step's start.

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
        t, tol = (np.broadcast_to(np.asarray(v, dtype=float), a.shape) for v in (t, tol))
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
            ts = t[rows]
            sol, _, _, _ = self.solve_batch(ts, c, None if last is None else last[rows])
            if last is None:
                last = np.empty((a.size, sol.shape[1]))
            last[rows] = sol
            col = cols[rows]
            fc = sol[np.arange(rows.size), col] - self.op.v[col] * ts
            neg = fc < 0
            side = np.where(neg, -1.0, 1.0)
            kept = np.where(moved[rows] == side, 0.5, 1.0)
            a[rows], fa[rows] = np.where(neg, c, ar), np.where(neg, fc, kept * far)
            b[rows], fb[rows] = np.where(neg, br, c), np.where(neg, kept * fbr, fc)
            moved[rows] = side
            width[rows] = w = np.abs(b[rows] - a[rows])
            rows = rows[(w > tol[rows]) & (k < cap[rows])]
        return 0.5 * (a + b)
