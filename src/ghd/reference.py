"""First-order upwind finite-volume integrator of the conservation form.

This is the brute-force oracle for the fixed-point solver on smooth data:
it advances the particle density rho_p directly via

    d_t rho_p + d_x (v_eff rho_p) = 0

with the effective velocity recomputed each step from the current field
(rho_s is linear in rho_p; only the velocity dressing needs a solve, done
by the certified Picard dresser of ``ghd.dressing`` over all cells at
once).  Each step's dressing starts from the quadratic extrapolation
3 (v_dr^k - v_dr^(k-1)) + v_dr^(k-2) of the last three steps' solutions
(linear, 2 v_dr^k - v_dr^(k-1), on the second step); the dresser's
certificate does not depend on its starting guess.

The boundaries are outflow: each step copies the edge cells into the
ghost cells beyond them, so mass leaves the window and none comes in.

A step allocates no field-sized arrays: ``integrate_upwind`` owns every
(cells, N) buffer for the whole run.  ``_upwind_step`` works in place on
ghost-padded rho and velocity buffers, ``effective_velocity`` writes
rho_s, n and v_eff into caller buffers (v_eff straight into the velocity
buffer's interior), and the dresser iterates inside a pool of four
buffers (the iterate, the spare, v_dr^(k-1) and v_dr^(k-2)) that the loop
rotates by reference.  The dressed v_dr is a view into the pool, so it
stays valid only until its buffer comes round again as the spare.

First order is deliberate: the simplest scheme with a known convergence
story, sharing only the kernel and dressing modules with the fixed-point
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# kept under its old name: ghdbench's tracer attributes oracle dressing time to it
from .dressing import dress_batched as dress_batched_iterative
from .errors import AssumptionError, ConvergenceError
from .kernel import KernelOperator
from .seed import Scenario

TWO_PI = 2.0 * np.pi

DRESSING_TOL = 1e-9       # far below the O(dx) scheme error
MAX_STEPS = 2_000_000


@dataclass
class FieldState:
    """Cell-averaged particle density on a uniform spatial grid."""

    x_cells: np.ndarray       # (m,) cell centers
    rho_p: np.ndarray         # (m, N)
    t: float

    @property
    def dx(self) -> float:
        return float(self.x_cells[1] - self.x_cells[0])


def default_window(scenario: Scenario, op: KernelOperator,
                   t_end: float) -> tuple[float, float]:
    """The support hint widened by the free transport distance."""
    lo, hi = scenario.x_support_hint
    vmax = float(np.max(np.abs(op.v)))
    pad = vmax * t_end + 0.1 * (hi - lo)
    return (lo - pad, hi + pad)


def cell_count(x_min: float, x_max: float, dx: float) -> int:
    """Number of cells of width about dx that ``initial_field`` lays out."""
    return int(round((x_max - x_min) / dx))


def initial_field(scenario: Scenario, op: KernelOperator, x_min: float,
                  x_max: float, dx: float) -> FieldState:
    """Sample rho_p(0,x,p) = n0 * 1dr_0 / (2 pi) at the cell centers."""
    m = cell_count(x_min, x_max, dx)
    centers = x_min + dx * (np.arange(m) + 0.5)
    n = np.asarray(scenario.n0(centers[:, None], op.grid.nodes[None, :]), dtype=float)
    one_dr, = dress_batched_iterative(op, n, np.ones(op.count))
    return FieldState(centers, n * one_dr / TWO_PI, 0.0)


def effective_velocity(op: KernelOperator, rho_p: np.ndarray,
                       tol: float = 1e-10, out=None,
                       dressing=None) -> tuple[np.ndarray, np.ndarray]:
    """(v_eff, v_dr) per cell; validates positivity of rho_s, and the
    dresser certifies ||Tn|| < 1.

    ``out = (rho_s, n, v_eff)`` are optional caller-owned (cells, N)
    arrays that this fills instead of fresh ones; rho_s is scratch and
    ends up holding 2 pi rho_s.  ``dressing = (x, x_new, work)`` is handed
    to the dresser as its buffer stack: x holds the starting guess, and
    the returned v_dr is a view into x or x_new.  Without it the dressing
    starts cold, from v.
    """
    if out is None:
        out = tuple(np.empty(rho_p.shape) for _ in range(3))
    rho_s, n, v_eff = out
    np.matmul(rho_p, op.TW.T, out=rho_s)
    rho_s += 1.0 / TWO_PI
    if not rho_s.min() > 0:
        raise AssumptionError("state density lost positivity in the upwind field")
    np.divide(rho_p, rho_s, out=n)
    v_dr, = dress_batched_iterative(op, n, op.v, tol=tol, buffers=dressing)
    rho_s *= TWO_PI
    return np.divide(v_dr, rho_s, out=v_eff), v_dr


def _padded(values: np.ndarray) -> np.ndarray:
    """(m+2, N) buffer with ``values`` in rows 1..m; ghost rows unset."""
    buf = np.empty((values.shape[0] + 2, values.shape[1]))
    buf[1:-1] = values
    return buf


def _upwind_step(rho: np.ndarray, vel: np.ndarray, flux: np.ndarray,
                 dt_dx: float) -> None:
    """Advance the interior rows of ``rho`` by one upwind step, in place.

    rho and vel are (m+2, N) with the cell values in rows 1..m; this fills
    their ghost rows with copies of the edge cells (outflow) and overwrites
    vel as scratch.  flux is (m+1, N); flux[i] is the flux through the left
    face of cell i, upwinded per cell by the sign of v_eff.  The arithmetic is that of
    rho - dt/dx (F[1:] - F[:-1]) with F = max(v,0) rho + min(v,0) rho taken
    from the left and right cell, in the same order.
    """
    for buf in (rho, vel):
        buf[0] = buf[1]
        buf[-1] = buf[-2]
    np.maximum(vel[:-1], 0.0, out=flux)
    flux *= rho[:-1]
    right = vel[1:]
    np.minimum(right, 0.0, out=right)
    right *= rho[1:]
    flux += right
    diff = vel[1:-1]
    np.subtract(flux[1:], flux[:-1], out=diff)
    diff *= dt_dx
    rho[1:-1] -= diff


def integrate_upwind(scenario: Scenario, op: KernelOperator, t_end: float,
                     dx: float, x_window: tuple[float, float],
                     cfl: float = 0.9) -> FieldState:
    """March the upwind scheme on x_window to t_end with CFL-limited steps.

    Valid as an oracle on smooth data only.  Each step's velocity dressing
    is certified to DRESSING_TOL, warm-started from the extrapolation of
    the previous three steps.
    """
    state = initial_field(scenario, op, x_window[0], x_window[1], dx)
    t, cell_dx = state.t, state.dx
    rho = _padded(state.rho_p)
    rho_p = rho[1:-1]
    vel = np.empty_like(rho)
    flux = np.empty_like(rho[1:])
    # rho_s and n scratch; v_eff lands in vel's interior rows
    fields = (np.empty_like(rho_p), np.empty_like(rho_p), vel[1:-1])
    # dressing pool, rotated by reference: the iterate, the spare,
    # v_dr^(k-1) and v_dr^(k-2), plus the dresser's work buffer
    it, spare, prev, prev2, work = (np.empty((1,) + rho_p.shape) for _ in range(5))
    it[0] = op.v                      # the first step starts cold, from f = v
    for k in range(MAX_STEPS):
        if t >= t_end - 1e-14:
            return FieldState(state.x_cells, rho_p, t)
        v_eff, v_dr = effective_velocity(op, rho_p, tol=DRESSING_TOL, out=fields,
                                         dressing=(it, spare, work))
        if np.may_share_memory(v_dr, spare):
            it, spare = spare, it
        # it holds v_dr^k; the next start goes into spare
        guess = spare[0]
        if k == 0:
            guess[...] = v_dr
        elif k == 1:
            np.multiply(v_dr, 2.0, out=guess)
            guess -= prev[0]
        else:
            np.subtract(v_dr, prev[0], out=guess)
            guess *= 3.0
            guess += prev2[0]
        it, spare, prev, prev2 = spare, prev2, it, prev
        speed = max(float(v_eff.max()), -float(v_eff.min()))
        dt = min(cfl * cell_dx / max(speed, 1e-300), t_end - t)
        _upwind_step(rho, vel, flux, dt / cell_dx)
        t += dt
    raise ConvergenceError(f"upwind integration exceeded {MAX_STEPS} steps")


def fixed_point_rho(solver, t: float, x_cells: np.ndarray) -> np.ndarray:
    """rho_p(t, x, p) from the fixed-point solver at the given cell centers."""
    return solver.states_batch(float(t), np.asarray(x_cells, dtype=float)).rho_p


def l1_gap(state: FieldState, rho_ref: np.ndarray, op: KernelOperator) -> float:
    """Phase-space L1 distance between the field and a reference density."""
    return float(state.dx * np.sum(np.abs(state.rho_p - rho_ref) @ op.grid.weights))


def convergence_order(dxs, gaps) -> float:
    """Least-squares slope of log gap against log dx."""
    lx = np.log(np.asarray(dxs, dtype=float))
    ly = np.log(np.asarray(gaps, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
