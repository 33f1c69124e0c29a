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
from .errors import AssumptionError, ConvergenceError, NumericalError
from .kernel import KernelOperator
from .seed import Scenario

TWO_PI = 2.0 * np.pi

OUTFLOW = "outflow"
PERIODIC = "periodic"


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
                       warm_v_dr: np.ndarray | None = None,
                       tol: float = 1e-10, out=None,
                       dressing=None) -> tuple[np.ndarray, np.ndarray]:
    """(v_eff, v_dr) per cell; validates positivity of rho_s, and the
    dresser certifies ||Tn|| < 1.

    ``out = (rho_s, n, v_eff)`` are optional caller-owned (cells, N)
    arrays that this fills instead of fresh ones; rho_s is scratch and
    ends up holding 2 pi rho_s.  ``dressing = (x, x_new, work)`` is handed
    to the dresser as its buffer stack: x holds the starting guess
    (``warm_v_dr`` must be None), and the returned v_dr is a view into x
    or x_new.  Buffers or not, the bits are the same.
    """
    if out is None:
        out = tuple(np.empty(rho_p.shape) for _ in range(3))
    rho_s, n, v_eff = out
    np.matmul(rho_p, op.TW.T, out=rho_s)
    rho_s += 1.0 / TWO_PI
    if not rho_s.min() > 0:
        raise AssumptionError("state density lost positivity in the upwind field")
    np.divide(rho_p, rho_s, out=n)
    v_dr, = dress_batched_iterative(op, n, op.v, warm=warm_v_dr, tol=tol,
                                    buffers=dressing)
    rho_s *= TWO_PI
    return np.divide(v_dr, rho_s, out=v_eff), v_dr


# ghost rows per boundary condition: rows copied into padded rows 0 and -1
_GHOST_SOURCES = {OUTFLOW: (1, -2), PERIODIC: (-2, 1)}


def _check_bc(bc: str) -> None:
    if bc not in _GHOST_SOURCES:
        raise NumericalError(f"unknown boundary condition {bc!r}")


def _padded(values: np.ndarray) -> np.ndarray:
    """(m+2, N) buffer with ``values`` in rows 1..m; ghost rows unset."""
    buf = np.empty((values.shape[0] + 2, values.shape[1]))
    buf[1:-1] = values
    return buf


def _upwind_step(rho: np.ndarray, vel: np.ndarray, flux: np.ndarray,
                 dt_dx: float, bc: str) -> None:
    """Advance the interior rows of ``rho`` by one upwind step, in place.

    rho and vel are (m+2, N) with the cell values in rows 1..m; this fills
    their ghost rows and overwrites vel as scratch.  flux is (m+1, N);
    flux[i] is the flux through the left face of cell i, upwinded per cell
    by the sign of v_eff.  The arithmetic is that of
    rho - dt/dx (F[1:] - F[:-1]) with F = max(v,0) rho + min(v,0) rho taken
    from the left and right cell, in the same order.
    """
    lo, hi = _GHOST_SOURCES[bc]
    for buf in (rho, vel):
        buf[0] = buf[lo]
        buf[-1] = buf[hi]
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


def step_upwind(state: FieldState, op: KernelOperator, dt: float,
                bc: str = OUTFLOW, cfl_max: float = 0.9) -> FieldState:
    """One conservative upwind step of size dt; enforces the CFL bound."""
    _check_bc(bc)
    v_eff, _ = effective_velocity(op, state.rho_p)
    speed = float(np.max(np.abs(v_eff)))
    if dt * speed / state.dx > cfl_max + 1e-12:
        raise NumericalError(
            f"CFL violation: dt*|v|/dx = {dt * speed / state.dx:.4g} > {cfl_max}")
    rho = _padded(state.rho_p)
    _upwind_step(rho, _padded(v_eff), np.empty_like(rho[1:]), dt / state.dx, bc)
    return FieldState(state.x_cells, rho[1:-1], state.t + dt)


def integrate_upwind(scenario: Scenario, op: KernelOperator, t_end: float,
                     dx: float, cfl: float = 0.9,
                     x_window: tuple[float, float] | None = None,
                     bc: str = OUTFLOW, dressing_tol: float = 1e-9,
                     max_steps: int = 2_000_000) -> FieldState:
    """March the upwind scheme to t_end with CFL-limited steps.

    Valid as an oracle on smooth data only; the window defaults to the
    support hint widened by the free transport distance.  dressing_tol
    controls the velocity dressing each step, warm-started from the
    extrapolation of the previous three steps; the default is far below the
    O(dx) scheme error.
    """
    _check_bc(bc)
    if x_window is None:
        x_window = default_window(scenario, op, t_end)
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
    for k in range(max_steps):
        if t >= t_end - 1e-14:
            return FieldState(state.x_cells, rho_p, t)
        v_eff, v_dr = effective_velocity(op, rho_p, tol=dressing_tol, out=fields,
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
        _upwind_step(rho, vel, flux, dt / cell_dx, bc)
        t += dt
    raise ConvergenceError(f"upwind integration exceeded {max_steps} steps")


def total_mass(state: FieldState, op: KernelOperator) -> float:
    return float(state.dx * np.sum(state.rho_p @ op.grid.weights))


def fixed_point_rho(solver, t: float, x_cells: np.ndarray) -> np.ndarray:
    """rho_p(t, x, p) from the fixed-point solver at the given cell centers."""
    slices = solver.sweep(float(t), np.asarray(x_cells, dtype=float))
    return np.stack([s.rho_p for s in slices])


def l1_gap(state: FieldState, rho_ref: np.ndarray, op: KernelOperator) -> float:
    """Phase-space L1 distance between the field and a reference density."""
    return float(state.dx * np.sum(np.abs(state.rho_p - rho_ref) @ op.grid.weights))


def convergence_order(dxs, gaps) -> float:
    """Least-squares slope of log gap against log dx."""
    lx = np.log(np.asarray(dxs, dtype=float))
    ly = np.log(np.asarray(gaps, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
