"""First-order upwind finite-volume integrator of the conservation form.

This is the brute-force oracle for the fixed-point solver on smooth data:
it advances the particle density rho_p directly via

    d_t rho_p + d_x (v_eff rho_p) = 0

with the effective velocity recomputed each step from the current field
(rho_s is linear in rho_p; only the velocity dressing needs a solve, done
by the certified Picard dresser of ``ghd.dressing``, warm-started from the
previous step, over all cells at once).  First order is deliberate: the
simplest scheme with a known convergence story, sharing only the kernel
and dressing modules with the fixed-point path.
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


def initial_field(scenario: Scenario, op: KernelOperator, x_min: float,
                  x_max: float, dx: float) -> FieldState:
    """Sample rho_p(0,x,p) = n0 * 1dr_0 / (2 pi) at the cell centers."""
    m = int(round((x_max - x_min) / dx))
    centers = x_min + dx * (np.arange(m) + 0.5)
    n = np.asarray(scenario.n0(centers[:, None], op.grid.nodes[None, :]), dtype=float)
    one_dr, = dress_batched_iterative(op, n, np.ones(op.count))
    return FieldState(centers, n * one_dr / TWO_PI, 0.0)


def effective_velocity(op: KernelOperator, rho_p: np.ndarray,
                       warm_v_dr: np.ndarray | None = None,
                       tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(v_eff, v_dr) per cell; validates positivity of rho_s, and the
    dresser certifies ||Tn|| < 1."""
    rho_s = 1.0 / TWO_PI + rho_p @ op.TW.T
    if rho_s.min() <= 0:
        raise AssumptionError("state density lost positivity in the upwind field")
    n = rho_p / rho_s
    v_dr, = dress_batched_iterative(op, n, op.v, warm=warm_v_dr, tol=tol)
    return v_dr / (TWO_PI * rho_s), v_dr


def _fluxes(rho_p: np.ndarray, v_eff: np.ndarray, bc: str) -> np.ndarray:
    """Interface fluxes with per-cell upwinding by the sign of v_eff."""
    if bc == PERIODIC:
        rho = np.concatenate([rho_p[-1:], rho_p, rho_p[:1]], axis=0)
        vel = np.concatenate([v_eff[-1:], v_eff, v_eff[:1]], axis=0)
    elif bc == OUTFLOW:
        rho = np.concatenate([rho_p[:1], rho_p, rho_p[-1:]], axis=0)
        vel = np.concatenate([v_eff[:1], v_eff, v_eff[-1:]], axis=0)
    else:
        raise NumericalError(f"unknown boundary condition {bc!r}")
    vplus = np.maximum(vel, 0.0)
    vminus = np.minimum(vel, 0.0)
    # F[i] is the flux through the left face of cell i (m+1 faces).
    return vplus[:-1] * rho[:-1] + vminus[1:] * rho[1:]


def _step_core(state: FieldState, v_eff: np.ndarray, dt: float,
               bc: str) -> FieldState:
    F = _fluxes(state.rho_p, v_eff, bc)
    rho_new = state.rho_p - (dt / state.dx) * (F[1:] - F[:-1])
    return FieldState(state.x_cells, rho_new, state.t + dt)


def step_upwind(state: FieldState, op: KernelOperator, dt: float,
                bc: str = OUTFLOW, cfl_max: float = 0.9) -> FieldState:
    """One conservative upwind step of size dt; enforces the CFL bound."""
    v_eff, _ = effective_velocity(op, state.rho_p)
    speed = float(np.max(np.abs(v_eff)))
    if dt * speed / state.dx > cfl_max + 1e-12:
        raise NumericalError(
            f"CFL violation: dt*|v|/dx = {dt * speed / state.dx:.4g} > {cfl_max}")
    return _step_core(state, v_eff, dt, bc)


def integrate_upwind(scenario: Scenario, op: KernelOperator, t_end: float,
                     dx: float, cfl: float = 0.9,
                     x_window: tuple[float, float] | None = None,
                     bc: str = OUTFLOW, dressing_tol: float = 1e-9,
                     max_steps: int = 2_000_000) -> FieldState:
    """March the upwind scheme to t_end with CFL-limited steps.

    Valid as an oracle on smooth data only; the window defaults to the
    support hint widened by the free transport distance.  dressing_tol
    controls the warm-started velocity dressing each step; the default is
    far below the O(dx) scheme error.
    """
    if x_window is None:
        lo, hi = scenario.x_support_hint
        vmax = float(np.max(np.abs(op.v)))
        pad = vmax * t_end + 0.1 * (hi - lo)
        x_window = (lo - pad, hi + pad)
    state = initial_field(scenario, op, x_window[0], x_window[1], dx)
    warm = None
    for _ in range(max_steps):
        if state.t >= t_end - 1e-14:
            return state
        v_eff, warm = effective_velocity(op, state.rho_p, warm_v_dr=warm,
                                         tol=dressing_tol)
        speed = float(np.max(np.abs(v_eff)))
        dt = min(cfl * state.dx / max(speed, 1e-300), t_end - state.t)
        state = _step_core(state, v_eff, dt, bc)
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
