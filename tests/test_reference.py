import numpy as np
import pytest

import ghd
from ghd.dressing import dress_batched
from ghd.errors import AssumptionError
from ghd.reference import (convergence_order, effective_velocity, fixed_point_rho,
                           initial_field, integrate_upwind, l1_gap)


@pytest.fixture(scope="module")
def free_gas():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 24)
    op = ghd.KernelOperator(ghd.zero_kernel(), grid)
    bump = ghd.gaussian_bump(0.4, 0.5, 1.0)
    return op, bump


def test_empty_state_unchanged(free_gas):
    op, _ = free_gas
    out = integrate_upwind(ghd.zero_scenario(), op, 0.01, dx=0.04, x_window=(-1, 1))
    assert np.all(out.rho_p == 0.0)
    assert out.t == 0.01


def test_t_end_zero_returns_initial(free_gas):
    op, bump = free_gas
    field = integrate_upwind(bump, op, 0.0, dx=0.05, x_window=(-4, 4))
    init = initial_field(bump, op, -4, 4, 0.05)
    np.testing.assert_allclose(field.rho_p, init.rho_p)


def _concatenate_step(rho_p, v_eff, dt, dx):
    """The step formula with freshly concatenated outflow ghost cells (test
    oracle)."""
    rho = np.concatenate([rho_p[:1], rho_p, rho_p[-1:]], axis=0)
    vel = np.concatenate([v_eff[:1], v_eff, v_eff[-1:]], axis=0)
    vplus = np.maximum(vel, 0.0)
    vminus = np.minimum(vel, 0.0)
    F = vplus[:-1] * rho[:-1] + vminus[1:] * rho[1:]
    return rho_p - (dt / dx) * (F[1:] - F[:-1])


def test_warm_started_integration_matches_cold_loop():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 12)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    t_end, dx, cfl, window = 0.3, 0.05, 0.9, (-3.0, 3.0)
    field = integrate_upwind(bump, op, t_end, dx, cfl=cfl, x_window=window)
    state = initial_field(bump, op, window[0], window[1], dx)
    rho_p, t, steps = state.rho_p, state.t, 0
    while t < t_end - 1e-14:
        v_eff, _ = effective_velocity(op, rho_p, tol=1e-12)
        dt = min(cfl * state.dx / float(np.max(np.abs(v_eff))), t_end - t)
        rho_p = _concatenate_step(rho_p, v_eff, dt, state.dx)
        t += dt
        steps += 1
    assert steps > 3
    assert abs(field.t - t) <= 1e-14
    assert np.max(np.abs(field.rho_p - rho_p)) <= 1e-8


def _stack_from(start):
    """A fresh dresser buffer stack whose iterate holds ``start``."""
    x = start[None].copy()
    return x, np.empty_like(x), np.empty_like(x)


def _extrapolating_loop(scenario, op, t_end, dx, cfl, window):
    """integrate_upwind's schedule with the allocating calls (test oracle):
    effective_velocity cold, then started from the linear, then quadratic,
    extrapolation of the previous dressed velocities, the CFL dt rule, and
    the concatenated step formula."""
    state = initial_field(scenario, op, window[0], window[1], dx)
    rho_p, t = state.rho_p, state.t
    warm = prev = prev2 = None
    while t < t_end - 1e-14:
        v_eff, v_dr = effective_velocity(
            op, rho_p, tol=1e-9, dressing=None if warm is None else _stack_from(warm))
        if prev is None:
            warm = v_dr
        elif prev2 is None:
            warm = v_dr * 2.0 - prev
        else:
            warm = (v_dr - prev) * 3.0 + prev2
        prev, prev2 = v_dr, prev
        dt = min(cfl * state.dx / max(float(np.max(np.abs(v_eff))), 1e-300), t_end - t)
        rho_p = _concatenate_step(rho_p, v_eff, dt, state.dx)
        t += dt
    return rho_p, t


def test_integrate_matches_allocating_loop_bitwise():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 12)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    # a narrow window keeps mass at both boundaries, so the ghost rows matter
    args = (bump, op, 0.3, 0.05, 0.9, (-1.5, 1.5))
    field = integrate_upwind(*args[:4], cfl=args[4], x_window=args[5])
    rho_p, t = _extrapolating_loop(*args)
    assert np.array_equal(field.rho_p, rho_p)
    assert field.t == t


def test_free_advection_first_order(free_gas):
    op, bump = free_gas
    t_end = 0.4
    errors = []
    for dx in (0.04, 0.02):
        field = integrate_upwind(bump, op, t_end, dx, x_window=(-5, 5))
        exact = initial_field(bump, op, -5, 5, dx)
        shifted = bump.n0(field.x_cells[:, None] - op.v[None, :] * t_end,
                          op.grid.nodes[None, :]) / (2 * np.pi)
        errors.append(l1_gap(field, shifted, op))
        assert exact.rho_p.shape == field.rho_p.shape
    assert errors[1] <= 0.7 * errors[0]


def test_mass_conserved_per_step(free_gas):
    # free gas: v_eff = v, so every step has dt = cfl dx / max|v| and
    # t_end = k dt marches exactly k steps; compare successive step counts
    op, bump = free_gas
    start = initial_field(bump, op, -5, 5, 0.02)
    dt = 0.9 * start.dx / float(np.max(np.abs(op.v)))
    before = start
    for k in range(1, 21):
        state = integrate_upwind(bump, op, k * dt, dx=0.02, x_window=(-5, 5))
        mass0, mass = (s.dx * np.sum(s.rho_p @ op.grid.weights) for s in (before, state))
        assert not np.array_equal(state.rho_p, before.rho_p)
        assert abs(mass - mass0) <= 1e-12 * max(abs(mass0), 1.0)
        before = state


def test_mass_conserved_inside_window(free_gas):
    # the bump's tail stays below 1e-16 at the window's edges, so outflow
    # carries no mass out and the scheme's flux form must conserve it
    free, _ = free_gas
    interacting = ghd.KernelOperator(ghd.lieb_liniger(1.0), free.grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    for op in (free, interacting):
        start = initial_field(bump, op, -5, 5, 0.05)
        field = integrate_upwind(bump, op, 0.3, dx=0.05, x_window=(-5, 5))
        mass0, mass = (s.dx * np.sum(s.rho_p @ op.grid.weights) for s in (start, field))
        assert not np.allclose(field.rho_p, start.rho_p)
        assert abs(mass - mass0) <= 1e-12 * mass0


def test_positivity_preserved():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 20)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    field = integrate_upwind(bump, op, 0.3, dx=0.02, x_window=(-4, 4))
    assert field.rho_p.min() >= -1e-12


def test_effective_velocity_matches_dressing_module():
    grid = ghd.build_momentum_grid(-3.0, 3.0, 28)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.8, 1.0)
    field = initial_field(bump, op, -2, 2, 0.5)
    v_eff, _ = effective_velocity(op, field.rho_p, tol=1e-12)
    for i, x in enumerate(field.x_cells):
        n = np.asarray(bump.n0(x, grid.nodes))
        one_dr, v_dr = dress_batched(op, n[None], np.ones(op.count), op.v)
        np.testing.assert_allclose(v_eff[i], v_dr[0] / one_dr[0], atol=1e-9)


def test_effective_velocity_rejects_noncontracting_field():
    # hard rods d = 0.3 on a window of measure 2: rho_p = 0.25 leaves
    # rho_s = 1/(2 pi) - 0.15 > 0 but n = rho_p/rho_s ~ 27, so ||T n|| ~ 16
    grid = ghd.build_momentum_grid(-1.0, 1.0, 8)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), grid)
    rho_p = np.full((3, op.count), 0.25)
    with pytest.raises(AssumptionError, match=r"\|\|T n\|\|_op = .* >= 1"):
        effective_velocity(op, rho_p)


def test_effective_velocity_rejects_nan_field():
    grid = ghd.build_momentum_grid(-1.0, 1.0, 8)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    with pytest.raises(AssumptionError, match="positivity"):
        effective_velocity(op, np.full((3, op.count), np.nan))


def test_upwind_tracks_fixed_point():
    grid = ghd.build_momentum_grid(-2.5, 2.5, 24)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.5)
    field = integrate_upwind(bump, op, 0.25, dx=0.01, x_window=(-3.5, 3.5))
    tab = ghd.build_seed(bump, op)
    rho_ref = fixed_point_rho(ghd.Solver(tab), 0.25, field.x_cells)
    assert l1_gap(field, rho_ref, op) <= 0.02


def test_convergence_order_helper():
    dxs = [4e-3, 2e-3, 1e-3]
    gaps = [4e-4, 2e-4, 1e-4]
    assert abs(convergence_order(dxs, gaps) - 1.0) <= 1e-12
