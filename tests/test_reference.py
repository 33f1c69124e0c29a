import numpy as np
import pytest

import ghd
from ghd.dressing import DressingProblem
from ghd.errors import AssumptionError, NumericalError
from ghd.reference import (FieldState, convergence_order, effective_velocity,
                           fixed_point_rho, initial_field, integrate_upwind,
                           l1_gap, step_upwind, total_mass)


@pytest.fixture(scope="module")
def free_gas():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 24)
    op = ghd.KernelOperator(ghd.zero_kernel(), grid)
    bump = ghd.gaussian_bump(0.4, 0.5, 1.0)
    return op, bump


def test_empty_state_unchanged(free_gas):
    op, _ = free_gas
    state = FieldState(np.linspace(-1, 1, 50), np.zeros((50, op.count)), 0.0)
    out = step_upwind(state, op, dt=0.01)
    assert np.all(out.rho_p == 0.0)
    assert out.t == 0.01


def test_t_end_zero_returns_initial(free_gas):
    op, bump = free_gas
    field = integrate_upwind(bump, op, 0.0, dx=0.05, x_window=(-4, 4))
    init = initial_field(bump, op, -4, 4, 0.05)
    np.testing.assert_allclose(field.rho_p, init.rho_p)


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
    op, bump = free_gas
    state = initial_field(bump, op, -5, 5, 0.02)
    warm = None
    for _ in range(20):
        before = total_mass(state, op)
        v_eff, warm = effective_velocity(op, state.rho_p, warm_v_dr=warm)
        dt = 0.9 * state.dx / max(float(np.max(np.abs(v_eff))), 1e-300)
        state = step_upwind(state, op, dt)
        after = total_mass(state, op)
        assert abs(after - before) <= 1e-12 * max(abs(before), 1.0)


def test_positivity_preserved():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 20)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    field = integrate_upwind(bump, op, 0.3, dx=0.02, x_window=(-4, 4))
    assert field.rho_p.min() >= -1e-12


def test_cfl_violation_raises(free_gas):
    op, bump = free_gas
    state = initial_field(bump, op, -4, 4, 0.02)
    with pytest.raises(NumericalError, match="CFL"):
        step_upwind(state, op, dt=1.0)


def test_effective_velocity_matches_dressing_module():
    grid = ghd.build_momentum_grid(-3.0, 3.0, 28)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.8, 1.0)
    field = initial_field(bump, op, -2, 2, 0.5)
    v_eff, _ = effective_velocity(op, field.rho_p, tol=1e-12)
    for i, x in enumerate(field.x_cells):
        n = np.asarray(bump.n0(x, grid.nodes))
        prob = DressingProblem(op, n)
        expect = prob.dress_values(op.v) / prob.one_dressed()
        np.testing.assert_allclose(v_eff[i], expect, atol=1e-9)


def test_effective_velocity_rejects_noncontracting_field():
    # hard rods d = 0.3 on a window of measure 2: rho_p = 0.25 leaves
    # rho_s = 1/(2 pi) - 0.15 > 0 but n = rho_p/rho_s ~ 27, so ||T n|| ~ 16
    grid = ghd.build_momentum_grid(-1.0, 1.0, 8)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), grid)
    rho_p = np.full((3, op.count), 0.25)
    with pytest.raises(AssumptionError, match=r"\|\|T n\|\|_op = .* >= 1"):
        effective_velocity(op, rho_p)


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
