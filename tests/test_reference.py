import numpy as np
import pytest

import ghd
from ghd.dressing import DressingProblem
from ghd.errors import AssumptionError, NumericalError
from ghd.reference import (OUTFLOW, PERIODIC, FieldState, convergence_order,
                           effective_velocity, fixed_point_rho, initial_field,
                           integrate_upwind, l1_gap, step_upwind, total_mass)


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


def test_unknown_bc_rejected_before_work(free_gas, monkeypatch):
    op, bump = free_gas
    with pytest.raises(NumericalError, match="boundary condition 'bogus'"):
        integrate_upwind(bump, op, 0.0, dx=0.05, x_window=(-4, 4), bc="bogus")
    state = initial_field(bump, op, -4, 4, 0.05)

    def no_dressing(*args, **kwargs):
        raise AssertionError("velocity dressed before the boundary check")

    monkeypatch.setattr("ghd.reference.effective_velocity", no_dressing)
    with pytest.raises(NumericalError, match="boundary condition 'bogus'"):
        step_upwind(state, op, dt=0.01, bc="bogus")


@pytest.fixture(scope="module")
def ll_edge_field():
    """Lieb-Liniger bump cut off by a narrow window: the field is nonzero at
    both boundaries, and v_eff (close to p) changes sign across the grid."""
    grid = ghd.build_momentum_grid(-2.0, 2.0, 10)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    return op, initial_field(bump, op, -1.0, 1.0, 0.1)


def _concatenate_step(rho_p, v_eff, dt, dx, bc):
    """The step formula with freshly concatenated ghost cells (test oracle)."""
    if bc == PERIODIC:
        rho = np.concatenate([rho_p[-1:], rho_p, rho_p[:1]], axis=0)
        vel = np.concatenate([v_eff[-1:], v_eff, v_eff[:1]], axis=0)
    else:
        rho = np.concatenate([rho_p[:1], rho_p, rho_p[-1:]], axis=0)
        vel = np.concatenate([v_eff[:1], v_eff, v_eff[-1:]], axis=0)
    vplus = np.maximum(vel, 0.0)
    vminus = np.minimum(vel, 0.0)
    F = vplus[:-1] * rho[:-1] + vminus[1:] * rho[1:]
    return rho_p - (dt / dx) * (F[1:] - F[:-1])


@pytest.mark.parametrize("bc", [OUTFLOW, PERIODIC])
def test_step_matches_concatenate_formula_bitwise(ll_edge_field, bc):
    op, state = ll_edge_field
    v_eff, _ = effective_velocity(op, state.rho_p)
    assert v_eff.min() < 0 < v_eff.max()
    dt = 0.5 * state.dx / float(np.max(np.abs(v_eff)))
    out = step_upwind(state, op, dt, bc=bc)
    expect = _concatenate_step(state.rho_p, v_eff, dt, state.dx, bc)
    assert np.array_equal(out.rho_p, expect)
    assert out.t == state.t + dt


def test_periodic_steps_conserve_mass(ll_edge_field):
    op, state = ll_edge_field
    mass0 = total_mass(state, op)
    for _ in range(50):
        v_eff, _ = effective_velocity(op, state.rho_p)
        state = step_upwind(state, op, 0.9 * state.dx / float(np.max(np.abs(v_eff))),
                            bc=PERIODIC)
        assert abs(total_mass(state, op) - mass0) <= 1e-12 * mass0


def test_warm_started_integration_matches_cold_loop():
    grid = ghd.build_momentum_grid(-2.0, 2.0, 12)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    t_end, dx, cfl, window = 0.3, 0.05, 0.9, (-3.0, 3.0)
    field = integrate_upwind(bump, op, t_end, dx, cfl=cfl, x_window=window)
    state = initial_field(bump, op, window[0], window[1], dx)
    steps = 0
    while state.t < t_end - 1e-14:
        v_eff, _ = effective_velocity(op, state.rho_p, tol=1e-12)
        speed = float(np.max(np.abs(v_eff)))
        state = step_upwind(state, op, min(cfl * state.dx / speed, t_end - state.t))
        steps += 1
    assert steps > 3
    assert abs(field.t - state.t) <= 1e-14
    assert np.max(np.abs(field.rho_p - state.rho_p)) <= 1e-8


def _extrapolating_loop(scenario, op, t_end, dx, cfl, window, bc):
    """integrate_upwind's schedule with the allocating calls (test oracle):
    effective_velocity warm-started from the linear, then quadratic,
    extrapolation of the previous dressed velocities, the CFL dt rule, and
    the concatenated step formula."""
    state = initial_field(scenario, op, window[0], window[1], dx)
    rho_p, t = state.rho_p, state.t
    warm = prev = prev2 = None
    while t < t_end - 1e-14:
        v_eff, v_dr = effective_velocity(op, rho_p, warm_v_dr=warm, tol=1e-9)
        if prev is None:
            warm = v_dr
        elif prev2 is None:
            warm = v_dr * 2.0 - prev
        else:
            warm = (v_dr - prev) * 3.0 + prev2
        prev, prev2 = v_dr, prev
        dt = min(cfl * state.dx / max(float(np.max(np.abs(v_eff))), 1e-300), t_end - t)
        rho_p = _concatenate_step(rho_p, v_eff, dt, state.dx, bc)
        t += dt
    return rho_p, t


@pytest.mark.parametrize("bc", [OUTFLOW, PERIODIC])
def test_integrate_matches_allocating_loop_bitwise(bc):
    grid = ghd.build_momentum_grid(-2.0, 2.0, 12)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.5, 0.5, 1.0)
    # a narrow window keeps mass at both boundaries, so the ghost rows matter
    args = (bump, op, 0.3, 0.05, 0.9, (-1.5, 1.5))
    field = integrate_upwind(*args[:4], cfl=args[4], x_window=args[5], bc=bc)
    rho_p, t = _extrapolating_loop(*args, bc)
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
