"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with -s or -rA) naming
the criterion and its measured figure before asserting it.
"""

import math
import time

import numpy as np
import pytest

import ghd
from ghd.diagnostics import (conservation_report, derivative_identity_check,
                             fermi_entropy, weak_form_residual, weight_values)
from ghd.reference import (convergence_order, fixed_point_rho,
                           integrate_upwind, l1_gap)
from ghd.seed import SpatialGridSpec


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def certificate_slices(ll_solver):
    """>= 10^4 solved slices shared by the contraction and 1dr criteria, as
    one States record per time."""
    return [ll_solver.sweep(float(t), np.linspace(-4.0, 4.0, 404))
            for t in np.linspace(0.0, 2.0, 25)]


def test_criterion_01_free_gas_exactness():
    start = time.perf_counter()
    grid = ghd.build_momentum_grid(-6.0, 6.0, 64)
    op = ghd.KernelOperator(ghd.zero_kernel(), grid)
    bump = ghd.gaussian_bump(0.7, 1.0, 1.0)
    tab = ghd.build_seed(bump, op, SpatialGridSpec(-9.6, 9.6, 400))
    solver = ghd.Solver(tab)
    worst = 0.0
    for t in (0.5, 1.0):
        for s in solver.sweep(t, np.linspace(-5.0, 5.0, 400)):
            exact = bump.n0(s.x - grid.nodes * t, grid.nodes)
            worst = max(worst, float(np.max(np.abs(s.n - exact))))
    elapsed = time.perf_counter() - start
    _report("free-gas exactness", worst <= 1e-6 and elapsed <= 2.0,
            f"max error {worst:.3e}, runtime {elapsed:.2f}s")


def test_criterion_02_initial_condition_recovery():
    grid = ghd.build_momentum_grid(-6.0, 6.0, 96)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.7, 1.0, 1.0)
    solver = ghd.Solver(ghd.build_seed(bump, op))
    worst = 0.0
    for s in solver.sweep(0.0, np.linspace(-3.0, 3.0, 101)):
        worst = max(worst, float(np.max(np.abs(s.n - bump.n0(s.x, grid.nodes)))))
    _report("initial-condition recovery", worst <= 1e-8,
            f"max error at t=0: {worst:.3e}")


def test_criterion_03_contraction_certificate(ll_solver, ll_tables,
                                              certificate_slices):
    rate = ll_tables.rate
    cap = rate + 0.01
    worst_ratio = 0.0
    total_iters = 0
    slices = 0
    for states in certificate_slices:
        worst_ratio = max(worst_ratio, float(states.ratio.max()))
        total_iters += int(states.iters.sum())
        slices += len(states)
    mean_iters = total_iters / slices
    budget = math.ceil(math.log(ll_solver.config.fp_tol) / math.log(rate)) + 2
    ok = (slices >= 10_000 and worst_ratio <= cap
          and mean_iters <= budget)
    _report("contraction certificate", ok,
            f"{slices} slices, worst ratio {worst_ratio:.4f} "
            f"<= {cap:.4f}, mean iters {mean_iters:.2f} <= {budget}")


def test_criterion_04_one_dr_bounds(certificate_slices):
    worst = -np.inf
    slices = 0
    for states in certificate_slices:
        tn = states.tn[:, None]
        lo = 1.0 - tn
        hi = 1.0 / (1.0 - tn)
        worst = max(worst, float(np.max(lo - states.one_dr)),
                    float(np.max(states.one_dr - hi)))
        slices += len(states)
    _report("1dr bounds", worst <= 1e-9,
            f"worst violation {worst:.3e} over {slices} slices")


def test_criterion_05_hard_rods_p_collapse(hr_setup):
    _, _, _, solver = hr_setup
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 2.0))
        x = float(rng.uniform(-3.0, 3.0))
        xhat = solver.solve(t, x).xhat
        worst = max(worst, float(xhat.max() - xhat.min()))
    _report("hard-rods p-collapse", worst <= 1e-10,
            f"max spread over momentum {worst:.3e}")


def test_criterion_06_derivative_identities():
    grid = ghd.build_momentum_grid(-6.0, 6.0, 64)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.7, 1.0, 1.0)
    tab = ghd.build_seed(bump, op, SpatialGridSpec(-9.6, 9.6, 2400))
    solver = ghd.Solver(tab, ghd.SolverConfig(fp_tol=1e-12))
    worst = 0.0
    for t, x in ((0.5, 0.8), (0.25, -0.6), (1.0, 0.0)):
        errs = derivative_identity_check(solver, t, x, h=1e-4)
        worst = max(worst, max(errs.values()))
    _report("derivative identities", worst <= 1e-5,
            f"max mismatch {worst:.3e} (central differences, h=1e-4)")


def test_criterion_07_conservation():
    grid = ghd.build_momentum_grid(-6.0, 6.0, 64)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.7, 1.0, 1.0, p0=0.4)
    solver = ghd.Solver(ghd.build_seed(bump, op))
    report = conservation_report(
        solver, [0.0, 0.5, 1.0, 2.0], (-22.0, 22.0), 400,
        weights={"one": weight_values("one", op),
                 "momentum": weight_values("momentum", op)},
        entropies={"fermi": fermi_entropy})
    drifts = {name: series.relative_drift for name, series in report.items()}
    worst = max(drifts.values())
    _report("conservation", worst <= 1e-4,
            ", ".join(f"{k} drift {v:.2e}" for k, v in drifts.items()))


def test_criterion_08_weak_solution_partitioning(part_setup):
    _, _, _, solver = part_setup
    rng = np.random.default_rng(20250811)
    rects = []
    for _ in range(10):  # guaranteed to straddle the contact at x=0
        rects.append((float(rng.uniform(-1.6, -0.1)), float(rng.uniform(0.1, 1.6)),
                      *sorted(rng.uniform(0.05, 1.4, size=2))))
    for _ in range(10):
        x1, x2 = np.sort(rng.uniform(-1.6, 1.6, size=2))
        t1, t2 = np.sort(rng.uniform(0.05, 1.4, size=2))
        rects.append((float(x1), float(x2) + 0.05, float(t1), float(t2) + 0.02))
    worst = 0.0
    for rect in rects:
        p_index = int(rng.integers(0, solver.op.count))
        res = weak_form_residual(solver, rect, p_index, edge_points=160)
        worst = max(worst, abs(res["residual"]))
    _report("weak solution across contact", worst <= 1e-4,
            f"worst normalized residual {worst:.3e} over {len(rects)} rectangles")


def test_criterion_09_oracle_agreement():
    grid = ghd.build_momentum_grid(-3.0, 3.0, 32)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    bump = ghd.gaussian_bump(0.55, 0.6, 1.6)
    solver = ghd.Solver(ghd.build_seed(bump, op))
    t_end = 0.5
    dxs = (4e-3, 2e-3, 1e-3)
    gaps = []
    for dx in dxs:
        field = integrate_upwind(bump, op, t_end, dx, x_window=(-5.0, 5.0))
        rho_ref = fixed_point_rho(solver, t_end, field.x_cells)
        gaps.append(l1_gap(field, rho_ref, op))
    order = convergence_order(dxs, gaps)
    ok = gaps[1] <= 5e-3 and 0.7 <= order <= 1.3
    _report("oracle agreement", ok,
            f"L1 gaps {[f'{g:.2e}' for g in gaps]} at dx {list(dxs)}, "
            f"order {order:.3f}")


def test_criterion_10_monotonicity_sweep(ll_solver, ll_tables):
    rng = np.random.default_rng(20250812)
    r_lo = ll_tables.bounds.r_value
    pairs = 0
    worst_slope = np.inf
    worst_height = np.inf
    for t in rng.uniform(0.0, 2.0, size=100):
        x1 = rng.uniform(-4.0, 4.0, size=100)
        x2 = x1 + rng.uniform(0.01, 2.0, size=100)
        xs = np.concatenate([x1, x2])
        states = ll_solver.sweep(float(t), xs)
        dx = (states.x[100:] - states.x[:100])[:, None]
        worst_slope = min(worst_slope,
                          float(np.min((states.xhat[100:] - states.xhat[:100]) / dx)))
        worst_height = min(worst_height, float(np.min(states.N[100:] - states.N[:100])))
        pairs += 100
    ok = pairs >= 10_000 and worst_slope >= r_lo - 1e-6 and worst_height >= -1e-10
    _report("monotonicity sweep", ok,
            f"{pairs} pairs, min slope {worst_slope:.6f} >= {r_lo:.6f} - 1e-6, "
            f"min height increment {worst_height:.2e}")
