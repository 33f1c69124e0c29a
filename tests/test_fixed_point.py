import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghd
from ghd.dressing import compute_R, sign_threshold
from ghd.errors import ConvergenceError
from ghd.fixed_point import MIN_GROUP, Solver, SolverConfig, _levels
from ghd.kernel import SIGN_MIXED
from ghd.seed import SpatialGridSpec


def test_apply_G_zero_scenario(zero_setup):
    op, bump, _, _ = zero_setup
    tab = ghd.build_seed(ghd.zero_scenario(), op)
    f = np.sin(op.grid.nodes)
    out = ghd.Solver(tab).apply_G(0.7, 1.3, f)
    np.testing.assert_allclose(out, 1.3, atol=1e-14)


def test_apply_G_fixed_point_at_origin(ll_solver):
    out = ll_solver.apply_G(0.0, 0.0, np.zeros(ll_solver.op.count))
    assert np.max(np.abs(out)) <= 1e-14


def test_apply_G_constant_kernel_scalar_oracle(uniform_hr_setup):
    op, sc, tab, solver = uniform_hr_setup
    # N0hat = 0.2 xhat and symmetric grid: G[x0](p) = x - 0.12 x0
    t, x, x0 = 0.7, 1.1, 0.45
    out = solver.apply_G(t, x, np.full(op.count, x0))
    w, v = op.grid.weights, op.v
    expect = x - 0.3 * float(w @ (0.2 * (x0 - v * t)))
    np.testing.assert_allclose(out, expect, atol=1e-12)
    assert abs(expect - (x - 0.12 * x0)) <= 1e-12


def test_solve_vanishes_at_spacetime_origin(ll_solver):
    res = ll_solver.solve(0.0, 0.0)
    assert np.max(np.abs(res.xhat)) <= 1e-12


def test_zero_scenario_one_iteration(zero_setup):
    op, _, _, _ = zero_setup
    tab = ghd.build_seed(ghd.zero_scenario(), op)
    res = ghd.Solver(tab).solve(0.8, 2.5)
    np.testing.assert_allclose(res.xhat, 2.5, atol=1e-14)
    assert res.iters == 1
    assert res.residual == 0.0


def test_hard_rods_p_collapse(hr_setup):
    _, _, tab, solver = hr_setup
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-3.0, 3.0)
        res = solver.solve(float(t), float(x))
        assert res.xhat.max() - res.xhat.min() <= 1e-10


def test_hard_rods_scalar_vs_generic_iteration(hr_setup):
    op, _, tab, solver = hr_setup
    t, x = 0.6, -0.9
    scalar = solver.solve(t, x).xhat
    f = np.full(op.count, x, dtype=float)
    for _ in range(200):
        f = solver.apply_G(t, x, f)
    assert np.max(np.abs(f - scalar)) <= 1e-10


def test_uniform_hard_rods_affine_solution(uniform_hr_setup):
    op, sc, tab, solver = uniform_hr_setup
    for t, x in ((0.0, 1.3), (0.9, -0.4), (2.0, 2.2)):
        res = solver.solve(t, x)
        np.testing.assert_allclose(res.xhat, x / 1.12, atol=1e-9)


def test_initial_condition_recovery(ll_solver, ll_bump):
    nodes = ll_solver.op.grid.nodes
    worst = 0.0
    for x in np.linspace(-3.0, 3.0, 21):
        s = ll_solver.state(0.0, float(x))
        worst = max(worst, float(np.max(np.abs(s.n - ll_bump.n0(x, nodes)))))
    assert worst <= 1e-8


def test_zero_kernel_free_advection(zero_setup):
    op, bump, tab, solver = zero_setup
    nodes = op.grid.nodes
    for t, x in ((0.5, 0.9), (1.0, -1.4)):
        s = solver.state(t, x)
        np.testing.assert_allclose(s.n, bump.n0(x - nodes * t, nodes), atol=1e-12)
        np.testing.assert_allclose(s.u, x - nodes * t, atol=1e-12)
        np.testing.assert_allclose(s.v_eff, nodes, atol=1e-14)


def test_state_invariants(ll_solver, ll_tables):
    s = ll_solver.state(0.7, 1.2)
    assert s.residual <= ll_solver.config.fp_tol
    assert np.all(s.n >= 0) and np.all(s.n <= ll_tables.sup_n0 + 1e-10)
    assert np.all(s.rho_s > 0)
    assert np.all(s.rho_p >= 0)
    np.testing.assert_allclose(s.rho_s, s.one_dr / (2 * np.pi))
    consistency = s.xhat - s.x - s.N @ ll_solver.op.TW.T
    assert np.max(np.abs(consistency)) <= 1e-9
    np.testing.assert_allclose(s.v_eff, s.v_dr / s.one_dr)


def test_one_dr_bounds_at_slices(ll_solver):
    sign = ll_solver.op.sign_class
    for t, x in ((0.0, 0.3), (0.5, -1.0), (1.5, 2.0)):
        s = ll_solver.state(t, x)
        lo = compute_R(s.tn, sign)
        hi = 1.0 / (1.0 - s.tn)
        assert np.all(s.one_dr >= lo - 1e-9)
        assert np.all(s.one_dr <= hi + 1e-9)


def test_contraction_ratios_bounded(ll_solver, ll_tables):
    states = ll_solver.sweep(0.6, np.linspace(-3, 3, 101))
    cap = ll_tables.rate + 0.01
    assert np.all(states.ratio <= cap)
    assert np.all(states.residual <= ll_solver.config.fp_tol)


def test_spatial_lipschitz(ll_solver, ll_tables):
    t = 0.8
    rng = np.random.default_rng(6)
    const = 1.0 / (1.0 - ll_tables.rate)
    for _ in range(20):
        x1, x2 = rng.uniform(-4, 4, size=2)
        s1 = ll_solver.state(t, float(x1))
        s2 = ll_solver.state(t, float(x2))
        gap = np.max(np.abs(s1.xhat - s2.xhat))
        assert gap <= abs(x1 - x2) * const + 1e-8


def test_temporal_lipschitz(ll_solver, ll_tables):
    x = 0.4
    rng = np.random.default_rng(8)
    unit = ll_solver.op.operator_norm()
    const = unit * ll_tables.vn_sup / (1.0 - ll_tables.rate)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 2, size=2)
        s1 = ll_solver.state(float(t1), x)
        s2 = ll_solver.state(float(t2), x)
        gap = np.max(np.abs(s1.xhat - s2.xhat))
        assert gap <= abs(t1 - t2) * const + 1e-8


def test_monotonicity_in_x(ll_solver, ll_tables):
    t = 1.1
    r_lo = ll_tables.bounds.r_value
    xs = np.linspace(-3, 3, 41)
    states = ll_solver.sweep(t, xs)
    dx = np.diff(states.x)[:, None]
    assert np.all(np.diff(states.xhat, axis=0) >= r_lo * dx - 1e-8)
    assert np.all(np.diff(states.N, axis=0) >= -1e-10)


def test_occupation_norm_preserved(ll_solver, ll_tables):
    worst = 0.0
    for t in (0.0, 0.7, 1.9):
        worst = max(worst, float(ll_solver.sweep(t, np.linspace(-4, 4, 31)).n.max()))
    assert worst <= ll_tables.sup_n0 + 1e-10


def test_characteristic_u(ll_solver, ll_tables):
    # u(0,x,p) = x
    assert abs(ll_solver.state(0.0, 1.7).u[10] - 1.7) <= 1e-8
    # non-crossing: u non-decreasing in x at fixed (t,p)
    t, p_index = 0.9, 24
    us = [ll_solver.state(t, float(x)).u[p_index]
          for x in np.linspace(-2, 2, 25)]
    assert all(b - a >= -1e-9 for a, b in zip(us[:-1], us[1:]))


def test_bisect_without_brackets_solves_nothing(ll_tables, monkeypatch):
    solver = ghd.Solver(ll_tables)
    calls = []
    monkeypatch.setattr(solver, "solve_batch",
                        lambda *a, **k: calls.append(a) or None)
    out = solver.bisect(0.5, [], [], [], [], [], tol=1e-11)
    assert out.shape == (0,) and not calls


class _Columns:
    """Stand-in for a Solver whose level-set column at bracket row r is
    funcs[r](a): the row index is passed to bisect as t, and v = 0, so psi
    is the column itself.  Records every solve."""

    _rows = staticmethod(Solver._rows)

    def __init__(self, funcs, cols):
        self.funcs, self.cols = funcs, cols
        self.op = SimpleNamespace(v=np.zeros(int(cols.max()) + 1))
        self.solves = []

    def solve_batch(self, ts, xs, warm=None):
        rows = ts.astype(int)
        values = np.array([self.funcs[r](a) for r, a in zip(rows, xs)])
        out = np.zeros((rows.size, self.op.v.size))
        out[np.arange(rows.size), self.cols[rows]] = values
        self.solves.append((rows, xs.copy(), values))
        return out, None, None, None


def _level_set_row(rng, noisy):
    """(function, lo, hi, tol) of one bracket: a strictly monotone
    piecewise-linear column with 1-6 pieces of slope 1e-3 to 1e3, rising or
    falling, optionally with noise of the column's own size within a narrow
    band around its root."""
    left = rng.uniform(-2.0, 1.0)
    right = left + 10.0 ** rng.uniform(-3.0, 0.5)
    knots = np.concatenate(([left], np.sort(rng.uniform(left, right, rng.integers(0, 6))),
                            [right]))
    slopes = 10.0 ** rng.uniform(-3.0, 3.0, knots.size - 1)
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    root = left + (right - left) * rng.uniform(0.05, 0.95)
    values -= np.interp(root, knots, values)
    band = (right - left) * 10.0 ** rng.uniform(-9.0, -4.0) if noisy else 0.0
    size = band * slopes[np.searchsorted(knots, root) - 1]

    def rising(a):
        noise = size * np.sin(a * 7.3e5 / band) if abs(a - root) < band else 0.0
        return float(np.interp(a, knots, values)) + noise

    tol = (right - left) * 10.0 ** rng.uniform(-10.0, -1.0)
    if rng.random() < 0.5:
        return rising, left, right, tol
    return (lambda a: rising(left + right - a)), right, left, tol


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=1, max_value=12),
       noisy=st.booleans(), nan_ends=st.booleans())
def test_bisect_keeps_brackets_within_cap(seed, count, noisy, nan_ends):
    rng = np.random.default_rng(seed)
    funcs, lo, hi, tol = zip(*(_level_set_row(rng, noisy) for _ in range(count)))
    lo, hi, tol = (np.array(v) for v in (lo, hi, tol))
    f_lo = np.array([f(a) for f, a in zip(funcs, lo)])
    f_hi = np.array([f(a) for f, a in zip(funcs, hi)])
    assert np.all(f_lo < 0) and np.all(f_hi >= 0)
    if nan_ends:  # ends whose sign alone is known
        f_lo[rng.random(count) < 0.5] = np.nan
        f_hi[rng.random(count) < 0.5] = np.nan
    cols = rng.integers(0, 5, count)
    stub = _Columns(funcs, cols)
    out = Solver.bisect(stub, np.arange(count, dtype=float), lo, hi,
                        f_lo, f_hi, cols, tol=tol)
    cap = 2 * np.ceil(np.log2(np.abs(hi - lo) / tol))
    # rebuild each bracket from the evaluations alone
    a, b, steps = lo.copy(), hi.copy(), np.zeros(count)
    for rows, points, values in stub.solves:
        assert np.all((points - a[rows]) * (points - b[rows]) < 0)
        a[rows] = np.where(values < 0, points, a[rows])
        b[rows] = np.where(values < 0, b[rows], points)
        steps[rows] += 1
    assert np.all(steps <= cap) and len(stub.solves) <= cap.max()
    # the result lies within tol/2 of a negative and a non-negative value
    slack = 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(np.abs(out - a) <= 0.5 * tol + slack)
    assert np.all(np.abs(out - b) <= 0.5 * tol + slack)


def test_eval_state_module_function(ll_solver):
    s = ll_solver.state(0.3, 0.5)
    assert s.t == 0.3 and s.x == 0.5
    assert s.iters >= 1


def test_max_iters_exceeded(ll_tables):
    cfg = SolverConfig(fp_tol=1e-14, max_iters=2)
    with pytest.raises(ConvergenceError, match="ratio history"):
        ghd.Solver(ll_tables, cfg).solve(0.9, 2.0)


def test_warm_start_agrees(ll_solver):
    cold, _, _, _ = ll_solver.solve_batch(0.5, 1.0)
    warm, _, _, _ = ll_solver.solve_batch(0.5, 1.0, warm=cold + 0.3)
    assert np.max(np.abs(cold - warm)) <= 1e-9


def test_inadmissible_solver_rejected(ll_op):
    big = ghd.gaussian_bump(3.0, 1.0, 0.05)
    with pytest.raises(ghd.AssumptionError):
        tab = ghd.build_seed(big, ll_op)
        ghd.Solver(tab)


def test_invalid_fp_tol_is_config_error():
    for bad in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ghd.ConfigError, match="fp_tol"):
            SolverConfig(fp_tol=bad)


# -- per-row t: mixed (t_i, x_i) batches against one-row solves -----------------

def _assert_rows_match_points(solver, ts, xs):
    tol = 2.0 * solver.config.fp_tol
    xhat, _, _, _ = solver.solve_batch(ts, xs)
    states = solver.states_batch(ts, xs)
    for i, (t, x) in enumerate(zip(ts, xs)):
        one = solver.solve(float(t), float(x)).xhat
        assert np.max(np.abs(xhat[i] - one)) <= tol
        assert np.max(np.abs(states.xhat[i] - solver.state(float(t), float(x)).xhat)) <= tol
        assert states.t[i] == float(t) and states.x[i] == float(x)


def test_mixed_rows_match_single_points_ll(ll_solver):
    rng = np.random.default_rng(41)
    _assert_rows_match_points(ll_solver, rng.uniform(0.0, 2.0, 12),
                              rng.uniform(-4.0, 4.0, 12))


def test_mixed_rows_match_single_points_partitioning(part_setup):
    _, _, _, solver = part_setup
    rng = np.random.default_rng(43)
    _assert_rows_match_points(solver, rng.uniform(0.0, 1.0, 12),
                              rng.uniform(-1.5, 1.5, 12))


def test_mixed_rows_match_single_points_hard_rods(hr_setup):
    _, _, _, solver = hr_setup
    rng = np.random.default_rng(47)
    _assert_rows_match_points(solver, rng.uniform(0.0, 2.0, 8),
                              rng.uniform(-3.0, 3.0, 8))


def test_hard_rods_batch_inverts_once_per_iteration(hr_setup, monkeypatch):
    # hard rods take the same batched contraction as every kernel: one seed
    # inversion per iteration for the whole batch, measured ratios within r
    _, _, tab, solver = hr_setup
    calls = []
    invert = tab.invert
    monkeypatch.setattr(tab, "invert", lambda z: calls.append(z.shape) or invert(z))
    rng = np.random.default_rng(59)
    _, iters, _, ratio = solver.solve_batch(rng.uniform(0.0, 2.0, 64),
                                            rng.uniform(-3.0, 3.0, 64))
    assert len(calls) == iters.max()
    assert np.all((ratio > 0) & (ratio <= solver.rate + 0.01))


def test_per_row_t_broadcasts_against_scalar_x(ll_solver):
    ts = np.array([0.0, 0.3, 1.1, 1.7])
    states = ll_solver.states_batch(ts, 0.4)
    assert states.t.tolist() == ts.tolist()
    assert np.all(states.x == 0.4)
    for t, xhat in zip(states.t, states.xhat):
        one = ll_solver.state(t, 0.4).xhat
        assert np.max(np.abs(xhat - one)) <= 2.0 * ll_solver.config.fp_tol


def test_convergence_error_names_failing_row_t(ll_tables):
    # the origin row is exact after one step; the second row is not
    solver = ghd.Solver(ll_tables, SolverConfig(max_iters=1))
    with pytest.raises(ConvergenceError, match=r"\(t=0\.37, x=2\.0\)"):
        solver.solve_batch(np.array([0.0, 0.37]), np.array([0.0, 2.0]))


_FIELDS = ("t", "x", "iters", "residual", "ratio", "xhat", "N", "n", "one_dr",
           "v_dr", "u", "rho_s", "rho_p", "v_eff")


def test_sweep_rows_in_input_order_match_chunked_batches(ll_solver):
    rng = np.random.default_rng(59)
    xs = rng.uniform(-4.0, 4.0, 150)
    states = ll_solver.sweep(0.7, xs)
    assert len(states) == xs.size
    assert np.array_equal(states.x, xs) and np.all(states.t == 0.7)
    whole = ll_solver.states_batch(0.7, xs)
    for name in _FIELDS:
        assert np.array_equal(getattr(states, name), getattr(whole, name)), name
    # the sorted points solved in chunks of 64 give the same fixed points at
    # the input positions: the start and the batch's composition change only
    # where each row stops within fp_tol, so they agree to 2 fp_tol
    tol = 2.0 * ll_solver.config.fp_tol
    order = np.argsort(xs)
    for lo in range(0, xs.size, 64):
        rows = order[lo:lo + 64]
        chunk = ll_solver.states_batch(0.7, xs[rows])
        assert np.array_equal(states.x[rows], chunk.x)
        assert np.max(np.abs(states.xhat[rows] - chunk.xhat)) <= tol


def test_derived_fields_are_their_expressions(ll_solver):
    states = ll_solver.states_batch(np.linspace(0.0, 1.5, 7), np.linspace(-2.0, 2.0, 7))
    assert np.array_equal(states.rho_s, states.one_dr / (2 * np.pi))
    assert np.array_equal(states.rho_p, states.n * (states.one_dr / (2 * np.pi)))
    assert np.array_equal(states.v_eff, states.v_dr / states.one_dr)
    assert np.array_equal(states.tn, np.max(states.n @ ll_solver.op.abs_TW.T, axis=1))
    row = states[3]
    for name in _FIELDS:
        assert np.array_equal(getattr(row, name), getattr(states, name)[3]), name


def _per_row_ratios(solver, ts, xs, max_iters):
    """The fixed-point loop with its ratio bookkeeping kept row by row."""
    m = xs.size
    f = np.broadcast_to(xs[:, None], (m, solver.op.count)).copy()
    active = np.ones(m, dtype=bool)
    prev_delta = np.full(m, np.nan)
    ratios = [[] for _ in range(m)]
    for _ in range(max_iters):
        f_new = solver.apply_G(ts[active], xs[active], f[active])
        delta = np.max(np.abs(f_new - f[active]), axis=1)
        f[active] = f_new
        idx = np.flatnonzero(active)
        for j, row in enumerate(idx):
            if np.isfinite(prev_delta[row]) and prev_delta[row] > 1e-12:
                ratios[row].append(float(delta[j] / prev_delta[row]))
            prev_delta[row] = delta[j]
        active[idx[delta * solver._post_factor <= solver.config.fp_tol]] = False
        if not active.any():
            break
    return [tuple(r) for r in ratios]


def test_ratio_history_matches_per_row_bookkeeping(ll_solver):
    rng = np.random.default_rng(53)
    ts = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 2.0, 10)])
    xs = np.concatenate([[0.0, 1e-9], rng.uniform(-4.0, 4.0, 10)])
    # both loops start at x
    _, iters, _, ratio = ll_solver.solve_batch(ts, xs, xs[:, None])
    assert len(set(iters.tolist())) > 2
    per_row = _per_row_ratios(ll_solver, ts, xs, ll_solver.config.max_iters)
    assert not per_row[0] and all(per_row[2:])
    assert ratio.tolist() == [max(r, default=0.0) for r in per_row]


def test_convergence_error_quotes_last_eight_ratios(ll_tables):
    solver = ghd.Solver(ll_tables, SolverConfig(fp_tol=1e-30, max_iters=14))
    ts, xs = np.array([0.6]), np.array([1.5])
    expect = [round(r, 4) for r in _per_row_ratios(solver, ts, xs, 14)[0][-8:]]
    assert len(expect) == 8
    with pytest.raises(ConvergenceError) as err:
        solver.solve_batch(ts, xs, xs[:, None])   # started at x, as expect is
    assert str(err.value).endswith(f"ratio history: {expect}")


def _full_size_solve_batch(solver, ts, xs, warm=None):
    """``solve_batch``'s loop as it was before it compacted the open rows:
    every iteration gathers and scatters the active rows of full-size
    arrays and keeps a full-size row of increments.  A cold row starts at
    the seed map x + T B(x - v t)."""
    m, N = xs.size, solver.op.count
    if warm is None:
        z = xs[:, None] - np.multiply.outer(ts, solver.op.v)
        f = xs[:, None] + solver.tab.height0_cols(z) @ solver.op.TW.T
    else:
        f = np.array(np.broadcast_to(warm, (m, N)), dtype=float)
    active = np.ones(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    resid = np.full(m, np.inf)
    deltas = []
    for k in range(1, solver.config.max_iters + 1):
        f_new = solver.apply_G(ts[active], xs[active], f[active])
        delta = np.max(np.abs(f_new - f[active]), axis=1)
        f[active] = f_new
        idx = np.flatnonzero(active)
        iters[idx] = k
        deltas.append(np.full(m, np.nan))
        deltas[-1][idx] = delta
        bound = delta * solver._post_factor
        done = bound <= solver.config.fp_tol
        resid[idx[done]] = bound[done]
        active[idx[done]] = False
        if not active.any():
            break
    d = np.array(deltas)
    keep = (np.isfinite(d[:-1]) & (d[:-1] > 1e-12)
            & (np.arange(1, d.shape[0])[:, None] < iters))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d[1:] / d[:-1]
    if active.any():
        worst = int(np.argmax(resid))
        history = ratio[keep[:, worst], worst][-8:].tolist()
        raise ConvergenceError(
            f"fixed point at (t={float(ts[worst])}, x={float(xs[worst])}) "
            f"missed tol {solver.config.fp_tol:g} after "
            f"{solver.config.max_iters} iterations; ratio history: "
            f"{[round(r, 4) for r in history]}")
    return f, iters, resid, np.max(ratio, axis=0, where=keep, initial=0.0)


def test_compacted_loop_is_bitwise_the_full_size_loop(ll_tables, ll_solver):
    rng = np.random.default_rng(61)
    # the t = 0 rows freeze after one iteration, the others at several
    ts = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 2.5, 40)])
    xs = np.concatenate([[0.0, 1e-9], rng.uniform(-5.0, 5.0, 40)])
    warm = xs[:, None] + rng.uniform(-0.5, 0.5, (xs.size, ll_solver.op.count))
    for start in (None, warm):
        new = ll_solver.solve_batch(ts, xs, start)
        old = _full_size_solve_batch(ll_solver, ts, xs, start)
        assert len(set(new[1].tolist())) > 3
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
    # a failure names the same row and ratios
    solver = ghd.Solver(ll_tables, SolverConfig(fp_tol=1e-14, max_iters=12))
    with pytest.raises(ConvergenceError) as new_err:
        solver.solve_batch(ts, xs)
    with pytest.raises(ConvergenceError) as old_err:
        _full_size_solve_batch(solver, ts, xs)
    assert str(new_err.value) == str(old_err.value)
    assert "ratio history: []" not in str(new_err.value)


def _property_solver(case, count, frac, seed):
    """(solver, scenario) for one fixed-point property case, with the seed's
    contraction rate at most frac of the kernel's admissible threshold."""
    rng = np.random.default_rng(seed)
    grid = ghd.build_momentum_grid(-rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0), count)
    if case == "sinh_gordon":
        kernel = ghd.sinh_gordon()
    elif case == "relativistic":
        velocity = ghd.relativistic_velocity(rng.uniform(0.3, 2.0))
        kernel = (ghd.lieb_liniger(rng.uniform(0.5, 2.0), velocity) if rng.random() < 0.5
                  else ghd.sinh_gordon(velocity))
    elif case == "mixed":
        axis = np.linspace(grid.nodes[0], grid.nodes[-1], 4)
        table = rng.uniform(0.2, 1.0, (4, 4)) * np.where(rng.random((4, 4)) < 0.5, -1, 1)
        table[0, 0], table[-1, -1] = 0.5, -0.5
        kernel = ghd.tabulated_kernel(axis, axis, table)
    else:
        kernel = ghd.lieb_liniger(rng.uniform(0.5, 2.0))
    op = ghd.KernelOperator(kernel, grid)
    assert (op.sign_class == SIGN_MIXED) == (case == "mixed")
    target = frac * sign_threshold(op.sign_class)
    p = grid.nodes
    if case == "tabulated_xy":
        # bilinear in x, so every x sits below the largest sampled row
        x_rows = np.linspace(-2.0, 2.0, 5)
        p_cols = np.linspace(p[0], p[-1], 4)
        values = rng.uniform(0.0, 1.0, (5, 4))
        envelope = np.max([np.interp(p, p_cols, row) for row in values], axis=0)
        scenario = ghd.tabulated_xy(x_rows, p_cols,
                                    values * target / op.operator_norm(envelope=envelope))
        spec = SpatialGridSpec(-3.0, 3.0, 301)
    else:
        # the bump's sup over x is at x = 0, a seed node
        sigma, gamma, p0 = rng.uniform(0.6, 1.4), rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5)
        envelope = np.exp(-gamma * (p - p0) ** 2)
        scenario = ghd.gaussian_bump(target / op.operator_norm(envelope=envelope),
                                     sigma, gamma, p0)
        spec = SpatialGridSpec(-9.6 * sigma, 9.6 * sigma, 385)
    return ghd.Solver(ghd.build_seed(scenario, op, spec)), scenario


@given(case=st.sampled_from(["sinh_gordon", "relativistic", "mixed", "tabulated_xy"]),
       count=st.integers(min_value=8, max_value=24),
       frac=st.floats(min_value=0.05, max_value=0.98),
       t=st.floats(min_value=0.05, max_value=1.5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fixed_point_properties(case, count, frac, t, seed):
    # mixed-sign kernels are pushed towards ||Tn|| = 1/2; one-signed ones stay
    # at rates where the 1e-8 recovery bound is meaningful
    frac = 0.9 + 0.08 * frac if case == "mixed" else 0.9 * frac
    solver, scenario = _property_solver(case, count, frac, seed)
    op = solver.op
    r_lo = solver.tab.bounds.r_value
    xs = np.linspace(-2.5, 2.5, 21)
    for time in (0.0, t):
        states = solver.states_batch(time, xs)
        for one_dr, tn in zip(states.one_dr, states.tn):
            # two-sided 1dr bounds at the slice's own ||Tn||
            assert np.all(one_dr >= compute_R(tn, op.sign_class) - 1e-9)
            assert np.all(one_dr <= 1.0 / (1.0 - tn) + 1e-9)
        if time == 0.0:
            recovery = np.max(np.abs(
                states.n - scenario.n0(states.x[:, None], op.grid.nodes[None, :])))
            assert recovery <= 1e-8, recovery
        # x -> Xhat increases with slope at least R
        assert np.all(np.diff(states.xhat, axis=0)
                      >= r_lo * np.diff(states.x)[:, None] - 1e-8)


# -- coarse-to-fine starts: one batch over a uniform sweep at three times ------

_SWEEP_TIMES = (0.0, 0.7, 2.0)


@pytest.fixture(scope="module")
def sweep_points():
    xs = np.linspace(-4.0, 4.0, 201)
    return np.repeat(_SWEEP_TIMES, xs.size), np.tile(xs, len(_SWEEP_TIMES))


@pytest.fixture(scope="module")
def sweep_states(ll_solver, sweep_points):
    return ll_solver.states_batch(*sweep_points)


def test_coarse_to_fine_rows_match_cold_one_row_states(ll_solver, sweep_states):
    tol = 2.0 * ll_solver.config.fp_tol
    for t, x, xhat in zip(sweep_states.t, sweep_states.x, sweep_states.xhat):
        assert np.max(np.abs(xhat - ll_solver.state(float(t), float(x)).xhat)) <= tol


def test_coarse_to_fine_shuffled_input_comes_back_in_input_order(
        ll_solver, sweep_points, sweep_states):
    perm = np.random.default_rng(67).permutation(sweep_states.x.size)
    ts, xs = (v[perm] for v in sweep_points)
    states = ll_solver.states_batch(ts, xs)
    assert np.array_equal(states.t, ts) and np.array_equal(states.x, xs)
    tol = 2.0 * ll_solver.config.fp_tol
    assert np.max(np.abs(states.xhat - sweep_states.xhat[perm])) <= tol


def test_coarse_to_fine_certificates(ll_solver, sweep_states):
    assert np.all(sweep_states.residual <= ll_solver.config.fp_tol)
    assert np.all(sweep_states.ratio <= ll_solver.rate + 0.01)
    sign = ll_solver.op.sign_class
    for one_dr, tn in zip(sweep_states.one_dr, sweep_states.tn):
        assert np.all(one_dr >= compute_R(tn, sign) - 1e-9)
        assert np.all(one_dr <= 1.0 / (1.0 - tn) + 1e-9)


def test_coarse_to_fine_saves_iterations(ll_solver, sweep_points, sweep_states):
    # a lost start (every row cold again) fails this
    _, cold, _, _ = ll_solver.solve_batch(*sweep_points)
    assert sweep_states.iters.sum() <= 0.7 * cold.sum()


def test_t0_rows_take_one_iteration_and_recover_n0(ll_solver, sweep_states):
    # every t = 0 point is level 0 and starts at the seed map, the fixed
    # point A(x) to round-off: its one increment is its certificate
    at0 = sweep_states.t == 0
    assert np.count_nonzero(at0) == 201
    assert np.all(sweep_states.iters[at0] == 1)
    n0 = ll_solver.tab.scenario.n0(sweep_states.x[at0, None], ll_solver.op.grid.nodes)
    assert np.max(np.abs(sweep_states.n[at0] - n0)) <= 1e-8
    home, _, level, _, _ = _levels(sweep_states.t, sweep_states.x)
    assert np.all(level[sweep_states.t[home] == 0] == 0)


def test_cold_start_at_t0_is_the_seed_map(ll_tables, monkeypatch):
    solver = ghd.Solver(ll_tables)
    starts = []
    apply_G = solver.apply_G
    monkeypatch.setattr(solver, "apply_G",
                        lambda t, x, f: starts.append(f.copy()) or apply_G(t, x, f))
    # inside the window [-9.6, 9.6] and on its linear extensions
    xs = np.linspace(-12.0, 12.0, 97)
    _, iters, _, _ = solver.solve_batch(0.0, xs)
    A = ll_tables.xhat0_cols(np.repeat(xs[:, None], solver.op.count, axis=1))
    assert np.max(np.abs(starts[0] - A)) <= 1e-12
    assert np.all(iters == 1)


def test_rows_of_small_groups_stay_cold(ll_solver, sweep_points):
    rng = np.random.default_rng(71)
    # twelve distinct times and a time of 16 points, then the sweep
    assert 16 < MIN_GROUP
    few = 12 + 16
    ts = np.concatenate((rng.uniform(0.1, 1.9, 12), np.full(16, 1.3), sweep_points[0]))
    xs = np.concatenate((rng.uniform(-4.0, 4.0, few), sweep_points[1]))
    states = ll_solver.states_batch(ts, xs)
    xhat, iters, _, _ = ll_solver.solve_batch(ts[:few], xs[:few])
    assert np.array_equal(states.iters[:few], iters)
    assert np.max(np.abs(states.xhat[:few] - xhat)) <= 2.0 * ll_solver.config.fp_tol
    # alone, they are one cold pass, bit for bit
    alone = ll_solver.states_batch(ts[:few], xs[:few])
    assert np.array_equal(alone.xhat, xhat) and np.array_equal(alone.iters, iters)


def test_equal_and_descending_points_are_safe(ll_solver):
    xs = np.linspace(3.0, -3.0, 41)     # descending, through -0.0 and 0.0
    xs[20] = -0.0
    ts = np.full(xs.size, 0.9)
    # every point twice, and 0.0 next to -0.0
    ts, xs = np.concatenate((ts, ts, [0.9])), np.concatenate((xs, xs, [0.0]))
    states = ll_solver.states_batch(ts, xs)
    assert np.array_equal(states.x, xs) and np.all(states.t == 0.9)
    assert np.all(states.residual <= ll_solver.config.fp_tol)
    for name in _FIELDS[2:]:
        value = getattr(states, name)
        assert np.array_equal(value[:41], value[41:82]), name
        assert np.array_equal(value[20], value[82]), name
    tol = 2.0 * ll_solver.config.fp_tol
    for i in (0, 17, 20, 40):
        assert np.max(np.abs(states.xhat[i] - ll_solver.state(0.9, xs[i]).xhat)) <= tol


def test_mixed_batch_of_lines_and_singletons(ll_solver):
    rng = np.random.default_rng(83)
    times = 1.0 + 0.9 * np.polynomial.legendre.leggauss(40)[0]
    xs_line = np.linspace(-3.0, 3.0, 41)
    # 60 points at two x and 40 distinct times, two lines of fixed t and ten
    # lone points, shuffled
    ts = np.concatenate((times, times[::2], np.full(41, 0.4), np.full(41, 1.7),
                         rng.uniform(0.1, 1.9, 10)))
    xs = np.concatenate((np.full(40, -1.5), np.full(20, 2.2), xs_line, xs_line,
                         rng.uniform(-4.0, 4.0, 10)))
    perm = rng.permutation(ts.size)
    ts, xs = ts[perm], xs[perm]
    states = ll_solver.states_batch(ts, xs)
    assert np.array_equal(states.t, ts) and np.array_equal(states.x, xs)
    assert np.all(states.residual <= ll_solver.config.fp_tol)
    tol = 2.0 * ll_solver.config.fp_tol
    for t, x, xhat in zip(ts, xs, states.xhat):
        assert np.max(np.abs(xhat - ll_solver.state(float(t), float(x)).xhat)) <= tol
    # the points of times with one or two points start cold, so they take a
    # cold solve's iterations
    line = (perm >= 60) & (perm < 60 + 2 * 41)
    _, iters, _, _ = ll_solver.solve_batch(ts[~line], xs[~line])
    assert np.array_equal(states.iters[~line], iters)
    # the lines of fixed t start warm: against rows started at x
    _, cold, _, _ = ll_solver.solve_batch(ts[line], xs[line], xs[line][:, None])
    assert states.iters[line].sum() <= 0.7 * cold.sum()


def test_blend_allocates_nothing_field_sized():
    from ghd.fixed_point import _blend
    rng = np.random.default_rng(75)
    values = rng.normal(size=(1000, 128))
    rows = rng.integers(0, 1000, 1000)
    out, work = np.empty_like(values), np.empty_like(values)
    terms = [(values, rows, 0.25), (values, rows[::-1], 0.75)]
    tracemalloc.start()
    try:
        blended = _blend(terms, out=out, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blended is out
    # take's default mode "raise" gathers through a temporary the size of out
    assert peak < out.nbytes / 4, (peak, out.nbytes)
    assert np.array_equal(out, 0.25 * values[rows] + 0.75 * values[rows[::-1]])
