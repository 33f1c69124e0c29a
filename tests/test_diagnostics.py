import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghd
from ghd.diagnostics import (ENTROPY_FUNCTIONS, boson_entropy,
                             check_assumptions, classical_entropy,
                             conservation_report, derivative_identity_check,
                             fermi_entropy, weak_form_edges, weak_form_residual,
                             weight_values, xlogx)
from ghd.errors import AssumptionError, NumericalError, SupportWindowError
from ghd.grid import gauss_legendre
from ghd.seed import SpatialGridSpec


def test_check_assumptions_pass(ll_op):
    sc = ghd.gaussian_bump(0.9, 1.0, 1.0)
    report = check_assumptions(sc, ll_op)
    assert report.verdict
    assert report.threshold_used == 1.0
    assert report.tn_norm < 1.0
    assert report.failed_clause is None
    assert report.tail_estimate < 1e-6


def test_check_assumptions_mixed_threshold():
    g = ghd.build_momentum_grid(-1, 1, 12)
    tab = ghd.tabulated_kernel([-1, 1], [-1, 1], [[0.6, -0.6], [-0.6, 0.6]])
    op = ghd.KernelOperator(tab, g)
    # row integral of |T| is 0.6; constant n = 1 gives tn_norm = 0.6 >= 1/2
    sc = ghd.Scenario(lambda x, p: np.broadcast_arrays(
        np.asarray(x, float) * 0 + 1.0, p)[0], 1.0, (-1, 1), "custom")
    report = check_assumptions(sc, op)
    assert report.threshold_used == 0.5
    assert not report.verdict
    assert "0.5" in report.failed_clause


def test_check_assumptions_trivial_zero(ll_op):
    report = check_assumptions(ghd.zero_scenario(), ll_op)
    assert report.verdict
    assert report.tn_norm == 0.0


def test_check_assumptions_negative_seed(ll_op):
    sc = ghd.Scenario(lambda x, p: np.broadcast_arrays(
        np.asarray(x, float) * 0 - 0.1, p)[0], 0.1, (-1, 1), "custom")
    report = check_assumptions(sc, ll_op)
    assert not report.verdict
    assert "nonnegativity" in report.failed_clause


@given(st.floats(min_value=0.05, max_value=1.0))
def test_verdict_monotone_under_scaling(ll_op, alpha):
    base = ghd.gaussian_bump(0.9, 1.0, 1.0)
    scaled = ghd.Scenario(lambda x, p: alpha * base.n0(x, p),
                          alpha * 0.9, base.x_support_hint, "custom")
    assert check_assumptions(scaled, ll_op).verdict


def test_report_round_trips_to_dict(ll_op):
    report = check_assumptions(ghd.gaussian_bump(0.5, 1.0, 1.0), ll_op)
    payload = report.to_dict()
    assert payload["verdict"] == "pass"
    assert set(payload) >= {"sign_class", "tn_norm", "threshold_used", "vn_sup"}


def _constant(value, declared):
    return ghd.Scenario(lambda x, p: np.broadcast_arrays(
        np.asarray(x, float) * 0 + value, p)[0], declared, (-1, 1), "custom")


def _mixed_op():
    # the interpolated rows integrate to sum_q w|T| ~ 0.3: a rate of ~0.6 at n = 2
    table = ghd.tabulated_kernel([-1, 1], [-1, 1], [[0.3, -0.3], [-0.3, 0.3]])
    return ghd.KernelOperator(table, ghd.build_momentum_grid(-1, 1, 8))


@pytest.mark.parametrize("case, clause", [
    ("negative", "nonnegativity"),
    ("above_declared", "declared bound"),
    ("nan", "finiteness"),
    ("rate_fixed_sign", "operator-norm bound ||T sup_x n0||_op < 1 "),
    ("rate_mixed_sign", "operator-norm bound ||T sup_x n0||_op < 0.5 "),
    ("partitioning", "nonnegativity"),
])
def test_check_and_build_seed_fail_the_same_clause(ll_op, case, clause):
    op = ll_op
    scenario = {
        "negative": lambda: _constant(-0.1, 0.1),
        "above_declared": lambda: _constant(0.5, 0.1),
        "nan": lambda: ghd.gaussian_bump(0.5, 0.8, float("nan")),
        "rate_fixed_sign": lambda: ghd.gaussian_bump(3.0, 1.0, 0.05),
        "rate_mixed_sign": lambda: _constant(2.0, 2.0),
        "partitioning": lambda: ghd.partitioning(
            lambda p: np.full_like(p, -0.1), ghd.constant_profile(0.2), 0.2),
    }[case]()
    if case == "rate_mixed_sign":
        op = _mixed_op()
    report = check_assumptions(scenario, op)
    assert not report.verdict and report.failed_clause.startswith(clause)
    with pytest.raises(AssumptionError) as raised:
        ghd.build_seed(scenario, op, SpatialGridSpec(-10, 10, 201))
    assert report.failed_clause in str(raised.value)
    assert f"contraction rate ||T sup_x n0||_op = {report.tn_norm:.6g}" in str(raised.value)


def test_conserved_charge_zero_scenario(zero_setup):
    op, _, _, _ = zero_setup
    tab = ghd.build_seed(ghd.zero_scenario(), op)
    series = conservation_report(ghd.Solver(tab), [0.0, 0.5], (-3.0, 3.0), 101,
                                 weights={"one": weight_values("one", op)})["Q[one]"]
    assert all(abs(v) <= 1e-14 for v in series.values)


def test_conserved_charge_free_gas(zero_setup):
    _, _, _, solver = zero_setup
    series = conservation_report(solver, [0.0, 0.4, 0.8], (-9.0, 9.0), 257,
                                 weights={"one": weight_values("one", solver.op)})["Q[one]"]
    assert series.relative_drift <= 1e-10


def test_conservation_lieb_liniger(ll_solver):
    rep = conservation_report(
        ll_solver, [0.0, 0.5, 1.0], (-14.0, 14.0), 301,
        weights={"one": weight_values("one", ll_solver.op),
                 "momentum": weight_values("momentum", ll_solver.op)},
        entropies={"fermi_entropy": fermi_entropy})
    for series in rep.values():
        v0 = abs(series.values[0])
        drift = max(abs(v - series.values[0]) for v in series.values)
        assert drift <= 1e-4 * max(v0, 1e-3)


def test_entropy_reproduces_charge(ll_solver):
    h = weight_values("momentum", ll_solver.op)
    charge = conservation_report(ll_solver, [0.0, 0.6], (-12.0, 12.0), 201,
                                 weights={"h": h})["Q[h]"]
    series = conservation_report(ll_solver, [0.0, 0.6], (-12.0, 12.0), 201,
                                 entropies={"g": lambda n, p: n * h[None, :]})["S[g]"]
    for a, b in zip(charge.values, series.values):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_entropy_functions_edge_values():
    assert fermi_entropy(np.array([0.0]))[0] == 0.0
    assert fermi_entropy(np.array([1.0]))[0] == 0.0
    assert classical_entropy(np.array([0.0]))[0] == 0.0
    assert boson_entropy(np.array([0.0]))[0] == 0.0
    n = np.array([0.3])
    expect = -0.3 * np.log(0.3) - 0.7 * np.log(0.7)
    assert abs(fermi_entropy(n)[0] - expect) <= 1e-15


def test_xlogx_matches_scipy_xlogy():
    special = pytest.importorskip("scipy.special")
    assert xlogx(np.array([0.0, -0.0, 1.0])).tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(xlogx(np.array([-1e-300, -0.5, -np.inf]))).all()
    rng = np.random.default_rng(5)
    n = np.concatenate([rng.uniform(0.0, 1.0, 20000), rng.uniform(1.0, 60.0, 20000),
                        [5e-324, 1e-310, 1e-300, 1.0 - 2 ** -53, 1.0 + 2 ** -52, 1e300]])
    ours, theirs = xlogx(n), special.xlogy(n, n)
    assert np.all(np.abs(ours - theirs) <= 4 * np.spacing(np.abs(theirs)))


def test_weight_registry(ll_op):
    np.testing.assert_allclose(weight_values("one", ll_op), 1.0)
    np.testing.assert_allclose(weight_values("momentum", ll_op), ll_op.grid.nodes)
    np.testing.assert_allclose(weight_values("energy:v", ll_op),
                               ll_op.grid.nodes ** 2 / 2)
    with pytest.raises(KeyError):
        weight_values("charge", ll_op)
    assert set(ENTROPY_FUNCTIONS) == {"fermi_entropy", "classical_entropy",
                                      "boson_entropy"}


def test_window_escape_detected(ll_solver):
    with pytest.raises(SupportWindowError, match="widen"):
        conservation_report(ll_solver, [0.0, 2.0], (-3.0, 3.0), 101,
                            weights={"one": weight_values("one", ll_solver.op)})


def _residual(solver, rect, p_index, edge_points):
    """``weak_form_residual`` of one rectangle with its own edges and rules."""
    edges, = weak_form_edges(solver, [rect], edge_points)
    rules = gauss_legendre([c for _, counts in edges for c in counts])
    return weak_form_residual(solver, rect, p_index, edges, rules)


def test_weak_residual_zero_scenario(zero_setup):
    op, _, _, _ = zero_setup
    tab = ghd.build_seed(ghd.zero_scenario(), op)
    res = _residual(ghd.Solver(tab), (-1.0, 1.0, 0.0, 0.5), 7, edge_points=16)
    assert res["residual"] == 0.0
    assert res["raw"] == 0.0


def test_weak_residual_free_gas(zero_setup):
    _, _, _, solver = zero_setup
    res = _residual(solver, (-0.8, 1.1, 0.1, 0.6), 25, edge_points=200)
    assert abs(res["residual"]) <= 1e-8


def test_weak_residual_partitioning(part_setup):
    _, _, _, solver = part_setup
    for rect, p_idx in (((-0.7, 0.8, 0.1, 0.9), 30), ((0.2, 1.2, 0.2, 1.1), 18)):
        res = _residual(solver, rect, p_idx, edge_points=160)
        assert abs(res["residual"]) <= 1e-4


_SIX_RECTANGLES = [(-0.7, 0.8, 0.1, 0.9), (1.2, 0.2, 1.1, 0.2), (-1.5, 0.1, 0.8, 1.0),
                   (-0.5, 0.6, -0.9, -0.1), (-0.4, 0.9, -0.3, 0.6), (0.0, 0.7, 0.0, 0.4)]


def _counting(solver):
    """A copy of solver whose solve_batch and states_batch calls are listed."""
    solver, calls = ghd.Solver(solver.tab), []
    for name in ("solve_batch", "states_batch"):
        method = getattr(solver, name)
        setattr(solver, name,
                lambda *a, _m=method, _n=name, **k: calls.append(_n) or _m(*a, **k))
    return solver, calls


@pytest.mark.parametrize("rect, p_idx", [((-0.7, 0.8, 0.1, 0.9), 30),
                                         ((1.2, 0.2, 1.1, 0.2), 18)])
def test_weak_residual_batches_per_rectangle(part_setup, rect, p_idx):
    # the contact slopes are found once, whatever the number of rectangles
    solver, calls = _counting(part_setup[3])
    edges, = weak_form_edges(solver, [rect])
    one = len(calls)
    solver, calls = _counting(part_setup[3])
    weak_form_edges(solver, _SIX_RECTANGLES)
    assert rect in _SIX_RECTANGLES and len(calls) == one
    assert set(calls) == {"solve_batch"}
    # and each residual is one state batch
    solver, calls = _counting(part_setup[3])
    rules = gauss_legendre([c for _, counts in edges for c in counts])
    res = weak_form_residual(solver, rect, p_idx, edges, rules)
    assert abs(res["residual"]) <= 1e-4
    assert calls.count("states_batch") == 1


def test_weak_residual_antisymmetric_in_time(part_setup):
    _, _, _, solver = part_setup
    rect = (-0.6, 0.7, 0.15, 0.85)
    fwd = _residual(solver, rect, 28, edge_points=96)
    rev = _residual(solver, (rect[0], rect[1], rect[3], rect[2]), 28, edge_points=96)
    assert abs(fwd["raw"] + rev["raw"]) <= 1e-12 * max(1.0, fwd["scale"])


# -- Gauss-Legendre rules: every count in one build -----------------------------

_COUNTS = range(1, 201)


@pytest.fixture(scope="module")
def rules():
    # shuffled, with repeats: the build sorts and dedupes
    counts = list(_COUNTS) + [7, 160, 1]
    np.random.default_rng(89).shuffle(counts)
    return gauss_legendre(counts)


def test_gauss_legendre_counts_and_center(rules):
    assert sorted(rules) == list(_COUNTS)
    for count, (nodes, weights) in rules.items():
        assert nodes.shape == weights.shape == (count,)
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        assert -1.0 < nodes[0] and nodes[-1] < 1.0
        if count % 2:
            assert nodes[count // 2] == 0.0


def test_gauss_legendre_symmetric_weights_sum_to_two(rules):
    for count, (nodes, weights) in rules.items():
        assert np.array_equal(nodes[::-1], -nodes)
        assert np.array_equal(weights[::-1], weights)
        assert abs(weights.sum() - 2.0) <= 4e-15, count


def test_gauss_legendre_exact_to_degree_2n_minus_1(rules):
    for count, (nodes, weights) in rules.items():
        degree = np.arange(2 * count)
        exact = np.where(degree % 2 == 0, 2.0 / (degree + 1.0), 0.0)
        got = np.power.outer(nodes, degree).T @ weights
        assert np.max(np.abs(got - exact)) <= 5e-15, count


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double here")
def test_gauss_legendre_matches_long_double_newton(rules):
    for count, (nodes, weights) in rules.items():
        x = nodes.astype(np.longdouble)
        for _ in range(3):
            # Newton in x on P_n, from the nodes under test
            p_prev, p = np.ones_like(x), x.copy()
            for j in range(2, count + 1):
                p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            slope = count * (p_prev - x * p) / (1 - x * x)     # P_n'(x)
            x = x - p / slope
        assert np.max(np.abs(nodes - x)) <= 1e-12, count
        assert np.max(np.abs(weights - 2 / ((1 - x * x) * slope ** 2))) <= 1e-12, count


def test_edge_integrals_match_leggauss_rules(part_setup):
    # numpy's eigenvalue-based rules are the oracle here only
    solver = part_setup[3]
    rect = (-0.7, 0.8, 0.1, 0.9)
    edges, = weak_form_edges(solver, [rect])
    counts = {c for _, piece_counts in edges for c in piece_counts}
    oracle = {c: np.polynomial.legendre.leggauss(c) for c in counts}
    got = weak_form_residual(solver, rect, 30, edges, gauss_legendre(counts))
    want = weak_form_residual(solver, rect, 30, edges, oracle)
    assert len(counts) > 1
    for key, value in want["edges"].items():
        assert abs(got["edges"][key] - value) <= 1e-13 * want["scale"], key


@pytest.fixture(scope="module")
def free_partitioning():
    """Zero kernel on partitioning data: Xhat = x exactly, so the contact of
    mode q is the line x = v_q t."""
    grid = ghd.build_momentum_grid(-4.0, 4.0, 40)
    op = ghd.KernelOperator(ghd.zero_kernel(), grid)
    sc = ghd.partitioning(ghd.gaussian_profile(0.4, 1.0),
                          ghd.constant_profile(0.1))
    return ghd.Solver(ghd.build_seed(sc, op))


def _cuts(solver, rects):
    """The interior cut points of each rectangle's four edges, in the order
    of ``weak_form_edges``, each sorted."""
    return [[np.sort(pts[1:-1]) for pts, _ in edges]
            for edges in weak_form_edges(solver, rects)]


@pytest.mark.parametrize("t, x_lo, x_hi", [
    (0.6, -1.3, 0.9), (1.7, 0.4, 5.2), (0.25, -3.0, -0.1)])
def test_x_edge_crossings_free_oracle(free_partitioning, t, x_lo, x_hi):
    v = free_partitioning.op.v
    want = np.sort([c for c in v * t if x_lo < c < x_hi])
    # the x-edge at t2 = t
    got = _cuts(free_partitioning, [(x_lo, x_hi, 0.0, t)])[0][0]
    assert want.size >= 3 and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, abs(x_lo), abs(x_hi))


@pytest.mark.parametrize("x, t1, t2", [
    (0.7, 0.2, 1.5),     # p > 0 modes: psi_q falls, brackets go + -> -
    (-0.5, 0.1, 1.3),    # p < 0 modes: psi_q rises, brackets go - -> +
    (0.9, 1.6, 0.3)])    # reversed edge
def test_t_edge_crossings_free_oracle(free_partitioning, x, t1, t2):
    v = free_partitioning.op.v
    lo, hi = min(t1, t2), max(t1, t2)
    want = np.sort([x / p for p in v if p != 0 and lo < x / p < hi])
    # the t-edge at x2 = x
    got = _cuts(free_partitioning, [(0.0, x, t1, t2)])[0][2]
    assert want.size >= 3 and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-11


def test_edge_crossings_of_all_edges_in_one_batch(free_partitioning):
    # the three x-edges and three t-edges above, from one call
    x_edges = [(0.6, -1.3, 0.9), (1.7, 0.4, 5.2), (0.25, -3.0, -0.1)]
    t_edges = [(0.7, 0.2, 1.5), (-0.5, 0.1, 1.3), (0.9, 1.6, 0.3)]
    v = free_partitioning.op.v
    got = _cuts(free_partitioning, [(x_lo, x_hi, 0.0, t) for t, x_lo, x_hi in x_edges]
                + [(0.0, x, t1, t2) for x, t1, t2 in t_edges])
    for (t, x_lo, x_hi), cuts in zip(x_edges, got[:3]):
        want = np.sort([c for c in v * t if x_lo < c < x_hi])
        assert cuts[0].shape == want.shape
        assert np.max(np.abs(cuts[0] - want)) <= 1e-11 * max(1.0, abs(x_lo), abs(x_hi))
    for (x, t1, t2), cuts in zip(t_edges, got[3:]):
        lo, hi = min(t1, t2), max(t1, t2)
        want = np.sort([x / p for p in v if p != 0 and lo < x / p < hi])
        assert cuts[2].shape == want.shape
        assert np.max(np.abs(cuts[2] - want)) <= 1e-11


def test_edge_crossings_interacting_partitioning(part_setup):
    """Cuts on the Lieb-Liniger partitioning solution, checked against psi_q =
    Xhat(t, x, q) - v_q t solved at the cuts and along a dense scan of each
    edge: edges at t < 0, across t = 0, and through the origin."""
    _, _, tab, solver = part_setup
    fp_tol, upper, R = solver.config.fp_tol, tab.bounds.upper, tab.bounds.r_value
    rects = [(-0.9, 0.7, -0.8, -0.15), (0.0, 0.9, -0.4, 0.5),
             (-0.6, 0.8, 0.0, 0.6), (0.3, -0.7, 0.45, -0.35)]
    got = _cuts(solver, rects)
    v = solver.op.v

    def psi(ts, xs):
        xhat, _, _, _ = solver.solve_batch(ts, xs)
        return xhat - np.multiply.outer(np.broadcast_to(ts, np.shape(xs)), v)

    scan = np.linspace(0.0, 1.0, 801)
    for (x1, x2, t1, t2), cuts in zip(rects, got):
        edges = [(t2, x1, x2, True), (t1, x1, x2, True),
                 (x2, t1, t2, False), (x1, t1, t2, False)]
        for (fixed, a, b, along_x), edge_cuts in zip(edges, cuts):
            along = a + (b - a) * scan
            ts, xs = ((np.full(scan.size, fixed), along) if along_x
                      else (along, np.full(scan.size, fixed)))
            p = psi(ts, xs)
            changes = (p[:-1] * p[1:] < 0).sum(axis=0)
            if fixed == 0 and min(a, b) < 0 < max(a, b):
                # every contact passes through the origin: one cut, at 0
                assert np.all(changes == 1)
                assert edge_cuts.tolist() == [0.0]
                continue
            assert edge_cuts.size == changes.sum() > 0
            # a slope is within tol/2 of a sign change of psi at t = +-1, tol
            # 1e-12 max(1, bracket) with the bracket at most about
            # (upper |xi| + 3 fp_tol)/R wide; psi rises at most upper per
            # unit x, scales with |t|, and each solve of it carries fp_tol
            t_cut = np.full(edge_cuts.size, fixed) if along_x else edge_cuts
            x_cut = edge_cuts if along_x else np.full(edge_cuts.size, fixed)
            xi = np.abs(x_cut / t_cut)
            tol = 1e-12 * np.maximum(1.0, (upper * xi + 3 * fp_tol) / R * (1 + 1e-6))
            bound = np.abs(t_cut) * (fp_tol + 0.5 * upper * tol) + fp_tol
            assert np.all(np.min(np.abs(psi(t_cut, x_cut)), axis=1) <= bound)


def test_contact_slope_outside_bi_lipschitz_bracket_raises(part_setup):
    # an R far above the true min of 1dr puts the far end short of the root
    tab = part_setup[2]
    solver = ghd.Solver(dataclasses.replace(
        tab, bounds=dataclasses.replace(tab.bounds, r_value=50.0)))
    with pytest.raises(NumericalError, match="bi-Lipschitz bound 1dr >= R = 50"):
        weak_form_edges(solver, [(-0.7, 0.8, 0.1, 0.9)])


def test_derivative_identities_smooth(ll_op, ll_bump):
    tab = ghd.build_seed(ll_bump, ll_op, SpatialGridSpec(-9.6, 9.6, 2400))
    solver = ghd.Solver(tab, ghd.SolverConfig(fp_tol=1e-12))
    errs = derivative_identity_check(solver, 0.4, 0.7, h=1e-4)
    assert max(errs.values()) <= 1e-5
