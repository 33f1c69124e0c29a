from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import ghd
import ghd.seed as seed_mod
from ghd import config as config_mod
from ghd.dressing import dress_batched
from ghd.errors import AssumptionError, ConfigError
from ghd.kernel import SIGN_MIXED
from ghd.seed import (HERMITE, INV_TOL, LINEAR, SeedTables, SpatialGridSpec,
                      build_seed, default_spatial_spec)


# the Hermite basis, the reference for seed's monomial cell cubics

def _hermite(y0, y1, d0, d1, h, s):
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * d1)


def _hermite_slope(y0, y1, d0, d1, h, s):
    """d/dx of the cell cubic at parameter s."""
    s2 = s * s
    return ((6 * s2 - 6 * s) * (y0 - y1) / h + (3 * s2 - 4 * s + 1) * d0
            + (3 * s2 - 2 * s) * d1)


def _hermite_min_slope(y0, y1, d0, d1, h):
    """Minimum of the Hermite slope over each cell: the ends, or the vertex of
    the slope quadratic in the basis form."""
    delta = (y1 - y0) / h
    a = 3.0 * (d0 + d1) - 6.0 * delta
    b = 6.0 * delta - 4.0 * d0 - 2.0 * d1
    ends = np.minimum(d0, d1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = np.where(np.abs(a) > 0, -b / (2.0 * a), -1.0)
        vertex = d0 + b * s_star + a * s_star * s_star
    interior = (s_star > 0) & (s_star < 1)
    return np.where(interior, np.minimum(ends, vertex), ends)


def test_zero_scenario_tables(zero_setup):
    op, bump, _, _ = zero_setup
    tab = build_seed(ghd.zero_scenario(), op, SpatialGridSpec(-3, 3, 301))
    xs = np.linspace(-2.5, 2.5, 11)
    cols = np.broadcast_to(xs[:, None], (xs.size, op.count))
    assert np.max(np.abs(tab.xhat0_cols(cols) - xs[:, None])) <= 1e-12
    assert np.max(np.abs(tab.B)) == 0.0
    assert tab.invert(np.full((1, op.count), 1.3))[1][0, 2] == 0.0
    assert abs(tab.invert(np.full((1, op.count), 0.7))[0][0, 4] - 0.7) <= 1e-12


def test_origin_anchoring(ll_tables):
    i0 = int(np.argmin(np.abs(ll_tables.x_nodes)))
    assert ll_tables.x_nodes[i0] == 0.0
    assert np.all(ll_tables.A[i0] == 0.0)
    assert np.all(ll_tables.B[i0] == 0.0)


def test_uniform_hard_rods_closed_forms(uniform_hr_setup):
    op, sc, tab, _ = uniform_hr_setup
    # A(x,p) = x/1.12, B = 0.2 x / 1.12, X0 = 1.12 xhat, N0hat = 0.2 xhat
    N = op.count
    assert abs(tab.xhat0_cols(np.full(N, 1.7))[3] - 1.7 / 1.12) <= 1e-10
    assert abs(tab.invert(np.full((1, N), 1.0))[0][0, 5] - 1.12) <= 1e-10
    assert abs(tab.invert(np.full((1, N), 2.0))[1][0, 7] - 0.4) <= 1e-10
    assert abs(tab.invert(np.full((1, N), -2.0))[1][0, 7] + 0.4) <= 1e-10


def test_seed_slope_bounds(ll_tables):
    bounds = ll_tables.bounds
    assert np.all(ll_tables.dA >= bounds.r_value - 1e-9)
    assert np.all(ll_tables.dA <= bounds.upper + 1e-9)


def test_difference_quotients_of_A(ll_tables):
    rng = np.random.default_rng(17)
    bounds = ll_tables.bounds
    for _ in range(20):
        x1, x2 = np.sort(rng.uniform(-8.0, 8.0, size=2))
        if x2 - x1 < 1e-3:
            continue
        N = ll_tables.op.count
        q = (ll_tables.xhat0_cols(np.full(N, x2))
             - ll_tables.xhat0_cols(np.full(N, x1))) / (x2 - x1)
        assert np.all(q >= bounds.r_value - 1e-6)
        assert np.all(q <= bounds.upper + 1e-6)


def test_round_trip_inverse(ll_tables):
    rng = np.random.default_rng(23)
    z = rng.uniform(-7.0, 7.0, size=(10_000 // ll_tables.op.count + 1,
                                     ll_tables.op.count))
    x, _ = ll_tables.invert(z)
    back = ll_tables.xhat0_cols(x)
    assert np.max(np.abs(back - z)) <= 1e-9


def test_invert_finishes_stalled_newton_by_bisection():
    # one steep monotone cell (1dr ratio 6.9 across it): one Newton step from
    # the inverse-Hermite start leaves a residual of 3.2e-3, far above the
    # rounding floor, so the entry must be finished by bisection
    x_nodes = np.array([0.0, 1.0])
    A = np.array([[0.0], [0.5367]])
    dA = np.array([[0.3037], [2.1047]])
    assert _hermite_min_slope(A[:-1], A[1:], dA[:-1], dA[1:], 1.0).min() > 0
    tab = SeedTables(None, None, x_nodes, A, dA, 2.0 * A, 2.0 * dA, HERMITE,
                     None, 0.0, 0.0, 0.0, None, 0.0)
    zhat = _hermite(0.0, 0.5367, 0.3037, 2.1047, 1.0, 0.373)
    x, height = tab.invert(np.array([[zhat]]))
    assert abs(tab.xhat0_cols(x)[0, 0] - zhat) <= INV_TOL
    assert abs(x[0, 0] - 0.373) <= 1e-9
    assert abs(height[0, 0] - 2.0 * zhat) <= 2.0 * INV_TOL


def test_n0hat_difference_quotients(ll_tables):
    rng = np.random.default_rng(29)
    sup = ll_tables.sup_n0
    z1 = rng.uniform(-7.0, 7.0, size=(50, ll_tables.op.count))
    z2 = z1 + rng.uniform(0.01, 2.0, size=z1.shape)
    h1 = ll_tables.invert(z1)[1]
    h2 = ll_tables.invert(z2)[1]
    q = (h2 - h1) / (z2 - z1)
    assert np.all(q >= -1e-12)
    assert np.all(q <= sup + 1e-6)


def test_n0hat_linear_bound(ll_tables):
    rng = np.random.default_rng(31)
    z = rng.uniform(-8.0, 8.0, size=(40, ll_tables.op.count))
    h = ll_tables.invert(z)[1]
    assert np.all(np.abs(h) <= np.abs(z) * ll_tables.sup_n0 + 1e-9)


def test_refinement_order(ll_op, ll_bump):
    # refining the x grid by 2x changes the tables at second order or better
    probe = np.linspace(-5.0, 5.0, 41)
    vals = {}
    for count in (200, 400, 800):
        tab = build_seed(ll_bump, ll_op, SpatialGridSpec(-9.6, 9.6, count))
        vals[count] = tab.xhat0_cols(
            np.broadcast_to(probe[:, None], (probe.size, ll_op.count)))
    d1 = np.max(np.abs(vals[200] - vals[800]))
    d2 = np.max(np.abs(vals[400] - vals[800]))
    assert d2 <= d1 / 3.5
    dx = 19.2 / 200
    assert d1 <= 10.0 * dx ** 2


def test_partitioning_exact_tables(part_setup):
    op, sc, tab, _ = part_setup
    assert tab.mode == "linear"
    assert tab.x_nodes.size == 3
    n_sides = np.vstack([sc.params["n_left"](op.grid.nodes),
                         sc.params["n_right"](op.grid.nodes)])
    one_left, one_right = dress_batched(op, n_sides, np.ones(op.count))[0]
    for x in (-1.7, -0.2, 0.4, 2.3):
        expect = x * (one_left if x < 0 else one_right)
        assert np.max(np.abs(tab.xhat0_cols(np.full(op.count, x)) - expect)) <= 1e-12


def test_partitioning_envelope_and_rate(part_setup):
    op, sc, tab, _ = part_setup
    n_l = sc.params["n_left"](op.grid.nodes)
    n_r = sc.params["n_right"](op.grid.nodes)
    np.testing.assert_allclose(tab.envelope, np.maximum(n_l, n_r))
    assert tab.rate < 1.0


def test_declared_bound_enforced(ll_op):
    sc = ghd.Scenario(lambda x, p: np.broadcast_arrays(
        np.asarray(x, float) * 0 + 0.5, p)[0], 0.1, (-2, 2), "custom")
    with pytest.raises(AssumptionError, match="declared"):
        build_seed(sc, ll_op, SpatialGridSpec(-3, 3, 101))


def test_inadmissible_rate_rejected(ll_op):
    big = ghd.gaussian_bump(3.0, 1.0, 0.05)
    with pytest.raises(AssumptionError, match="contraction rate"):
        build_seed(big, ll_op, SpatialGridSpec(-10, 10, 201))


@pytest.mark.parametrize("sigma, gamma, p0, name", [
    (np.inf, 1.0, 0.0, "sigma"), (0.8, np.inf, 0.0, "gamma"),
    (0.8, 1.0, np.inf, "p0"), (0.8, 1.0, -np.inf, "p0"),
])
def test_gaussian_bump_rejects_infinite_parameters(sigma, gamma, p0, name):
    # a config never gets here, its validation names the key first; an
    # infinite sigma gives an infinite seed window, an infinite gamma or p0
    # a silent vacuum
    with pytest.raises(ConfigError, match=f"gaussian_bump {name}: -?inf is not a finite"):
        ghd.gaussian_bump(0.5, sigma, gamma, p0)


def test_mixed_sign_tighter_threshold():
    g = ghd.build_momentum_grid(-1, 1, 8)
    tab = ghd.tabulated_kernel([-1, 1], [-1, 1], [[0.3, -0.3], [-0.3, 0.3]])
    op = ghd.KernelOperator(tab, g)
    assert op.sign_class == SIGN_MIXED

    def constant(value):
        return ghd.Scenario(lambda x, p: np.broadcast_arrays(
            np.asarray(x, float) * 0 + value, p)[0], value, (-1, 1), "custom")

    # the interpolated rows integrate to sum_q w|T| ~ 0.3, so the rate is ~0.3 n:
    # below 1, yet not below the mixed-sign 1/2
    with pytest.raises(AssumptionError, match=r"\|\|_op < 0\.5 for a mixed kernel"):
        build_seed(constant(2.0), op, SpatialGridSpec(-2, 2, 41))
    assert build_seed(constant(1.2), op, SpatialGridSpec(-2, 2, 41)).rate < 0.5


def test_default_spatial_spec_includes_origin(ll_bump, ll_op):
    spec = default_spatial_spec(ll_bump)
    assert spec.x_min < 0 < spec.x_max
    tab = build_seed(ll_bump, ll_op, SpatialGridSpec(spec.x_min, spec.x_max, 301))
    assert np.any(tab.x_nodes == 0.0)


def test_tabulated_xy_scenario(tmp_path):
    path = tmp_path / "scenario.csv"
    path.write_text("xp,-1.0,0.0,1.0\n"
                    "-2.0,0.0,0.1,0.0\n"
                    "0.0,0.1,0.4,0.1\n"
                    "2.0,0.0,0.1,0.0\n")
    from ghd.seed import load_tabulated_xy_csv
    sc = load_tabulated_xy_csv(path)
    assert sc.declared_sup_n == 0.4
    assert sc.n0(0.0, 0.0) == 0.4
    # beyond the x range the profile continues constant
    assert sc.n0(5.0, 0.0) == sc.n0(2.0, 0.0)


@given(st.floats(min_value=-7, max_value=7))
def test_forward_inverse_consistency_single_column(ll_tables, xhat):
    p_index = 11
    N = ll_tables.op.count
    x = ll_tables.invert(np.full((1, N), xhat))[0][0, p_index]
    assert abs(ll_tables.xhat0_cols(np.full(N, x))[p_index] - xhat) <= 1e-9


def test_out_of_range_queries_never_bisect_an_empty_selection(ll_tables, monkeypatch):
    sizes = []
    bisect = seed_mod._bisect_cells

    def recording(*args):
        sizes.append(args[-1].size)
        return bisect(*args)

    monkeypatch.setattr(seed_mod, "_bisect_cells", recording)
    N = ll_tables.op.count
    z = np.vstack([np.full(N, ll_tables.A[-1].max() + 3.0),
                   np.full(N, ll_tables.A[0].min() - 3.0),
                   np.linspace(-5.0, 5.0, N)])
    x, _ = ll_tables.invert(z)
    assert 0 not in sizes
    assert np.max(np.abs(ll_tables.xhat0_cols(x) - z)) <= 1e-9


def _hand_table(A, mode=LINEAR):
    """Tables with columns A on the nodes 0..nx-1, B = A, secant slopes."""
    nx = A.shape[0]
    dA = np.vstack([A[1] - A[0], 0.5 * (A[2:] - A[:-2]), A[-1] - A[-2]]) \
        if nx > 2 else np.vstack([A[1] - A[0]] * 2)
    return SeedTables(None, None, np.arange(nx, dtype=float), A, dA, A.copy(),
                      dA.copy(), mode, None, 0.0, 0.0, 0.0, None, 0.0)


_WIDTHS = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 1.0), st.floats(1.0, 1e3))


@given(st.data())
def test_guide_cells_match_searchsorted(data):
    nx = data.draw(st.integers(2, 30))
    N = data.draw(st.integers(1, 4))
    widths = np.array(data.draw(st.lists(_WIDTHS, min_size=(nx - 1) * N,
                                         max_size=(nx - 1) * N))).reshape(nx - 1, N)
    origin = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N)))
    A = origin + np.vstack([np.zeros(N), np.cumsum(widths, axis=0)])
    tab = _hand_table(A)
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["node", "inside", "outside"]))
        row = []
        for j in range(N):
            lo, hi = A[0, j], A[-1, j]
            if kind == "node":
                row.append(A[data.draw(st.integers(0, nx - 1)), j])
            elif kind == "inside":
                row.append(data.draw(st.floats(lo, hi)))
            else:
                span = hi - lo
                row.append(data.draw(st.one_of(st.floats(lo - span - 1.0, lo),
                                               st.floats(hi, hi + span + 1.0))))
        rows.append(row)
    z = np.array(rows)
    expect = np.column_stack([np.searchsorted(A[:, j], z[:, j], "right")
                              for j in range(N)]) - 1
    np.testing.assert_array_equal(tab._cells(z), np.clip(expect, 0, nx - 2))

    # non-finite queries: NaN stays NaN, +-inf runs off along the extension
    with np.errstate(invalid="ignore"):
        x, height = tab.invert(np.array([[np.nan] * N, [np.inf] * N, [-np.inf] * N]))
    assert np.all(np.isnan(x[0])) and np.all(np.isnan(height[0]))
    assert np.all(x[1] == np.inf) and np.all(height[1] == np.inf)
    assert np.all(x[2] == -np.inf) and np.all(height[2] == -np.inf)


def test_non_finite_queries_on_hermite_tables(ll_tables):
    N = ll_tables.op.count
    with np.errstate(invalid="ignore"):
        x, height = ll_tables.invert(np.array([[np.nan] * N, [np.inf] * N,
                                               [-np.inf] * N]))
    assert np.all(np.isnan(x[0])) and np.all(np.isnan(height[0]))
    assert np.all(x[1] == np.inf) and np.all(height[1] == np.inf)
    assert np.all(x[2] == -np.inf) and np.all(height[2] == -np.inf)


def _linear_inverse(tab, z):
    """The cell-search LINEAR inverse, with the linear extensions."""
    A, B, dA, dB, xn = tab.A, tab.B, tab.dA, tab.dB, tab.x_nodes
    j = np.arange(z.shape[1])
    c = np.clip(np.column_stack([np.searchsorted(A[:, k], z[:, k], "right")
                                 for k in j]) - 1, 0, xn.size - 2)
    a0, a1, b0, b1 = A[c, j], A[c + 1, j], B[c, j], B[c + 1, j]
    s = (z - a0) / (a1 - a0)
    x = xn[c] + s * (xn[c + 1] - xn[c])
    height = b0 + s * (b1 - b0)
    for end, out in ((0, z < A[0]), (-1, z > A[-1])):
        x = np.where(out, xn[end] + (z - A[end]) / dA[end], x)
        height = np.where(out, B[end] + (z - A[end]) * (dB[end] / dA[end]), height)
    return x, height


@pytest.mark.parametrize("amplitudes", [(0.45, 0.12), (0.3, 0.0), (0.05, 0.4)])
def test_two_slope_inverse_matches_linear_formula(ll_op, amplitudes):
    sc = ghd.partitioning(*(ghd.gaussian_profile(a, 1.0) for a in amplitudes))
    tab = build_seed(sc, ll_op)
    assert tab._sides is not None
    rng = np.random.default_rng(41)
    z = rng.uniform(-5.0, 5.0, size=(2000, ll_op.count))
    z[:200] *= 1e-6
    z[0] = 0.0
    x, height = tab.invert(z)
    x_ref, h_ref = _linear_inverse(tab, z)
    # ulps of the larger of the value and the table end on the query's side
    side = np.where(z < 0, 0, 2)
    x_scale = np.maximum(np.abs(x_ref), np.abs(tab.x_nodes[side]))
    h_scale = np.maximum(np.abs(h_ref), np.abs(np.take_along_axis(tab.B, side, 0)))
    assert np.all(np.abs(x - x_ref) <= 2 * np.spacing(x_scale))
    assert np.all(np.abs(height - h_ref) <= 2 * np.spacing(h_scale))
    assert np.max(np.abs(tab.xhat0_cols(x) - z)) <= 1e-14


def test_tables_off_two_lines_keep_the_cell_inverse(ll_op, ll_bump):
    tab = _hand_table(build_seed(ll_bump, ll_op, SpatialGridSpec(-9.6, 9.6, 5)).A)
    assert tab.mode == LINEAR and tab._sides is None
    A = np.array([[-2.0], [0.0], [3.0]])
    bent = SeedTables(None, None, np.array([-1.0, 0.0, 1.0]), A,
                      np.array([[2.0], [3.0], [3.5]]), A, np.array([[2.0], [3.0], [3.5]]),
                      LINEAR, None, 0.0, 0.0, 0.0, None, 0.0)
    assert bent._sides is None
    x, _ = bent.invert(np.array([[4.0]]))
    assert x[0, 0] == 1.0 + 1.0 / 3.5


def _recording_bisect(mp):
    """Patch seed._bisect_cells to record the (a0, zhat) of every entry it
    finishes; returns the list of recorded pairs."""
    seen = []
    bisect = seed_mod._bisect_cells

    def recording(*args):
        seen.extend(zip(args[0].tolist(), args[-1].tolist()))
        return bisect(*args)

    mp.setattr(seed_mod, "_bisect_cells", recording)
    return seen


@given(st.data())
def test_newton_inverse_reaches_the_floor_or_bisects(data):
    # random monotone Hermite cells, one per column: widths 2^-10 to 1 (powers
    # of two, so x / h recovers invert's cell parameter exactly), node and
    # mid-cell slopes anywhere in the bi-Lipschitz range [1 - r, 1/(1 - r)],
    # ratios up to 16, and A's cell integral by Simpson as in build_seed
    N = data.draw(st.integers(1, 6))
    h = 2.0 ** -data.draw(st.integers(0, 10))
    r = data.draw(st.floats(0.0, 0.75))
    lo, hi = 1.0 - r, 1.0 / (1.0 - r)
    d0, dm, d1 = (lo + (hi - lo) * np.array(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N))) for _ in range(3))
    delta = (d0 + 4.0 * dm + d1) / 6.0
    # cells within 16 of the origin: there A is a few cells wide, so rounding
    # leaves the root itself defined far below 1e-12 h
    a0 = np.array(data.draw(st.lists(st.integers(-16, 16), min_size=N,
                                     max_size=N))) * h * delta
    a1 = a0 + h * delta
    assume(np.all(_hermite_min_slope(a0, a1, d0, d1, h) > 0))
    s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=N, max_size=4 * N)))
    s = np.resize(s, (-(-s.size // N), N))
    z = np.clip(_hermite(a0, a1, d0, d1, h, s), a0, a1)
    A, dA = np.vstack([a0, a1]), np.vstack([d0, d1])
    tab = SeedTables(None, None, np.array([0.0, h]), A, dA, 2.0 * A, 2.0 * dA,
                     HERMITE, None, 0.0, 0.0, 0.0, None, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        bisected = _recording_bisect(mp)
        x, _ = tab.invert(z)
    a0, a1, d0, d1, z = np.broadcast_arrays(a0, a1, d0, d1, z)
    c = seed_mod._cell_cubic(HERMITE, a0, a1, d0, d1, h)
    resid = np.abs(seed_mod._horner(a0, c, x / h) - z)
    bisected = set(bisected)
    finished = np.array([(a, q) in bisected for a, q in zip(a0.flat, z.flat)])
    assert np.all((resid <= seed_mod._rounding_floor(a0, a1)).ravel() | finished)
    root = seed_mod._bisect_cells(a0, c, z) * h
    assert np.max(np.abs(x - root)) <= 1e-12 * h


@given(st.data())
def test_cell_min_slope_is_exact(data):
    # one cell, monotone or not (chords and parabolic slopes included): the
    # certificate that picks HERMITE or LINEAR in build_seed, taken on the
    # monomial cubic (ends c1 and c1 + 2 c2 + 3 c3, vertex c1 - c2^2/(3 c3)),
    # is the basis-form minimum to round-off, and never above a dense sample
    h = data.draw(st.floats(1e-3, 10.0))
    y0 = data.draw(st.floats(-100.0, 100.0))
    delta = data.draw(st.floats(-2.0, 2.0))
    d0, d1 = (data.draw(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([delta, 0.0])))
              for _ in range(2))
    y1 = y0 + h * delta
    y, d = np.array([[y0], [y1]]), np.array([[d0], [d1]])
    exact = seed_mod._min_slope(HERMITE, y, d, h)
    assert isinstance(exact, float)
    # round-off relative to the cell's slopes, absolute where they underflow
    tol = 64 * np.finfo(float).eps * (abs(d0) + abs(d1) + abs(y1 - y0) / h) \
        + np.finfo(float).tiny
    assert abs(exact - _hermite_min_slope(*y, *d, h)[0]) <= tol
    dense = _hermite_slope(*y, *d, h, np.linspace(0.0, 1.0, 4097))
    assert exact <= dense.min() + tol
    assert seed_mod._min_slope(LINEAR, y, d, h) == (y1 - y0) / h


def test_cell_cubics_are_the_hermite_basis_cubics(ll_tables):
    # xhat0_cols reads A's monomial cubic and invert reads B's at the cell
    # parameter it finds; both are the basis-form Hermite cubics
    tab, N = ll_tables, ll_tables.op.count
    x = np.random.default_rng(59).uniform(tab.x_min, tab.x_max, size=(40, N))

    def basis(y, d, x):
        i = np.clip(np.searchsorted(tab.x_nodes, x) - 1, 0, tab.x_nodes.size - 2)
        j, h = np.arange(N), tab.x_nodes[i + 1] - tab.x_nodes[i]
        return _hermite(y[i, j], y[i + 1, j], d[i, j], d[i + 1, j], h,
                        (x - tab.x_nodes[i]) / h)

    zhat = basis(tab.A, tab.dA, x)
    assert np.max(np.abs(tab.xhat0_cols(x) - zhat)) <= 1e-14 * np.abs(tab.A).max()
    x_inv, height = tab.invert(zhat)
    assert np.max(np.abs(height - basis(tab.B, tab.dB, x_inv))) \
        <= 1e-14 * np.abs(tab.B).max()


def test_linear_fallback_tables_invert_as_chords():
    # 33 seed nodes under-resolve the bundled Lieb-Liniger bump: the Hermite
    # cubic is not certified monotone and build_seed falls back to LINEAR
    cfg = config_mod.load_config(_CONFIGS / "lieb_liniger_gaussian.json")
    cfg["seed_grid"]["count"] = 33
    op = ghd.KernelOperator(config_mod.build_kernel_from(cfg), config_mod.build_grid_from(cfg))
    tab = build_seed(config_mod.build_scenario_from(cfg), op,
                     config_mod.build_seed_spec_from(cfg))
    assert tab.mode == LINEAR and tab._sides is None
    rng = np.random.default_rng(53)
    z = rng.uniform(tab.A[0] - 3.0, tab.A[-1] + 3.0, size=(400, op.count))
    z[::9] = tab.A[rng.integers(0, tab.A.shape[0], size=op.count), np.arange(op.count)]
    assert np.any(z < tab.A[0]) and np.any(z > tab.A[-1])
    x, height = tab.invert(z)
    x_ref, h_ref = _linear_inverse(tab, z)
    # ulps of the value, or of a cell's width and rise near the origin
    dx = tab.x_nodes[1] - tab.x_nodes[0]
    rise = np.abs(np.diff(tab.B, axis=0)).max(axis=0)
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.maximum(np.abs(x_ref), dx)))
    assert np.all(np.abs(height - h_ref)
                  <= 4 * np.spacing(np.maximum(np.abs(h_ref), rise)))
    assert np.max(np.abs(tab.xhat0_cols(x) - z)) <= 1e-12


def test_invert_rows_are_independent(ll_tables):
    # the query spans several of invert's row blocks, with entries on the
    # table's nodes and past both of its ends
    rng = np.random.default_rng(37)
    N = ll_tables.op.count
    z = rng.uniform(-12.0, 12.0, size=(1200, N))
    z[::7] = ll_tables.A[rng.integers(0, ll_tables.A.shape[0], size=N), np.arange(N)]
    assert z.size > 3 * seed_mod._INVERT_BLOCK
    assert np.any(z < ll_tables.A[0]) and np.any(z > ll_tables.A[-1])
    x, height = ll_tables.invert(z)
    for i in range(z.shape[0]):
        xi, hi = ll_tables.invert(z[i:i + 1])
        assert xi.tobytes() == x[i:i + 1].tobytes()
        assert hi.tobytes() == height[i:i + 1].tobytes()


def test_newton_start_bisects_only_the_steep_cell(ll_tables, monkeypatch):
    bisected = _recording_bisect(monkeypatch)
    z = np.random.default_rng(43).uniform(-7.0, 7.0, size=(64, ll_tables.op.count))
    x, _ = ll_tables.invert(z)
    assert not bisected
    assert np.max(np.abs(ll_tables.xhat0_cols(x) - z)) <= 1e-9
    # the steep cell of test_invert_finishes_stalled_newton_by_bisection
    A, dA = np.array([[0.0], [0.5367]]), np.array([[0.3037], [2.1047]])
    steep = SeedTables(None, None, np.array([0.0, 1.0]), A, dA, 2.0 * A, 2.0 * dA,
                       HERMITE, None, 0.0, 0.0, 0.0, None, 0.0)
    steep.invert(np.array([[_hermite(0.0, 0.5367, 0.3037, 2.1047, 1.0, 0.373)]]))
    assert len(bisected) == 1


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["compare_reference", "hard_rods_gaussian",
                                  "lieb_liniger_gaussian", "zero_kernel_gaussian"])
def test_cumulative_simpson_matches_scipy_on_bundled_seeds(name):
    integrate = pytest.importorskip("scipy.integrate")
    cfg = config_mod.load_config(_CONFIGS / f"{name}.json")
    op = ghd.KernelOperator(config_mod.build_kernel_from(cfg), config_mod.build_grid_from(cfg))
    tab = build_seed(config_mod.build_scenario_from(cfg), op,
                     config_mod.build_seed_spec_from(cfg))
    dx = tab.x_nodes[1] - tab.x_nodes[0]
    for rows in (tab.dA, tab.dB):
        ours = seed_mod.cumulative_simpson(rows, dx=dx, axis=0, initial=0.0)
        theirs = integrate.cumulative_simpson(rows, dx=dx, axis=0, initial=0.0)
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("shape, axis", [((3,), 0), ((4,), 0), ((9, 5), 0), ((10, 5), 0),
                                         ((4, 7), 1), ((6, 3, 11), 1), ((2, 3, 8), -1)])
def test_cumulative_simpson_matches_scipy_on_odd_and_even_rows(shape, axis):
    integrate = pytest.importorskip("scipy.integrate")
    y = np.random.default_rng(sum(shape)).normal(size=shape)
    for dx, initial in ((0.1, 0.0), (1.0 / 3.0, 2.0), (2.5e-3, -1.25)):
        ours = seed_mod.cumulative_simpson(y, dx=dx, axis=axis, initial=initial)
        theirs = integrate.cumulative_simpson(y, dx=dx, axis=axis, initial=initial)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_cumulative_simpson_needs_three_nodes():
    with pytest.raises(ValueError, match="3 nodes"):
        seed_mod.cumulative_simpson(np.ones((2, 4)), dx=0.1, axis=0, initial=0.0)
