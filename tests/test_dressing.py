import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghd
from ghd.dressing import DRESS_TOL, DressingBounds, dress_batched
from ghd.errors import AssumptionError, ConvergenceError
from ghd.kernel import SIGN_MIXED, SIGN_NON_NEGATIVE

BOUND_TOL = 1e-9   # slack of the two-sided 1dr bounds, as in criterion 04


@pytest.fixture(scope="module")
def hr_rank_one():
    """Constant kernel tau=-0.3 on a window of measure 2 with n=0.2."""
    g = ghd.build_momentum_grid(-1.0, 1.0, 16)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), g)
    return op, np.full(16, 0.2)


@pytest.fixture(scope="module")
def ll_gaussian_n(ll_op):
    return 0.6 * np.exp(-ll_op.grid.nodes ** 2)


def _dress(op, n, f):
    """f^dr for one occupation row."""
    return dress_batched(op, n[None], f)[0][0]


def _1dr_violation(op, n):
    """(bounds, worst excess of 1^dr over its certified range) for one row."""
    bounds = DressingBounds.for_norm(op.operator_norm(envelope=n), op.sign_class)
    one_dr = _dress(op, n, np.ones(op.count))
    worst = float(max((bounds.r_value - one_dr).max(), (one_dr - bounds.upper).max()))
    return bounds, worst, one_dr


def test_dress_empty_interaction(ll_op):
    f = np.sin(ll_op.grid.nodes)
    np.testing.assert_array_equal(_dress(ll_op, np.zeros(ll_op.count), f), f)


def test_rank_one_closed_form(hr_rank_one):
    op, n = hr_rank_one
    out = _dress(op, n, np.ones(op.count))
    np.testing.assert_allclose(out, 1.0 / 1.12, atol=1e-12)
    assert abs(op.operator_norm(envelope=n) - 0.12) <= 1e-13


def test_compute_R_values():
    assert ghd.compute_R(0.0, SIGN_NON_NEGATIVE) == 1.0
    assert abs(ghd.compute_R(0.4, SIGN_NON_NEGATIVE) - 0.6) <= 1e-15
    assert abs(ghd.compute_R(0.4, SIGN_MIXED) - 1.0 / 3.0) <= 1e-15


def test_compute_R_domain():
    with pytest.raises(AssumptionError):
        ghd.compute_R(1.0, SIGN_NON_NEGATIVE)
    with pytest.raises(AssumptionError):
        ghd.compute_R(0.5, SIGN_MIXED)


def test_1dr_bounds_trivial(ll_op):
    bounds, worst, one_dr = _1dr_violation(ll_op, np.zeros(ll_op.count))
    assert worst <= BOUND_TOL
    np.testing.assert_allclose(one_dr, 1.0)
    assert bounds.r_value == 1.0 and bounds.upper == 1.0


def test_1dr_bounds_hard_rods(hr_rank_one):
    op, n = hr_rank_one
    bounds, worst, one = _1dr_violation(op, n)
    assert worst <= BOUND_TOL
    assert abs(bounds.r_value - 0.88) <= 1e-13
    assert abs(bounds.upper - 1.0 / 0.88) <= 1e-13
    assert np.all(one >= 0.88 - 1e-9) and np.all(one <= 1.0 / 0.88 + 1e-9)


def test_1dr_bounds_lieb_liniger_sample(ll_op):
    rng = np.random.default_rng(3)
    for _ in range(10):
        amp = rng.uniform(0.05, 0.8)
        width = rng.uniform(0.3, 2.0)
        n = amp * np.exp(-(ll_op.grid.nodes / width) ** 2)
        _, worst, _ = _1dr_violation(ll_op, n)
        assert worst <= BOUND_TOL, (amp, width, worst)


def _starts(*rows):
    """A dresser buffer stack whose iterate holds the given start rows."""
    start = np.array(rows, dtype=float)[:, None, :]
    return start, np.empty_like(start), np.empty_like(start)


def test_uniqueness_from_different_starts(ll_op, ll_gaussian_n):
    f = np.sin(ll_op.grid.nodes)
    rng = np.random.default_rng(5)
    a, = dress_batched(ll_op, ll_gaussian_n, f, tol=1e-13,
                       buffers=_starts(rng.normal(size=ll_op.count)))
    b, = dress_batched(ll_op, ll_gaussian_n, f, tol=1e-13,
                       buffers=_starts(10 + rng.normal(size=ll_op.count)))
    assert np.max(np.abs(a - b)) <= 1e-10


@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2))
def test_linearity_in_f(alpha, beta):
    g = ghd.build_momentum_grid(-3, 3, 20)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), g)
    n = 0.5 * np.exp(-g.nodes ** 2)
    rng = np.random.default_rng(11)
    f, h = rng.normal(size=(2, 20))
    lhs = _dress(op, n, alpha * f + beta * h)
    rhs = alpha * _dress(op, n, f) + beta * _dress(op, n, h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_seminorm_bound(ll_op, ll_gaussian_n):
    tn_norm = ll_op.operator_norm(envelope=ll_gaussian_n)
    rng = np.random.default_rng(21)
    for f in rng.uniform(-2, 2, size=(200, ll_op.count)):
        fdr = _dress(ll_op, ll_gaussian_n, f)
        lhs = np.max(ll_gaussian_n * np.abs(fdr))
        rhs = np.max(ll_gaussian_n * np.abs(f)) / (1 - tn_norm)
        assert lhs <= rhs + 1e-9


def test_bounded_part_bound(ll_op, ll_gaussian_n):
    tn_norm = ll_op.operator_norm(envelope=ll_gaussian_n)
    unit = ll_op.operator_norm()
    rng = np.random.default_rng(22)
    for f in rng.uniform(-2, 2, size=(200, ll_op.count)):
        fdr = _dress(ll_op, ll_gaussian_n, f)
        rhs = unit * np.max(ll_gaussian_n * np.abs(f)) / (1 - tn_norm)
        assert np.max(np.abs(fdr - f)) <= rhs + 1e-9


def test_unbounded_velocity_dressing(ll_op, ll_gaussian_n):
    # dressing the identity velocity: f^dr - f must match the bounded part
    v = ll_op.grid.nodes
    vdr = _dress(ll_op, ll_gaussian_n, v)
    residual = vdr - v - (ll_gaussian_n * vdr) @ ll_op.TW.T
    assert np.max(np.abs(residual)) <= 1e-12


def test_assumption_violation_named(ll_op):
    with pytest.raises(AssumptionError, match="1"):
        dress_batched(ll_op, np.full(ll_op.count, 5.0), ll_op.v)
    # a negative occupation is refused where a seed is admitted
    negative = ghd.Scenario(lambda x, p: np.broadcast_arrays(
        np.asarray(x, float) * 0 - 1.0, p)[0], 1.0, (-1, 1), "custom")
    with pytest.raises(AssumptionError, match="negative"):
        ghd.build_seed(negative, ll_op, ghd.SpatialGridSpec(-2, 2, 41))


def test_dressing_residual(ll_op, ll_gaussian_n):
    f = np.cosh(ll_op.grid.nodes / 3)
    fdr = _dress(ll_op, ll_gaussian_n, f)
    residual = fdr - f - (ll_gaussian_n * fdr) @ ll_op.TW.T
    assert np.max(np.abs(residual)) <= 1e-12


def _dense_dressing(op, n, f):
    """Test-side oracle: solve (1 - T n) f^dr = f densely."""
    return np.linalg.solve(np.eye(op.count) - op.TW * n[None, :], f)


def _property_operator(model, count, seed):
    rng = np.random.default_rng(seed)
    grid = ghd.build_momentum_grid(-rng.uniform(1.0, 8.0), rng.uniform(1.0, 8.0), count)
    if model == "lieb_liniger":
        kernel = ghd.lieb_liniger(rng.uniform(0.2, 3.0))
    elif model == "sinh_gordon":
        kernel = ghd.sinh_gordon()
    elif model == "hard_rods":
        kernel = ghd.hard_rods(rng.uniform(0.1, 1.0))
    else:
        axis = np.linspace(grid.nodes[0], grid.nodes[-1], 4)
        table = rng.uniform(0.2, 1.0, (4, 4)) * np.where(rng.random((4, 4)) < 0.5, -1, 1)
        table[0, 0], table[-1, -1] = 0.5, -0.5
        kernel = ghd.tabulated_kernel(axis, axis, table)
    return ghd.KernelOperator(kernel, grid), rng


@given(model=st.sampled_from(["lieb_liniger", "sinh_gordon", "hard_rods", "mixed"]),
       count=st.integers(min_value=4, max_value=40),
       rows=st.integers(min_value=1, max_value=4),
       z_frac=st.floats(min_value=0.0, max_value=1.0),
       warm=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_dress_batched_matches_dense_oracle(model, count, rows, z_frac, warm, seed):
    op, rng = _property_operator(model, count, seed)
    mixed = op.sign_class == SIGN_MIXED
    assert mixed == (model == "mixed")
    n = rng.uniform(0.0, 1.0, (rows, count)) ** rng.uniform(0.0, 3.0)
    n *= (0.49 if mixed else 0.99) * z_frac / op.operator_norm(envelope=n.max(axis=0))
    z = op.operator_norm(envelope=n.max(axis=0))
    fs = (np.ones(count), op.v, rng.normal(size=count))
    guess = rng.normal(size=(len(fs), rows, count))
    buffers = (guess, np.empty_like(guess), np.empty_like(guess)) if warm else None
    # round-off in x (|x| <= |f|/(1-z)) sets how small a tol is reachable
    tol = 1e-14 if z <= 0.9 else DRESS_TOL
    out = dress_batched(op, n, *fs, tol=tol, buffers=buffers)
    assert isinstance(out, tuple) and len(out) == len(fs)
    bound = 2.0 * tol * max(1.0, max(np.max(np.abs(f)) for f in fs)) / (1.0 - z)
    for f, f_dr in zip(fs, out):
        assert f_dr.shape == (rows, count)
        for i in range(rows):
            gap = np.max(np.abs(f_dr[i] - _dense_dressing(op, n[i], f)))
            assert gap <= bound, (gap, bound, z)


def test_direct_matches_neumann(ll_op, ll_gaussian_n):
    # the Picard iterates from zero are the partial sums of the Neumann series
    direct = _dense_dressing(ll_op, ll_gaussian_n, np.cos(ll_op.grid.nodes))
    series = _dress(ll_op, ll_gaussian_n, np.cos(ll_op.grid.nodes))
    assert np.max(np.abs(direct - series)) <= 1e-10


def test_batched_matches_single(ll_op):
    rng = np.random.default_rng(4)
    rows = 0.5 * rng.uniform(0.0, 1.0, size=(7, ll_op.count)) \
        * np.exp(-ll_op.grid.nodes ** 2)[None, :]
    one_b, v_b = dress_batched(ll_op, rows, np.ones(ll_op.count), ll_op.v)
    for i in range(rows.shape[0]):
        np.testing.assert_allclose(one_b[i], _dress(ll_op, rows[i], np.ones(ll_op.count)),
                                   atol=1e-12)
        np.testing.assert_allclose(v_b[i], _dress(ll_op, rows[i], ll_op.v), atol=1e-12)


def test_iterative_matches_direct(ll_op, ll_gaussian_n):
    direct = _dense_dressing(ll_op, ll_gaussian_n, ll_op.v)
    iterative, = dress_batched(ll_op, ll_gaussian_n[None, :], ll_op.v, tol=1e-12)
    assert np.max(np.abs(direct - iterative[0])) <= 1e-9


def test_dress_batched_rejects_noncontracting_rows(ll_op):
    n = np.zeros((2, ll_op.count))
    n[1] = 2.0 / ll_op.unit_norm
    with pytest.raises(AssumptionError, match=r"\|\|T n\|\|_op = 2 >= 1"):
        dress_batched(ll_op, n, np.ones(ll_op.count))


def test_nan_occupation_fails_admissibility(ll_op):
    n = np.full(ll_op.count, np.nan)
    with pytest.raises(AssumptionError, match="does not contract"):
        dress_batched(ll_op, n, ll_op.v)


def test_dress_batched_past_cap_fails_named(ll_op):
    class Understated(ghd.KernelOperator):
        """Reports a tenth of the true rate, so the predicted cap is too low."""

        def operator_norm(self, envelope=None):
            return 0.1 * super().operator_norm(envelope)

    op = Understated(ll_op.kernel, ll_op.grid)
    n = np.full(op.count, 0.9 / ll_op.unit_norm)
    with pytest.raises(ConvergenceError, match=r"\|\|T n\|\|_op = 0.09 .*last bound"):
        dress_batched(op, n, op.v)


def test_dress_batched_in_caller_buffers_bitwise(ll_op):
    rng = np.random.default_rng(11)
    rows = 0.6 * rng.uniform(0.0, 1.0, size=(9, ll_op.count)) \
        * np.exp(-ll_op.grid.nodes ** 2)[None, :]
    fs = (np.ones(ll_op.count), ll_op.v)
    start = np.broadcast_to(np.stack(fs)[:, None, :], (2, 9, ll_op.count)).copy()
    expect = dress_batched(ll_op, rows, *fs)
    buffers = (start.copy(), np.empty_like(start), np.empty_like(start))
    got = dress_batched(ll_op, rows, *fs, buffers=buffers)
    for g, e in zip(got, expect):
        assert np.array_equal(g, e)
        # the result is a view into the iterate or the spare, never fresh
        assert np.shares_memory(g, buffers[0]) or np.shares_memory(g, buffers[1])
        assert not np.shares_memory(g, buffers[2])


def _mixed_rows(op, counts, seed):
    """Occupation rows scaled by 1, 1e-2 and 1e-6, ``counts`` of each, so
    that their own increments meet the stop at different sweeps."""
    rng = np.random.default_rng(seed)
    base = 0.6 * np.exp(-op.grid.nodes ** 2)
    scales = np.repeat([1.0, 1e-2, 1e-6], counts)
    rng.shuffle(scales)
    return scales[:, None] * rng.uniform(0.3, 1.0, (scales.size, 1)) * base


def _row_stops(op, n, fs, z, scale):
    """Per row, the sweep at which its own increment meets delta * z <=
    scale, and its Picard iterates from f up to the last row's stop, from
    a plain single-row loop."""
    start = np.array(fs, dtype=float)
    iterates = [[start] for _ in n]
    stops = [None] * len(n)
    while None in stops or len(iterates[0]) <= max(stops):
        for i, row in enumerate(n):
            y = start + (row * iterates[i][-1]) @ op.TW.T
            if stops[i] is None and np.max(np.abs(y - iterates[i][-1])) * z <= scale:
                stops[i] = len(iterates[i])
            iterates[i].append(y)
    return np.array(stops), iterates


@pytest.mark.parametrize("counts", [(20, 20, 80), (5, 5, 20)], ids=["120_rows", "30_rows"])
@pytest.mark.parametrize("per_row", [False, True], ids=["shared_fs", "per_row_fs"])
def test_rows_freeze_at_their_own_stop(ll_op, per_row, counts):
    n = _mixed_rows(ll_op, counts, seed=31)
    m, N = n.shape
    tol = 1e-8     # a stop far above round-off, so one sweep more shows
    fs = (np.ones(N), ll_op.v)
    z = ll_op.operator_norm(envelope=n.max(axis=0))
    scale = tol * max(1.0, float(np.max(np.abs(fs))))
    stops, iterates = _row_stops(ll_op, n, fs, z, scale)
    assert len(set(stops.tolist())) >= 3
    # the rows freeze once at most half of them are open, each at its own
    # stop or, if that came earlier, at the first such sweep; a batch of
    # fewer than 64 rows is swept whole to its last row's stop
    first = next(k for k in range(1, stops.max() + 1) if 2 * np.sum(stops > k) <= m)
    if m < 64:
        first = stops.max()
    expect = np.stack([iterates[i][max(stops[i], first)] for i in range(m)], axis=1)

    args = tuple(np.broadcast_to(f, (m, N)) for f in fs) if per_row else fs
    start = np.broadcast_to(np.stack(fs)[:, None, :], (len(fs), m, N)).copy()
    plain = dress_batched(ll_op, n, *args, tol=tol)
    buffered = dress_batched(ll_op, n, *args, tol=tol,
                             buffers=(start, np.empty_like(start), np.empty_like(start)))
    shared = dress_batched(ll_op, n, *fs, tol=tol)
    for a, b, c, e, f in zip(plain, buffered, shared, expect, fs):
        assert np.array_equal(a, b) and np.array_equal(a, c)
        # each row is the iterate of its own stop, not of a later sweep
        assert np.max(np.abs(a - e)) <= 1e-3 * scale
        # the certificate: tol * max(1, |F|)/(1 - z), |F| over every f
        for i in range(m):
            assert np.max(np.abs(a[i] - _dense_dressing(ll_op, n[i], f))) <= scale / (1.0 - z)


def test_frozen_results_are_views_into_caller_buffers(ll_op):
    n = _mixed_rows(ll_op, (20, 20, 60), seed=32)
    fs = (np.ones(ll_op.count), ll_op.v)
    start = np.broadcast_to(np.stack(fs)[:, None, :], (2,) + n.shape).copy()
    for extra_sweep in (False, True):
        # the iterate sits in x or in x_new when the rows freeze; the
        # oracle's buffer rotation finds its result by that
        buffers = (start.copy(), np.empty_like(start), np.empty_like(start))
        if extra_sweep:
            buffers[0][...] = dress_batched(ll_op, n, *fs, tol=1e-3)
        got = dress_batched(ll_op, n, *fs, buffers=buffers)
        expect = dress_batched(ll_op, n, *fs)
        for g, e in zip(got, expect):
            assert np.max(np.abs(g - e)) <= 1e-12
            assert np.shares_memory(g, buffers[0]) or np.shares_memory(g, buffers[1])
            assert not np.shares_memory(g, buffers[2])
    with pytest.raises(ValueError, match="C-contiguous"):
        wide = np.empty((2, n.shape[0], 2 * n.shape[1]))
        dress_batched(ll_op, n, *fs, buffers=(start, wide[:, :, ::2], np.empty_like(start)))


def test_row_freeze_allocates_nothing_field_sized():
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), ghd.build_momentum_grid(-4.0, 4.0, 64))
    rng = np.random.default_rng(33)
    n = 0.6 * rng.uniform(0.3, 1.0, (4096, 1)) * np.exp(-op.grid.nodes ** 2)
    n[1::2] *= 1e-6       # half the rows freeze after a few sweeps
    start = np.broadcast_to(op.v, (1,) + n.shape).copy()
    buffers = (start, np.empty_like(start), np.empty_like(start))
    tracemalloc.start()
    try:
        v_dr, = dress_batched(op, n, op.v, buffers=buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # below one buffer's bytes, and below a compacted copy of the open
    # half (half a buffer) with room to spare
    assert peak < start.nbytes / 4, (peak, start.nbytes)
    np.testing.assert_allclose(v_dr, dress_batched(op, n, op.v)[0], rtol=0, atol=1e-12)
