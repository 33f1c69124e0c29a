import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghd
from ghd.errors import ConfigError
from ghd.kernel import (SIGN_MIXED, SIGN_NON_NEGATIVE, SIGN_NON_POSITIVE,
                        load_tabulated_kernel_csv)

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)


def test_lieb_liniger_diagonal():
    k = ghd.lieb_liniger(1.0)
    assert abs(ghd.eval_kernel(k, 0.3, 0.3) - 1 / math.pi) <= 1e-15


def test_hard_rods_constant():
    k = ghd.hard_rods(0.3)
    assert ghd.eval_kernel(k, 1.7, -2.2) == -0.3
    assert ghd.eval_kernel(k, 0.0, 0.0) == -0.3


def test_zero_kernel():
    assert ghd.eval_kernel(ghd.zero_kernel(), 1.0, 2.0) == 0.0


def test_sinh_gordon_value():
    k = ghd.sinh_gordon()
    assert abs(ghd.eval_kernel(k, 1.0, 1.0) - 1 / math.pi) <= 1e-15


@given(finite, finite, st.sampled_from(["lieb_liniger", "sinh_gordon", "hard_rods"]))
def test_symmetry(p, q, model):
    k = {"lieb_liniger": ghd.lieb_liniger(1.3),
         "sinh_gordon": ghd.sinh_gordon(),
         "hard_rods": ghd.hard_rods(0.4)}[model]
    assert ghd.eval_kernel(k, p, q) == ghd.eval_kernel(k, q, p)


def test_operator_norm_zero():
    g = ghd.build_momentum_grid(-1, 1, 8)
    op = ghd.KernelOperator(ghd.zero_kernel(), g)
    assert op.operator_norm() == 0.0


def test_operator_norm_hard_rods():
    g = ghd.build_momentum_grid(-1, 1, 16)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), g)
    assert abs(op.operator_norm() - 0.6) <= 1e-13


def test_operator_norm_lieb_liniger_window():
    g = ghd.build_momentum_grid(-40, 40, 400)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), g)
    target = 2 / math.pi * math.atan(40.0)
    assert abs(op.operator_norm() - target) <= 1e-5
    assert op.operator_norm() < 1.0


def test_operator_norm_envelope_negative_rejected():
    g = ghd.build_momentum_grid(-1, 1, 8)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), g)
    with pytest.raises(ConfigError):
        op.operator_norm(envelope=-np.ones(8))


def test_sign_classes():
    g = ghd.build_momentum_grid(-1, 1, 12)
    assert ghd.KernelOperator(ghd.lieb_liniger(1.0), g).sign_class == SIGN_NON_NEGATIVE
    assert ghd.KernelOperator(ghd.hard_rods(0.2), g).sign_class == SIGN_NON_POSITIVE
    tab = ghd.tabulated_kernel([-1, 1], [-1, 1], [[-1.0, 1.0], [1.0, -1.0]])
    assert ghd.KernelOperator(tab, g).sign_class == SIGN_MIXED


def test_sign_class_roundoff_tolerance():
    # entries below 1e-14 must not flip the classification
    g = ghd.build_momentum_grid(-1, 1, 6)
    tab = ghd.tabulated_kernel([-1, 1], [-1, 1], [[1e-16, 0.5], [0.5, 1.0]])
    assert ghd.KernelOperator(tab, g).sign_class == SIGN_NON_NEGATIVE


def _apply(op, f):
    """(T f)(p_i) = sum_j w_j T(p_i, p_j) f_j, batched over leading axes."""
    return f @ op.TW.T


def test_apply_T_zero_function(ll_op):
    out = _apply(ll_op, np.zeros(ll_op.count))
    assert np.all(out == 0)


def test_apply_T_hard_rods_constant():
    g = ghd.build_momentum_grid(-1, 1, 16)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), g)
    out = _apply(op, np.ones(16))
    np.testing.assert_allclose(out, -0.6, atol=1e-13)


def test_apply_T_preserves_parity(ll_op):
    f = np.exp(-ll_op.grid.nodes ** 2)
    out = _apply(ll_op, f)
    assert np.max(np.abs(out - out[::-1])) <= 1e-12


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_apply_T_linearity(alpha, beta):
    g = ghd.build_momentum_grid(-2, 2, 24)
    op = ghd.KernelOperator(ghd.lieb_liniger(0.8), g)
    rng = np.random.default_rng(7)
    f, h = rng.normal(size=(2, 24))
    lhs = _apply(op, alpha * f + beta * h)
    rhs = alpha * _apply(op, f) + beta * _apply(op, h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_apply_T_norm_bound(ll_op):
    rng = np.random.default_rng(12)
    fs = rng.uniform(-1, 1, size=(1000, ll_op.count))
    out = _apply(ll_op, fs)
    bound = ll_op.operator_norm() * np.max(np.abs(fs), axis=1)
    assert np.all(np.max(np.abs(out), axis=1) <= bound + 1e-12)


def test_velocities():
    p = np.array([-2.0, 0.0, 3.0])
    ident = ghd.identity_velocity()
    np.testing.assert_allclose(ident(p), p)
    np.testing.assert_allclose(ident.energy(p), p * p / 2)
    rel = ghd.relativistic_velocity(2.0)
    np.testing.assert_allclose(rel(p), p / np.sqrt(p * p + 4.0))
    np.testing.assert_allclose(rel.energy(p), np.sqrt(p * p + 4.0) - 2.0)
    assert np.all(np.abs(rel(p)) < 1.0)


def test_tabulated_kernel_csv_round_trip(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("pq,-1.0,0.0,1.0\n"
                    "-1.0,0.1,0.2,0.3\n"
                    "0.0,0.2,0.4,0.2\n"
                    "1.0,0.3,0.2,0.1\n")
    k = load_tabulated_kernel_csv(path)
    assert ghd.eval_kernel(k, 0.0, 0.0) == 0.4
    # off-grid evaluation interpolates, never raises, and stays in range
    v = ghd.eval_kernel(k, 0.5, -0.25)
    assert 0.1 <= v <= 0.4
    # clamped outside the table
    assert ghd.eval_kernel(k, 5.0, 5.0) == 0.1


def test_invalid_models():
    with pytest.raises(ConfigError):
        ghd.lieb_liniger(-1.0)
    with pytest.raises(ConfigError):
        ghd.hard_rods(0.0)
    with pytest.raises(ConfigError):
        ghd.relativistic_velocity(-2.0)
