import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghd
from ghd.errors import ConfigError
from ghd.grid import GAUSS_LEGENDRE, MIDPOINT, TRAPEZOID, gauss_legendre


def test_gauss_legendre_two_point():
    g = ghd.build_momentum_grid(-1.0, 1.0, 2, GAUSS_LEGENDRE)
    np.testing.assert_allclose(g.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                               atol=1e-15)
    np.testing.assert_allclose(g.weights, [1.0, 1.0], atol=1e-15)


# the window and count of each bundled config's grid
@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double here")
@pytest.mark.parametrize("p_min, p_max, count", [
    (-2.5, 2.5, 24), (-4.0, 4.0, 48), (-6.0, 6.0, 64), (-6.0, 6.0, 128)])
def test_gauss_legendre_grid_weights_match_long_double_newton(p_min, p_max, count):
    g = ghd.build_momentum_grid(p_min, p_max, count, GAUSS_LEGENDRE)
    half = 0.5 * (p_max - p_min)
    assert np.array_equal(g.weights, half * gauss_legendre([count])[count][1])
    # Newton in x on P_n, in long double, from the reference nodes
    x = ((g.nodes - p_min) / half - 1.0).astype(np.longdouble)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, count + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = count * (p_prev - x * p) / (1 - x * x)     # P_n'(x)
        x = x - p / slope
    want = half * 2 / ((1 - x * x) * slope ** 2)
    assert np.max(np.abs(g.weights - want) / want) <= 1e-12


def test_trapezoid_two_point():
    g = ghd.build_momentum_grid(0.0, 1.0, 2, TRAPEZOID)
    np.testing.assert_allclose(g.nodes, [0.0, 1.0])
    np.testing.assert_allclose(g.weights, [0.5, 0.5])


def test_midpoint_five():
    g = ghd.build_momentum_grid(-2.0, 2.0, 5, MIDPOINT)
    np.testing.assert_allclose(g.nodes, [-1.6, -0.8, 0.0, 0.8, 1.6])
    np.testing.assert_allclose(g.weights, np.full(5, 0.8))


@pytest.mark.parametrize("rule", [GAUSS_LEGENDRE, TRAPEZOID, MIDPOINT])
@pytest.mark.parametrize("count", [2, 7, 40])
def test_invariants(rule, count):
    g = ghd.build_momentum_grid(-3.0, 5.0, count, rule)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 8.0) <= 1e-12 * 8.0
    assert g.nodes[0] >= -3.0 - 1e-14 and g.nodes[-1] <= 5.0 + 1e-14


def test_integrate_constant():
    g = ghd.build_momentum_grid(-1.0, 1.0, 20)
    assert abs(np.ones(20) @ g.weights - 2.0) <= 1e-14


def test_integrate_odd_function():
    g = ghd.build_momentum_grid(-2.0, 2.0, 30)
    assert abs(g.nodes @ g.weights) <= 1e-14


def test_integrate_lorentzian_closed_form():
    g = ghd.build_momentum_grid(-40.0, 40.0, 400)
    f = 2.0 / (1.0 + g.nodes ** 2)
    assert abs(f @ g.weights - 4.0 * math.atan(40.0)) <= 1e-6


@given(st.integers(min_value=2, max_value=12),
       st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8))
def test_gauss_legendre_polynomial_exactness(count, coeffs):
    # exact for degree <= 2*count - 1
    coeffs = coeffs[:2 * count]
    poly = np.polynomial.Polynomial(coeffs)
    g = ghd.build_momentum_grid(-1.5, 2.5, count, GAUSS_LEGENDRE)
    exact = poly.integ()(2.5) - poly.integ()(-1.5)
    approx = poly(g.nodes) @ g.weights
    assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def test_refinement_reduces_error():
    exact = math.sqrt(2 * math.pi) * math.erf(8 / math.sqrt(2))
    errors = []
    for count in (6, 12, 24, 48):
        g = ghd.build_momentum_grid(-8.0, 8.0, count)
        f = np.exp(-g.nodes ** 2 / 2)
        errors.append(abs(f @ g.weights - exact))
    for small, big in zip(errors[1:], errors[:-1]):
        if big > 1e-13:
            assert small < big


@pytest.mark.parametrize("bad", [
    dict(p_min=1.0, p_max=-1.0, count=4),
    dict(p_min=0.0, p_max=0.0, count=4),
    dict(p_min=-1.0, p_max=1.0, count=1),
    dict(p_min=-1.0, p_max=1.0, count=4, rule="simpson"),
    # a config never gets here, its validation names the key first
    dict(p_min=-np.inf, p_max=1.0, count=4),
    dict(p_min=-1.0, p_max=np.nan, count=4),
])
def test_configuration_errors(bad):
    with pytest.raises(ConfigError):
        ghd.build_momentum_grid(**bad)

