import os

import numpy as np
import pytest
from hypothesis import settings

import ghd
from ghd.seed import SpatialGridSpec

# "ghd" for local runs; CI sets HYPOTHESIS_PROFILE=ci for four times the examples
settings.register_profile("ghd", deadline=None, max_examples=50)
settings.register_profile("ci", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ghd"))


@pytest.fixture(scope="session")
def ll_grid():
    return ghd.build_momentum_grid(-6.0, 6.0, 48)


@pytest.fixture(scope="session")
def ll_op(ll_grid):
    return ghd.KernelOperator(ghd.lieb_liniger(1.0), ll_grid)


@pytest.fixture(scope="session")
def ll_bump():
    return ghd.gaussian_bump(0.7, 1.0, 1.0)


@pytest.fixture(scope="session")
def ll_tables(ll_op, ll_bump):
    return ghd.build_seed(ll_bump, ll_op, SpatialGridSpec(-9.6, 9.6, 1600))


@pytest.fixture(scope="session")
def ll_solver(ll_tables):
    return ghd.Solver(ll_tables)


@pytest.fixture(scope="session")
def hr_setup():
    """Hard-rods model with a Gaussian bump, admissible norm."""
    grid = ghd.build_momentum_grid(-4.0, 4.0, 40)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), grid)
    bump = ghd.gaussian_bump(0.5, 1.0, 1.0)
    tab = ghd.build_seed(bump, op, SpatialGridSpec(-9.6, 9.6, 1200))
    return op, bump, tab, ghd.Solver(tab)


@pytest.fixture(scope="session")
def uniform_hr_setup():
    """Constant n0 = 0.2 on p in [-1,1] with hard rods d = 0.3.

    Rank-one closed forms: 1dr = 1/1.12, A(x) = x/1.12, N0hat = 0.2 xhat.
    """
    grid = ghd.build_momentum_grid(-1.0, 1.0, 24)
    op = ghd.KernelOperator(ghd.hard_rods(0.3), grid)

    def n0(x, p):
        x, p = np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float))
        return np.full(x.shape, 0.2)

    sc = ghd.Scenario(n0, 0.2, (-4.0, 4.0), "custom")
    tab = ghd.build_seed(sc, op, SpatialGridSpec(-6.0, 6.0, 401))
    return op, sc, tab, ghd.Solver(tab)


@pytest.fixture(scope="session")
def zero_setup():
    """Free gas: zero kernel with a Gaussian bump."""
    grid = ghd.build_momentum_grid(-4.0, 4.0, 40)
    op = ghd.KernelOperator(ghd.zero_kernel(), grid)
    bump = ghd.gaussian_bump(0.6, 0.8, 1.0)
    tab = ghd.build_seed(bump, op, SpatialGridSpec(-7.7, 7.7, 500))
    return op, bump, tab, ghd.Solver(tab)


@pytest.fixture(scope="session")
def part_setup():
    """Partitioning protocol on the Lieb-Liniger kernel."""
    grid = ghd.build_momentum_grid(-6.0, 6.0, 48)
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), grid)
    sc = ghd.partitioning(ghd.gaussian_profile(0.45, 1.0),
                          ghd.gaussian_profile(0.12, 1.0))
    tab = ghd.build_seed(sc, op)
    return op, sc, tab, ghd.Solver(tab)
