import numpy as np
import pytest

import pgaplab as pg


@pytest.fixture(scope="session")
def cyclic4():
    return pg.full_ball(pg.cyclic_group(4))


@pytest.fixture(scope="session")
def cyclic8():
    return pg.full_ball(pg.cyclic_group(8))


@pytest.fixture(scope="session")
def sym3():
    return pg.full_ball(pg.symmetric_group(3))


@pytest.fixture(scope="session")
def free2_r3():
    return pg.ball(pg.free_group(2), 3)


def unit_vector(rep, rng, *, mean_zero=False):
    v = rep.random_admissible(rng, mean_zero=mean_zero)
    return (1.0 / pg.power_norm(v, rep.p)) * v


def embed(ball, coords):
    """Vector with the given leading coordinates, zero elsewhere."""
    vals = np.zeros(ball.size)
    vals[: len(coords)] = coords
    return vals
