import numpy as np
import pytest

import pgaplab as pg
from pgaplab.action import MeanZeroDomain


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


def generator_differences(domain):
    """(Z, D): Z holds an orthonormal basis of the domain in its columns,
    and D[k] = (P_k - 1) Z, P_k the gather through the table's row k, which
    reads zero outside the ball.

    Row i of P_k Z is row table[k, i] of Z padded with a zero row, so no
    n x n matrix is built per generator.
    """
    rep = domain.rep
    n = rep.ball.size
    if isinstance(domain, MeanZeroDomain):
        Z = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    else:
        Z = np.eye(n)[:, getattr(domain, "mask", np.ones(n, dtype=bool))]
    padded = np.vstack([Z, np.zeros((1, Z.shape[1]))])
    return Z, padded[rep.table] - Z


def dense_gap_constant(domain):
    """C_2 = sqrt of the least eigenvalue of L = sum_k w_k (P_k - 1)^T (P_k - 1)
    on the domain, by a dense numpy solve, with L compressed to the domain
    (`generator_differences`)."""
    Z, D = generator_differences(domain)
    form = np.zeros((Z.shape[1], Z.shape[1]))
    for w, d in zip(domain.rep.weights, D):
        form += w * (d.T @ d)
    return float(np.sqrt(max(np.linalg.eigvalsh(form)[0], 0.0)))
