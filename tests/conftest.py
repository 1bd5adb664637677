import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rel_gap(a, b):
    """Relative Frobenius distance between two arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def random_spd(rng, k, lo, hi):
    """Symmetric matrix with spectrum drawn uniformly from [lo, hi]."""
    from fetr.dataio import random_bounded_spd

    return random_bounded_spd(k, lo, hi, rng)


def random_shared_problem(rng, n, d, m, l, u):
    """Random shared-instance dataset with feasible precision matrices."""
    from fetr import validate_dataset

    x = rng.uniform(size=(n, d))
    w0 = rng.standard_normal((d, m))
    y = x @ w0 + 0.01 * rng.standard_normal((n, m))
    data = validate_dataset([(x, y[:, i]) for i in range(m)])
    sigma1 = random_spd(rng, d, l, u)
    sigma2 = random_spd(rng, m, l, u)
    return data, sigma1, sigma2


def random_pertask_problem(rng, d, m, l, u, n_lo=15, n_hi=40):
    """Random dataset whose tasks have differing instance counts."""
    from fetr import validate_dataset

    pairs = []
    for _ in range(m):
        n_i = int(rng.integers(n_lo, n_hi))
        x = rng.uniform(size=(n_i, d))
        w = rng.standard_normal(d)
        pairs.append((x, x @ w + 0.01 * rng.standard_normal(n_i)))
    data = validate_dataset(pairs)
    sigma1 = random_spd(rng, d, l, u)
    sigma2 = random_spd(rng, m, l, u)
    return data, sigma1, sigma2
