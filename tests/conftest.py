from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import epdtail as et

# property tests draw the same examples on every run and have no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def burr_dist():
    return et.burr(0.75, -0.75)


@pytest.fixture(scope="session")
def frechet_dist():
    return et.frechet(0.5)


@pytest.fixture(scope="session")
def burr_sample(burr_dist):
    """One fixed Burr sample (n=500) shared by the heavier tests."""
    return et.sample_distribution(burr_dist, 500, 20250808)


@pytest.fixture(scope="session")
def burr_k200(burr_sample):
    """Excesses, tau and prior variance at k=200 on the shared Burr sample."""
    e = et.excesses(burr_sample, 200)
    h = et.hill(e).xi
    rho, _ = et.resolve_rho(burr_sample)
    tau = et.tau_hat(rho, h)
    return e, tau, et.prior_variance(200, 500, rho)


def pareto_excesses(xi: float, k: int, seed) -> "et.ExcessSet":
    """Excess set drawn directly from the strict Pareto excess law."""
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random(k), np.finfo(float).tiny)
    y = np.sort(u ** (-xi))[::-1]
    return et.ExcessSet(y=y, k=k, threshold=1.0)
