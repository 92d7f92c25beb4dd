from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import epdtail as et
from epdtail.data import excess_matrix

# property tests draw the same examples on every run and have no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_runtest_makereport(item, call):
    # After a failing property test, hypothesis imports its patch writer, whose
    # libcst import warns from mypy_extensions. Under the DeprecationWarning
    # error filter of pyproject.toml that warning ended the whole session with
    # an INTERNALERROR instead of a failure report, so it is imported here first.
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # without libcst hypothesis writes no patch
                pass


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
    """Excesses, tau and prior variance at k=200 on the shared Burr sample, as ``estimate_cells`` has them."""
    rho, _ = et.resolve_rho(burr_sample)
    cells = et.estimate_cells(burr_sample.values[None], [rho], [(0,)], 200, ("hill",))
    return excess_matrix(burr_sample.values[None], 200)[1][0], float(cells.tau[0]), float(cells.sigma2[0])


def pareto_excesses(xi: float, k: int, seed) -> np.ndarray:
    """k excesses drawn directly from the strict Pareto excess law, descending."""
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random(k), np.finfo(float).tiny)
    return np.sort(u ** (-xi))[::-1].copy()
