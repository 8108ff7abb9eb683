"""Shared test configuration.

Property tests use a moderate example budget so the whole suite stays
fast; the acceptance tests carry the fixed-size randomized batteries.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from brickbg import linalg

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def two_runners(monkeypatch):
    """The caller and one pool worker, whatever this host's CPU count."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(linalg, "CPUS", 2)
    monkeypatch.setattr(linalg, "_POOL", pool)
    yield
    pool.shutdown()
