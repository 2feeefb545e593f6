"""Shared fixtures: RNG factory and a session-cached campaign dataset."""

from __future__ import annotations

import os

# One BLAS thread in this process and every worker, on every host, set
# before numpy is first imported: the golden RMSE pins are recorded at
# one thread, and threaded BLAS sums in a different order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS pin
import pytest  # noqa: E402

from repro.data import CampaignConfig, run_campaign  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def campaign_dataset():
    """The full 600-job dataset (generated once per session, ~0.1 s)."""
    return run_campaign(np.random.default_rng(42)).dataset


@pytest.fixture(scope="session")
def small_dataset():
    """A reduced 120-job dataset for fast AL-loop tests."""
    cfg = CampaignConfig(num_unique=100, num_repeats=20)
    return run_campaign(np.random.default_rng(7), config=cfg).dataset
