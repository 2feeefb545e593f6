"""Shared fixtures for the campaign-service suite.

Everything here is sized for speed: the 120-job ``small_dataset``, tiny
partitions, and 5-iteration trajectories.  The policies below live at
module level so they pickle into spawn-started workers.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core import (
    ALConfig,
    CampaignService,
    CampaignSpec,
    MaxSigma,
    MinPred,
    RandUniform,
)

AL_CFG = ALConfig(max_iterations=5)
POLICIES3 = (RandUniform, MaxSigma, MinPred)


def make_specs(n: int = 3, *, base_seed: int = 3, **overrides) -> list[CampaignSpec]:
    """``n`` small campaigns at distinct seed-tree positions."""
    return [
        CampaignSpec(
            campaign_id=f"camp-{i}",
            policy_factory=POLICIES3[i % len(POLICIES3)],
            base_seed=base_seed,
            traj_index=i,
            n_init=20,
            n_test=30,
            config=AL_CFG,
            **overrides,
        )
        for i in range(n)
    ]


def run_fleet(dataset, specs, **service_kwargs):
    """Run a fleet to completion; return {campaign_id: selections}."""
    with CampaignService(dataset, **service_kwargs) as svc:
        for spec in specs:
            svc.submit(spec)
        report = svc.run()
        selections = {
            spec.campaign_id: tuple(svc.result(spec.campaign_id).selected_indices)
            for spec in specs
        }
    return selections, report


@pytest.fixture(scope="session")
def reference_selections(small_dataset):
    """Fault-free inline selections every chaos run must reproduce."""
    selections, report = run_fleet(small_dataset, make_specs(), steps_per_slice=3)
    assert set(report.campaigns.values()) == {"done"}
    return selections


class ExplodingPolicy(RandUniform):
    """Raises mid-trajectory.  Module-level so it pickles into workers."""

    name = "exploding"

    def select(self, view, rng):
        raise RuntimeError("boom at selection")


class DyingPolicy(RandUniform):
    """Hard-kills the hosting worker process (not an exception — a real
    death, exercising the EOF/respawn path)."""

    name = "dying"

    def select(self, view, rng):
        os._exit(23)


class CountingPolicy(RandUniform):
    """Counts its selections in the metrics registry."""

    def select(self, view, rng):
        obs.incr("test.selections")
        return super().select(view, rng)


class InterruptingPolicy(RandUniform):
    """Interrupts the run at its first selection, as Ctrl-C would."""

    def select(self, view, rng):
        raise KeyboardInterrupt
