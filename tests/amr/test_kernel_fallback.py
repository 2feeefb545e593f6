"""The serial batched path with and without the compiled kernels.

A host without a C compiler sees :func:`repro.solver.kernels.load` return
None; the batched driver then sweeps, computes wave speeds and exchanges
ghosts in numpy.  Both paths, and the per-patch reference loop, must give
the same leaves in the same order, the same dt sequence and bit-identical
interiors across regrids — and so the same ``JobRunner`` records.
"""

import numpy as np
import pytest

from repro.amr import AmrConfig, AmrDriver
from repro.machine.runner import JobConfig, JobRunner
from repro.solver import ShockBubbleProblem, kernels

needs_kernels = pytest.mark.skipif(
    not kernels.available(),
    reason=f"compiled kernels unavailable: {kernels.load_error()}",
)


@pytest.fixture
def no_compiler(monkeypatch):
    """Make the kernel library unavailable, as on a host without gcc."""
    monkeypatch.setattr(kernels, "load", lambda: None)


def _run(batched: bool) -> AmrDriver:
    cfg = AmrConfig(mx=8, min_level=1, max_level=3, regrid_interval=2,
                    batched=batched)
    driver = AmrDriver(ShockBubbleProblem(r0=0.3, rhoin=0.1), cfg)
    driver.run(t_end=0.03)
    assert driver.stats.num_regrids >= 3
    return driver


def _assert_same_run(a: AmrDriver, b: AmrDriver) -> None:
    assert list(a.patches) == list(b.patches), "leaf set or order diverged"
    assert [r.dt for r in a.stats.steps] == [r.dt for r in b.stats.steps]
    for key, p in a.patches.items():
        assert np.array_equal(b.patches[key].interior, p.interior), key
    assert a.conserved_totals() == b.conserved_totals()


@pytest.fixture(scope="module")
def per_patch():
    return _run(batched=False)


def test_numpy_fallback_matches_per_patch(no_compiler, per_patch):
    driver = _run(batched=True)
    assert not driver._stepper.compiled and driver._program is None
    _assert_same_run(per_patch, driver)


@needs_kernels
def test_kernels_match_per_patch(per_patch):
    driver = _run(batched=True)
    assert driver._stepper.compiled and driver._program is not None
    _assert_same_run(per_patch, driver)


def _amr_sweep_records() -> list:
    """The benchmark's 8 amr-sweep configurations at a short end time."""
    runner = JobRunner(t_end=0.005)
    rng = np.random.default_rng(0)
    return [
        runner.run(JobConfig(8, mx, maxlevel, r0, rhoin), rng, job_id=i,
                   mode="simulate")
        for i, (mx, (r0, rhoin), maxlevel) in enumerate(
            (mx, shape, maxlevel)
            for mx in (8, 16)
            for shape in ((0.2, 0.1), (0.5, 0.02))
            for maxlevel in (3, 4)
        )
    ]


@needs_kernels
def test_job_records_identical_without_compiler(monkeypatch):
    compiled = _amr_sweep_records()
    monkeypatch.setattr(kernels, "load", lambda: None)
    assert _amr_sweep_records() == compiled
