"""Schema checks of the AMR perf artifact (``BENCH_amr.json``)."""

import copy

from repro.analysis.bench_schema import validate

ROW = {"wall_s": 0.2, "steps_per_s": 120.0, "cells_per_s": 5.0e6}

AMR = {
    "benchmark": "amr_batched_stepping",
    "host_cores": 2,
    "config": {"mx": 16, "max_level": 4, "nsteps": 24},
    "per_patch": ROW,
    "batched": ROW,
    "serial_kernels": {**ROW, "speedup_vs_batched": 5.7},
    "speedup": 3.4,
}


def test_complete_artifact_is_valid():
    assert validate(AMR) == []


def test_serial_kernel_row_is_required():
    data = copy.deepcopy(AMR)
    del data["serial_kernels"]
    assert validate(data) == ["top level: missing key 'serial_kernels'"]


def test_rates_must_be_positive():
    data = copy.deepcopy(AMR)
    data["batched"] = {**ROW, "wall_s": 0.0}
    assert validate(data) == ["batched: 'wall_s' must be positive"]
