"""Tests for the machine spec and the LogP communication model."""

import pytest

from repro.machine.comms import LogPModel
from repro.machine.spec import EDISON, MachineSpec


class TestMachineSpec:
    def test_edison_defaults(self):
        assert EDISON.cores_per_node == 24
        assert EDISON.cpu_ghz == pytest.approx(2.4)
        assert EDISON.mem_per_node_GB == pytest.approx(64.0)

    def test_ranks(self):
        assert EDISON.ranks(4) == 96
        with pytest.raises(ValueError):
            EDISON.ranks(0)

    def test_seconds_per_cell_positive(self):
        assert 0 < EDISON.seconds_per_cell() < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            MachineSpec(cpu_ghz=-1.0)
        with pytest.raises(ValueError):
            MachineSpec(network_bandwidth_Bps=0.0)


class TestLogPModel:
    @pytest.fixture
    def model(self):
        return LogPModel(EDISON)

    def test_message_time_latency_floor(self, model):
        assert model.message_time(0) == pytest.approx(EDISON.network_latency_s)

    def test_message_time_bandwidth_term(self, model):
        big = model.message_time(10**9)
        assert big == pytest.approx(
            EDISON.network_latency_s + 1e9 / EDISON.network_bandwidth_Bps
        )

    def test_message_time_monotone(self, model):
        assert model.message_time(1000) < model.message_time(100000)

    def test_rejects_negative_bytes(self, model):
        with pytest.raises(ValueError):
            model.message_time(-1)

    def test_allreduce_grows_logarithmically(self, model):
        t2 = model.allreduce_time(8, 2)
        t1024 = model.allreduce_time(8, 1024)
        assert t1024 == pytest.approx(10.0 * t2)  # log2(1024)/log2(2)

    def test_allreduce_rejects_zero_ranks(self, model):
        with pytest.raises(ValueError):
            model.allreduce_time(8, 0)

    def test_ghost_exchange_scales_with_patches(self, model):
        t1 = model.ghost_exchange_time(1.0, mx=16, ng=2)
        t10 = model.ghost_exchange_time(10.0, mx=16, ng=2)
        assert t10 == pytest.approx(10.0 * t1)

    def test_ghost_exchange_scales_with_strip_size(self, model):
        small = model.ghost_exchange_time(4.0, mx=8, ng=2)
        large = model.ghost_exchange_time(4.0, mx=32, ng=2)
        assert large > small

    def test_ghost_exchange_rejects_negative(self, model):
        with pytest.raises(ValueError):
            model.ghost_exchange_time(-1.0, mx=8, ng=2)
