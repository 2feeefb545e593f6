"""Tests for ALConfig: the consolidated ActiveLearner configuration."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ActiveLearner, ALConfig, random_partition
from repro.core.loop import FailurePolicy
from repro.core.policies import RandGoodness, RandUniform
from repro.gp.kernels import default_kernel


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ALConfig()
        assert cfg.n_restarts == 2
        assert cfg.hyper_refit_interval == 1
        assert cfg.on_failure is FailurePolicy.NEXT_BEST
        assert cfg.surrogate == "dense"

    def test_rejects_bad_refit_interval(self):
        with pytest.raises(ValueError, match="hyper_refit_interval must be >= 1"):
            ALConfig(hyper_refit_interval=0)

    def test_rejects_negative_restarts(self):
        with pytest.raises(ValueError):
            ALConfig(n_restarts=-1)

    def test_rejects_negative_max_iterations(self):
        with pytest.raises(ValueError):
            ALConfig(max_iterations=-1)

    def test_normalizes_field_types(self):
        cfg = ALConfig(log2_features=[0, 1], on_failure="drop", weight_rmse_by_cost=1)
        assert cfg.log2_features == (0, 1)
        assert cfg.on_failure is FailurePolicy.DROP
        assert cfg.weight_rmse_by_cost is True

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ALConfig().n_restarts = 5


def _learner(dataset, rng, config=None):
    partition = random_partition(rng, len(dataset), n_init=15, n_test=20)
    return ActiveLearner(
        dataset, partition, policy=RandUniform(), rng=rng, config=config
    )


class TestLearnerIntegration:
    def test_legacy_kwargs_map_onto_config(self, small_dataset, rng):
        """The former keyword arguments are ALConfig fields the learner reads."""
        learner = _learner(
            small_dataset, rng, ALConfig(
                max_iterations=3, hyper_refit_interval=4,
                n_restarts=0, weight_rmse_by_cost=True,
            ),
        )
        assert isinstance(learner.config, ALConfig)
        assert learner.config.max_iterations == 3
        assert learner.config.hyper_refit_interval == 4
        assert learner.config.n_restarts == 0
        assert learner.config.weight_rmse_by_cost is True

    def test_config_object_path(self, small_dataset, rng):
        cfg = ALConfig(max_iterations=2, n_restarts=0, surrogate="iterative")
        learner = _learner(small_dataset, rng, config=cfg)
        assert learner.config is cfg

    def test_validation_applies_to_overrides(self, small_dataset, rng):
        with pytest.raises(ValueError, match="hyper_refit_interval"):
            _learner(small_dataset, rng, ALConfig(hyper_refit_interval=0))


class TestDescribe:
    def test_describe_is_json_serializable(self):
        cfg = ALConfig(
            kernel=default_kernel(),
            max_iterations=7,
            log2_features=(0, 2),
            on_failure=FailurePolicy.DROP,
            surrogate_options={"use_workspace": False},
        )
        desc = cfg.describe()
        text = json.dumps(desc)
        back = json.loads(text)
        assert back["max_iterations"] == 7
        assert back["log2_features"] == [0, 2]
        assert back["on_failure"] == "drop"
        assert back["surrogate_options"] == [["use_workspace", False]]
        assert isinstance(back["kernel"], str)

    def test_trajectory_embeds_config(self, small_dataset, rng):
        partition = random_partition(rng, len(small_dataset), n_init=15, n_test=20)
        learner = ActiveLearner(
            small_dataset, partition, policy=RandGoodness(), rng=rng,
            config=ALConfig(max_iterations=2, n_restarts=0, hyper_refit_interval=2),
        )
        traj = learner.run()
        assert traj.config is not None
        assert traj.config == learner.config.describe()
        assert traj.config["max_iterations"] == 2
        json.dumps(traj.config)  # must stay serializable for trace metadata


class TestFingerprintMatchesPreviousRelease:
    """Checkpoints carry ``ALConfig.fingerprint()``, and a store refuses
    to resume a campaign whose stamp differs from its config's.

    These values were computed by the release that still had the
    ``model_factory``, ``cache_candidates`` and ``use_workspace`` fields;
    :meth:`ALConfig.describe` keeps their keys so its stores resume.  A
    failure here means stores written by that release would be refused:
    restore the missing ``describe()`` key, or bump ``CHECKPOINT_VERSION``
    (which refuses old stores loudly) and re-record the values.
    """

    @pytest.mark.parametrize(
        "fields, fingerprint",
        [
            ({}, "96920e3eb3f800b8"),
            ({"max_iterations": 8}, "c60d3b0c0d511934"),
            (
                {"num_fidelities": 2, "batch_size": 4, "round_budget_node_hours": 0.3},
                "a29b0a30b09c5952",
            ),
            # The workspace switch as the CLI spells it
            # (``--surrogate dense,use_workspace=false``).
            ({"surrogate_options": {"use_workspace": False}}, "842cd49c16341dc7"),
        ],
    )
    def test_fingerprint_is_unchanged(self, fields, fingerprint):
        assert ALConfig(**fields).fingerprint() == fingerprint
