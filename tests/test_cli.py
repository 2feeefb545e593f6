"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.seed == 42 and args.out is None

    def test_run_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])


class TestDatasetCommand:
    def test_prints_table1(self, capsys):
        assert main(["dataset", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Response: cost, node-hours" in out
        assert "core-hours" in out

    def test_saves_csv_and_npz(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        npz = tmp_path / "d.npz"
        assert main(["dataset", "--out", str(csv)]) == 0
        assert main(["dataset", "--out", str(npz)]) == 0
        assert csv.exists() and npz.exists()

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        assert main(["dataset", "--out", str(tmp_path / "d.parquet")]) == 2


class TestRunCommand:
    def test_run_on_saved_dataset(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            [
                "run",
                "--dataset",
                str(csv),
                "--policy",
                "min_pred",
                "--iterations",
                "5",
                "--n-init",
                "20",
                "--n-test",
                "50",
                "--refit-interval",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final cost RMSE" in out
        assert "min_pred" in out

    def test_run_rgma_defaults_to_paper_limit(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            [
                "run",
                "--dataset",
                str(csv),
                "--policy",
                "rgma",
                "--iterations",
                "4",
                "--n-init",
                "20",
                "--n-test",
                "50",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L_mem" in out
        assert "cumulative regret" in out

    def test_run_with_log2_features(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            [
                "run",
                "--dataset",
                str(csv),
                "--iterations",
                "3",
                "--n-init",
                "15",
                "--n-test",
                "40",
                "--log2-features",
                "0",
                "1",
            ]
        )
        assert rc == 0


class TestSimulateCommand:
    def test_simulate_small_job(self, capsys):
        rc = main(
            [
                "simulate",
                "--p",
                "4",
                "--mx",
                "8",
                "--maxlevel",
                "2",
                "--t-end",
                "0.02",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted cost" in out
        assert "patches per level" in out


@pytest.fixture(scope="module")
def service_dataset_csv(tmp_path_factory):
    """One saved dataset shared by every campaign-service CLI test."""
    csv = tmp_path_factory.mktemp("svc") / "d.csv"
    assert main(["dataset", "--out", str(csv), "--seed", "1"]) == 0
    return str(csv)


def _submit(store, csv, cid, extra=()):
    return main(
        ["campaign", "submit", "--store", store, "--dataset", csv,
         "--id", cid, "--policy", "max_sigma", "--base-seed", "3",
         "--n-init", "20", "--n-test", "30", "--iterations", "4", *extra]
    )


class TestServeCommand:
    def test_submit_serve_list_roundtrip(
        self, tmp_path, capsys, service_dataset_csv
    ):
        store = str(tmp_path / "store")
        assert _submit(store, service_dataset_csv, "c0") == 0
        capsys.readouterr()
        assert main(
            ["serve", "--store", store, "--dataset", service_dataset_csv,
             "--steps-per-slice", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 done, 0 failed" in out
        assert main(
            ["campaign", "list", "--store", store,
             "--dataset", service_dataset_csv]
        ) == 0
        out = capsys.readouterr().out
        assert "c0" in out and "done" in out

    def test_serve_with_chaos_exports_observability(
        self, tmp_path, capsys, service_dataset_csv
    ):
        store = str(tmp_path / "store")
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert _submit(store, service_dataset_csv, "chaotic") == 0
        assert main(
            ["serve", "--store", store, "--dataset", service_dataset_csv,
             "--steps-per-slice", "2", "--chaos-crash-prob", "0.3",
             "--chaos-seed", "5", "--trace-out", str(trace),
             "--metrics-out", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 done, 0 failed" in out
        assert trace.exists() and metrics.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--budget", "0"], "budget_node_hours must be positive"),
            (["--budget", "nan"], "budget_node_hours must be positive"),
            (
                ["--policy", "rgma", "--memory-limit", "nan"],
                "memory limit must be positive",
            ),
        ],
        ids=["budget-0", "budget-nan", "memory-limit-nan"],
    )
    def test_submit_rejects_a_spec_that_is_not_positive(
        self, tmp_path, capsys, service_dataset_csv, extra, message
    ):
        from repro.core import CheckpointStore

        store = str(tmp_path / "store")
        assert _submit(store, service_dataset_csv, "c0", extra) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert CheckpointStore(store).campaign_ids() == []

    def test_pause_resume_cycle(self, tmp_path, capsys, service_dataset_csv):
        store = str(tmp_path / "store")
        assert _submit(store, service_dataset_csv, "c0") == 0
        assert main(
            ["campaign", "pause", "--store", store,
             "--dataset", service_dataset_csv, "--id", "c0"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "list", "--store", store,
             "--dataset", service_dataset_csv]
        ) == 0
        assert "paused" in capsys.readouterr().out
        assert main(
            ["campaign", "resume", "--store", store,
             "--dataset", service_dataset_csv, "--id", "c0"]
        ) == 0
        assert main(
            ["serve", "--store", store, "--dataset", service_dataset_csv,
             "--steps-per-slice", "2"]
        ) == 0
        assert "1 done, 0 failed" in capsys.readouterr().out


def _train_policy_file(dir_):
    """A tiny scorer trained on a synthetic log — fast, no campaign replay."""
    from repro.policy import DecisionLog, train_scorer
    from repro.policy.features import FEATURE_NAMES

    rng = np.random.default_rng(0)
    decisions = [
        (rng.standard_normal((8, len(FEATURE_NAMES))), int(rng.integers(8)))
        for _ in range(10)
    ]
    scorer, _ = train_scorer(
        DecisionLog.from_decisions(decisions), hidden=4, epochs=4, seed=0
    )
    path = dir_ / "policy.npz"
    scorer.save(path)
    return str(path)


class TestRegistrySelectors:
    def test_list_policies(self, capsys):
        assert main(["run", "--list-policies"]) == 0
        out = capsys.readouterr().out.split()
        assert "rgma" in out and "portfolio" in out and "amortized" in out

    def test_list_surrogates(self, capsys):
        assert main(["run", "--list-surrogates"]) == 0
        out = capsys.readouterr().out.split()
        assert "dense" in out and "sparse" in out and "multifidelity" in out

    def test_unknown_policy_exits_listing_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--policy", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown policy 'nope'" in err and "rgma" in err

    def test_unknown_surrogate_exits_listing_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--surrogate", "nope"])
        assert exc.value.code == 2
        assert "unknown surrogate 'nope'" in capsys.readouterr().err

    def test_selector_option_suffix(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            ["run", "--dataset", str(csv), "--policy", "rand_goodness",
             "--surrogate", "sparse,n_inducing=16", "--iterations", "3",
             "--n-init", "20", "--n-test", "40"]
        )
        assert rc == 0
        assert "sparse" in capsys.readouterr().out

    def test_bad_option_suffix_exits(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--surrogate", "sparse,n_inducing"]
            )
        assert "key=value" in capsys.readouterr().err


class TestMultiFidelityCLI:
    def test_run_mf_portfolio(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            ["run", "--dataset", str(csv), "--fidelities", "2",
             "--batch-size", "3", "--round-budget", "0.5",
             "--iterations", "8", "--n-init", "20", "--n-test", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "fidelities" in out and "node-hours committed" in out

    def test_acquisition_faults_rejected_in_mf_mode(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv)])
        capsys.readouterr()
        rc = main(
            ["run", "--dataset", str(csv), "--fidelities", "2",
             "--acq-crash-prob", "0.5", "--iterations", "3",
             "--n-init", "20", "--n-test", "40"]
        )
        assert rc == 2
        assert "fault" in capsys.readouterr().err

    def test_submit_serve_mf_campaign(self, tmp_path, capsys, service_dataset_csv):
        store = str(tmp_path / "store")
        rc = main(
            ["campaign", "submit", "--store", store,
             "--dataset", service_dataset_csv, "--id", "mf0",
             "--policy", "portfolio", "--fidelities", "2",
             "--batch-size", "2", "--round-budget", "0.5",
             "--base-seed", "3", "--n-init", "20", "--n-test", "30",
             "--iterations", "4"]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(
            ["serve", "--store", store, "--dataset", service_dataset_csv,
             "--steps-per-slice", "2"]
        ) == 0
        assert "1 done, 0 failed" in capsys.readouterr().out


class TestAmortizedCLI:
    def test_run_amortized_skips_gp(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        main(["dataset", "--out", str(csv), "--seed", "1"])
        pf = _train_policy_file(tmp_path)
        capsys.readouterr()
        rc = main(
            ["run", "--dataset", str(csv),
             "--policy", f"amortized,policy_file={pf}", "--iterations", "3",
             "--n-init", "20", "--n-test", "30"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy            : amortized" in out
        assert "final cost RMSE   : nan" in out  # zero-refit: no surrogate

    def test_submit_amortized_requires_policy_file(
        self, tmp_path, capsys, service_dataset_csv
    ):
        rc = main(
            ["campaign", "submit", "--store", str(tmp_path / "store"),
             "--dataset", service_dataset_csv, "--id", "a0",
             "--policy", "amortized", "--iterations", "3"]
        )
        assert rc == 2
        assert "--policy amortized,policy_file=PATH" in capsys.readouterr().err

    def test_submit_and_serve_amortized(
        self, tmp_path, capsys, service_dataset_csv
    ):
        store = str(tmp_path / "store")
        pf = _train_policy_file(tmp_path)
        rc = main(
            ["campaign", "submit", "--store", store,
             "--dataset", service_dataset_csv, "--id", "a0",
             "--policy", f"amortized,policy_file={pf}",
             "--n-init", "20", "--n-test", "30", "--iterations", "4"]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(
            ["serve", "--store", store, "--dataset", service_dataset_csv,
             "--steps-per-slice", "2"]
        ) == 0
        assert "1 done, 0 failed" in capsys.readouterr().out
