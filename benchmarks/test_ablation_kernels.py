"""Ablation A: kernel choice (paper Sec. VI future work).

The paper uses an isotropic RBF kernel for comparability with earlier work
and defers anisotropic RBF and Matérn kernels to future work.  This
ablation runs the same MaxSigma AL trajectory under each kernel and
compares final cost-model RMSE — quantifying what the proposed extensions
would buy.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, MaxSigma, random_partition
from repro.gp import default_kernel

KERNELS = {
    "rbf_isotropic": lambda: default_kernel(),
    "rbf_anisotropic": lambda: default_kernel(anisotropic_dims=5),
    "matern_1.5": lambda: default_kernel(matern_nu=1.5),
    "matern_2.5": lambda: default_kernel(matern_nu=2.5),
}
SEEDS = (0, 1)
ITERATIONS = 40


def run_one(dataset, kernel_factory, seed, refit):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        part,
        policy=MaxSigma(),
        rng=rng,
        config=ALConfig(
            kernel=kernel_factory(),
            max_iterations=ITERATIONS,
            hyper_refit_interval=refit,
        ),
    )
    return learner.run()


def test_ablation_kernel_choice(benchmark, report, dataset, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    results = {}

    def run():
        for name, factory in KERNELS.items():
            results[name] = [run_one(dataset, factory, s, refit) for s in SEEDS]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, trajs in results.items():
        rows.append(
            [
                name,
                float(np.median([t.initial_rmse_cost for t in trajs])),
                float(np.median([t.final_rmse_cost for t in trajs])),
                float(np.median([t.final_rmse_mem for t in trajs])),
            ]
        )
    report(
        "ablation_kernels",
        format_table(["kernel", "rmse0_cost", "rmse_cost", "rmse_mem"], rows),
    )

    # --- shape assertions -----------------------------------------------------
    # Every kernel produces a usable model (finite, improving on the prior
    # scale of the response).
    for name, trajs in results.items():
        final = np.median([t.final_rmse_cost for t in trajs])
        assert np.isfinite(final), name
        assert final < float(dataset.cost.max()), name
    # The anisotropic kernel, with per-feature length scales, should not be
    # substantially worse than the isotropic one on this anisotropic
    # response surface.
    iso = np.median([t.final_rmse_cost for t in results["rbf_isotropic"]])
    ard = np.median([t.final_rmse_cost for t in results["rbf_anisotropic"]])
    assert ard < 3.0 * iso
