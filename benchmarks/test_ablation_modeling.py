"""Ablation E: the paper's Sec. V-D modeling refinements.

Three variants of the surrogate modeling, against the paper's baseline:

1. ``log2(p), log2(mx)`` features — powers-of-two features modeled through
   their exponent ("the point with 2^3 processors is spaced equally from
   2^2 as it is from 2^4").
2. Local GP models (Sec. VI: "train multiple local performance models").
3. Cost-weighted RMSE (Eq. (12) with rho = diag(test costs)) recorded
   alongside the uniform metric — the scale-dependent error view.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, MaxSigma, random_partition

SEEDS = (0, 1)
ITERATIONS = 40


def run_variant(dataset, seed, refit, **learner_kw):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        part,
        policy=MaxSigma(),
        rng=rng,
        config=ALConfig(
            max_iterations=ITERATIONS,
            hyper_refit_interval=refit,
            weight_rmse_by_cost=True,
            **learner_kw,
        ),
    )
    return learner.run()


VARIANTS = {
    "baseline": {},
    "log2_p_mx": dict(log2_features=(0, 1)),
    # LocalGPRegressor's own default of one LML restart, not the config's 2.
    "local_gp_k4": dict(
        surrogate="local", surrogate_options={"n_regions": 4, "n_restarts": 1}
    ),
}


def test_ablation_modeling_variants(benchmark, report, dataset, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    results = {}

    def run():
        for name, kw in VARIANTS.items():
            results[name] = [run_variant(dataset, s, refit, **dict(kw)) for s in SEEDS]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, trajs in results.items():
        rows.append(
            [
                name,
                float(np.median([t.final_rmse_cost for t in trajs])),
                float(np.median([t.records[-1].rmse_cost_weighted for t in trajs])),
                float(np.median([t.final_rmse_mem for t in trajs])),
            ]
        )
    report(
        "ablation_modeling",
        format_table(
            ["variant", "rmse_cost", "rmse_cost_weighted", "rmse_mem"], rows
        ),
    )

    # --- shape assertions -----------------------------------------------------
    base = np.median([t.final_rmse_cost for t in results["baseline"]])
    for name, trajs in results.items():
        final = np.median([t.final_rmse_cost for t in trajs])
        assert np.isfinite(final), name
        # No variant should catastrophically degrade the model.
        assert final < 6.0 * base + 1.0, name
    # The weighted metric is larger than the uniform one here: big-cost test
    # samples carry the largest absolute errors (the Sec. V-D argument for
    # scale-dependent weighting).
    for trajs in results.values():
        for t in trajs:
            last = t.records[-1]
            assert last.rmse_cost_weighted > last.rmse_cost
