"""Ablation B: the base of the RandGoodness distribution.

The paper picks base 10 "since we apply the logarithm base 10 ... in the
pre-processing step; higher bases will lead to more skewed candidate
distributions".  This ablation verifies that claim: the selected-cost
median drops (more exploitation) as the base grows, while small bases
approach uniform sampling.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, RandGoodness, random_partition

BASES = (2.0, 10.0, 100.0)
SEEDS = (3, 4)
ITERATIONS = 60


def run_one(dataset, base, seed, refit):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        part,
        policy=RandGoodness(base=base),
        rng=rng,
        config=ALConfig(max_iterations=ITERATIONS, hyper_refit_interval=refit),
    )
    return learner.run()


def test_ablation_goodness_base(benchmark, report, dataset, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    results = {}

    def run():
        for base in BASES:
            results[base] = [run_one(dataset, base, s, refit) for s in SEEDS]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for base, trajs in results.items():
        costs = np.concatenate([t.costs for t in trajs])
        rows.append(
            [
                base,
                float(np.median(costs)),
                float(np.percentile(costs, 90)),
                float(np.median([t.total_cost for t in trajs])),
                float(np.median([t.final_rmse_cost for t in trajs])),
            ]
        )
    report(
        "ablation_goodness_base",
        format_table(
            ["base", "sel_cost_median", "sel_cost_p90", "total_cost", "rmse_cost"], rows
        ),
    )

    # --- shape assertions: higher base => cheaper selections -----------------
    med = {base: np.median(np.concatenate([t.costs for t in results[base]])) for base in BASES}
    assert med[100.0] <= med[2.0]
    total = {base: np.median([t.total_cost for t in results[base]]) for base in BASES}
    assert total[100.0] < total[2.0]
