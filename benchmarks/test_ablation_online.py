"""Ablation F: online vs. offline Active Learning (paper Sec. IV).

The paper's analysis framework is offline — it "consult[s] a database of
precomputed performance samples", which "enables cross-validation and thus
robust comparison of AL strategies with modest computational cost" — and
contrasts it with an online system that actually runs each selected
experiment.  This benchmark runs both modes with the same policy and
verifies they tell the same story: cheap-leaning selection, improving
models, memory-aware crash avoidance.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, RGMA, random_partition
from repro.core.online import OnlineActiveLearner
from repro.machine import JobRunner

RUNS = 40


def test_ablation_online_vs_offline(benchmark, report, dataset, memory_limit, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    holder = {}

    def run():
        # Offline: the paper's simulator over the precomputed dataset.
        rng = np.random.default_rng(7)
        part = random_partition(rng, len(dataset), n_init=50, n_test=200)
        holder["offline"] = ActiveLearner(
            dataset,
            part,
            policy=RGMA(memory_limit_MB=memory_limit),
            rng=rng,
            config=ALConfig(max_iterations=RUNS, hyper_refit_interval=refit),
        ).run()
        # Online: decide, execute on the simulated machine, learn.
        holder["online"] = OnlineActiveLearner(
            runner=JobRunner(),
            policy=RGMA(memory_limit_MB=memory_limit),
            rng=np.random.default_rng(7),
            n_init=5,
            n_eval=200,
            max_runs=RUNS,
            hyper_refit_interval=refit,
        ).run()

    benchmark.pedantic(run, rounds=1, iterations=1)

    off = holder["offline"]
    onl = holder["online"]
    rows = [
        [
            "offline",
            len(off),
            float(np.median(off.costs)),
            off.total_cost,
            off.total_regret,
            off.initial_rmse_cost,
            off.final_rmse_cost,
        ],
        [
            "online",
            len(onl.trajectory),
            float(np.median(onl.trajectory.costs)),
            onl.trajectory.total_cost,
            onl.trajectory.total_regret,
            onl.trajectory.initial_rmse_cost,
            onl.trajectory.final_rmse_cost,
        ],
    ]
    report(
        "ablation_online_vs_offline",
        format_table(
            ["mode", "iters", "med_sel_cost", "total_cost", "regret", "rmse0", "rmse"],
            rows,
        ),
    )

    # --- shape assertions -----------------------------------------------------
    # Both modes select cheap experiments relative to their candidate pools.
    assert np.median(off.costs) < np.median(dataset.cost)
    # Both models improve (or at worst hold) from their pre-AL state.
    assert off.final_rmse_cost < off.initial_rmse_cost * 1.5
    assert onl.trajectory.final_rmse_cost < onl.trajectory.initial_rmse_cost * 1.5
    # RGMA keeps crashes rare in both modes.
    assert off.total_regret <= 0.25 * off.total_cost + 1e-9
    assert len(onl.failed_configs) <= RUNS // 5
