"""Ablation C: sensitivity of RGMA to the memory limit L_mem.

Sweeps the limit from permissive (nothing filtered) to aggressive (most of
the pool filtered).  Tighter limits must reduce the number of violating
selections; at the extreme the policy terminates early because no
candidate is predicted safe.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ActiveLearner, ALConfig, RGMA, random_partition
from repro.core.trajectory import StopReason

SEEDS = (5, 6)
ITERATIONS = 60


def limits_for(dataset):
    """Permissive / paper-rule / aggressive limits, in MB."""
    return {
        "permissive(99%)": dataset.memory_limit(log_fraction=0.99),
        "paper(95%)": dataset.memory_limit(log_fraction=0.95),
        "tight(80%)": dataset.memory_limit(log_fraction=0.80),
        "extreme(40%)": dataset.memory_limit(log_fraction=0.40),
    }


def run_one(dataset, limit, seed, refit):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        part,
        policy=RGMA(memory_limit_MB=limit),
        rng=rng,
        config=ALConfig(max_iterations=ITERATIONS, hyper_refit_interval=refit),
    )
    return learner.run()


def test_ablation_memory_limit(benchmark, report, dataset, bench_scale):
    refit = bench_scale["hyper_refit_interval"]
    limits = limits_for(dataset)
    results = {}

    def run():
        for name, lim in limits.items():
            results[name] = [run_one(dataset, lim, s, refit) for s in SEEDS]

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, lim in limits.items():
        trajs = results[name]
        pool_frac = float((dataset.mem >= lim).mean())
        viol = float(np.median([np.sum(t.mems >= lim) for t in trajs]))
        regret = float(np.median([t.total_regret for t in trajs]))
        early = sum(t.stop_reason == StopReason.MEMORY_CONSTRAINED for t in trajs)
        rows.append([name, lim, pool_frac, viol, regret, early])
    report(
        "ablation_memory_limit",
        format_table(
            ["limit", "L_mem_MB", "pool_frac_over", "violations", "regret_nh", "early_stops"],
            rows,
        ),
    )

    # --- shape assertions -------------------------------------------------------
    # Tighter limits filter more of the pool.
    fracs = [(dataset.mem >= lim).mean() for lim in limits.values()]
    assert fracs == sorted(fracs)
    # Violations per selected sample stay rare under the paper rule.
    paper_viol = np.median(
        [np.mean(t.mems >= limits["paper(95%)"]) for t in results["paper(95%)"]]
    )
    assert paper_viol < 0.1
    # The extreme limit filters most of the pool; RGMA either terminates
    # early or keeps violations at a handful.
    extreme = results["extreme(40%)"]
    assert all(
        t.stop_reason == StopReason.MEMORY_CONSTRAINED
        or np.sum(t.mems >= limits["extreme(40%)"]) <= ITERATIONS // 4
        for t in extreme
    )
