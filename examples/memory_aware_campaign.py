#!/usr/bin/env python
"""The paper's two-phase, memory-constrained experimentation workflow.

Sec. V-B motivates RGMA with this scenario:

- Phase 1: a small set of Initial simulations runs in an environment with
  ample memory (a bigmem queue); experimenter intuition picks them.
- Phase 2: experimentation moves to a cheaper environment with *less*
  memory per node (limit L_mem).  AL takes over; selections whose true
  memory reaches L_mem crash near completion and waste their full cost
  (the "individual regret").

This example runs phase 2 with the memory-aware RGMA and with the
memory-blind MaxSigma on identical partitions, and compares cumulative
regret, the paper's Fig. 4 story in miniature.

Run:  python examples/memory_aware_campaign.py
"""

import numpy as np

from repro import (
    ActiveLearner,
    ALConfig,
    MaxSigma,
    RGMA,
    random_partition,
    run_campaign,
)
from repro.analysis import format_table

ITERATIONS = 80


def run_phase2(dataset, policy, seed):
    rng = np.random.default_rng(seed)
    partition = random_partition(rng, len(dataset), n_init=50, n_test=200)
    learner = ActiveLearner(
        dataset,
        partition,
        policy=policy,
        rng=rng,
        config=ALConfig(max_iterations=ITERATIONS, hyper_refit_interval=2),
    )
    return learner.run()


def main() -> None:
    rng = np.random.default_rng(7)
    dataset = run_campaign(rng).dataset

    # The paper's limit rule: 95% of the largest log(bytes) memory usage,
    # equivalently 42% of the largest raw response.
    l_mem = dataset.memory_limit(log_fraction=0.95)
    over = float((dataset.mem >= l_mem).mean())
    print(
        f"L_mem = {l_mem:.2f} MB "
        f"({l_mem / dataset.mem.max() * 100:.0f}% of max, "
        f"{over * 100:.1f}% of jobs would crash)"
    )

    rows = []
    for seed in (1, 2, 3):
        t_rgma = run_phase2(dataset, RGMA(memory_limit_MB=l_mem), seed)
        t_blind = run_phase2(dataset, MaxSigma(), seed)
        regret_blind = float(np.where(t_blind.mems >= l_mem, t_blind.costs, 0).sum())
        rows.append(
            [
                seed,
                int(np.sum(t_rgma.mems >= l_mem)),
                t_rgma.total_regret,
                t_rgma.final_rmse_mem,
                int(np.sum(t_blind.mems >= l_mem)),
                regret_blind,
                t_blind.final_rmse_mem,
            ]
        )

    print()
    print(
        format_table(
            [
                "seed",
                "rgma_crashes",
                "rgma_regret_nh",
                "rgma_rmse_mem",
                "blind_crashes",
                "blind_regret_nh",
                "blind_rmse_mem",
            ],
            rows,
        )
    )
    print(
        "\nRGMA's memory model steers selection away from configurations "
        "that would exceed the limit; the memory-blind uncertainty sampler "
        "keeps buying doomed (and expensive) experiments."
    )


if __name__ == "__main__":
    main()
