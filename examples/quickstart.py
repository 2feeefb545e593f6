#!/usr/bin/env python
"""Quickstart: cost-aware Active Learning on the AMR performance dataset.

Reproduces the paper's core loop in ~30 seconds:

1. Generate the 600-job shock-bubble dataset on the simulated Edison.
2. Split it into Initial (50) / Active (350) / Test (200) partitions.
3. Run Active Learning with the RandGoodness policy for 60 iterations.
4. Report how the cost model improved and what the selections cost.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    ActiveLearner,
    ALConfig,
    RandGoodness,
    random_partition,
    run_campaign,
)
from repro.data import render_table1

def main() -> None:
    rng = np.random.default_rng(2024)

    print("Generating the 600-job campaign (Table I dataset)...")
    campaign = run_campaign(rng)
    dataset = campaign.dataset
    print(render_table1(dataset, compare_paper=True))
    print()

    partition = random_partition(rng, len(dataset), n_init=50, n_test=200)
    print(
        f"Partitions: Initial={partition.n_init}, "
        f"Active={partition.n_active}, Test={partition.n_test}"
    )

    learner = ActiveLearner(
        dataset,
        partition,
        policy=RandGoodness(),
        rng=rng,
        # refit hyperparameters every other step
        config=ALConfig(max_iterations=60, hyper_refit_interval=2),
    )
    print("Running 60 AL iterations with RandGoodness...")
    trajectory = learner.run()

    print(f"\nInitial cost RMSE : {trajectory.initial_rmse_cost:8.3f} node-hours")
    print(f"Final cost RMSE   : {trajectory.final_rmse_cost:8.3f} node-hours")
    print(f"Total cost spent  : {trajectory.total_cost:8.2f} node-hours")
    print(f"Median selection  : {np.median(trajectory.costs):8.4f} node-hours")
    print(f"Dataset median    : {np.median(dataset.cost):8.4f} node-hours")
    print(
        "\nRandGoodness selected experiments "
        f"{np.median(dataset.cost) / np.median(trajectory.costs):.1f}x cheaper "
        "than the dataset median while still improving the model."
    )


if __name__ == "__main__":
    main()
