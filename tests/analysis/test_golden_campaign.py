"""Golden-value tests: the analysis stack on a real (tiny) campaign.

``test_analysis.py`` checks the aggregation/tradeoff/violin machinery on
hand-built trajectories; here the inputs are three genuine AL trajectories
run on the deterministic 120-job fixture campaign, and the outputs are
pinned to golden numbers.  Any change that perturbs the campaign
generator, the AL loop's RNG consumption, or the analysis math shows up
as a diff against these constants.

Goldens were produced by running this exact pipeline once at the fixture
seeds (campaign seed 7, trajectory base seed 101).
"""

import numpy as np
import pytest

from repro.analysis.aggregate import median_curve, quantile_band, stack_metric
from repro.analysis.distributions import cost_distribution_table, violin_stats
from repro.analysis.tradeoff import interpolate_rmse_at_cost, tradeoff_curve
from repro.core.batch import TrajectorySpec, run_trajectories
from repro.core.policies import RandGoodness

REL = 1e-6

#: Selected dataset rows per trajectory — exact integers, no tolerance.
GOLDEN_SELECTIONS = {
    "t0": [0, 60, 15, 59, 42, 37],
    "t1": [32, 110, 28, 91, 10, 94],
    "t2": [84, 87, 37, 118, 66, 32],
}

GOLDEN_TOTAL_COST = {"t0": 0.6447298604, "t1": 0.3285267596, "t2": 0.2160672595}

GOLDEN_RMSE_COST = {
    "t0": [0.5762470573, 0.5675278817, 0.5376534241, 0.4625454499,
           0.3808400635, 0.3818027417],
    "t1": [2.6942837375, 2.9075664078, 2.8351445959, 2.8763614453,
           2.6806908301, 2.8386946764],
    "t2": [3.3668807762, 0.6096133940, 2.8934703008, 2.9524926079,
           2.0723763738, 2.0242948983],
}


@pytest.fixture(scope="module")
def golden_trajs(small_dataset):
    specs = [
        TrajectorySpec(
            name=f"t{i}", policy_factory=RandGoodness, base_seed=101,
            traj_index=i, n_init=15, n_test=20, max_iterations=6,
            hyper_refit_interval=2,
        )
        for i in range(3)
    ]
    return run_trajectories(small_dataset, specs, max_workers=1)


class TestTrajectoryGoldens:
    def test_selected_indices_pinned(self, golden_trajs):
        for name, traj in golden_trajs:
            assert traj.selected_indices.tolist() == GOLDEN_SELECTIONS[name]

    def test_rmse_curves_pinned(self, golden_trajs):
        for name, traj in golden_trajs:
            assert traj.rmse_cost == pytest.approx(GOLDEN_RMSE_COST[name], rel=REL)

    def test_total_cost_pinned(self, golden_trajs):
        for name, traj in golden_trajs:
            assert traj.total_cost == pytest.approx(GOLDEN_TOTAL_COST[name], rel=REL)


class TestDistributionGoldens:
    def test_violin_stats_of_selected_costs(self, golden_trajs):
        costs = np.concatenate([t.costs for _, t in golden_trajs])
        vs = violin_stats("rand_goodness", costs)
        assert vs.n == 18
        assert vs.median == pytest.approx(0.0304182109, rel=REL)
        assert vs.q1 == pytest.approx(0.0076774448, rel=REL)
        assert vs.q3 == pytest.approx(0.0600281558, rel=REL)
        assert vs.minimum == pytest.approx(0.0069661380, rel=REL)
        assert vs.maximum == pytest.approx(0.4369692091, rel=REL)
        assert vs.density.max() == pytest.approx(1.0)
        # KDE peak sits just above the median for this right-skewed sample.
        assert vs.grid[np.argmax(vs.density)] == pytest.approx(0.0384415111, rel=REL)

    def test_table_contains_golden_median(self, golden_trajs):
        costs = np.concatenate([t.costs for _, t in golden_trajs])
        text = cost_distribution_table([violin_stats("rand_goodness", costs)])
        assert "0.0304" in text


class TestAggregateGoldens:
    def test_median_curve_pinned(self, golden_trajs):
        trajs = [t for _, t in golden_trajs]
        med = median_curve(trajs, "rmse_cost")
        assert med == pytest.approx(
            [2.6942837375, 0.6096133940, 2.8351445959, 2.8763614453,
             2.0723763738, 2.0242948983],
            rel=REL,
        )

    def test_quantile_band_pinned(self, golden_trajs):
        trajs = [t for _, t in golden_trajs]
        lo, hi = quantile_band(trajs, "rmse_cost")
        assert lo == pytest.approx(
            [1.6352653974, 0.5885706378, 1.6863990100, 1.6694534476,
             1.2266082187, 1.2030488200],
            rel=REL,
        )
        assert hi == pytest.approx(
            [3.0305822568, 1.7585899009, 2.8643074483, 2.9144270266,
             2.3765336019, 2.4314947874],
            rel=REL,
        )

    def test_cumulative_cost_stack_pinned(self, golden_trajs):
        trajs = [t for _, t in golden_trajs]
        stacked = stack_metric(trajs, "cumulative_cost")
        assert stacked.shape == (3, 6)
        assert stacked[:, -1] == pytest.approx(
            [0.6447298604, 0.3285267596, 0.2160672595], rel=REL
        )


class TestTradeoffGoldens:
    GRID = np.array([0.05, 0.2, 0.5, 1.0])

    def test_step_interpolation_pinned(self, golden_trajs):
        trajs = {name: t for name, t in golden_trajs}
        out = interpolate_rmse_at_cost(trajs["t0"], self.GRID)
        assert out[:3] == pytest.approx(
            [0.5762470573, 0.5376534241, 0.5376534241], rel=REL
        )
        assert np.isnan(out[3])  # beyond t0's total spend
        out1 = interpolate_rmse_at_cost(trajs["t1"], self.GRID)
        assert out1[:2] == pytest.approx([2.9075664078, 2.8351445959], rel=REL)
        assert np.isnan(out1[2]) and np.isnan(out1[3])

    def test_tradeoff_curve_pinned(self, golden_trajs):
        trajs = [t for _, t in golden_trajs]
        curve = tradeoff_curve("rg", trajs, cost_grid=self.GRID)
        assert curve.n_trajectories == 3
        assert curve.rmse_median[:3] == pytest.approx(
            [0.6096133940, 2.8351445959, 0.5376534241], rel=REL
        )
        # All three trajectories have finished spending by 1.0 node-hours.
        assert np.isnan(curve.rmse_median[3])
