"""Golden pins of the online (decide-run-learn) learner.

Every run configuration of ``tests/core/test_online.py``, plus Ablation
F's RGMA run at refit interval 2 over the full Table I grid, is pinned
exactly and NaN-aware:

- the executed and the failed configurations, in execution order;
- each record's grid index, cost, MaxRSS (``inf`` for a run that ran
  out of memory), cost and memory RMSE, cumulative cost and cumulative
  regret;
- the initial RMSE pair, the stop reason, the policy name and the total
  node-hours.

One more run has a memory model that no initial run could train and
first fits on a frozen-theta iteration.

A run whose models never saw a MaxRSS reports a NaN memory RMSE, so
NaNs compare equal here.  The values live in ``online_golden.json``.
``PYTHONPATH=src python -m tests.core.test_online_golden`` rewrites that
file from the current code; a rewritten file needs the reason the runs
moved.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.online import OnlineActiveLearner
from repro.core.policies import MinPred, RGMA, RandGoodness
from repro.data.space import TABLE1_SPACE
from repro.machine.runner import JobRunner
from tests.core.test_online import SMALL_SPACE

GOLDEN_PATH = Path(__file__).with_name("online_golden.json")

#: L_mem of the benchmarks' 600-job dataset (``run_campaign`` at seed 42).
ABLATION_F_LIMIT_MB = 17.419803095401797

#: ``make_online`` keyword overrides: test_online.py's configurations, plus one.
SMALL_CASES = {
    "rand_goodness": dict(policy=RandGoodness),
    "rand_goodness_20": dict(policy=RandGoodness, max_runs=20),
    "rand_goodness_exhaust": dict(policy=RandGoodness, max_runs=100),
    "min_pred_repeats": dict(policy=MinPred, max_runs=60, allow_repeats=True),
    "rand_goodness_seed3": dict(policy=RandGoodness, max_runs=30, seed=3),
    "oom_limit_0.3": dict(
        policy=RandGoodness, max_runs=25, memory_limit_MB=0.3, seed=5
    ),
    "rgma_limit_5": dict(policy=lambda: RGMA(memory_limit_MB=5.0)),
    "blind_limit_1": dict(
        policy=RandGoodness, max_runs=25, memory_limit_MB=1.0, seed=8
    ),
    "rgma_limit_1": dict(
        policy=lambda: RGMA(memory_limit_MB=1.0),
        max_runs=25,
        memory_limit_MB=1.0,
        seed=8,
    ),
    "rand_goodness_seed11": dict(policy=RandGoodness, seed=11),
    # Every initial run and the first three picks run out of memory, so the
    # memory model first fits at iteration 3, a frozen-theta iteration.
    "oom_first_memory_at_refactor": dict(
        policy=RandGoodness, memory_limit_MB=0.3, seed=14
    ),
}

CASE_NAMES = (*SMALL_CASES, "ablation_f")


def build_case(name: str) -> OnlineActiveLearner:
    if name == "ablation_f":
        return OnlineActiveLearner(
            runner=JobRunner(),
            policy=RGMA(memory_limit_MB=ABLATION_F_LIMIT_MB),
            rng=np.random.default_rng(7),
            space=TABLE1_SPACE,
            n_init=5,
            n_eval=200,
            max_runs=40,
            hyper_refit_interval=2,
        )
    kw = dict(SMALL_CASES[name])
    policy = kw.pop("policy")()
    seed = kw.pop("seed", 0)
    args = dict(
        runner=JobRunner(),
        policy=policy,
        rng=np.random.default_rng(seed),
        space=SMALL_SPACE,
        n_init=4,
        n_eval=20,
        max_runs=10,
        hyper_refit_interval=2,
    )
    args.update(kw)
    return OnlineActiveLearner(**args)


def run_case(name: str):
    return build_case(name).run()


def summarize(result) -> dict:
    t = result.trajectory
    records = t.records
    return dict(
        policy=t.policy_name,
        stop=t.stop_reason.value,
        initial_rmse=[t.initial_rmse_cost, t.initial_rmse_mem],
        total_node_hours=result.total_node_hours,
        executed=[list(c.as_features()) for c in result.executed],
        failed=[list(c.as_features()) for c in result.failed_configs],
        index=[r.dataset_index for r in records],
        cost=[r.cost for r in records],
        mem=[r.mem for r in records],
        rmse_cost=[r.rmse_cost for r in records],
        rmse_mem=[r.rmse_mem for r in records],
        cumulative_cost=[r.cumulative_cost for r in records],
        cumulative_regret=[r.cumulative_regret for r in records],
    )


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_online_run_pinned(name):
    want = _load_golden()[name]
    got = summarize(run_case(name))
    assert got.keys() == want.keys()
    for key in ("policy", "stop", "index"):
        assert got[key] == want[key], key
    for key in sorted(got.keys() - {"policy", "stop", "index"}):
        g = np.asarray(got[key], dtype=np.float64)
        w = np.asarray(want[key], dtype=np.float64)
        assert g.shape == w.shape, key
        assert np.array_equal(g, w, equal_nan=True), key


@pytest.mark.parametrize("name", ["oom_limit_0.3", "min_pred_repeats"])
def test_pickled_mid_run_resumes_to_the_pin(name):
    """Online runs checkpoint like offline ones: a learner pickled between
    steps finishes the pinned run."""
    learner = build_case(name)
    for _ in range(5):
        assert learner.step()
    resumed = pickle.loads(pickle.dumps(learner))
    got, want = summarize(resumed.run()), _load_golden()[name]
    assert got["index"] == want["index"]
    assert np.array_equal(got["rmse_mem"], want["rmse_mem"], equal_nan=True)
    assert got["executed"] == want["executed"]


def test_pins_cover_oom_and_unobserved_memory():
    """The pinned runs reach out-of-memory picks, a memory model with no
    data, repeats, both stop reasons, and a first memory fit on a
    frozen-theta iteration."""
    golden = _load_golden()
    assert any(np.isinf(golden[n]["mem"]).any() for n in CASE_NAMES)
    assert any(np.isnan(golden[n]["rmse_mem"]).any() for n in CASE_NAMES)
    repeats = golden["min_pred_repeats"]["index"]
    assert len(set(repeats)) < len(repeats)
    assert {golden[n]["stop"] for n in CASE_NAMES} >= {
        "exhausted",
        "max_iterations",
    }
    late = golden["oom_first_memory_at_refactor"]
    first = int(np.flatnonzero(np.isfinite(late["mem"]))[0])
    assert np.isnan(late["initial_rmse"][1]) and first % 2 == 1


def _write_golden() -> None:
    lines = ["{"]
    for i, name in enumerate(CASE_NAMES):
        fields = summarize(run_case(name))
        lines.append(f"  {json.dumps(name)}: {{")
        for j, (key, value) in enumerate(fields.items()):
            sep = "," if j < len(fields) - 1 else ""
            lines.append(f"    {json.dumps(key)}: {json.dumps(value)}{sep}")
        lines.append("  }," if i < len(CASE_NAMES) - 1 else "  }")
    lines.append("}")
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write_golden()
