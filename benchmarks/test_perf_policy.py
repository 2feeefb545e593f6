"""Perf headline: amortized zero-refit selection vs GP-backed scoring.

The amortized policy replaces the whole GP serving stack — refit,
refactor, cached cross-covariance, ``predict_from_cross`` — with one
batched MLP matmul over a GP-free feature matrix whose per-step update is
O(m·d).  Its selection cost is therefore *independent of the training-set
size*, while every GP backend pays per-``n`` scoring (dense O(n^2 M),
iterative O(n r M), sparse O(m^2 M)) on top of refits this benchmark does
not even charge them for.  Three claims are pinned:

- **selection throughput** (full scale): the full amortized serving path
  (feature assembly + scoring + sampling) sustains >= 20x the *iterative*
  backend's selections/sec at n = 20000 — and the GP numbers are scoring
  only, against a pre-built cross-covariance cache;
- **service throughput**: a :class:`~repro.core.service.CampaignService`
  fleet under the amortized policy commits slices faster than the same
  fleet under RGMA, because amortized slices skip ``gp_fit`` entirely;
- **regret guardrail**: on held-out seeds (disjoint from the teacher's
  training seeds) the amortized policy's final cumulative regret stays
  within ``GUARDRAIL_FACTOR`` x RGMA's (plus an absolute slack for
  near-zero baselines) — the speed is not bought with constraint
  violations.

The scorer is trained *inside* the benchmark (simulate RGMA through the
service on the 600-job dataset, then listwise-CE fit), so the artifact is
self-contained and reproducible.  GP checkpoints beyond the campaign
generator's 1920-unique-config ceiling use a synthetic dataset sampled
from the Table I grid with replacement, priced by the noise-free machine
models plus lognormal response noise.

Protocol per checkpoint mirrors ``test_perf_select.py``: hyperparameters
from one exact fit at n = 600 shared by every GP backend, one untimed
factorization at ``n``, then the scoring pass over a fixed M = 256 pool
timed best-of-``REPEATS`` with ``PASSES`` passes per timing.  Results:
``benchmarks/results/perf_policy.txt`` plus a machine-readable
``BENCH_policy.json`` (schema ``policy_amortized_serving``) at the repo
root.  ``REPRO_BENCH_SCALE=quick`` (default) stops at n = 600; ``full``
adds n = 5000 and n = 20000.
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import ActiveLearner, ALConfig, RGMA, random_partition
from repro.core.policies import CandidateView
from repro.core.preprocessing import DesignTransform
from repro.core.service import CampaignService, CampaignSpec
from repro.data.space import TABLE1_SPACE
from repro.gp import GPRegressor, IterativeGPRegressor, SparseGPRegressor
from repro.gp.surrogate import cross_points
from repro.policy import AmortizedPolicy, PolicyContext, load_amortized_policy, train_scorer
from repro.policy.features import FeatureExtractor, machine_log_predictions
from repro.policy.simulate import generate_decisions

#: Candidate-pool size scored per selection pass.
N_CANDIDATES = 256
#: Timed repetitions; best-of damps scheduler noise.
REPEATS = 3
#: Scoring passes per timed repetition (smooths sub-ms passes).
PASSES = 5
#: Training size whose exact fit supplies theta to every GP backend.
FIT_N = 600
#: log10 response noise of the synthetic large-n dataset.
NOISE_DECADES = 0.05

#: Teacher-replay + scorer-fit configuration (runs inside the benchmark).
TRAIN_CAMPAIGNS = 2
TRAIN_ITERATIONS = 12
TRAIN_HIDDEN = 16
TRAIN_EPOCHS = 40

#: Service-throughput fleet (per policy): campaigns x iterations.
SERVICE_CAMPAIGNS = 2
SERVICE_ITERATIONS = 8
SERVICE_STEPS_PER_SLICE = 4

#: Held-out regret comparison: seeds disjoint from the teacher's
#: ``base_seed=2024`` tree, RGMA vs amortized on identical partitions.
HOLDOUT_SEED = 777
REGRET_SEEDS = 3
REGRET_ITERATIONS = 20
#: Amortized final regret must be <= factor * RGMA + slack node-hours.
GUARDRAIL_FACTOR = 1.5
GUARDRAIL_SLACK = 0.05

CHECKPOINTS_BY_SCALE = {"quick": (600,), "full": (600, 5000, 20000)}

BENCH_JSON = Path(__file__).parent.parent / "BENCH_policy.json"


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _synthetic_dataset(n, seed):
    """n grid-sampled jobs priced by the machine models + lognormal noise.

    ``run_campaign`` tops out at the grid's 1920 unique configurations, so
    large-n checkpoints sample Table I rows *with replacement* and price
    them analytically — the response surface the GPs then model is the
    same one the real campaigns draw from.
    """
    from repro.data.dataset import Dataset

    rng = np.random.default_rng(seed)
    grid = np.array(
        [[c.p, c.mx, c.maxlevel, c.r0, c.rhoin] for c in TABLE1_SPACE.grid()]
    )
    X = grid[rng.integers(0, grid.shape[0], size=n)]
    log_cost, log_mem = machine_log_predictions(X)
    cost = 10.0 ** (log_cost + NOISE_DECADES * rng.standard_normal(n))
    mem = 10.0 ** (log_mem + NOISE_DECADES * rng.standard_normal(n))
    wall = cost * 3600.0 / X[:, 0]
    return Dataset(
        X=X, wall=wall, cost=cost, mem=mem, bounds=TABLE1_SPACE.bounds()
    )


def _fit_theta(Xs, y):
    """The shared hyperparameters: one exact fit at the paper's n = 600."""
    gp = GPRegressor(n_restarts=1, rng=np.random.default_rng(1))
    gp.fit(Xs[:FIT_N], y[:FIT_N])
    return gp.kernel_


def _setup_gp(name, kernel, Xs, y):
    """Factorize ``n`` training points under the shared frozen theta."""
    if name == "dense":
        model = GPRegressor(n_restarts=0, use_workspace=False)
    elif name == "iterative":
        model = IterativeGPRegressor(n_restarts=0, use_workspace=False)
    else:
        model = SparseGPRegressor(n_inducing=64, rng=np.random.default_rng(2))
    model.kernel_ = kernel.with_theta(kernel.theta)
    t0 = time.perf_counter()
    model.refactor(Xs, y)
    return model, time.perf_counter() - t0


def _gp_selections_per_sec(model, U):
    """Scoring-only throughput against a pre-built cross covariance."""
    kernel = model.kernel_
    Ks = kernel(U, cross_points(model))
    prior = kernel.diag(U)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(PASSES):
            _, sd = model.predict_from_cross(Ks, prior, return_std=True)
            int(np.argmax(sd))
        best = min(best, (time.perf_counter() - t0) / PASSES)
    return 1.0 / best


def _amortized_selections_per_sec(policy, dataset, n_train, limit):
    """Full serving path: feature assembly + batched scoring + sampling.

    The extractor sees ``n_train`` training points (the column the GP
    backends scale in); selection work is O(m · n_features) regardless.
    """
    pool = np.arange(N_CANDIDATES, dtype=np.int64)
    train = np.arange(N_CANDIDATES, N_CANDIDATES + n_train, dtype=np.int64)
    scaler = DesignTransform(dataset.bounds)
    t0 = time.perf_counter()
    policy.prepare(
        PolicyContext(
            dataset=dataset,
            scaler=scaler,
            pool_indices=pool,
            train_indices=train,
            memory_limit_MB=limit,
        )
    )
    setup_s = time.perf_counter() - t0
    U = np.asarray(scaler.transform(dataset.X[pool]))
    nan = np.full(N_CANDIDATES, np.nan)
    view = CandidateView(X=U, mu_cost=nan, sigma_cost=nan, mu_mem=nan, sigma_mem=nan)
    best = float("inf")
    for rep in range(REPEATS):
        rng = np.random.default_rng(12345 + rep)
        t0 = time.perf_counter()
        for _ in range(PASSES):
            policy.select(view, rng)
        best = min(best, (time.perf_counter() - t0) / PASSES)
    return 1.0 / best, setup_s


def _train_policy_file(dataset, limit, out_dir):
    """Simulate the RGMA teacher through the service, fit, serialize."""
    log = generate_decisions(
        dataset,
        n_campaigns=TRAIN_CAMPAIGNS,
        iterations=TRAIN_ITERATIONS,
        memory_limit_MB=limit,
    )
    scorer, history = train_scorer(
        log, hidden=TRAIN_HIDDEN, epochs=TRAIN_EPOCHS, seed=0
    )
    path = out_dir / "bench_policy.npz"
    scorer.save(path)
    return path, scorer, {
        "decisions": len(log),
        "final_loss": round(history["loss"][-1], 4),
        "teacher_agreement": round(history["agreement"][-1], 4),
    }


def _service_slices_per_sec(dataset, policy_factory):
    """Wall-clock slice throughput of a small in-memory fleet."""
    svc = CampaignService(
        dataset, store=None, steps_per_slice=SERVICE_STEPS_PER_SLICE
    )
    for i in range(SERVICE_CAMPAIGNS):
        svc.submit(
            CampaignSpec(
                campaign_id=f"bench-{i}",
                policy_factory=policy_factory,
                base_seed=4242,
                traj_index=i,
                n_init=20,
                n_test=30,
                config=ALConfig(max_iterations=SERVICE_ITERATIONS),
            )
        )
    slices = SERVICE_CAMPAIGNS * -(-SERVICE_ITERATIONS // SERVICE_STEPS_PER_SLICE)
    t0 = time.perf_counter()
    svc.run()
    return slices / (time.perf_counter() - t0)


def _final_regret(dataset, make_policy_fn):
    """Mean final cumulative regret over held-out seed-tree positions."""
    regrets = []
    for k in range(REGRET_SEEDS):
        rng = np.random.default_rng([HOLDOUT_SEED, k])
        partition = random_partition(rng, len(dataset), n_init=30, n_test=60)
        learner = ActiveLearner(
            dataset,
            partition,
            policy=make_policy_fn(),
            rng=np.random.default_rng([HOLDOUT_SEED, k, 1]),
            config=ALConfig(max_iterations=REGRET_ITERATIONS),
        )
        regrets.append(learner.run().total_regret)
    return float(np.mean(regrets))


def test_perf_amortized_serving(report, dataset, memory_limit, tmp_path):
    scale = _scale()
    checkpoints = CHECKPOINTS_BY_SCALE[scale]
    n_max = checkpoints[-1]

    # Offline phase (untimed): teacher replay + scorer fit + serialize.
    policy_file, scorer, training = _train_policy_file(
        dataset, memory_limit, tmp_path
    )

    # Selection throughput on the synthetic large-n response surface.
    syn = _synthetic_dataset(n_max + N_CANDIDATES, seed=5)
    syn_limit = syn.memory_limit()
    Xs_all = syn.scaled_features()
    U = Xs_all[:N_CANDIDATES]
    Xs = Xs_all[N_CANDIDATES:]
    y = np.log10(syn.cost[N_CANDIDATES:])
    kernel = _fit_theta(Xs, y)

    rows = [
        f"{'n_train':>8}  {'dense/s':>9}  {'iterative/s':>11}  "
        f"{'sparse/s':>9}  {'amortized/s':>11}  {'speedup':>8}"
    ]
    checkpoints_json = []
    for n in checkpoints:
        sps = {}
        setup = {}
        for name in ("dense", "iterative", "sparse"):
            model, setup_s = _setup_gp(name, kernel, Xs[:n], y[:n])
            sps[name] = _gp_selections_per_sec(model, U)
            setup[name] = setup_s
        policy = AmortizedPolicy(scorer, memory_limit_MB=syn_limit)
        sps["amortized"], setup["amortized"] = _amortized_selections_per_sec(
            policy, syn, n, syn_limit
        )
        speedup = sps["amortized"] / sps["iterative"]
        rows.append(
            f"{n:>8}  {sps['dense']:>9.1f}  {sps['iterative']:>11.1f}  "
            f"{sps['sparse']:>9.1f}  {sps['amortized']:>11.1f}  "
            f"{speedup:>7.1f}x"
        )
        checkpoints_json.append(
            {
                "n_train": n,
                "dense_sps": round(sps["dense"], 2),
                "iterative_sps": round(sps["iterative"], 2),
                "sparse_sps": round(sps["sparse"], 2),
                "amortized_sps": round(sps["amortized"], 2),
                "dense_setup_s": round(setup["dense"], 3),
                "iterative_setup_s": round(setup["iterative"], 3),
                "sparse_setup_s": round(setup["sparse"], 3),
                "amortized_setup_s": round(setup["amortized"], 3),
                "speedup": round(speedup, 3),
            }
        )

    # Service throughput: amortized slices skip gp_fit entirely.
    rgma_sls = _service_slices_per_sec(
        dataset, functools.partial(RGMA, memory_limit_MB=memory_limit)
    )
    amortized_factory = functools.partial(
        load_amortized_policy, str(policy_file), memory_limit_MB=memory_limit
    )
    amortized_sls = _service_slices_per_sec(dataset, amortized_factory)

    # Held-out regret guardrail on the campaign-generated dataset.
    rgma_regret = _final_regret(
        dataset, lambda: RGMA(memory_limit_MB=memory_limit)
    )
    amortized_regret = _final_regret(dataset, amortized_factory)
    within = amortized_regret <= GUARDRAIL_FACTOR * rgma_regret + GUARDRAIL_SLACK

    rows.append("")
    rows.append(
        f"training: {training['decisions']} teacher decisions, "
        f"agreement {training['teacher_agreement']:.2f}, "
        f"fingerprint {scorer.fingerprint}"
    )
    rows.append(
        f"service : rgma {rgma_sls:.2f} slices/s, "
        f"amortized {amortized_sls:.2f} slices/s "
        f"({amortized_sls / rgma_sls:.1f}x)"
    )
    rows.append(
        f"regret  : rgma {rgma_regret:.3f} nh, amortized "
        f"{amortized_regret:.3f} nh over {REGRET_SEEDS} held-out seeds "
        f"(guardrail {GUARDRAIL_FACTOR}x + {GUARDRAIL_SLACK}: "
        f"{'ok' if within else 'VIOLATED'})"
    )
    report("perf_policy", "\n".join(rows))

    final_speedup = checkpoints_json[-1]["speedup"]
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "policy_amortized_serving",
                "host_cores": os.cpu_count(),
                "config": {
                    "n_candidates": N_CANDIDATES,
                    "repeats": REPEATS,
                    "passes": PASSES,
                    "fit_n": FIT_N,
                    "scale": scale,
                    "noise_decades": NOISE_DECADES,
                    "train_campaigns": TRAIN_CAMPAIGNS,
                    "train_iterations": TRAIN_ITERATIONS,
                    "train_hidden": TRAIN_HIDDEN,
                    "train_epochs": TRAIN_EPOCHS,
                    "regret_seeds": REGRET_SEEDS,
                    "regret_iterations": REGRET_ITERATIONS,
                },
                "training": {**training, "fingerprint": scorer.fingerprint},
                "checkpoints": checkpoints_json,
                "service": {
                    "rgma_slices_per_s": round(rgma_sls, 3),
                    "amortized_slices_per_s": round(amortized_sls, 3),
                    "campaigns": SERVICE_CAMPAIGNS,
                    "iterations": SERVICE_ITERATIONS,
                    "steps_per_slice": SERVICE_STEPS_PER_SLICE,
                },
                "regret": {
                    "rgma_final_regret": round(rgma_regret, 4),
                    "amortized_final_regret": round(amortized_regret, 4),
                    "guardrail_factor": GUARDRAIL_FACTOR,
                    "guardrail_slack": GUARDRAIL_SLACK,
                    "within_guardrail": bool(within),
                },
                "speedup": final_speedup,
            },
            indent=2,
        )
        + "\n"
    )

    assert within, (
        f"amortized final regret {amortized_regret:.3f} exceeded "
        f"{GUARDRAIL_FACTOR}x rgma ({rgma_regret:.3f}) + {GUARDRAIL_SLACK}"
    )
    if n_max >= 20000:
        assert final_speedup >= 20.0, (
            f"amortized serving must be >= 20x iterative scoring at "
            f"n={n_max} (got {final_speedup:.2f}x)"
        )
