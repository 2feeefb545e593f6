"""The four end-to-end workloads, driven only through public entry points.

Each workload is a closed loop: a sweep, trajectory or campaign asks for
its next step only after the previous one has completed (or committed).
A workload object is built from ``(seed, size, work_dir)`` and used in
four phases:

- :meth:`Workload.setup` builds the inputs from the seed (dataset, job
  configurations, checkpoint store, submissions, worker pool).  It may be
  called repeatedly; each call first closes what the previous one built.
- :meth:`Workload.measure` runs a fixed number of whole *units* (an AMR
  sweep, a trajectory round, a band of committed slices, a kill/resume
  episode), timing each from outside.  The count is ``seconds`` divided
  by the unit's sizing constant ``unit_s``, rounded, and depends on
  nothing measured, so both sides of a comparison do identical work and
  a faster program simply finishes sooner.  At the default 12 seconds
  that is 4 sweeps, 3 rounds, 12 bands and 2 episodes.
- :meth:`Workload.close` stops every process the workload started.
- :meth:`Workload.check` verifies the outputs, untimed.

Pooled workloads use exactly :data:`WORKERS` processes; ``run.py`` pins
every BLAS library to one thread before numpy loads, so no process runs
more than one compute thread on the two cores the sizes below were tuned
on.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import (
    RGMA,
    ALConfig,
    CampaignService,
    CampaignSpec,
    ChaosConfig,
    CheckpointStore,
    MaxSigma,
    MinPred,
    PortfolioPolicy,
    RandGoodness,
    RandUniform,
    TrajectoryFailure,
    TrajectorySpec,
    build_learner,
    loads_campaign,
    run_trajectories,
)
from repro.data import TABLE1_SPACE, Dataset, run_campaign
from repro.faults import FaultConfig, RetryPolicy
from repro.machine import JobConfig, JobRunner

#: Worker processes of every pooled workload.
WORKERS = 2

INF = float("inf")

#: Per-workload input sizes.  ``full`` is what BENCHMARK.json measures;
#: ``smoke`` only proves every code path and metric runs.
SIZES = {
    "full": {
        "amr-sweep": dict(t_end=0.01, mx=(8, 16), maxlevel=(3, 4), unit_s=3.0),
        "al-batch": dict(
            partitions=2, iterations=60, n_init=50, n_test=200, unit_s=3.5
        ),
        "service-fleet": dict(
            campaigns=20, iterations=300, steps=4, n_init=50, n_test=200,
            band=50, unit_s=1.0,
        ),
        "service-chaos": dict(
            campaigns=8, rgma_iterations=60, mf_rounds=30, steps=4,
            kill_after=40, crash=0.05, n_init=50, n_test=200, unit_s=6.0,
        ),
    },
    # An infinite unit time gives one unit whatever ``--seconds`` says.
    "smoke": {
        "amr-sweep": dict(t_end=0.002, mx=(8,), maxlevel=(2, 3), unit_s=INF),
        "al-batch": dict(
            partitions=1, iterations=4, n_init=20, n_test=30, unit_s=INF
        ),
        "service-fleet": dict(
            campaigns=2, iterations=6, steps=2, n_init=20, n_test=30,
            band=2, unit_s=INF,
        ),
        "service-chaos": dict(
            campaigns=2, rgma_iterations=6, mf_rounds=2, steps=2,
            kill_after=2, crash=0.5, n_init=20, n_test=30, unit_s=INF,
        ),
    },
}

#: (r0, rhoin) bubble shapes of the AMR sweep: a small dense bubble and a
#: large light one, whose refinement cost differs by an order of magnitude.
AMR_SHAPES = ((0.2, 0.1), (0.5, 0.02))
#: Node counts the seed draws from; they price jobs, not the simulation.
NODE_COUNTS = (4, 8, 16, 32)

#: Seed of the chaos fault stream.  It is pinned, not drawn from
#: ``--seed``: each crash respawns a worker (a fresh interpreter importing
#: numpy and scipy), so a stream drawn per seed would make throughput
#: measure how many crashes the seed drew.
CHAOS_SEED = 20180521


@dataclass
class StoreStats:
    """Checkpoint I/O seen by every :class:`TimedStore` sharing it."""

    saves: int = 0
    save_s: float = 0.0
    bytes: int = 0
    load_s: float = 0.0
    #: campaign id -> perf_counter() of each committed slice's save.
    commits: dict = field(default_factory=dict)
    #: campaign id -> slice index of its last save (commits advance it).
    last_slice: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Forget counts and commit times; keep slice positions."""
        self.saves = self.bytes = 0
        self.save_s = self.load_s = 0.0
        self.commits = {}

    def turnarounds_ms(self) -> list[float]:
        """Time between consecutive commits of the same campaign."""
        out = []
        for times in self.commits.values():
            out.extend(1e3 * (b - a) for a, b in zip(times, times[1:]))
        return out


class TimedStore(CheckpointStore):
    """A checkpoint store that times its saves and loads and counts bytes.

    A save whose payload advanced the campaign's slice index is a commit;
    its timestamp feeds the turnaround metric.  Saves that only record a
    discarded slice or a status change leave the index where it was.
    """

    def __init__(self, root: Path, stats: StoreStats) -> None:
        super().__init__(root)
        self.stats = stats

    def save(self, campaign_id: str, payload: dict) -> None:
        t0 = time.perf_counter()
        super().save(campaign_id, payload)
        t1 = time.perf_counter()
        s = self.stats
        s.saves += 1
        s.save_s += t1 - t0
        s.bytes += self.path(campaign_id).stat().st_size
        index = payload["slice_index"]
        if index > s.last_slice.get(campaign_id, index):
            s.commits.setdefault(campaign_id, []).append(t1)
        s.last_slice[campaign_id] = index

    def load(self, campaign_id: str) -> dict:
        t0 = time.perf_counter()
        payload = super().load(campaign_id)
        self.stats.load_s += time.perf_counter() - t0
        return payload


@dataclass
class Window:
    """What one measured window did, plus the untimed check results."""

    #: ``(operations, seconds)`` of each whole unit, in order.
    units: list = field(default_factory=list)
    #: Operations per second, as the workload estimates it robustly.
    rate: float = 0.0
    wall_s: float = 0.0
    failed_ops: int = 0
    checks: dict = field(default_factory=dict)
    #: Informational outputs that are not gated (quality, sample counts).
    info: dict = field(default_factory=dict)
    store: StoreStats | None = None
    slices_committed: int = 0
    slices_discarded: int = 0
    respawns: int = 0

    @property
    def ops(self) -> int:
        return sum(n for n, _ in self.units)

    def result(self, metrics: dict) -> dict:
        """The result line: operations and checks attempted, those that failed."""
        attempted = self.ops + self.failed_ops + len(self.checks)
        failed = self.failed_ops + sum(not ok for ok in self.checks.values())
        return result_line(failed == 0, max(attempted, 1), failed, metrics)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def selection_digest(trajectory) -> str:
    """Hash of a trajectory's selections and the fidelity of each."""
    h = hashlib.sha1()
    for r in trajectory.records:
        h.update(f"{r.dataset_index}:{r.fidelity};".encode())
    return h.hexdigest()[:16]


def median_rate(units: list) -> float:
    """Median over whole units of operations per second."""
    return float(np.median([n / dt for n, dt in units]))


def _seeded_dataset(seed: int) -> Dataset:
    return run_campaign(np.random.default_rng(seed)).dataset


class Workload:
    """Shared lifecycle; subclasses fill in the four phases."""

    name = ""
    workers = 0

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.work_dir = Path(work_dir)

    def units(self, seconds: float) -> int:
        """How many whole units ``seconds`` buys at the nominal unit time."""
        return max(1, round(seconds / self.size["unit_s"]))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started (idempotent)."""


# ----------------------------------------------------------------- AMR


class AmrSweep(Workload):
    """Real AMR jobs through ``JobRunner.run(mode="simulate")``, in-process.

    One unit is a sweep over mx x maxlevel x bubble shape; the seed draws
    each sweep's node counts and measurement noise.  Per-job time spans
    about 30x from the cheapest to the dearest configuration, which is
    the paper's unpredictable cost growth with maxlevel.
    """

    name = "amr-sweep"

    def setup(self) -> None:
        self.runner = JobRunner(t_end=self.size["t_end"])
        self.bounds = TABLE1_SPACE.bounds()
        # One tiny job loads the AMR and solver modules before timing.
        JobRunner(t_end=1e-3).run(
            JobConfig(p=4, mx=8, maxlevel=2, r0=0.2, rhoin=0.1),
            np.random.default_rng(self.seed),
            mode="simulate",
        )

    def _configs(self, rng: np.random.Generator) -> list[JobConfig]:
        configs = []
        for mx in self.size["mx"]:
            for r0, rhoin in AMR_SHAPES:
                p = int(rng.choice(NODE_COUNTS))
                for maxlevel in self.size["maxlevel"]:
                    configs.append(JobConfig(p, mx, maxlevel, r0, rhoin))
        return configs

    def measure(self, seconds: float) -> Window:
        w = Window()
        self.sweeps = []
        job_s = []
        start = time.perf_counter()
        for sweep in range(self.units(seconds)):
            cfg_seq, noise_seq = np.random.SeedSequence(
                self.seed, spawn_key=(sweep,)
            ).spawn(2)
            configs = self._configs(np.random.default_rng(cfg_seq))
            noise = np.random.default_rng(noise_seq)
            t0 = time.perf_counter()
            records, times = [], []
            for job_id, cfg in enumerate(configs):
                t = time.perf_counter()
                with obs.span("bench.job", cat="bench"):
                    records.append(
                        self.runner.run(cfg, noise, job_id=job_id, mode="simulate")
                    )
                times.append(time.perf_counter() - t)
            with obs.span("bench.dataset", cat="bench"):
                dataset = Dataset.from_records(records, bounds=self.bounds)
            w.units.append((len(records), time.perf_counter() - t0))
            self.sweeps.append((configs, records, dataset))
            job_s.append(times)
        w.wall_s = time.perf_counter() - start
        # Every sweep simulates the same jobs (the node count prices a job
        # without changing its simulation), so the median time of each job
        # across sweeps filters out bursts of noise from other processes.
        w.rate = len(job_s[0]) / float(np.median(job_s, axis=0).sum())
        return w

    def check(self, w: Window) -> None:
        finite = grows = True
        lo, hi = min(self.size["maxlevel"]), max(self.size["maxlevel"])
        for configs, records, dataset in self.sweeps:
            for rec in records:
                values = (rec.wall_seconds, rec.cost_node_hours, rec.max_rss_MB)
                ok = all(np.isfinite(v) and v > 0 for v in values)
                finite &= ok
                w.failed_ops += not ok
            finite &= len(dataset) == len(records)
            rss = {cfg: rec.max_rss_MB for cfg, rec in zip(configs, records)}
            for cfg, mem in rss.items():
                if cfg.maxlevel != lo:
                    continue
                deeper = JobConfig(cfg.p, cfg.mx, hi, cfg.r0, cfg.rhoin)
                ok = rss[deeper] > mem
                grows &= ok
                w.failed_ops += not ok
        w.checks["records_finite_positive"] = bool(finite)
        w.checks["maxrss_grows_with_maxlevel"] = bool(grows)


# -------------------------------------------------------------- AL batch


class AlBatch(Workload):
    """The Fig. 3/4 trajectory batch through ``run_trajectories``.

    One unit is a round: every policy on ``partitions`` fresh partitions
    of the seeded 600-job dataset, hyperparameters refit every iteration
    as in the paper, over a fresh pool of :data:`WORKERS` processes.
    """

    name = "al-batch"
    workers = WORKERS

    def setup(self) -> None:
        self.dataset = _seeded_dataset(self.seed)
        limit = self.dataset.memory_limit()
        self.policies = {
            "rand_uniform": RandUniform,
            "max_sigma": MaxSigma,
            "min_pred": MinPred,
            "rand_goodness": RandGoodness,
            "rgma": functools.partial(RGMA, memory_limit_MB=limit),
        }

    def _round_specs(self, round_: int) -> list[TrajectorySpec]:
        s = self.size
        return [
            TrajectorySpec(
                name=name,
                policy_factory=factory,
                base_seed=self.seed,
                traj_index=round_ * s["partitions"] + i,
                n_init=s["n_init"],
                n_test=s["n_test"],
                max_iterations=s["iterations"],
                hyper_refit_interval=1,
            )
            for i in range(s["partitions"])
            for name, factory in self.policies.items()
        ]

    def measure(self, seconds: float) -> Window:
        w = Window()
        self.results = []
        start = time.perf_counter()
        for round_ in range(self.units(seconds)):
            specs = self._round_specs(round_)
            t0 = time.perf_counter()
            with obs.span("bench.run_trajectories", cat="bench"):
                results = run_trajectories(
                    self.dataset, specs, max_workers=self.workers, on_error="return"
                )
            dt = time.perf_counter() - t0
            done = [t for _, t in results if not isinstance(t, TrajectoryFailure)]
            w.failed_ops += len(results) - len(done)
            w.units.append((sum(len(t) for t in done), dt))
            self.results.append((specs, results))
        w.wall_s = time.perf_counter() - start
        w.rate = median_rate(w.units)
        return w

    def check(self, w: Window) -> None:
        trajectories = [
            t for _, results in self.results for _, t in results
            if not isinstance(t, TrajectoryFailure)
        ]
        finite = 0
        for t in trajectories:
            ok = bool(
                np.all(np.isfinite(t.rmse_cost))
                and np.all(np.isfinite(t.rmse_mem))
                and np.isfinite(t.initial_rmse_cost)
            )
            finite += ok
            w.failed_ops += not ok
        w.checks["rmse_finite"] = finite == len(trajectories) and bool(trajectories)
        # One pooled spec rerun serially must select and score identically.
        specs, results = self.results[0]
        k = next(i for i, s in enumerate(specs) if s.name == "rgma")
        pooled = results[k][1]
        (_, serial), = run_trajectories(self.dataset, [specs[k]], max_workers=1)
        same = (
            not isinstance(pooled, TrajectoryFailure)
            and np.array_equal(pooled.selected_indices, serial.selected_indices)
            and np.array_equal(pooled.rmse_cost, serial.rmse_cost)
        )
        w.checks["pooled_equals_serial"] = bool(same)
        w.failed_ops += not same
        rgma = [t for t in trajectories if t.policy_name == "rgma"]
        w.info["trajectories"] = len(trajectories)
        w.info["final_rmse_cost_median"] = float(
            np.median([t.final_rmse_cost for t in trajectories])
        )
        w.info["rgma_cum_regret_nh"] = float(sum(t.total_regret for t in rgma))


# -------------------------------------------------------------- services


class _ServiceWorkload(Workload):
    """Campaign-service plumbing shared by the fleet and chaos workloads."""

    workers = WORKERS

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        super().__init__(seed, size, work_dir)
        self.services: list[CampaignService] = []
        self.store_dirs: list[Path] = []

    def _store(self, tag: str, stats: StoreStats) -> TimedStore:
        root = self.work_dir / f"{self.name}-{tag}"
        shutil.rmtree(root, ignore_errors=True)
        self.store_dirs.append(root)
        return TimedStore(root, stats)

    def _service(self, store: TimedStore, **kwargs) -> CampaignService:
        svc = CampaignService(
            self.dataset,
            store=store,
            workers=self.workers,
            steps_per_slice=self.size["steps"],
            **kwargs,
        )
        self.services.append(svc)
        return svc

    def close(self) -> None:
        for svc in self.services:
            svc.close()
        self.services = []

    def _drop_stores(self) -> None:
        for root in self.store_dirs:
            shutil.rmtree(root, ignore_errors=True)
        self.store_dirs = []


class ServiceFleet(_ServiceWorkload):
    """RGMA campaigns with frozen hyperparameters, served from disk.

    ``hyper_refit_interval`` equals the iteration cap, so every step after
    the first takes the rank-1 update path: the GP layer does incremental
    work and the per-slice service overhead (unpickle, step, pickle,
    pipe, fsync) is most of the cost.  One unit is a band of ``band``
    committed slices; the window ends mid-fleet.
    """

    name = "service-fleet"

    def _specs(self) -> list[CampaignSpec]:
        s = self.size
        cfg = ALConfig(
            max_iterations=s["iterations"], hyper_refit_interval=s["iterations"]
        )
        rgma = functools.partial(RGMA, memory_limit_MB=self.dataset.memory_limit())
        return [
            CampaignSpec(
                campaign_id=f"rgma-{i}",
                policy_factory=rgma,
                base_seed=self.seed,
                traj_index=i,
                n_init=s["n_init"],
                n_test=s["n_test"],
                config=cfg,
            )
            for i in range(s["campaigns"])
        ]

    def setup(self) -> None:
        self.close()
        self._drop_stores()
        self.dataset = _seeded_dataset(self.seed)
        self.specs = self._specs()
        self.stats = StoreStats()
        self.store = self._store("store", self.stats)
        self.service = self._service(self.store)
        for spec in self.specs:
            self.service.submit(spec)
        # Spawns the pool and commits the first slices: lazy set-up done.
        self.service.run(max_slices=self.workers)

    def _selections(self) -> int:
        return sum(info.records for info in self.service.campaigns())

    def measure(self, seconds: float) -> Window:
        w = Window(store=self.stats)
        self.stats.reset()
        svc = self.service
        before = svc.report()
        done = before.done + before.failed
        start = time.perf_counter()
        ops0 = self._selections()
        for _ in range(self.units(seconds)):
            if done == len(self.specs):
                break
            t0 = time.perf_counter()
            with obs.span("bench.service_run", cat="bench"):
                report = svc.run(max_slices=self.size["band"])
            done = report.done + report.failed
            ops1 = self._selections()
            w.units.append((ops1 - ops0, time.perf_counter() - t0))
            ops0 = ops1
        w.wall_s = time.perf_counter() - start
        w.rate = median_rate(w.units)
        after = svc.report()
        w.slices_committed = after.slices_committed - before.slices_committed
        w.slices_discarded = after.slices_discarded - before.slices_discarded
        w.failed_ops += after.failed
        return w

    def check(self, w: Window) -> None:
        # The committed prefix of two campaigns must equal the inline
        # learner stepped the same number of times.  A plain store reads
        # them, so these loads stay out of the window's load time.
        store = CheckpointStore(self.store.root)
        same = True
        for spec in self.specs[:2]:
            blob = store.load(spec.campaign_id)["blob"]
            committed = (
                [r.dataset_index for r in loads_campaign(blob, self.dataset).records]
                if blob is not None
                else []
            )
            ref = build_learner(spec, self.dataset)
            ref.start()
            while len(ref.records) < len(committed) and ref.step():
                pass
            ok = bool(committed) and committed == [r.dataset_index for r in ref.records]
            same &= ok
            w.failed_ops += not ok
        w.checks["service_equals_inline"] = same
        w.checks["no_discarded_slices"] = w.slices_discarded == 0
        w.failed_ops += w.slices_discarded
        self._drop_stores()


class ServiceChaos(_ServiceWorkload):
    """Mixed RGMA / F=2,B=4 portfolio campaigns under crashes, killed and resumed.

    One unit is an episode: submit the fleet to a chaos service, close it
    after ``kill_after`` commits, then let a fresh service over the same
    store resume every campaign to completion.  This exercises the read
    side of checkpointing, worker respawn, co-kriging and portfolio
    selection.
    """

    name = "service-chaos"

    def setup(self) -> None:
        self.close()
        self._drop_stores()
        self.dataset = _seeded_dataset(self.seed)
        limit = self.dataset.memory_limit()
        s = self.size
        self.policies = (
            (
                functools.partial(RGMA, memory_limit_MB=limit),
                ALConfig(max_iterations=s["rgma_iterations"]),
            ),
            (
                functools.partial(PortfolioPolicy, memory_limit_MB=limit),
                ALConfig(
                    max_iterations=s["mf_rounds"],
                    num_fidelities=2,
                    batch_size=4,
                    round_budget_node_hours=0.3,
                ),
            ),
        )
        # Crashes are rare enough at full size that respawns do not drown
        # the AL work.
        self.chaos = ChaosConfig(
            faults=FaultConfig(crash_probability=s["crash"], straggler_probability=0.2),
            retry=RetryPolicy(max_retries=8),
            seed=CHAOS_SEED,
            straggler_sleep_s=0.02,
        )
        self.stats = StoreStats()

    def _specs(self, episode: int) -> list[CampaignSpec]:
        s = self.size
        specs = []
        for i in range(s["campaigns"]):
            factory, cfg = self.policies[i % 2]
            specs.append(
                CampaignSpec(
                    campaign_id=f"e{episode}-{'rgma' if i % 2 == 0 else 'mf'}-{i}",
                    policy_factory=factory,
                    base_seed=self.seed,
                    traj_index=episode * s["campaigns"] + i,
                    n_init=s["n_init"],
                    n_test=s["n_test"],
                    config=cfg,
                )
            )
        return specs

    def _episode(self, episode: int, w: Window) -> tuple[list, dict]:
        specs = self._specs(episode)
        store = self._store(f"e{episode}", self.stats)
        with obs.span("bench.kill_phase", cat="bench"):
            first = self._service(store, chaos=self.chaos)
            for spec in specs:
                first.submit(spec)
            killed = first.run(max_slices=self.size["kill_after"])
            first.close()
        with obs.span("bench.resume", cat="bench"):
            second = self._service(store, chaos=self.chaos)
            resumed = second.run()
            results = {s.campaign_id: second.result(s.campaign_id) for s in specs}
            second.close()
        self.services = []
        for report in (killed, resumed):
            w.slices_committed += report.slices_committed
            w.slices_discarded += report.slices_discarded
            w.respawns += report.fault_counts.get("crash", 0)
            w.respawns += report.fault_counts.get("timeout", 0)
        w.failed_ops += resumed.failed
        return specs, results

    def measure(self, seconds: float) -> Window:
        w = Window(store=self.stats)
        self.episodes = []
        start = time.perf_counter()
        for episode in range(self.units(seconds)):
            t0 = time.perf_counter()
            specs, results = self._episode(episode, w)
            ops = sum(
                len(t.records) for t in results.values() if t is not None
                and not isinstance(t, TrajectoryFailure)
            )
            w.units.append((ops, time.perf_counter() - t0))
            self.episodes.append((specs, results))
        w.wall_s = time.perf_counter() - start
        w.rate = median_rate(w.units)
        return w

    def reference_digests(self, specs: list[CampaignSpec]) -> dict[str, str]:
        """Digests of the fault-free inline runs every campaign must match."""
        return {
            s.campaign_id: selection_digest(build_learner(s, self.dataset).run())
            for s in specs
        }

    def check(self, w: Window) -> None:
        # Every campaign of the first episode is checked.  Rerunning later
        # episodes inline too would add a third to the run's length and
        # exercise no code the first does not.
        specs, results = self.episodes[0]
        matched = 0
        for cid, want in self.reference_digests(specs).items():
            got = results[cid]
            ok = (
                got is not None
                and not isinstance(got, TrajectoryFailure)
                and selection_digest(got) == want
            )
            matched += ok
            w.failed_ops += not ok
        w.checks["digests_equal_fault_free"] = matched == len(specs)
        w.checks["faults_struck"] = w.respawns > 0
        w.info["respawns"] = w.respawns
        self._drop_stores()


WORKLOADS = {
    cls.name: cls for cls in (AmrSweep, AlBatch, ServiceFleet, ServiceChaos)
}
