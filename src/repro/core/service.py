"""The campaign service: async, sharded, resumable AL at scale.

One production deployment of this codebase does not run one AL campaign —
it multiplexes *thousands* (one per machine configuration under study,
per policy, per seed) over a bounded worker fleet, for weeks.  This
module is that long-lived scheduler:

- **Slices, not runs.**  A campaign executes as a sequence of *slices* —
  a handful of :meth:`~repro.core.loop.ActiveLearner.step` calls — and
  every committed slice ships the learner's live state as a checkpoint
  blob (:func:`dumps_campaign`); the next slice, on whichever worker,
  restores from it.  The blob *is* the checkpoint: a campaign killed at
  any point resumes from its last committed slice bit-identically (the
  stepwise learner keeps every piece of loop state, including the RNG,
  on the instance).
- **Budget-ordered round-robin.**  :class:`CampaignQueue` orders ready
  campaigns by remaining node-hour budget (priced through
  :class:`~repro.machine.accounting.CampaignLedger`) *within* a
  round-robin round, so big allocations run first but nothing starves:
  a campaign that just ran re-enters at the next round, behind every
  campaign still waiting in the current one.
- **Exactly-once selections.**  A slice is a pure function of its input
  checkpoint; its result *commits* atomically (blob + counters +
  ledger) or is discarded whole.  A crashed, OOM-killed, or timed-out
  slice is re-run from the same checkpoint and — by the learner's
  resume bit-identity — selects exactly the same samples.  Nothing is
  lost, nothing is duplicated; commit-time contiguity assertions make a
  violation loud instead of silent.  A commit is folded into the
  campaign's state at once and written to the store in one atomic
  file.  With worker processes that write waits until the freed
  workers have their next slices, and :meth:`CampaignService.run`
  writes every pending one before it returns or raises.  A parent that
  dies in between leaves the previous checkpoint, and the slice it
  re-runs from there selects the same samples.
- **Chaos harness.**  With a :class:`ChaosConfig`, every dispatch passes
  a synthetic accounting record through the PR-2 fault layer
  (:class:`~repro.faults.model.FaultInjector`) under a per-campaign RNG:
  CRASH really kills the worker process (``os._exit``), OOM aborts the
  slice and the scheduler retries at half the slice length, TIMEOUT is
  enforced by a parent-side deadline kill, STRAGGLER delays (and
  surcharges) the slice, RSS_LOST drops its observability payload.
  Because faults only ever discard whole slices, campaign selection
  sequences under chaos are bit-identical to a fault-free run — the
  property the chaos test-suite pins.
- **Per-campaign observability lanes.**  The metrics/spans a slice
  recorded ride home with it — committed or failed — are buffered per
  campaign, and merge into the global :mod:`repro.obs` state in
  campaign-submission order at drain time — deterministic for any worker
  count or completion order.  An interrupted :meth:`CampaignService.run`
  still drains what earlier slices shipped.

Two execution modes share every scheduling/commit/chaos code path:
``workers=0`` runs slices inline (fast, fully deterministic — what the
property tests drive), ``workers=N`` runs them on ``N`` worker processes
fed over pipes (what the chaos suite kills).  The trajectory batch
runner (:func:`repro.core.batch.run_trajectories`) is a chaos-free,
store-free service whose campaigns each run in one slice.

Workers start from :func:`worker_context`: each is a fork of a server
that preloaded numpy, scipy and this module, and reaches its handshake
in about 10–20 ms instead of the 0.5–1 s a ``spawn`` interpreter spends
importing them.  The server starts with the first worker, whose start
waits for the preloading (0.6–1.2 s, once per process).  Where only a
``sys.path`` edit makes this package importable (a script that inserts
``src``), :func:`worker_context` starts the server itself, with the
package's directory on its ``PYTHONPATH``, since the stdlib server does
not apply the parent's ``sys.path`` before preloading.  The server fixes
the environment and the preloaded code when it starts; each worker still
takes its working directory and ``sys.path`` from the parent, imports
the parent's ``__main__`` (so scripts keep their ``if __name__ ==
"__main__":`` guard), and starts with an empty observability registry
and tracing off.  Everything a worker needs crosses the process
boundary by pickling: policy factories must be classes or
:func:`functools.partial` objects, not lambdas (a job that does not
pickle fails its campaign at dispatch).  At interpreter exit the
server is stopped after :mod:`multiprocessing` has terminated and joined
the workers.  Where the platform has no ``forkserver``, workers are
spawned.

Worker boots stay off the critical path, which matters most under the
``spawn`` fallback: the pool starts every worker at once and never
blocks on one.  A worker counts as *booting* until its readiness
handshake arrives through the same
:func:`~multiprocessing.connection.wait` that collects slice results.
Dispatch begins with the first worker ready, and a crashed or condemned
worker's replacement boots while the rest of the fleet keeps committing.
A worker that dies before its handshake is a :class:`ServiceError`.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import heapq
import io
import json
import multiprocessing
import os
import pickle
import site
import sys
import time
import traceback as _traceback
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.trajectory import StopReason, Trajectory
from repro.data.dataset import Dataset
from repro.faults.model import FaultConfig, FaultEvent, FaultInjector, FaultKind
from repro.faults.resilient import RetryPolicy
from repro.machine.accounting import CampaignLedger, JobRecord
from repro.obs.metrics import MetricsRegistry


class ServiceError(RuntimeError):
    """A campaign-service invariant was violated (loud by design)."""


class CampaignStatus(str, Enum):
    """Lifecycle of one campaign inside the service."""

    PENDING = "pending"  # has work and may be scheduled
    PAUSED = "paused"  # held out of the queue; resumable
    DONE = "done"  # finished (own stop condition or budget)
    FAILED = "failed"  # permanent error or retries exhausted


@dataclass(frozen=True)
class TrajectoryFailure:
    """A run that died instead of returning a :class:`Trajectory`.

    A failed campaign's result, and a failed trajectory's under
    ``run_trajectories(on_error="return")``: one bad run (a policy that
    raises, a worker that keeps dying) costs exactly one result — never
    the whole batch.

    Attributes
    ----------
    name : str
        The failed run's campaign id or trajectory name.
    error : str
        ``repr`` of the exception (or the service's diagnosis).
    traceback : str
        Formatted traceback from the worker, for postmortems.
    """

    name: str
    error: str
    traceback: str = ""


#: Checkpoint payload format version (bump on incompatible change).
#: Version 2: one learner class for every round shape.
CHECKPOINT_VERSION = 2

#: Fault kinds that kill a slice (its result is discarded and re-run).
_FATAL_KINDS = frozenset({FaultKind.CRASH, FaultKind.OOM, FaultKind.TIMEOUT})


# ----------------------------------------------------------------- specs


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign: a seeded AL run plus its node-hour allocation.

    A campaign cold-starts through :func:`build_learner` at its seed-tree
    position — ``SeedSequence(entropy=base_seed, spawn_key=(traj_index,))``
    — which :class:`~repro.core.batch.TrajectorySpec` shares, so a
    campaign's fault-free result is identical to the same run executed by
    :func:`~repro.core.batch.run_trajectories`.

    Attributes
    ----------
    campaign_id : str
        Unique name (also the checkpoint filename stem; restricted to
        ``[A-Za-z0-9._-]``).
    policy_factory : callable
        Zero-argument factory for a fresh policy — picklable (a class or
        ``functools.partial``, not a lambda), since it crosses process
        boundaries and lives inside checkpoints.
    base_seed, traj_index : int
        Seed-tree position (partition + RNG stream).
    n_init, n_test : int
        Partition sizes.
    config : ALConfig
        The learner configuration; its
        :meth:`~repro.core.config.ALConfig.fingerprint` is stamped into
        every checkpoint and verified on resume.
    budget_node_hours : float
        The campaign's allocation; committed *and* wasted node-hours
        draw it down, and exhaustion finalizes the campaign with
        :attr:`~repro.core.trajectory.StopReason.BUDGET_EXHAUSTED`.
    steps_per_slice : int, optional
        Per-campaign override of the service's slice length.
    """

    campaign_id: str
    policy_factory: Callable[[], object]
    base_seed: int = 0
    traj_index: int = 0
    n_init: int = 50
    n_test: int = 200
    config: ALConfig = ALConfig()
    budget_node_hours: float = float("inf")
    steps_per_slice: int | None = None

    def __post_init__(self) -> None:
        if not self.campaign_id:
            raise ValueError("campaign_id must be non-empty")
        ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
        if not set(self.campaign_id) <= ok:
            raise ValueError(
                f"campaign_id {self.campaign_id!r} may only contain [A-Za-z0-9._-]"
            )
        if not self.budget_node_hours > 0:
            raise ValueError("budget_node_hours must be positive")
        if self.n_init < 1 or self.n_test < 1:
            raise ValueError("n_init and n_test must be positive")
        if self.steps_per_slice is not None and self.steps_per_slice < 1:
            raise ValueError("steps_per_slice must be >= 1")


def build_learner(spec: CampaignSpec, dataset: Dataset) -> ActiveLearner:
    """Cold-start a campaign's learner at its seed-tree position.

    ``SeedSequence(entropy=base_seed, spawn_key=(traj_index,))`` seeds
    the partition and the learner's RNG stream.  Multi-fidelity configs
    price their fidelity surfaces deterministically from the config
    (:meth:`ALConfig.priced`), so every cold start of the same spec sees
    identical surfaces — and the config's fingerprint covers the
    fidelity axis, so a checkpoint written under one schedule refuses to
    resume under another.
    """
    seed_seq = np.random.SeedSequence(
        entropy=spec.base_seed, spawn_key=(spec.traj_index,)
    )
    rng = np.random.default_rng(seed_seq)
    partition = random_partition(
        rng, len(dataset), n_init=spec.n_init, n_test=spec.n_test
    )
    config = spec.config
    return ActiveLearner(
        config.priced(dataset),
        partition,
        policy=spec.policy_factory(),
        rng=rng,
        config=config,
    )


@dataclass(frozen=True)
class ChaosConfig:
    """What the chaos harness may do to dispatched slices.

    Every dispatch synthesizes a :class:`~repro.machine.accounting.JobRecord`
    for the slice (``wall = steps * step_wall_seconds``, ``rss = base +
    steps * per_step``) and passes it through the PR-2
    :class:`~repro.faults.model.FaultInjector` under a *per-campaign* RNG
    (``SeedSequence(entropy=seed, spawn_key=(campaign_seq,))``).  The
    injector's fixed-draw contract makes every campaign's fault stream a
    deterministic function of (config, campaign, dispatch number) —
    independent of worker count, completion order, and which other
    campaigns run — which is what makes chaos runs reproducible.

    Attributes
    ----------
    faults : FaultConfig
        Probabilities and limits, evaluated against the synthetic record.
    retry : RetryPolicy
        Shared resubmission rule (:meth:`RetryPolicy.should_retry`);
        backoff is charged to the ledger's queue-wait bucket, never slept.
    seed : int
        Root of the per-campaign chaos RNG tree.
    step_wall_seconds : float
        Synthetic wall-clock per AL step (node-hour pricing of slices).
    slice_rss_base_MB, slice_rss_per_step_MB : float
        Synthetic footprint model; drives the OOM trigger.
    straggler_sleep_s : float
        Real delay a straggling *process* worker sleeps before running
        (inline mode only accounts, never sleeps).
    timeout_kill_s : float
        Parent-side grace before a timed-out slice's worker is killed.
    """

    faults: FaultConfig
    retry: RetryPolicy = RetryPolicy()
    seed: int = 0
    step_wall_seconds: float = 30.0
    slice_rss_base_MB: float = 512.0
    slice_rss_per_step_MB: float = 256.0
    straggler_sleep_s: float = 0.02
    timeout_kill_s: float = 0.25

    def __post_init__(self) -> None:
        if not self.step_wall_seconds > 0:
            raise ValueError("step_wall_seconds must be positive")
        if self.slice_rss_base_MB < 0 or self.slice_rss_per_step_MB < 0:
            raise ValueError("slice rss model must be non-negative")
        if self.straggler_sleep_s < 0 or self.timeout_kill_s <= 0:
            raise ValueError("chaos delays must be positive")


# ----------------------------------------------- checkpoint (de)serialization


def dataset_fingerprint(dataset: Dataset) -> str:
    """Short stable hash of the dataset arrays (checkpoint-store identity)."""
    h = hashlib.sha1()
    for arr in (dataset.X, dataset.wall, dataset.cost, dataset.mem):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def policy_fingerprint(spec: CampaignSpec) -> str | None:
    """Content fingerprint of the spec's policy, if it declares one.

    Policies backed by an offline-trained artifact (the amortized
    scorer) expose a ``fingerprint`` property hashing the artifact's
    exact parameters.  The service stamps it into every checkpoint and
    refuses to resume across a change — a silently retrained policy file
    would break slice re-run bit-identity exactly like a changed
    ``ALConfig`` or dataset.  Policies without the attribute (all the
    Sec. IV-B algorithms) fingerprint as ``None``.
    """
    return getattr(spec.policy_factory(), "fingerprint", None)


#: Persistent-id token replacing the shared dataset inside campaign blobs.
_DATASET_PID = "repro.core.service:dataset"


class _InterningPickler(pickle.Pickler):
    """Pickles a learner with the shared dataset replaced by a token.

    The dataset is identical across every campaign the service runs, so
    blobs ship and store it zero times instead of once per slice — and
    :func:`loads_campaign` re-attaches the service's single in-memory
    copy by construction (no per-campaign duplicates after resume).
    """

    def __init__(self, buf: io.BytesIO, dataset: Dataset) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._dataset = dataset

    def persistent_id(self, obj):  # noqa: D102 - pickle protocol hook
        return _DATASET_PID if obj is self._dataset else None


class _InterningUnpickler(pickle.Unpickler):
    def __init__(self, buf: io.BytesIO, dataset: Dataset) -> None:
        super().__init__(buf)
        self._dataset = dataset

    def persistent_load(self, pid):  # noqa: D102 - pickle protocol hook
        if pid == _DATASET_PID:
            return self._dataset
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dumps_campaign(learner: ActiveLearner, dataset: Dataset) -> bytes:
    """Serialize mid-run learner state as a checkpoint blob.

    The blob holds live state only, and serializing leaves ``learner``
    untouched (its caches stay warm).  The candidate cross-covariance
    caches pickle empty (they are exact and rebuilt from the kernel on
    first use, bit-identically); the GP models pickle the lower
    triangles of their Cholesky factors, and their kernel workspaces
    without capacity headroom or evaluation scratch.  The dataset is
    interned via persistent-id.  Everything else — the RNG, the pool
    (Python ints), the partial records (each a tuple of its fields) —
    rides along, and pickle memoization preserves the learner/model RNG
    *sharing*, so a restored learner continues the identical stream.
    """
    buf = io.BytesIO()
    _InterningPickler(buf, dataset).dump(learner)
    return buf.getvalue()


def loads_campaign(blob: bytes, dataset: Dataset) -> ActiveLearner:
    """Restore a learner from a checkpoint blob against the live dataset."""
    return _InterningUnpickler(io.BytesIO(blob), dataset).load()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-then-rename: readers see the old file or the new, never half.

    The temp file is flushed and fsynced before ``os.replace`` so a
    machine crash mid-checkpoint cannot leave a torn file behind — the
    atomicity half of the service's exactly-once contract.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """Atomic per-campaign checkpoint files under one directory.

    Layout: ``<root>/meta.json`` (store identity: the dataset
    fingerprint) plus one ``<campaign_id>.ckpt`` pickle per campaign.
    Every write is atomic (:func:`_atomic_write_bytes`), so the store is
    consistent after a kill at *any* instant — the chaos suite's
    kill-and-resume tests rely on exactly this.
    """

    META_NAME = "meta.json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, campaign_id: str) -> Path:
        return self.root / f"{campaign_id}.ckpt"

    def save(self, campaign_id: str, payload: dict) -> None:
        _atomic_write_bytes(
            self.path(campaign_id),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load(self, campaign_id: str) -> dict:
        with open(self.path(campaign_id), "rb") as fh:
            return pickle.load(fh)

    def delete(self, campaign_id: str) -> None:
        self.path(campaign_id).unlink(missing_ok=True)

    def campaign_ids(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.ckpt"))

    def load_all(self) -> dict[str, dict]:
        return {cid: self.load(cid) for cid in self.campaign_ids()}

    def read_meta(self) -> dict | None:
        meta = self.root / self.META_NAME
        if not meta.exists():
            return None
        return json.loads(meta.read_text())

    def write_meta(self, meta: dict) -> None:
        _atomic_write_bytes(
            self.root / self.META_NAME, json.dumps(meta, indent=2).encode()
        )


# ------------------------------------------------------------------ queue


class CampaignQueue:
    """Budget-ordered round-robin queue of ready campaigns.

    Ready entries live in a heap keyed ``(round, -remaining_budget,
    seq)``: within a round-robin round the campaign with the *most*
    remaining node-hours runs first (big allocations make progress
    early, mirroring how backfill schedulers favour wide jobs), but the
    round number dominates — a campaign that just finished a slice
    re-enters at ``round + 1``, behind every campaign still waiting in
    the current round.  That makes starvation impossible: between two
    consecutive slices of any campaign, every other ready campaign is
    scheduled at least once, whatever the budgets.

    The queue is unbounded: every submission is admitted at once.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, float, int, str]] = []
        self._members: set[str] = set()
        self._round_floor = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, campaign_id: str) -> bool:
        return campaign_id in self._members

    def push(
        self,
        campaign_id: str,
        remaining_node_hours: float,
        seq: int,
        round_: int | None = None,
    ) -> None:
        """Enqueue a campaign.

        ``round_=None`` admits at the current round floor (new work joins
        the round in progress rather than jumping ahead of it).
        """
        if campaign_id in self._members:
            raise ValueError(f"campaign {campaign_id!r} is already queued")
        if round_ is None:
            round_ = self._round_floor
        self._members.add(campaign_id)
        heapq.heappush(
            self._heap, (round_, -float(remaining_node_hours), seq, campaign_id)
        )

    def pop(self) -> tuple[str, int] | None:
        """Highest-priority ready campaign as ``(campaign_id, round)``."""
        if not self._heap:
            return None
        round_, _negrem, _seq, campaign_id = heapq.heappop(self._heap)
        self._round_floor = max(self._round_floor, round_)
        self._members.discard(campaign_id)
        return campaign_id, round_


# ------------------------------------------------------------ slice worker


def _run_slice(dataset: Dataset, job: dict) -> tuple[str, dict]:
    """Execute one campaign slice; shared by workers and inline mode.

    A slice is a pure function of its input checkpoint: restore (or
    cold-start) the learner, advance at most ``job["steps"]`` steps,
    re-serialize.  A slice that finishes its campaign re-serializes only
    when ``job["keep_finished_blob"]`` says the parent keeps finished
    blobs (it has a store to write them to); otherwise it ships
    ``blob=None``, since nothing would read it.  Exceptions become a
    :class:`TrajectoryFailure` under ``"failure"`` — raising across a pipe would lose the traceback — so
    a poisoned policy costs one campaign, never the fleet.  Either way
    the result carries, under ``"obs"``, the metrics and spans the slice
    recorded (unless chaos dropped them), and the registry is left empty
    for the next slice.
    """
    cid = job["cid"]
    try:
        with obs.span("campaign_restore", cat="service", campaign=cid):
            if job["blob"] is None:
                learner = build_learner(job["spec"], dataset)
            else:
                learner = loads_campaign(job["blob"], dataset)
        n_before = len(learner.records)
        with obs.span(
            "campaign_slice", cat="service", campaign=cid, steps=job["steps"]
        ):
            learner.start()
            for _ in range(job["steps"]):
                if not learner.step():
                    break
        finished = learner.finished
        trajectory = learner.finalize() if finished else None
        blob = None
        if not finished or job["keep_finished_blob"]:
            with obs.span("campaign_dump", cat="service", campaign=cid):
                blob = dumps_campaign(learner, dataset)
        status, value = "ok", {
            "cid": cid,
            "blob": blob,
            "n_records_before": n_before,
            "n_records": len(learner.records),
            "new_indices": [
                int(r.dataset_index) for r in learner.records[n_before:]
            ],
            "iterations": learner.iteration,
            "cum_cost": learner.cumulative_cost_spent,
            "finished": finished,
            "trajectory": trajectory,
        }
    except Exception as exc:  # noqa: BLE001 - the boundary must be total
        status, value = "failed", {"failure": _failure(cid, exc)}
    payload = obs.snapshot_state(reset_after=True)
    value["obs"] = None if job["drop_obs"] else payload
    return status, value


def _failure(name: str, exc: Exception) -> TrajectoryFailure:
    """``exc``, being handled, as data that crosses a pipe intact."""
    return TrajectoryFailure(
        name=name, error=repr(exc), traceback=_traceback.format_exc()
    )


def _peak_rss_mb() -> float | None:
    """This process's peak resident set in MB, or None without ``getrusage``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not a POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _campaign_worker_main(conn, rank: int, trace_enabled: bool) -> None:
    """Entry point of one campaign worker (must be importable).

    Protocol: ``("dataset", ds)`` installs the shared dataset (doubles as
    the readiness handshake), ``("slice", job)`` runs one slice, and
    ``("close", None)`` is shutdown, answered with the worker's peak
    resident set (a forkserver worker is reaped by the server, so the
    parent's ``RUSAGE_CHILDREN`` never covers it).
    Chaos directives ride on the job: ``crash`` hard-kills the process
    (``os._exit`` — the parent sees EOF, exactly like a node failure),
    ``oom`` aborts before any work, ``timeout`` sleeps past the parent's
    deadline kill, ``straggler`` sleeps then runs normally.
    """
    if trace_enabled:
        obs.enable_tracing()
    dataset: Dataset | None = None
    while True:
        try:
            cmd, payload = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if cmd == "close":
            conn.send(("ok", _peak_rss_mb()))
            break
        if cmd == "dataset":
            dataset = payload
            conn.send(("ok", rank))
            continue
        if cmd != "slice":
            failure = TrajectoryFailure(name="?", error=f"unknown command {cmd!r}")
            conn.send(("failed", {"failure": failure, "obs": None}))
            continue
        try:
            directive = payload.get("directive")
            if directive == "crash":
                os._exit(17)  # a node failure does not unwind the stack
            if directive == "oom":
                conn.send(("fault", {"kind": FaultKind.OOM.value, "cid": payload["cid"]}))
                continue
            if directive in ("timeout", "straggler"):
                time.sleep(payload["sleep_s"])
                if directive == "timeout":
                    # Only reached if the parent's deadline kill raced
                    # behind; either path yields the same TIMEOUT fault.
                    conn.send(
                        ("fault", {"kind": FaultKind.TIMEOUT.value, "cid": payload["cid"]})
                    )
                    continue
            conn.send(_run_slice(dataset, payload))
        except Exception as exc:  # noqa: BLE001 - report, never kill the pipe
            conn.send(
                ("failed", {"failure": _failure(payload["cid"], exc), "obs": None})
            )


@functools.cache
def worker_context() -> multiprocessing.context.BaseContext:
    """The start context of the worker pool, created on first use.

    A ``forkserver`` whose server preloads this module (and with it the
    learner stack), or ``spawn`` where the platform has no forkserver.
    The module docstring says what the server fixes when it starts.  The
    stdlib keeps one forkserver per process, so the preload applies to
    any other ``forkserver`` context the process uses, and is ignored if
    that server was already running.

    Every live worker holds the server's "alive" pipe, and the server
    exits once all holders have closed it, so its stop is registered to
    run at interpreter exit *after* :mod:`multiprocessing` has terminated
    and joined its children; any earlier, it would wait on the workers.
    A process that used the pool leaves no server behind when it exits.

    The stdlib server preloads from its own start-up ``sys.path`` and
    leaves unused the parent's, which it is handed (Python 3.11).  Where
    that path would miss this package, the server starts here, with
    :func:`_server_pythonpath` in its environment for that moment only.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    from multiprocessing import forkserver, util

    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["repro.core.service"])
    path = _server_pythonpath()
    if path is not None:
        before = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = path
        try:
            forkserver.ensure_running()
        finally:
            if before is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = before
    # A negative priority runs after multiprocessing's exit handler.
    util.Finalize(None, forkserver._forkserver._stop, exitpriority=-1)
    return ctx


def _server_pythonpath() -> str | None:
    """A ``PYTHONPATH`` on which a fresh interpreter finds this package.

    None where it already would: the package's directory is on
    ``PYTHONPATH`` or is a site-packages directory (an install), or the
    interpreter ignores the environment anyway (``-E``/``-I``).
    """
    if sys.flags.ignore_environment:
        return None
    root = Path(__file__).resolve().parents[2]
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    found = [*entries, *site.getsitepackages(), site.getusersitepackages()]
    if any(Path(p).resolve() == root for p in found):
        return None
    return os.pathsep.join([str(root), *entries])


class _WorkerHandle:
    """One worker process: its pipe, boot state, and the slice it runs."""

    __slots__ = ("rank", "proc", "conn", "ticket", "boot_t0")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.proc = None
        self.conn = None
        self.ticket: "_Ticket | None" = None
        #: ``perf_counter()`` at start while the handshake is unread.
        self.boot_t0: float | None = None

    @property
    def booting(self) -> bool:
        return self.boot_t0 is not None


class CampaignWorkerPool:
    """Campaign worker processes the service dispatches slices to.

    Campaign workers are *free running*: each owns at most one in-flight
    slice and the service multiplexes replies with
    :func:`multiprocessing.connection.wait`.

    Nothing here waits for a worker to boot.  Starting a worker ships it
    the dataset and returns; the worker is :attr:`~_WorkerHandle.booting`
    until the service sees its handshake through the same ``wait`` and
    calls :meth:`handshake`.  Workers are expendable — a dead one (chaos
    crash, real crash, deadline kill) is replaced by :meth:`respawn`,
    which returns while the replacement boots; the slice it was running
    is re-dispatched from its checkpoint by the scheduler.
    """

    def __init__(self, num_workers: int, dataset: Dataset) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._ctx = worker_context()
        self._dataset = dataset
        self.workers: list[_WorkerHandle] = []
        for rank in range(num_workers):
            handle = _WorkerHandle(rank)
            self._start(handle)
            self.workers.append(handle)

    def __len__(self) -> int:
        return len(self.workers)

    def _start(self, handle: _WorkerHandle) -> None:
        """Start ``handle``'s process and ship the dataset, without waiting."""
        parent_conn, child_conn = self._ctx.Pipe()
        handle.proc = self._ctx.Process(
            target=_campaign_worker_main,
            args=(child_conn, handle.rank, obs.tracing_enabled()),
            daemon=True,
            name=f"campaign-worker-{handle.rank}",
        )
        handle.proc.start()
        child_conn.close()
        handle.conn = parent_conn
        handle.ticket = None
        handle.boot_t0 = time.perf_counter()
        # One buffered send at the paper's dataset size: it returns
        # before the child has finished importing.
        try:
            parent_conn.send(("dataset", self._dataset))
        except OSError:
            pass  # the child is already gone; handshake() reports it

    def handshake(self, handle: _WorkerHandle) -> None:
        """Read a booting worker's handshake (its conn is readable).

        A worker that dies before its handshake is a broken install or
        environment, not a fault to retry: raise :class:`ServiceError`.
        """
        try:
            handle.conn.recv()
        except (EOFError, OSError):
            handle.proc.join(timeout=5.0)
            raise ServiceError(
                f"campaign worker {handle.rank} died before its handshake "
                f"(exit code {handle.proc.exitcode})"
            ) from None
        boot_ms = 1e3 * (time.perf_counter() - handle.boot_t0)
        handle.boot_t0 = None
        obs.event(
            "service.worker_ready", cat="service", rank=handle.rank, boot_ms=boot_ms
        )

    def respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead (or condemned) worker; returns while it boots."""
        handle.conn.close()
        if handle.proc.is_alive():
            handle.proc.terminate()
        handle.proc.join(timeout=5.0)
        self._start(handle)

    def idle(self) -> Iterator[_WorkerHandle]:
        return (w for w in self.workers if w.ticket is None and not w.booting)

    def waitable(self, need_worker: bool) -> list[_WorkerHandle]:
        """Workers whose next message the service waits for.

        Every busy worker, plus the booting ones while ``need_worker``
        (a campaign is ready and no worker is idle).  A worker respawned
        at dispatch is booting *and* busy; it is listed once, because
        the selector under :func:`~multiprocessing.connection.wait`
        rejects a duplicate registration.
        """
        return [
            w for w in self.workers
            if w.ticket is not None or (need_worker and w.booting)
        ]

    def close(self) -> None:
        """Shut every worker down; safe to call twice.

        Each idle worker's reply carries its peak RSS, recorded as a
        ``service.worker_exit`` trace event (an event, not a metric, so
        inline and process fleets keep identical counters).
        """
        for w in self.workers:
            try:
                if w.proc.is_alive():
                    if w.ticket is not None or w.booting:
                        # Mid-slice or still importing: nothing to drain
                        # (an in-flight result would be discarded anyway).
                        w.proc.terminate()
                    else:
                        w.conn.send(("close", None))
                        if w.conn.poll(2.0):
                            _, peak_rss_mb = w.conn.recv()
                            obs.event(
                                "service.worker_exit",
                                cat="service",
                                rank=w.rank,
                                peak_rss_mb=peak_rss_mb,
                            )
            except (OSError, EOFError):
                pass
            finally:
                try:
                    w.conn.close()
                except OSError:
                    pass
        for w in self.workers:
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
        self.workers = []

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if self.workers:
                self.close()
        except Exception:
            pass


# ------------------------------------------------------------- service


@dataclass
class _Ticket:
    """One dispatched slice: its chaos verdict and fault-accounting data."""

    cid: str
    directive: str | None = None
    deadline: float | None = None
    wasted_node_hours: float = 0.0
    lost_wall_seconds: float = 0.0
    straggle_overhead_nh: float = 0.0


@dataclass
class _Campaign:
    """The service's mutable per-campaign record (checkpoint mirror)."""

    spec: CampaignSpec
    seq: int
    status: CampaignStatus = CampaignStatus.PENDING
    blob: bytes | None = None
    n_records: int = 0
    iterations: int = 0
    slice_steps: int = 1
    slice_index: int = 0
    attempt: int = 0
    round: int = 0
    cum_cost_seen: float = 0.0
    ledger: CampaignLedger = field(default_factory=CampaignLedger)
    fault_events: list[FaultEvent] = field(default_factory=list)
    failure: TrajectoryFailure | None = None
    trajectory: Trajectory | None = None
    chaos_rng: np.random.Generator | None = None
    obs_metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    trace_payloads: list = field(default_factory=list)
    policy_fingerprint: str | None = None


@dataclass(frozen=True)
class CampaignInfo:
    """One row of the service's campaign listing (CLI surface)."""

    campaign_id: str
    status: str
    iterations: int
    records: int
    round: int
    budget_node_hours: float
    committed_node_hours: float
    wasted_node_hours: float
    remaining_node_hours: float
    queue_wait_seconds: float
    faults: int
    stop_reason: str | None


@dataclass(frozen=True)
class ServiceReport:
    """What one :meth:`CampaignService.run` call (cumulatively) did."""

    slices_committed: int
    slices_discarded: int
    fault_counts: dict
    campaigns: dict

    @property
    def done(self) -> int:
        return sum(1 for s in self.campaigns.values() if s == "done")

    @property
    def failed(self) -> int:
        return sum(1 for s in self.campaigns.values() if s == "failed")


class CampaignService:
    """Long-lived scheduler multiplexing AL campaigns over a worker fleet.

    Parameters
    ----------
    dataset : Dataset
        The shared job table every campaign selects from (interned out of
        all checkpoints; the store refuses a different dataset).
    store : CheckpointStore or path, optional
        Durable checkpoint directory.  Existing campaigns are attached on
        construction — constructing a service over a store left by a
        killed one *is* the resume path.  ``None`` keeps checkpoints in
        memory only (fast property-test mode; no kill-resume).
    workers : int
        0 (default) runs slices inline — same scheduler, same commit
        path, no processes.  ``N >= 1`` starts a
        :class:`CampaignWorkerPool` and multiplexes.
    steps_per_slice : int
        Default AL steps per slice (per-campaign override on the spec).
    chaos : ChaosConfig, optional
        Enable the chaos harness.
    """

    def __init__(
        self,
        dataset: Dataset,
        store: CheckpointStore | str | Path | None = None,
        *,
        workers: int = 0,
        steps_per_slice: int = 8,
        chaos: ChaosConfig | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if steps_per_slice < 1:
            raise ValueError("steps_per_slice must be >= 1")
        self.dataset = dataset
        self.workers = workers
        self.steps_per_slice = steps_per_slice
        self.chaos = chaos
        self._injector = (
            FaultInjector(chaos.faults)
            if chaos is not None and chaos.faults.enabled
            else None
        )
        self._queue = CampaignQueue()
        self._campaigns: dict[str, _Campaign] = {}
        self._seq = 0
        self._pool: CampaignWorkerPool | None = None
        self._slices_committed = 0
        self._slices_discarded = 0
        self._fault_counts: dict[str, int] = {}
        #: Checkpoint payloads taken but not yet written, by campaign;
        #: a dict only while :meth:`run` multiplexes worker processes.
        self._unsaved: dict[str, dict] | None = None

        if store is None:
            self.store: CheckpointStore | None = None
        else:
            self.store = store if isinstance(store, CheckpointStore) else CheckpointStore(store)
            fp = dataset_fingerprint(dataset)
            meta = self.store.read_meta()
            if meta is None:
                self.store.write_meta(
                    {"version": CHECKPOINT_VERSION, "dataset_fingerprint": fp}
                )
            elif meta.get("dataset_fingerprint") != fp:
                raise ServiceError(
                    "checkpoint store belongs to a different dataset "
                    f"(store {meta.get('dataset_fingerprint')!r} != {fp!r})"
                )
            self._attach_existing()

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------- submission

    def submit(self, spec: CampaignSpec) -> str:
        """Register a campaign and enqueue it; returns its id.

        With a store, the first checkpoint is written before the
        campaign is registered: a spec that does not pickle raises here
        and leaves neither a listed campaign nor a file behind.
        """
        if spec.campaign_id in self._campaigns:
            raise ValueError(f"campaign {spec.campaign_id!r} already exists")
        rec = _Campaign(
            spec=spec,
            seq=self._seq,
            slice_steps=spec.steps_per_slice or self.steps_per_slice,
            ledger=CampaignLedger(budget_node_hours=spec.budget_node_hours),
            chaos_rng=self._fresh_chaos_rng(self._seq),
            # Only a checkpoint reads the stamp.  Without a store no
            # policy is built here, so a factory that raises fails its
            # campaign's first slice like any other policy error.
            policy_fingerprint=(
                None if self.store is None else policy_fingerprint(spec)
            ),
        )
        self._checkpoint(rec)
        self._seq += 1
        self._campaigns[spec.campaign_id] = rec
        self._queue.push(
            spec.campaign_id, rec.ledger.remaining_node_hours, rec.seq, round_=rec.round
        )
        obs.incr("service.campaign.submitted")
        return spec.campaign_id

    def _fresh_chaos_rng(self, seq: int) -> np.random.Generator | None:
        if self.chaos is None:
            return None
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.chaos.seed, spawn_key=(seq,))
        )

    def pause(self, campaign_id: str) -> None:
        """Hold a campaign out of scheduling (its stale queue entry is
        skipped lazily; an in-flight slice still commits, then parks)."""
        rec = self._rec(campaign_id)
        if rec.status not in (CampaignStatus.PENDING, CampaignStatus.PAUSED):
            raise ServiceError(f"cannot pause {campaign_id!r} ({rec.status.value})")
        rec.status = CampaignStatus.PAUSED
        self._checkpoint(rec)

    def resume_campaign(self, campaign_id: str) -> None:
        """Re-admit a paused campaign at the current round-robin round."""
        rec = self._rec(campaign_id)
        if rec.status is not CampaignStatus.PAUSED:
            raise ServiceError(f"cannot resume {campaign_id!r} ({rec.status.value})")
        rec.status = CampaignStatus.PENDING
        if campaign_id not in self._queue:
            self._queue.push(
                campaign_id, rec.ledger.remaining_node_hours, rec.seq, round_=None
            )
        self._checkpoint(rec)

    def campaigns(self) -> list[CampaignInfo]:
        """Listing of every known campaign, in submission order."""
        out = []
        for rec in sorted(self._campaigns.values(), key=lambda r: r.seq):
            out.append(
                CampaignInfo(
                    campaign_id=rec.spec.campaign_id,
                    status=rec.status.value,
                    iterations=rec.iterations,
                    records=rec.n_records,
                    round=rec.round,
                    budget_node_hours=rec.ledger.budget_node_hours,
                    committed_node_hours=rec.ledger.committed_node_hours,
                    wasted_node_hours=rec.ledger.wasted_node_hours,
                    remaining_node_hours=rec.ledger.remaining_node_hours,
                    queue_wait_seconds=rec.ledger.queue_wait_seconds,
                    faults=len(rec.fault_events),
                    stop_reason=(
                        rec.trajectory.stop_reason.value if rec.trajectory else None
                    ),
                )
            )
        return out

    def result(self, campaign_id: str) -> Trajectory | TrajectoryFailure | None:
        """The campaign's outcome, or None while it is still running."""
        rec = self._rec(campaign_id)
        if rec.status is CampaignStatus.DONE:
            return rec.trajectory
        if rec.status is CampaignStatus.FAILED:
            return rec.failure
        return None

    def fault_events(self, campaign_id: str) -> tuple[FaultEvent, ...]:
        return tuple(self._rec(campaign_id).fault_events)

    def _rec(self, campaign_id: str) -> _Campaign:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise KeyError(f"unknown campaign {campaign_id!r}") from None

    # ------------------------------------------------------------ event loop

    def run(self, max_slices: int | None = None) -> ServiceReport:
        """Schedule until done (or ``max_slices`` commits), then report.

        ``max_slices`` bounds *committed* slices this call — the chaos
        suite's kill switch: a service run to ``max_slices=k`` and closed
        has exactly the first ``k`` commits checkpointed, and a fresh
        service over the same store continues from there bit-identically
        (in-flight un-committed slices are pure re-runnable work).

        With worker processes, a commit's checkpoint is written after
        the freed workers have been handed their next slices; the run
        writes every deferred checkpoint before it returns or raises.
        Inline, each commit is written as it happens.
        """
        goal = None if max_slices is None else self._slices_committed + max_slices
        try:
            if self.workers == 0:
                while goal is None or self._slices_committed < goal:
                    if not self._run_one_inline():
                        break
            else:
                if self._pool is None:
                    self._pool = CampaignWorkerPool(self.workers, self.dataset)
                self._unsaved = {}
                while goal is None or self._slices_committed < goal:
                    self._fill_workers()
                    # The commits of the last wait reach the disk only
                    # now, while the workers they freed run their next
                    # slices.
                    self._save_unsaved()
                    # Whatever is still queued found no idle worker, so
                    # only then is a booting worker worth waiting for.
                    waiting = self._pool.waitable(need_worker=len(self._queue) > 0)
                    if not waiting:
                        break
                    self._wait_and_handle(waiting)
        finally:
            # Also on an interrupt: what committed slices shipped stays,
            # and every commit counted so far is written.
            self.drain_observability()
            try:
                self._save_unsaved()
            finally:
                self._unsaved = None
        return self.report()

    def report(self) -> ServiceReport:
        return ServiceReport(
            slices_committed=self._slices_committed,
            slices_discarded=self._slices_discarded,
            fault_counts=dict(self._fault_counts),
            campaigns={
                r.spec.campaign_id: r.status.value
                for r in sorted(self._campaigns.values(), key=lambda r: r.seq)
            },
        )

    def _next_pending(self) -> _Campaign | None:
        """Pop ready campaigns, lazily skipping paused/finished entries."""
        while True:
            nxt = self._queue.pop()
            if nxt is None:
                return None
            campaign_id, _round = nxt
            rec = self._campaigns[campaign_id]
            if rec.status is not CampaignStatus.PENDING:
                continue
            if rec.ledger.exhausted:
                self._finalize_budget(rec)
                self._checkpoint(rec)
                continue
            return rec

    # --- inline mode

    def _run_one_inline(self) -> bool:
        rec = self._next_pending()
        if rec is None:
            return False
        ticket = self._decide(rec)
        if ticket.directive in ("crash", "oom", "timeout"):
            # Inline has no process to kill: a fatal verdict simply means
            # the slice's work is discarded before it exists — identical
            # commit-state semantics to killing a real worker.
            self._discard(rec, FaultKind(ticket.directive), ticket)
            return True
        job = self._make_job(rec, ticket)
        # The slice ships the same per-campaign payload a process worker
        # would; the caller's metrics and open spans stay as they were.
        with obs.isolated():
            status, value = _run_slice(self.dataset, job)
        if status == "ok":
            self._commit(rec, value, ticket)
        else:
            self._fail(rec, value)
        return True

    # --- process mode

    def _fill_workers(self) -> None:
        for worker in list(self._pool.idle()):
            while worker.ticket is None:
                rec = self._next_pending()
                if rec is None:
                    return
                ticket = self._decide(rec)
                job = self._make_job(rec, ticket)
                try:
                    # Pickled before anything is written, as
                    # ``Connection.send`` would, so a job that does not
                    # pickle leaves the pipe clean.
                    message = ForkingPickler.dumps(("slice", job))
                except Exception as exc:  # noqa: BLE001 - pickling errors vary
                    # A lambda policy factory, say: this campaign fails,
                    # and the worker, still idle, takes the next one.
                    failure = _failure(rec.spec.campaign_id, exc)
                    self._fail(rec, {"failure": failure, "obs": None})
                    continue
                try:
                    worker.conn.send_bytes(message)
                except OSError:
                    # The worker died while idle: replace it and queue the
                    # same job behind the fresh one's dataset.  It is
                    # booting and busy at once; its handshake arrives first.
                    self._pool.respawn(worker)
                    worker.conn.send_bytes(message)
                if ticket.directive == "timeout":
                    ticket.deadline = time.monotonic() + self.chaos.timeout_kill_s
                worker.ticket = ticket

    def _wait_and_handle(self, waiting: list[_WorkerHandle]) -> None:
        deadlines = [
            w.ticket.deadline
            for w in waiting
            if w.ticket is not None and w.ticket.deadline is not None
        ]
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        with obs.span("service.wait", cat="service"):
            ready = connection.wait([w.conn for w in waiting], timeout)
        by_conn = {w.conn: w for w in waiting}
        for conn in ready:
            worker = by_conn[conn]
            if worker.booting:
                self._pool.handshake(worker)
                continue
            try:
                status, value = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                self._handle_worker_death(worker)
                continue
            ticket, worker.ticket = worker.ticket, None
            rec = self._campaigns[ticket.cid]
            if status == "ok":
                self._commit(rec, value, ticket)
            elif status == "fault":
                self._discard(rec, FaultKind(value["kind"]), ticket)
            else:
                self._fail(rec, value)
        now = time.monotonic()
        for worker in waiting:
            t = worker.ticket
            if t is not None and t.deadline is not None and now >= t.deadline:
                # Deadline kill: the slice overran its window (chaos
                # TIMEOUT); condemn the worker and discard the slice.
                ticket, worker.ticket = t, None
                self._pool.respawn(worker)
                self._discard(self._campaigns[ticket.cid], FaultKind.TIMEOUT, ticket)

    def _handle_worker_death(self, worker: _WorkerHandle) -> None:
        # Only a busy worker is read once booted.  Whether chaos ordered
        # the crash or the worker genuinely died, the response is the
        # same: discard, respawn, re-run.
        ticket = worker.ticket
        self._pool.respawn(worker)
        self._discard(self._campaigns[ticket.cid], FaultKind.CRASH, ticket)

    # ------------------------------------------------------- chaos decisions

    def _decide(self, rec: _Campaign) -> _Ticket:
        """Pass a synthetic slice record through the fault injector."""
        ticket = _Ticket(cid=rec.spec.campaign_id)
        if self._injector is None:
            return ticket
        c = self.chaos
        steps = rec.slice_steps
        synthetic = JobRecord(
            job_id=rec.slice_index,
            features=(),
            wall_seconds=steps * c.step_wall_seconds,
            nodes=1,
            max_rss_MB=c.slice_rss_base_MB + steps * c.slice_rss_per_step_MB,
        )
        insp = self._injector.inspect(synthetic, rec.chaos_rng)
        if insp.fault is None:
            return ticket
        ticket.directive = insp.fault.value
        if insp.fatal:
            ticket.wasted_node_hours = insp.record.cost_node_hours
            ticket.lost_wall_seconds = insp.record.wall_seconds
        elif insp.fault is FaultKind.STRAGGLER:
            ticket.straggle_overhead_nh = (
                (insp.record.wall_seconds - synthetic.wall_seconds)
                * synthetic.nodes
                / 3600.0
            )
        return ticket

    def _make_job(self, rec: _Campaign, ticket: _Ticket) -> dict:
        sleep_s = 0.0
        if ticket.directive == "straggler":
            sleep_s = self.chaos.straggler_sleep_s
        elif ticket.directive == "timeout":
            # Far past the parent's kill deadline: the sleep only ends if
            # the kill raced behind, and the worker then self-reports.
            sleep_s = self.chaos.timeout_kill_s * 50.0
        return {
            "cid": rec.spec.campaign_id,
            "spec": rec.spec if rec.blob is None else None,
            "blob": rec.blob,
            "steps": rec.slice_steps,
            "directive": ticket.directive,
            "sleep_s": sleep_s,
            "drop_obs": ticket.directive == "rss_lost",
            # Only a checkpoint reads a finished campaign's blob.
            "keep_finished_blob": self.store is not None,
        }

    # ------------------------------------------------------------ transitions

    def _commit(self, rec: _Campaign, value: dict, ticket: _Ticket) -> None:
        """Fold one completed slice into committed campaign state."""
        cid = rec.spec.campaign_id
        if value["n_records_before"] != rec.n_records:
            raise ServiceError(
                f"exactly-once violation on {cid!r}: slice ran from "
                f"{value['n_records_before']} records, checkpoint has {rec.n_records}"
            )
        if value["n_records"] != rec.n_records + len(value["new_indices"]):
            raise ServiceError(f"non-contiguous record commit on {cid!r}")
        delta_cost = value["cum_cost"] - rec.cum_cost_seen
        if delta_cost < -1e-12:
            raise ServiceError(f"cumulative cost moved backwards on {cid!r}")
        rec.ledger.charge(max(0.0, delta_cost))
        rec.cum_cost_seen = value["cum_cost"]
        if ticket.directive == "straggler":
            rec.ledger.waste(ticket.straggle_overhead_nh)
            self._record_fault(
                rec,
                FaultKind.STRAGGLER,
                detail=f"slice slowed x{self.chaos.faults.straggler_slowdown}",
            )
        elif ticket.directive == "rss_lost":
            self._record_fault(
                rec, FaultKind.RSS_LOST, detail="slice observability payload lost"
            )
        rec.blob = value["blob"]
        rec.n_records = value["n_records"]
        rec.iterations = value["iterations"]
        rec.slice_index += 1
        rec.attempt = 0
        self._keep_observability(rec, value["obs"])
        self._slices_committed += 1
        obs.incr("service.slice.committed")
        if value["finished"]:
            rec.trajectory = value["trajectory"]
            rec.status = CampaignStatus.DONE
            obs.incr("service.campaign.done")
        elif rec.ledger.exhausted:
            self._finalize_budget(rec)
        elif rec.status is CampaignStatus.PENDING:
            rec.round += 1
            self._queue.push(
                cid, rec.ledger.remaining_node_hours, rec.seq, round_=rec.round
            )
        # A PAUSED campaign's in-flight slice commits but does not
        # re-enqueue; resume_campaign() re-admits it.
        self._checkpoint(rec)

    def _discard(self, rec: _Campaign, kind: FaultKind, ticket: _Ticket) -> None:
        """A slice died: charge the waste, retry or fail — never commit."""
        cid = rec.spec.campaign_id
        rec.ledger.waste(ticket.wasted_node_hours)
        self._slices_discarded += 1
        obs.incr("service.slice.discarded")
        retry = self.chaos.retry if self.chaos is not None else RetryPolicy()
        if rec.ledger.exhausted:
            self._record_fault(
                rec,
                kind,
                lost_wall=ticket.lost_wall_seconds,
                detail="budget exhausted by waste",
            )
            self._finalize_budget(rec)
        elif retry.should_retry(kind, True, rec.attempt):
            rec.attempt += 1
            backoff = retry.backoff_seconds(rec.attempt)
            rec.ledger.wait(backoff)
            detail = "slice resubmitted"
            halve = (kind is FaultKind.OOM and retry.escalate_p_on_oom) or (
                kind is FaultKind.TIMEOUT
            )
            if halve and rec.slice_steps > 1:
                # The slice shape did not fit (footprint or wall-clock
                # window): resubmit half as long, the scheduler analog of
                # ResilientJobRunner's resubmit-wider OOM response.
                rec.slice_steps = max(1, rec.slice_steps // 2)
                detail = f"slice resubmitted at steps={rec.slice_steps}"
            self._record_fault(
                rec,
                kind,
                lost_wall=ticket.lost_wall_seconds,
                backoff=backoff,
                detail=detail,
            )
            if rec.status is CampaignStatus.PENDING and cid not in self._queue:
                self._queue.push(
                    cid, rec.ledger.remaining_node_hours, rec.seq, round_=rec.round
                )
        else:
            self._record_fault(
                rec, kind, lost_wall=ticket.lost_wall_seconds, detail="gave up"
            )
            rec.status = CampaignStatus.FAILED
            rec.failure = TrajectoryFailure(
                name=cid,
                error=(
                    f"slice discarded by {kind.value} "
                    f"after {rec.attempt + 1} attempts"
                ),
            )
            obs.incr("service.campaign.failed")
        self._checkpoint(rec)

    def _fail(self, rec: _Campaign, value: dict) -> None:
        """The slice itself raised: deterministic, so never retried.

        What the slice recorded before it raised ships on the campaign's
        lane, as a committed slice's payload does.
        """
        self._keep_observability(rec, value["obs"])
        rec.status = CampaignStatus.FAILED
        rec.failure = value["failure"]
        obs.incr("service.campaign.failed")
        self._checkpoint(rec)

    @staticmethod
    def _keep_observability(rec: _Campaign, payload: dict | None) -> None:
        """Buffer a slice's payload for :meth:`drain_observability`."""
        if payload is not None:
            rec.obs_metrics.merge(payload["metrics"])
            if payload["trace"] is not None:
                rec.trace_payloads.append(payload["trace"])

    def _finalize_budget(self, rec: _Campaign) -> None:
        """Close out a campaign whose ledger ran dry."""
        if rec.blob is not None:
            learner = loads_campaign(rec.blob, self.dataset)
        else:
            learner = build_learner(rec.spec, self.dataset)
        rec.trajectory = learner.finalize(stop=StopReason.BUDGET_EXHAUSTED)
        rec.status = CampaignStatus.DONE
        obs.incr("service.campaign.done")
        obs.incr("service.campaign.budget_exhausted")

    def _record_fault(
        self,
        rec: _Campaign,
        kind: FaultKind,
        lost_wall: float = 0.0,
        backoff: float = 0.0,
        detail: str = "",
    ) -> None:
        self._fault_counts[kind.value] = self._fault_counts.get(kind.value, 0) + 1
        obs.incr(f"service.fault.{kind.value}")
        rec.fault_events.append(
            FaultEvent(
                job_id=rec.slice_index,
                attempt=rec.attempt,
                kind=kind,
                lost_wall_seconds=lost_wall,
                nodes=1,
                backoff_seconds=backoff,
                detail=detail,
            )
        )

    # ------------------------------------------------------------ checkpoints

    def _checkpoint(self, rec: _Campaign) -> None:
        """Write the campaign's state, or defer it inside a process run.

        While :meth:`run` multiplexes workers, the payload is taken now
        and written by :meth:`_save_unsaved` once the freed workers have
        their next slices.  The next dispatch draws its chaos verdict
        from this campaign's stream, so the payload keeps a copy of the
        stream as it is now: the file is what an immediate write would
        have produced.
        """
        if self.store is None:
            return
        payload = {
            "version": CHECKPOINT_VERSION,
            "spec": rec.spec,
            "seq": rec.seq,
            "status": rec.status.value,
            "blob": rec.blob,
            "n_records": rec.n_records,
            "iterations": rec.iterations,
            "slice_steps": rec.slice_steps,
            "slice_index": rec.slice_index,
            "attempt": rec.attempt,
            "round": rec.round,
            "cum_cost_seen": rec.cum_cost_seen,
            "ledger": rec.ledger,
            "fault_events": tuple(rec.fault_events),
            "failure": rec.failure,
            "trajectory": rec.trajectory,
            "chaos_rng": rec.chaos_rng,
            "config_fingerprint": rec.spec.config.fingerprint(),
            # Read back with .get(): a payload without the stamp
            # carries no policy claim to verify.
            "policy_fingerprint": rec.policy_fingerprint,
        }
        cid = rec.spec.campaign_id
        if self._unsaved is None:
            self._save(cid, payload)
        else:
            payload["chaos_rng"] = copy.deepcopy(rec.chaos_rng)
            self._unsaved[cid] = payload

    def _save(self, cid: str, payload: dict) -> None:
        with obs.span("service.checkpoint", cat="service", campaign=cid):
            self.store.save(cid, payload)

    def _save_unsaved(self) -> None:
        """Write every deferred checkpoint, oldest first.

        Each entry leaves the buffer before its write, so after a failed
        write a second call goes on with the rest.
        """
        while self._unsaved:
            cid = next(iter(self._unsaved))
            self._save(cid, self._unsaved.pop(cid))

    def _attach_existing(self) -> None:
        for campaign_id, payload in self.store.load_all().items():
            if payload.get("version") != CHECKPOINT_VERSION:
                raise ServiceError(
                    f"checkpoint {campaign_id!r} has version "
                    f"{payload.get('version')!r}, expected {CHECKPOINT_VERSION}; "
                    "checkpoints are not migrated: finish those campaigns with "
                    "the release that wrote them, or start a new store"
                )
            spec: CampaignSpec = payload["spec"]
            stamped = payload["config_fingerprint"]
            current = spec.config.fingerprint()
            if stamped != current:
                raise ServiceError(
                    f"refusing to resume {campaign_id!r}: its checkpoint was "
                    f"written under config {stamped}, which no longer matches "
                    f"{current} — resume bit-identity cannot be guaranteed"
                )
            stamped_policy = payload.get("policy_fingerprint")
            current_policy = policy_fingerprint(spec)
            if stamped_policy != current_policy:
                raise ServiceError(
                    f"refusing to resume {campaign_id!r}: its checkpoint was "
                    f"written under policy fingerprint {stamped_policy}, which "
                    f"no longer matches {current_policy} — the policy artifact "
                    "changed (retrained?) and resume bit-identity cannot be "
                    "guaranteed"
                )
            rec = _Campaign(
                spec=spec,
                seq=payload["seq"],
                status=CampaignStatus(payload["status"]),
                blob=payload["blob"],
                n_records=payload["n_records"],
                iterations=payload["iterations"],
                slice_steps=payload["slice_steps"],
                slice_index=payload["slice_index"],
                attempt=payload["attempt"],
                round=payload["round"],
                cum_cost_seen=payload["cum_cost_seen"],
                ledger=payload["ledger"],
                fault_events=list(payload["fault_events"]),
                failure=payload["failure"],
                trajectory=payload["trajectory"],
                # A checkpoint written by a chaos-free service carries no
                # chaos stream; a chaos-enabled service attaching to it
                # seeds the campaign's stream at its fixed tree position.
                chaos_rng=(
                    payload["chaos_rng"]
                    if payload["chaos_rng"] is not None
                    else self._fresh_chaos_rng(payload["seq"])
                ),
                policy_fingerprint=stamped_policy,
            )
            self._campaigns[campaign_id] = rec
            self._seq = max(self._seq, rec.seq + 1)
            if rec.status is CampaignStatus.PENDING:
                self._queue.push(
                    campaign_id,
                    rec.ledger.remaining_node_hours,
                    rec.seq,
                    round_=rec.round,
                )

    # ---------------------------------------------------------- observability

    def drain_observability(self) -> None:
        """Merge buffered per-campaign payloads home, one lane each.

        Payloads were buffered per campaign at commit time; merging
        happens here in campaign-*submission* order (seq), onto trace
        lane ``seq + 1`` — so the final global state is identical for
        any worker count and any completion interleaving.  Metrics
        merging is commutative anyway (sums; gauges keep the max); the
        fixed lane assignment makes the trace deterministic too.
        """
        for rec in sorted(self._campaigns.values(), key=lambda r: r.seq):
            obs.merge_state({"metrics": rec.obs_metrics.state(), "trace": None})
            rec.obs_metrics.reset()
            for trace in rec.trace_payloads:
                obs.merge_state({"metrics": {}, "trace": trace}, track=rec.seq + 1)
            rec.trace_payloads.clear()
