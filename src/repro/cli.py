"""Command-line interface: ``python -m repro.cli <command>`` (or ``repro``).

Three subcommands cover the paper's workflow end to end:

- ``dataset`` — generate the 600-job campaign, print Table I, optionally
  save it as CSV or NPZ; ``--fault-*`` flags route every job through the
  fault-injection layer and the resilient (retrying) executor.
- ``run`` — one Active-Learning trajectory on a dataset (generated or
  loaded), with any of the five policies and the paper's knobs; the
  ``--acq-*`` flags make acquisitions fail and ``--on-failure`` picks the
  loop's response.
- ``simulate`` — run one real AMR shock-bubble simulation and report the
  measured work plus the machine model's cost/memory predictions.
- ``trace`` — exercise every instrumented subsystem once with span
  tracing enabled and export a Perfetto-loadable Chrome trace (plus an
  optional metrics JSON): a real AMR job, a fault-retrying resilient
  execution, and a short Active-Learning run with acquisition faults.
- ``serve`` — run the campaign service over a checkpoint store until
  every campaign finishes (or ``--max-slices`` commits): resumable,
  multi-worker, with optional ``--chaos-*`` fault injection.
- ``campaign`` — manage that store: ``submit``, ``list``, ``pause``,
  ``resume``.

``run`` and ``serve`` also accept ``--trace-out``/``--metrics-out`` to
export observability state.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro import obs
from repro.core import ActiveLearner, ALConfig, RandGoodness, random_partition
from repro.data import load_csv, load_npz, render_table1, run_campaign, save_csv, save_npz
from repro.faults import AcquisitionFaultModel, FaultConfig, RetryPolicy
from repro.registry import policy_registry, surrogate_registry


def _add_dataset_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("dataset", help="generate the Table I campaign dataset")
    p.add_argument("--seed", type=int, default=42, help="campaign RNG seed")
    p.add_argument("--out", type=str, default=None, help="save to .csv or .npz")
    p.add_argument(
        "--no-compare", action="store_true", help="omit the paper's reference column"
    )
    g = p.add_argument_group("fault injection (all off by default)")
    g.add_argument("--fault-crash-prob", type=float, default=0.0,
                   help="per-attempt crash probability")
    g.add_argument("--fault-timeout", type=float, default=None,
                   help="queue wall-clock limit in seconds")
    g.add_argument("--fault-straggler-prob", type=float, default=0.0,
                   help="slow-node probability")
    g.add_argument("--fault-straggler-slowdown", type=float, default=4.0,
                   help="wall-clock multiplier for stragglers")
    g.add_argument("--fault-oom-limit", type=float, default=None,
                   help="per-process MaxRSS (MB) at which the OOM killer fires")
    g.add_argument("--fault-rss-lost-prob", type=float, default=0.0,
                   help="MaxRSS=0 bug probability for eligible (short) jobs")
    g.add_argument("--fault-rss-threshold", type=float, default=139.0,
                   help="wall-time eligibility threshold for the MaxRSS=0 bug")
    g.add_argument("--max-retries", type=int, default=3,
                   help="resubmissions allowed per job before giving up")
    p.set_defaults(func=cmd_dataset)


def _fault_config(args: argparse.Namespace) -> FaultConfig | None:
    """A FaultConfig from the dataset command's flags; None when all off."""
    cfg = FaultConfig(
        crash_probability=args.fault_crash_prob,
        oom_memory_limit_MB=args.fault_oom_limit,
        timeout_wall_seconds=args.fault_timeout,
        straggler_probability=args.fault_straggler_prob,
        straggler_slowdown=args.fault_straggler_slowdown,
        rss_lost_wall_threshold_s=args.fault_rss_threshold,
        rss_lost_probability=args.fault_rss_lost_prob,
    )
    return cfg if cfg.enabled else None


def cmd_dataset(args: argparse.Namespace) -> int:
    faults = _fault_config(args)
    result = run_campaign(
        np.random.default_rng(args.seed),
        faults=faults,
        retry=RetryPolicy(max_retries=args.max_retries) if faults else None,
    )
    print(render_table1(result.dataset, compare_paper=not args.no_compare))
    print(
        f"\nexcluded combinations: {result.excluded_combinations}  "
        f"simulated core-hours: {result.total_core_hours:.0f}"
    )
    if faults is not None:
        by_kind: dict[str, int] = {}
        for e in result.fault_events:
            by_kind[e.kind.value] = by_kind.get(e.kind.value, 0) + 1
        kinds = "  ".join(f"{k}={n}" for k, n in sorted(by_kind.items())) or "none"
        print(
            f"fault events: {len(result.fault_events)} ({kinds})\n"
            f"usable rows: {result.num_usable}/{len(result.records)}  "
            f"failed: {result.failed_jobs}  censored: {result.censored_jobs}  "
            f"wasted core-hours: {result.wasted_core_hours:.0f}"
        )
    if args.out:
        if args.out.endswith(".csv"):
            save_csv(result.dataset, args.out)
        elif args.out.endswith(".npz"):
            save_npz(result.dataset, args.out)
        else:
            print("error: --out must end in .csv or .npz", file=sys.stderr)
            return 2
        print(f"saved {len(result.dataset)} jobs to {args.out}")
    return 0


# --------------------------------------------- registry-driven selection


def _coerce_option(value: str):
    """``key=value`` suffix values: bool > int > float > str."""
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def _parse_selector(spec: str) -> tuple[str, dict]:
    """``name[,key=value,...]`` -> ``(name, options)``.

    The one spelling for selecting *and* parameterizing a registered
    policy or surrogate: ``--surrogate sparse,n_inducing=32`` or
    ``--policy portfolio,base=8``.
    """
    name, _, rest = spec.partition(",")
    opts: dict = {}
    for item in rest.split(",") if rest else ():
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise argparse.ArgumentTypeError(
                f"bad option {item!r} in {spec!r}: expected key=value"
            )
        opts[key.strip()] = _coerce_option(value.strip())
    return name.strip(), opts


def _registry_selector(registry, kind: str):
    """Parse-time name validation for ``NAME[,key=value,...]`` selectors.

    Unknown names fail inside argparse (exit 2, usage printed) listing
    the registered keys, exactly like a ``choices=`` constraint would —
    but without forbidding the option suffix.
    """

    def parse(value: str) -> str:
        name, _ = _parse_selector(value)  # raises on malformed key=value
        if name not in registry:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {name!r} (choose from: "
                f"{', '.join(registry.names())})"
            )
        return value

    return parse


def _add_selection_args(p: argparse.ArgumentParser, default_policy=None) -> None:
    g = p.add_argument_group("selection (registry-resolved)")
    g.add_argument(
        "--policy",
        type=_registry_selector(policy_registry, "policy"),
        default=default_policy,
        metavar="NAME[,key=value,...]",
        help="registered acquisition policy, with option suffixes "
        "(see --list-policies)",
    )
    g.add_argument(
        "--surrogate",
        type=_registry_selector(surrogate_registry, "surrogate"),
        default="dense",
        metavar="NAME[,key=value,...]",
        help="registered GP backend, with option suffixes "
        "(see --list-surrogates)",
    )
    g.add_argument("--list-policies", action="store_true",
                   help="print registered policy names and exit")
    g.add_argument("--list-surrogates", action="store_true",
                   help="print registered surrogate names and exit")


def _add_fidelity_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("batch multi-fidelity portfolios")
    g.add_argument("--fidelities", type=int, default=1,
                   help="fidelity rungs per design point (1 = paper setting)")
    g.add_argument("--batch-size", type=int, default=1,
                   help="(point, fidelity) pairs acquired per round")
    g.add_argument("--round-budget", type=float, default=None,
                   help="predicted node-hours each round's batch may commit")
    g.add_argument("--fidelity-seed", type=int, default=0,
                   help="seed for deterministic low-fidelity pricing")


def _maybe_list(args: argparse.Namespace) -> bool:
    if getattr(args, "list_policies", False):
        for name in policy_registry.names():
            print(name)
        return True
    if getattr(args, "list_surrogates", False):
        for name in surrogate_registry.names():
            print(name)
        return True
    return False


def _selection_config(args: argparse.Namespace, **fields) -> ALConfig:
    """The run's ``ALConfig`` from the selection and fidelity flags.

    ``--policy`` defaults to ``rand_goodness`` for sequential runs and to
    ``portfolio`` for batch, budgeted, or multi-fidelity ones; ``fields``
    are the command's remaining config fields.
    """
    cfg = ALConfig(
        num_fidelities=args.fidelities,
        batch_size=args.batch_size,
        round_budget_node_hours=args.round_budget,
        fidelity_seed=args.fidelity_seed,
        **fields,
    )
    default_policy = "rand_goodness" if cfg.sequential else "portfolio"
    policy_name, policy_opts = _parse_selector(args.policy or default_policy)
    surrogate_name, surrogate_opts = _parse_selector(args.surrogate)
    mem_limit = getattr(args, "memory_limit", None)
    if mem_limit is not None:
        policy_opts.setdefault("memory_limit_MB", mem_limit)
    return dataclasses.replace(
        cfg,
        policy=policy_name,
        policy_options=policy_opts,
        surrogate=surrogate_name,
        surrogate_options=surrogate_opts,
    )


def _add_run_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one Active-Learning trajectory")
    _add_selection_args(p)
    _add_fidelity_args(p)
    p.add_argument("--dataset", type=str, default=None, help=".csv/.npz (default: generate)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-init", type=int, default=50)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--refit-interval", type=int, default=1)
    p.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        help="L_mem in MB for rgma (default: the paper's 95%% log rule)",
    )
    p.add_argument(
        "--log2-features",
        type=int,
        nargs="*",
        default=[],
        help="feature columns modeled via log2 (e.g. 0 1 for p and mx)",
    )
    g = p.add_argument_group("acquisition faults (off by default)")
    g.add_argument("--acq-crash-prob", type=float, default=0.0,
                   help="probability an acquisition crashes (responses lost)")
    g.add_argument("--acq-censor-prob", type=float, default=0.0,
                   help="probability an acquisition loses its MaxRSS")
    g.add_argument("--on-failure", choices=["drop", "next_best", "impute"],
                   default="next_best", help="loop response to a failed acquisition")
    t = p.add_argument_group("observability")
    t.add_argument("--trace-out", type=str, default=None,
                   help="enable span tracing; write Chrome-trace JSON here")
    t.add_argument("--metrics-out", type=str, default=None,
                   help="write the metrics registry as JSON here")
    p.set_defaults(func=cmd_run)


def _load_dataset(path: str | None, rng: np.random.Generator):
    if path is None:
        return run_campaign(rng).dataset
    if path.endswith(".csv"):
        return load_csv(path)
    if path.endswith(".npz"):
        return load_npz(path)
    raise ValueError("dataset path must end in .csv or .npz")


def cmd_run(args: argparse.Namespace) -> int:
    if _maybe_list(args):
        return 0
    if args.trace_out:
        obs.enable_tracing()
    rng = np.random.default_rng(args.seed)
    dataset = _load_dataset(args.dataset, rng)
    acq_faults = AcquisitionFaultModel(
        crash_probability=args.acq_crash_prob,
        censor_probability=args.acq_censor_prob,
    )
    try:
        cfg = _selection_config(
            args,
            max_iterations=args.iterations,
            hyper_refit_interval=args.refit_interval,
            log2_features=tuple(args.log2_features),
            acquisition_faults=acq_faults if acq_faults.enabled else None,
            on_failure=args.on_failure,
        )
        if cfg.policy in ("rgma", "portfolio", "amortized"):
            limit = dict(cfg.policy_options).get("memory_limit_MB")
            if limit is None:
                limit = dataset.memory_limit()
            print(f"L_mem = {limit:.3f} MB")
        partition = random_partition(
            rng, len(dataset), n_init=args.n_init, n_test=args.n_test
        )
        # The learner resolves the policy from the config
        # (repro.policy.make_policy), so any registered policy works here.
        learner = ActiveLearner(cfg.priced(dataset), partition, rng=rng, config=cfg)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traj = learner.run()
    print(f"policy            : {traj.policy_name}")
    print(f"surrogate         : {learner.config.surrogate}")
    print(f"iterations        : {len(traj)}  (stop: {traj.stop_reason.value})")
    if not cfg.sequential:
        fids = [r.fidelity for r in traj.records]
        mix = {f: fids.count(f) for f in sorted(set(fids))}
        print(
            f"fidelities        : {learner.config.num_fidelities}  "
            f"(batch {learner.config.batch_size}, mix {mix})"
        )
        print(
            "node-hours committed : "
            f"{learner.ledger.committed_node_hours:.3f}"
        )
    if acq_faults.enabled:
        print(
            f"faults            : {traj.num_failed_acquisitions} crashed, "
            f"{traj.num_censored_acquisitions} censored "
            f"({len(traj.fault_events)} events, policy: {args.on_failure})"
        )
    print(f"initial cost RMSE : {traj.initial_rmse_cost:.4f} node-hours")
    print(f"final cost RMSE   : {traj.final_rmse_cost:.4f} node-hours")
    print(f"final mem RMSE    : {traj.final_rmse_mem:.4f} MB")
    print(f"cumulative cost   : {traj.total_cost:.3f} node-hours")
    print(f"cumulative regret : {traj.total_regret:.3f} node-hours")
    print(f"median selection  : {np.median(traj.costs):.4f} node-hours")
    if args.trace_out:
        obs.export_chrome_trace(args.trace_out, metadata={"al_config": traj.config})
        print(f"trace             : {args.trace_out} (load in ui.perfetto.dev)")
    if args.metrics_out:
        obs.write_metrics_json(args.metrics_out, obs.METRICS)
        print(f"metrics           : {args.metrics_out}")
    return 0


def _add_simulate_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="run one real AMR shock-bubble job")
    p.add_argument("--p", type=int, default=4, help="nodes")
    p.add_argument("--mx", type=int, default=8, help="patch box size")
    p.add_argument("--maxlevel", type=int, default=3)
    p.add_argument("--r0", type=float, default=0.3, help="bubble size")
    p.add_argument("--rhoin", type=float, default=0.1, help="bubble density")
    p.add_argument("--t-end", type=float, default=0.05, help="simulated end time")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.machine import JobConfig, JobRunner

    try:
        config = JobConfig(
            p=args.p, mx=args.mx, maxlevel=args.maxlevel, r0=args.r0, rhoin=args.rhoin
        )
        runner = JobRunner(t_end=args.t_end)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = runner.work_from_simulation(config)
    wall, node_hours, max_rss = runner.price(config, work)
    print(f"config            : {config}")
    print(f"patches per level : {dict(work.patches_per_level)}")
    print(f"steps             : {work.num_steps}  regrids: {work.num_regrids}")
    print(f"cell updates      : {work.total_cell_updates:,.0f}")
    print(f"predicted wall    : {wall:.2f} s on {config.p} nodes")
    print(f"predicted cost    : {node_hours:.5f} node-hours")
    print(f"predicted MaxRSS  : {max_rss:.3f} MB")
    return 0


def _add_trace_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace",
        help="demo every instrumented subsystem and export a Chrome trace",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", type=str, default=None,
                   help=".csv/.npz (default: generate)")
    p.add_argument("--iterations", type=int, default=15,
                   help="AL iterations in the traced trajectory")
    p.add_argument("--t-end", type=float, default=0.05,
                   help="simulated end time of the traced AMR job")
    p.add_argument("--trace-out", type=str, default="trace.json",
                   help="Chrome-trace JSON output path")
    p.add_argument("--metrics-out", type=str, default=None,
                   help="write the metrics registry as JSON here")
    p.set_defaults(func=cmd_trace)


def cmd_trace(args: argparse.Namespace) -> int:
    """One traced pass through every instrumented subsystem.

    The exported trace contains, on one timeline: AMR ``amr_run`` /
    ``amr_step`` spans with plan/exchange/sweep/dt/regrid phases (from the
    simulate-mode job), machine ``job_run`` spans, ``resilient_run`` spans
    with fault/retry instants (crash faults are forced on), and an AL
    ``trajectory`` with per-iteration ``al_iteration`` / ``gp_fit`` /
    ``predict`` / ``select`` spans plus acquisition-fault annotations.
    """
    from repro.faults import FaultConfig, ResilientJobRunner
    from repro.machine import JobConfig, JobRunner

    try:
        runner = JobRunner(t_end=args.t_end)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs.enable_tracing()
    rng = np.random.default_rng(args.seed)
    job = JobConfig(p=4, mx=8, maxlevel=3, r0=0.3, rhoin=0.1)

    # 1. One real AMR solve through the machine model: amr_run/amr_step
    #    span trees nested under a job_run span.
    record = runner.run(job, rng, job_id=1, mode="simulate")
    print(
        f"simulate job      : wall={record.wall_seconds:.2f} s  "
        f"rss={record.max_rss_MB:.1f} MB"
    )

    # 2. Resilient executions with forced crash faults: retry/backoff
    #    events under resilient_run spans.  Several jobs, so some retries
    #    land in the trace at any seed.
    resilient = ResilientJobRunner(
        runner=JobRunner(),
        faults=FaultConfig(crash_probability=0.6),
        retry=RetryPolicy(max_retries=3, backoff_base_s=1.0),
    )
    attempts = events = 0
    for job_id in range(2, 8):
        rr = resilient.run(job, rng, job_id=job_id)
        attempts += rr.attempts
        events += len(rr.events)
    print(f"resilient jobs    : 6 jobs  attempts={attempts}  fault events={events}")

    # 3. A short AL trajectory with acquisition faults.
    dataset = _load_dataset(args.dataset, rng)
    partition = random_partition(rng, len(dataset), n_init=30, n_test=100)
    learner = ActiveLearner(
        dataset,
        partition,
        policy=RandGoodness(),
        rng=rng,
        config=ALConfig(
            max_iterations=args.iterations,
            acquisition_faults=AcquisitionFaultModel(crash_probability=0.2),
        ),
    )
    traj = learner.run()
    print(
        f"AL trajectory     : {len(traj)} iterations  "
        f"{len(traj.fault_events)} acquisition faults"
    )

    obs.export_chrome_trace(args.trace_out, metadata={"al_config": traj.config})
    print(f"trace             : {args.trace_out} (load in ui.perfetto.dev)")
    if args.metrics_out:
        obs.write_metrics_json(args.metrics_out, obs.METRICS)
        print(f"metrics           : {args.metrics_out}")
    print()
    print(obs.report())
    return 0


def _add_chaos_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("chaos harness (all off by default)")
    g.add_argument("--chaos-crash-prob", type=float, default=0.0,
                   help="per-slice probability the worker is killed mid-slice")
    g.add_argument("--chaos-straggler-prob", type=float, default=0.0,
                   help="per-slice probability of a slow worker")
    g.add_argument("--chaos-oom-limit", type=float, default=None,
                   help="synthetic slice MaxRSS (MB) at which the OOM killer fires")
    g.add_argument("--chaos-timeout", type=float, default=None,
                   help="synthetic slice wall-clock limit in seconds")
    g.add_argument("--chaos-rss-lost-prob", type=float, default=0.0,
                   help="probability a slice's observability payload is lost")
    g.add_argument("--chaos-seed", type=int, default=0,
                   help="root of the per-campaign chaos RNG tree")
    g.add_argument("--chaos-max-retries", type=int, default=3,
                   help="slice resubmissions allowed before the campaign fails")
    g.add_argument("--chaos-step-wall", type=float, default=30.0,
                   help="synthetic wall-clock seconds per AL step")


def _chaos_config(args: argparse.Namespace):
    from repro.core import ChaosConfig

    faults = FaultConfig(
        crash_probability=args.chaos_crash_prob,
        oom_memory_limit_MB=args.chaos_oom_limit,
        timeout_wall_seconds=args.chaos_timeout,
        straggler_probability=args.chaos_straggler_prob,
        rss_lost_wall_threshold_s=(
            float("inf") if args.chaos_rss_lost_prob > 0 else 0.0
        ),
        rss_lost_probability=args.chaos_rss_lost_prob,
    )
    if not faults.enabled:
        return None
    return ChaosConfig(
        faults=faults,
        retry=RetryPolicy(max_retries=args.chaos_max_retries),
        seed=args.chaos_seed,
        step_wall_seconds=args.chaos_step_wall,
    )


def _service_from_args(args: argparse.Namespace, workers: int = 0):
    """A CampaignService attached to the command's checkpoint store."""
    from repro.core import CampaignService

    rng = np.random.default_rng(args.seed)
    dataset = _load_dataset(args.dataset, rng)
    return CampaignService(
        dataset,
        store=args.store,
        workers=workers,
        steps_per_slice=getattr(args, "steps_per_slice", None) or 8,
        chaos=_chaos_config(args) if hasattr(args, "chaos_seed") else None,
    )


def _print_campaigns(service) -> None:
    rows = service.campaigns()
    if not rows:
        print("no campaigns")
        return
    print(f"{'campaign':<24} {'status':<8} {'iters':>5} {'committed':>10} "
          f"{'wasted':>8} {'remaining':>10} {'faults':>6}  stop")
    for info in rows:
        rem = ("inf" if info.remaining_node_hours == float("inf")
               else f"{info.remaining_node_hours:.3f}")
        print(f"{info.campaign_id:<24} {info.status:<8} {info.iterations:>5} "
              f"{info.committed_node_hours:>10.3f} {info.wasted_node_hours:>8.3f} "
              f"{rem:>10} {info.faults:>6}  {info.stop_reason or '-'}")


def _add_serve_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the campaign service over a checkpoint store until done",
    )
    p.add_argument("--store", type=str, required=True,
                   help="checkpoint directory (resumes existing campaigns)")
    p.add_argument("--dataset", type=str, default=None,
                   help=".csv/.npz (default: generate; must match the store)")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the generated default dataset")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = run slices inline)")
    p.add_argument("--steps-per-slice", type=int, default=8)
    p.add_argument("--max-slices", type=int, default=None,
                   help="stop after this many committed slices (kill switch)")
    _add_chaos_flags(p)
    t = p.add_argument_group("observability")
    t.add_argument("--trace-out", type=str, default=None,
                   help="enable span tracing; write Chrome-trace JSON here")
    t.add_argument("--metrics-out", type=str, default=None,
                   help="write the metrics registry as JSON here")
    p.set_defaults(func=cmd_serve)


def cmd_serve(args: argparse.Namespace) -> int:
    if args.trace_out:
        obs.enable_tracing()
    with _service_from_args(args, workers=args.workers) as service:
        report = service.run(max_slices=args.max_slices)
        print(
            f"slices            : {report.slices_committed} committed, "
            f"{report.slices_discarded} discarded"
        )
        if report.fault_counts:
            kinds = "  ".join(
                f"{k}={n}" for k, n in sorted(report.fault_counts.items())
            )
            print(f"faults            : {kinds}")
        print(f"campaigns         : {report.done} done, {report.failed} failed, "
              f"{len(report.campaigns)} total")
        _print_campaigns(service)
    if args.trace_out:
        obs.export_chrome_trace(args.trace_out)
        print(f"trace             : {args.trace_out} (load in ui.perfetto.dev)")
    if args.metrics_out:
        obs.write_metrics_json(args.metrics_out, obs.METRICS)
        print(f"metrics           : {args.metrics_out}")
    return 0


def _add_campaign_cmd(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("campaign", help="manage campaigns in a checkpoint store")
    action = p.add_subparsers(dest="action", required=True)

    def _common(q: argparse.ArgumentParser) -> None:
        q.add_argument("--store", type=str, required=True,
                       help="checkpoint directory")
        q.add_argument("--dataset", type=str, default=None,
                       help=".csv/.npz (default: generate; must match the store)")
        q.add_argument("--seed", type=int, default=42,
                       help="seed for the generated default dataset")

    s = action.add_parser("submit", help="register a new campaign")
    _common(s)
    s.add_argument("--id", required=True, help="campaign id (checkpoint name)")
    _add_selection_args(s)
    _add_fidelity_args(s)
    s.add_argument("--base-seed", type=int, default=0)
    s.add_argument("--traj-index", type=int, default=0)
    s.add_argument("--n-init", type=int, default=50)
    s.add_argument("--n-test", type=int, default=200)
    s.add_argument("--iterations", type=int, default=100)
    s.add_argument("--budget", type=float, default=None,
                   help="node-hour allocation (default unlimited)")
    s.add_argument("--steps-per-slice", type=int, default=None)
    s.add_argument("--memory-limit", type=float, default=None,
                   help="L_mem in MB for memory-aware policies "
                        "(default: the paper's 95%% rule)")
    s.set_defaults(func=cmd_campaign_submit)

    for name, fn in (
        ("list", cmd_campaign_list),
        ("pause", cmd_campaign_pause),
        ("resume", cmd_campaign_resume),
    ):
        q = action.add_parser(name, help=f"{name} campaigns")
        _common(q)
        if name != "list":
            q.add_argument("--id", required=True, help="campaign id")
        q.set_defaults(func=fn)


def cmd_campaign_submit(args: argparse.Namespace) -> int:
    import functools

    from repro.core import CampaignSpec

    if _maybe_list(args):
        return 0
    with _service_from_args(args) as service:
        try:
            cfg = _selection_config(args, max_iterations=args.iterations)
            name, opts = cfg.policy, dict(cfg.policy_options)
            policy_cls = policy_registry.get(name)
            if name in ("rgma", "portfolio", "amortized"):
                opts.setdefault("memory_limit_MB", service.dataset.memory_limit())
            if name == "amortized":
                path = opts.pop("policy_file", None)
                if not path:
                    print(
                        "error: --policy amortized requires a policy file: "
                        "pass --policy amortized,policy_file=PATH "
                        "(train one with `python -m repro.policy train`)",
                        file=sys.stderr,
                    )
                    return 2
                from repro.policy import load_amortized_policy

                factory = functools.partial(
                    load_amortized_policy,
                    path,
                    memory_limit_MB=opts["memory_limit_MB"],
                    epsilon=float(opts.get("epsilon", 0.05)),
                )
            else:
                factory = functools.partial(policy_cls, **opts) if opts else policy_cls
            spec = CampaignSpec(
                campaign_id=args.id,
                policy_factory=factory,
                base_seed=args.base_seed,
                traj_index=args.traj_index,
                n_init=args.n_init,
                n_test=args.n_test,
                config=cfg,
                budget_node_hours=(
                    args.budget if args.budget is not None else float("inf")
                ),
                steps_per_slice=args.steps_per_slice,
            )
            service.submit(spec)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"submitted {args.id} ({name}, "
              f"max_iterations={args.iterations})")
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    with _service_from_args(args) as service:
        _print_campaigns(service)
    return 0


def cmd_campaign_pause(args: argparse.Namespace) -> int:
    with _service_from_args(args) as service:
        service.pause(args.id)
        print(f"paused {args.id}")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    with _service_from_args(args) as service:
        service.resume_campaign(args.id)
        print(f"resumed {args.id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost- and memory-aware Active Learning for AMR performance modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_dataset_cmd(sub)
    _add_run_cmd(sub)
    _add_simulate_cmd(sub)
    _add_trace_cmd(sub)
    _add_serve_cmd(sub)
    _add_campaign_cmd(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; tracing is left on or off as the command found it."""
    args = build_parser().parse_args(argv)
    was_tracing = obs.tracing_enabled()
    try:
        return args.func(args)
    finally:
        if not was_tracing:
            obs.disable_tracing()


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
