"""The offline pipeline: ``python -m repro.policy {simulate,train}``.

``simulate`` replays RGMA campaigns through the campaign service and
writes a :class:`~repro.policy.scorer.DecisionLog` (``.npz``);
``train`` fits the numpy MLP scorer to such a log and writes the policy
file that ``repro run --policy amortized,policy_file=...`` and
``repro campaign submit --policy amortized,policy_file=...`` serve.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.data import CampaignConfig, run_campaign
from repro.policy.scorer import DecisionLog, train_scorer


def _build_dataset(num_unique: int, num_repeats: int, seed: int):
    cfg = CampaignConfig(num_unique=num_unique, num_repeats=num_repeats)
    return run_campaign(np.random.default_rng(seed), config=cfg).dataset


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.policy.simulate import generate_decisions

    dataset = _build_dataset(args.num_unique, args.num_repeats, args.dataset_seed)
    log = generate_decisions(
        dataset,
        n_campaigns=args.campaigns,
        base_seed=args.base_seed,
        n_init=args.n_init,
        n_test=args.n_test,
        iterations=args.iterations,
        steps_per_slice=args.steps_per_slice,
        memory_limit_MB=args.memory_limit,
    )
    log.save(args.out)
    print(
        f"wrote {args.out}: {len(log)} decisions, "
        f"{log.features.shape[0]} feature rows "
        f"(teacher={log.meta['teacher']}, campaigns={log.meta['campaigns']})"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    log = DecisionLog.load(args.data)
    scorer, history = train_scorer(
        log,
        hidden=args.hidden,
        epochs=args.epochs,
        lr=args.lr,
        l2=args.l2,
        seed=args.seed,
    )
    scorer.save(args.out)
    print(
        f"wrote {args.out}: fingerprint={scorer.fingerprint} "
        f"loss={history['loss'][-1]:.4f} "
        f"teacher-agreement={history['agreement'][-1]:.3f} "
        f"({len(log)} decisions, hidden={args.hidden}, epochs={args.epochs})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.policy",
        description="Offline pipeline for the amortized selection policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="replay RGMA campaigns; write a decision log (.npz)"
    )
    p_sim.add_argument("--out", default="decisions.npz", help="output decision log")
    p_sim.add_argument("--campaigns", type=int, default=4)
    p_sim.add_argument("--iterations", type=int, default=40)
    p_sim.add_argument("--n-init", type=int, default=30)
    p_sim.add_argument("--n-test", type=int, default=60)
    p_sim.add_argument("--base-seed", type=int, default=2024)
    p_sim.add_argument("--steps-per-slice", type=int, default=8)
    p_sim.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        help="L_mem in MB (default: the dataset's 95%% log rule)",
    )
    p_sim.add_argument("--num-unique", type=int, default=525)
    p_sim.add_argument("--num-repeats", type=int, default=75)
    p_sim.add_argument("--dataset-seed", type=int, default=42)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser(
        "train", help="fit the MLP scorer to a decision log; write the policy file"
    )
    p_train.add_argument("--data", default="decisions.npz", help="decision log (.npz)")
    p_train.add_argument("--out", default="policy.npz", help="output policy file")
    p_train.add_argument("--hidden", type=int, default=32)
    p_train.add_argument("--epochs", type=int, default=150)
    p_train.add_argument("--lr", type=float, default=5e-3)
    p_train.add_argument("--l2", type=float, default=1e-4)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=cmd_train)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
