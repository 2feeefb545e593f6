"""Judge a change against its parent with the bounds in BENCHMARK.json.

Usage (from the change's repository root, with the parent checked out
in ``../parent`` holding the same ``benchmarks/e2e`` and BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload all --repeat 10 \\
        --base-checkout ../parent --base-out base.json > new.json
    python3 benchmarks/e2e/compare.py base.json new.json

The two reports must come from one such interleaved run: every seed's
parent and change runs back to back, alternating which goes first, at
the same ``--seconds`` and ``--size``.  Anything else is refused, since
host drift between two separate batches reads as a consistent win or
loss.  Runs are paired by seed.  For every workload and end-to-end
metric the verdict is one of:

- ``improved`` -- the change wins at least 9 of every 10 pairs (ties
  count for neither side), there are at least 10 pairs, and the medians
  differ by more than the parent's interquartile range;
- ``regressed`` -- the change's median is worse than the parent's by more
  than the bound, or by more than the parent's spread (IQR over median)
  when that is wider;
- ``unresolved`` -- the parent's own spread is wider than the bound, so a
  no-regression claim cannot be made, unless every run of the change
  reads better than every run of the parent;
- ``unchanged`` -- otherwise.

``setup_s`` is judged by its median alone: its spread is mostly
interpreter start-up noise, so it is never unresolved.

Exits 1 when any metric regressed or any run failed its output checks,
2 when the reports cannot be compared, 3 when some metric is unresolved,
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Metrics judged by their median alone.
MEDIAN_ONLY = {"setup_s"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    base: list[float], new: list[float], better: str, bound: float,
    median_only: bool = False,
) -> dict:
    """Compare paired runs of one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    worse = sign * (bm - nm) / bm if bm else 0.0
    spread = (b3 - b1) / bm if bm else 0.0
    judged_spread = 0.0 if median_only else spread
    dominates = min(sign * v for v in new) > max(sign * v for v in base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(nm - bm) > b3 - b1
    ):
        status = "improved"
    elif worse > max(bound, judged_spread):
        status = "regressed"
    elif judged_spread > bound and not dominates:
        status = "unresolved"
    else:
        status = "unchanged"
    return {
        "status": status,
        "base": [b1, bm, b3],
        "new": [n1, nm, n3],
        "worse_frac": worse,
        "base_spread": spread,
        "wins": wins,
        "pairs": len(pairs),
    }


def interleaving_problems(workload: str, base_runs: list, new_runs: list) -> list[str]:
    """Why the paired runs of one workload did not alternate in time."""
    runs = [("base", r) for r in base_runs] + [("new", r) for r in new_runs]
    if any("started" not in r for _, r in runs):
        return [f"{workload}: runs carry no start time"]
    order = sorted(runs, key=lambda sr: sr[1]["started"])
    position = {(side, r["seed"]): i for i, (side, r) in enumerate(order)}
    problems, base_first = [], 0
    seeds = {r["seed"] for r in base_runs} & {r["seed"] for r in new_runs}
    for seed in sorted(seeds):
        b, n = position[("base", seed)], position[("new", seed)]
        if abs(b - n) != 1:
            problems.append(f"{workload}: seed {seed} did not run back to back")
        base_first += b < n
    if abs(2 * base_first - len(seeds)) > 1:
        problems.append(
            f"{workload}: the parent ran first in {base_first} of {len(seeds)} pairs"
        )
    return problems


def comparable(base: dict, new: dict) -> list[str]:
    """Why two reports cannot be compared (empty when they can)."""
    problems = [
        f"{key} missing or different: {base.get(key)!r} vs {new.get(key)!r}"
        for key in ("seconds", "size")
        if key not in base or base.get(key) != new.get(key)
    ]
    for workload, new_wl in new["workloads"].items():
        base_wl = base["workloads"].get(workload)
        if base_wl is not None:
            problems += interleaving_problems(workload, base_wl["runs"], new_wl["runs"])
    return problems


def compare(base: dict, new: dict, bench: dict) -> tuple[list[dict], bool]:
    rows = []
    ok = True
    for workload, new_wl in new["workloads"].items():
        base_wl = base["workloads"].get(workload)
        if base_wl is None:
            continue
        if any(not r["correct"] for r in base_wl["runs"] + new_wl["runs"]):
            ok = False
        base_runs = {r["seed"]: r for r in base_wl["runs"]}
        paired = [(base_runs[r["seed"]], r) for r in new_wl["runs"] if r["seed"] in base_runs]
        if not paired:
            print(f"{workload}: no seed run on both sides", file=sys.stderr)
            ok = False
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [b["metrics"][name]["value"] for b, _ in paired],
                [n["metrics"][name]["value"] for _, n in paired],
                metric["better"],
                metric["bound"],
                median_only=name in MEDIAN_ONLY,
            )
            row.update(workload=workload, metric=name, bound=metric["bound"])
            ok &= row["status"] != "regressed"
            rows.append(row)
    return rows, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    problems = comparable(base, new)
    if problems:
        print("reports cannot be compared:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text())
    rows, ok = compare(base, new, bench)
    print(
        f"{'workload':<14} {'metric':<12} {'base median':>12} {'new median':>12} "
        f"{'worse':>7} {'spread':>7} {'bound':>6} {'wins':>6}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:<14} {r['metric']:<12} {r['base'][1]:>12.4g} "
            f"{r['new'][1]:>12.4g} {r['worse_frac']:>+7.1%} {r['base_spread']:>7.1%} "
            f"{r['bound']:>6.0%} {r['wins']:>3}/{r['pairs']:<2}  {r['status']}"
        )
    unresolved = any(r["status"] == "unresolved" for r in rows)
    print(json.dumps({"ok": ok, "unresolved": unresolved, "rows": rows}))
    if not ok:
        return 1
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
