"""Schema checks for the ``BENCH_*.json`` perf artifacts.

The perf benchmarks (``benchmarks/test_perf_*.py``) each emit a small
machine-readable JSON at the repo root for trend tracking; CI uploads
them as artifacts.  A malformed artifact is worse than a missing one —
downstream tooling silently plots nothing — so CI validates every file
with this module before upload::

    python -m repro.analysis.bench_schema BENCH_select.json [more.json ...]

Exit status 0 iff every file parses and satisfies the schema registered
for its ``benchmark`` name; violations are printed one per line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["validate", "check_file", "main"]

_NUM = (int, float)


def _require(data: dict, key: str, types, errors: list[str], ctx: str) -> Any:
    if key not in data:
        errors.append(f"{ctx}: missing key {key!r}")
        return None
    value = data[key]
    if not isinstance(value, types):
        errors.append(
            f"{ctx}: {key!r} must be {types}, got {type(value).__name__}"
        )
        return None
    return value


def _check_checkpoints(
    data: dict, row_keys: tuple[str, ...], errors: list[str]
) -> None:
    rows = _require(data, "checkpoints", list, errors, "top level")
    if rows is None:
        return
    if not rows:
        errors.append("checkpoints: must be non-empty")
    for i, row in enumerate(rows):
        ctx = f"checkpoints[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{ctx}: must be an object")
            continue
        n = _require(row, "n_train", int, errors, ctx)
        if n is not None and n <= 0:
            errors.append(f"{ctx}: n_train must be positive")
        for key in row_keys:
            value = _require(row, key, _NUM, errors, ctx)
            if value is not None and value < 0:
                errors.append(f"{ctx}: {key!r} must be non-negative")


def _select_schema(data: dict, errors: list[str]) -> None:
    _check_checkpoints(
        data, ("dense_sps", "iterative_sps", "sparse_sps", "speedup"), errors
    )
    parity = _require(data, "parity", dict, errors, "top level")
    if parity is not None:
        ident = _require(parity, "identical", bool, errors, "parity")
        if ident is False:
            errors.append("parity: dense/iterative selections diverged")
        rounds = _require(parity, "rounds", int, errors, "parity")
        if rounds is not None and rounds < 1:
            errors.append("parity: rounds must be >= 1")


def _fit_schema(data: dict, errors: list[str]) -> None:
    _check_checkpoints(data, ("direct_ms", "workspace_ms", "speedup"), errors)


def _positive(row: dict, keys: tuple[str, ...], errors: list[str], ctx: str) -> None:
    for key in keys:
        value = _require(row, key, _NUM, errors, ctx)
        if value is not None and value <= 0:
            errors.append(f"{ctx}: {key!r} must be positive")


_AMR_ROW = ("wall_s", "steps_per_s", "cells_per_s")


def _amr_schema(data: dict, errors: list[str]) -> None:
    for key in ("per_patch", "batched"):
        row = _require(data, key, dict, errors, "top level")
        if row is not None:
            _positive(row, _AMR_ROW, errors, key)
    row = _require(data, "serial_kernels", dict, errors, "top level")
    if row is not None:
        _positive(row, (*_AMR_ROW, "speedup_vs_batched"), errors, "serial_kernels")


def _policy_schema(data: dict, errors: list[str]) -> None:
    _check_checkpoints(
        data,
        ("dense_sps", "iterative_sps", "sparse_sps", "amortized_sps", "speedup"),
        errors,
    )
    service = _require(data, "service", dict, errors, "top level")
    if service is not None:
        for key in ("rgma_slices_per_s", "amortized_slices_per_s"):
            value = _require(service, key, _NUM, errors, "service")
            if value is not None and value <= 0:
                errors.append(f"service: {key!r} must be positive")
    regret = _require(data, "regret", dict, errors, "top level")
    if regret is not None:
        for key in ("rgma_final_regret", "amortized_final_regret"):
            value = _require(regret, key, _NUM, errors, "regret")
            if value is not None and value < 0:
                errors.append(f"regret: {key!r} must be non-negative")
        factor = _require(regret, "guardrail_factor", _NUM, errors, "regret")
        if factor is not None and factor <= 0:
            errors.append("regret: guardrail_factor must be positive")
        within = _require(regret, "within_guardrail", bool, errors, "regret")
        if within is False:
            errors.append(
                "regret: amortized final regret exceeded the guardrail"
            )


def _mf_schema(data: dict, errors: list[str]) -> None:
    regret = _require(data, "regret", dict, errors, "top level")
    if regret is not None:
        for key in ("rgma_final_regret", "mf_final_regret"):
            value = _require(regret, key, _NUM, errors, "regret")
            if value is not None and value < 0:
                errors.append(f"regret: {key!r} must be non-negative")
        for key in ("rgma_node_hours", "mf_node_hours"):
            value = _require(regret, key, _NUM, errors, "regret")
            if value is not None and value <= 0:
                errors.append(f"regret: {key!r} must be positive")
        factor = _require(regret, "node_hour_factor", _NUM, errors, "regret")
        if factor is not None and factor <= 0:
            errors.append("regret: node_hour_factor must be positive")
        within = _require(regret, "within_target", bool, errors, "regret")
        if within is False:
            errors.append(
                "regret: multi-fidelity portfolio missed the node-hour target"
            )
    parity = _require(data, "parity", dict, errors, "top level")
    if parity is not None:
        ident = _require(parity, "identical", bool, errors, "parity")
        if ident is False:
            errors.append(
                "parity: B=1/F=1 portfolio diverged from sequential RGMA"
            )
        rounds = _require(parity, "rounds", int, errors, "parity")
        if rounds is not None and rounds < 1:
            errors.append("parity: rounds must be >= 1")


#: benchmark name -> extra validation beyond the common envelope.
SCHEMAS = {
    "gp_select_throughput": _select_schema,
    "gp_fit_workspace": _fit_schema,
    "amr_batched_stepping": _amr_schema,
    "policy_amortized_serving": _policy_schema,
    "mf_portfolio_regret": _mf_schema,
}


def validate(data: Any) -> list[str]:
    """All schema violations in ``data`` (empty list == valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return ["top level: must be a JSON object"]
    name = _require(data, "benchmark", str, errors, "top level")
    _require(data, "config", dict, errors, "top level")
    speedup = _require(data, "speedup", _NUM, errors, "top level")
    if speedup is not None and speedup <= 0:
        errors.append("top level: speedup must be positive")
    # Disclosure: throughput numbers are meaningless without knowing the
    # machine; every emitter stamps the core count it measured on.
    cores = _require(data, "host_cores", int, errors, "top level")
    if cores is not None and cores < 1:
        errors.append("top level: host_cores must be >= 1")
    extra = SCHEMAS.get(name or "")
    if extra is None:
        errors.append(f"top level: unknown benchmark name {name!r}")
    else:
        extra(data, errors)
    return errors


def check_file(path: str | Path) -> list[str]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"{path}: file not found"]
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON ({exc})"]
    return [f"{path}: {err}" for err in validate(data)]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python -m repro.analysis.bench_schema FILE.json ...")
        return 2
    failed = False
    for arg in args:
        errors = check_file(arg)
        if errors:
            failed = True
            for err in errors:
                print(err, file=sys.stderr)
        else:
            print(f"{arg}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
