"""Per-layer numbers of a traced window: the layer table and the metrics.

Inputs come from three places, none of them inside ``src/``:

- the always-on :mod:`repro.obs` registry (timers, counters), which
  already merges worker metrics home;
- the spans of :func:`repro.obs.enable_tracing`, from the program and from
  the benchmark's own ``bench.*`` spans around each public call;
- the benchmark's :class:`~workloads.TimedStore` and service reports.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Lane 0 is this process; worker spans arrive on lanes 1 and
up (one per trajectory or campaign) and are summed as worker-seconds.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: Span category -> the module that records it (the table's layer column).
LAYER_OF_CAT = {
    "bench": "benchmark",
    "machine": "repro.machine",
    "amr": "repro.amr",
    "al": "repro.core",
    "gp": "repro.gp",
    "service": "repro.core.service",
    "policy": "repro.policy",
}

#: Root spans that mark a worker's busy time on the pooled workloads.
_WORKER_ROOTS = ("trajectory", "campaign_slice")


def percentile(values, q: float) -> float:
    """``q``-th percentile (0 for no samples)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the time its children cover."""
    by_id = {s.span_id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent_id) if s.parent_id else None
        if parent is not None:
            covered[parent.span_id] += max(
                0.0, min(s.end, parent.end) - max(s.start, parent.start)
            )
    return {s.span_id: s.duration - covered[s.span_id] for s in spans}


def layer_table(spans, wall_s: float, workers: int) -> dict:
    """Self time, calls and p50/p90 per (lane, span), plus what is unattributed.

    The main lane's self times plus ``unattributed_s`` add up to the
    window's wall time.  Worker lanes are summed into one ``workers`` lane
    in worker-seconds; ``idle_s`` is what ``workers`` processes could have
    worked in the window but did not.
    """
    own = self_times(spans)
    groups: dict[tuple[str, str, str], list] = defaultdict(list)
    for s in spans:
        lane = "main" if s.track == 0 else "workers"
        layer = LAYER_OF_CAT.get(s.cat, s.cat or "?")
        groups[(lane, layer, s.name)].append(s)
    rows = []
    for (lane, layer, name), group in sorted(groups.items()):
        durations_ms = [1e3 * s.duration for s in group]
        rows.append(
            {
                "lane": lane,
                "layer": layer,
                "span": name,
                "calls": len(group),
                "self_s": sum(own[s.span_id] for s in group),
                "total_s": sum(s.duration for s in group),
                "p50_ms": percentile(durations_ms, 50),
                "p90_ms": percentile(durations_ms, 90),
            }
        )
    main_roots = sum(s.duration for s in spans if s.track == 0 and not s.parent_id)
    main_self = sum(r["self_s"] for r in rows if r["lane"] == "main")
    unattributed = wall_s - main_roots
    busy = sum(s.duration for s in spans if s.track != 0 and s.name in _WORKER_ROOTS)
    lanes = {
        "main": {
            "wall_s": wall_s,
            "self_s": main_self,
            "unattributed_s": unattributed,
            "attribution_error_frac": abs(main_self + unattributed - wall_s) / wall_s,
        }
    }
    if workers:
        lanes["workers"] = {
            "workers": workers,
            "worker_seconds": workers * wall_s,
            "busy_s": busy,
            "idle_s": workers * wall_s - busy,
            "self_s": sum(r["self_s"] for r in rows if r["lane"] == "workers"),
        }
    return {"lanes": lanes, "rows": rows}


def per_layer_metrics(
    phases: dict, counters: dict, spans, table: dict, window, overhead_frac: float
) -> dict[str, float]:
    """Every per-layer metric of one traced window, by name (0 where idle)."""

    def secs(phase: str) -> float:
        return phases[phase].seconds if phase in phases else 0.0

    def calls(phase: str) -> int:
        return phases[phase].calls if phase in phases else 0

    def durations_ms(name: str) -> list[float]:
        return [1e3 * s.duration for s in spans if s.name == name]

    def span_total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    ws = {k: counters.get(k, 0) for k in ("ws_hit", "ws_extend", "ws_rebuild")}
    ws_total = sum(ws.values())
    committed, discarded = window.slices_committed, window.slices_discarded
    store = window.store
    turnaround = store.turnarounds_ms() if store is not None else []
    workers = table["lanes"].get("workers")
    slice_ms = durations_ms("campaign_slice")
    fit_ms = durations_ms("fit")
    return {
        "amr.sweep_s": secs("amr_sweep"),
        "amr.exchange_s": secs("amr_exchange"),
        "amr.regrid_s": secs("amr_regrid"),
        "amr.dt_s": secs("amr_dt"),
        "amr.plan_s": secs("amr_plan"),
        "amr.steps": len(durations_ms("amr_step")),
        "amr.sweep_ms_p50": percentile(durations_ms("amr_sweep"), 50),
        "machine.job_run_s": span_total("job_run"),
        "machine.jobs": len(durations_ms("job_run")),
        "machine.pricing_s": span_total("job_run") - span_total("amr_run"),
        "gp.fit_s": secs("fit"),
        "gp.fit_calls": calls("fit"),
        "gp.lml_evals": counters.get("lml_eval", 0),
        "gp.fit_ms_p50": percentile(fit_ms, 50),
        "gp.fit_ms_p90": percentile(fit_ms, 90),
        "gp.predict_s": secs("predict"),
        "gp.rank1_update_s": secs("rank1_update"),
        "gp.refactor_s": secs("refactor"),
        "gp.ws_reuse_ratio": (ws["ws_hit"] + ws["ws_extend"]) / ws_total if ws_total else 0.0,
        "policy.select_s": secs("select"),
        "policy.select_calls": calls("select"),
        "parallel.worker_busy_frac": (
            workers["busy_s"] / workers["worker_seconds"] if workers else 0.0
        ),
        "service.slices_committed": committed,
        "service.slices_discarded": discarded,
        "service.commit_ratio": (
            committed / (committed + discarded) if committed + discarded else 0.0
        ),
        "service.slice_compute_ms_p50": percentile(slice_ms, 50),
        "service.slice_compute_ms_p90": percentile(slice_ms, 90),
        "service.turnaround_p50_ms": percentile(turnaround, 50),
        "service.turnaround_p90_ms": percentile(turnaround, 90),
        "service.ckpt_saves": store.saves if store else 0,
        "service.ckpt_save_s": store.save_s if store else 0.0,
        "service.ckpt_bytes": store.bytes if store else 0,
        "service.ckpt_load_s": store.load_s if store else 0.0,
        "service.respawns": window.respawns,
        "obs.trace_overhead_frac": overhead_frac,
        "obs.unattributed_s": table["lanes"]["main"]["unattributed_s"],
    }
