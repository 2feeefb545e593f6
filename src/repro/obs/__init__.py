"""repro.obs — unified observability: span tracing + metrics registry.

The per-run accounting discipline the paper borrows from SLURM, applied
to our own stack: every hot path is instrumented with hierarchical spans
(trajectory → AL iteration → {gp_fit, predict, select} → LML evals;
AMR run → step → {plan, exchange, sweep, dt, regrid}; machine job runs;
fault-injector retries as annotations) and an always-on metrics registry
(counters, gauges, time histograms) of per-phase timings.

Two operating modes:

- **metrics only** (default) — the registry collects per-phase time and
  call counts at the cost of a clock read per phase.  Span helpers
  collapse to a shared no-op: one attribute load and a branch, no RNG, no
  allocation.
- **tracing enabled** (:func:`enable_tracing`, or the CLI's
  ``--trace-out``) — the same instrumentation additionally records spans,
  exportable as Chrome-trace/Perfetto JSON (:func:`export_chrome_trace`),
  a JSONL event log, or a human table.  Enabling tracing never changes
  numerics: traced runs select byte-identical experiment sequences.

Typical use::

    from repro import obs

    obs.enable_tracing()
    trajectory = ActiveLearner(ds, part, policy, rng).run()
    obs.export_chrome_trace("trace.json")   # load in ui.perfetto.dev
    print(obs.report())                      # metrics table

Cross-process: :func:`snapshot_state` / :func:`merge_state` ship a worker's
metrics and spans home; the campaign service
(:class:`repro.core.service.CampaignService`, which also runs
:func:`repro.core.batch.run_trajectories`) does this automatically,
merging deterministically in submission order.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry, PhaseStat
from repro.obs.recorder import (
    METRICS,
    add,
    counters,
    disable_tracing,
    enable_tracing,
    event,
    gauge,
    gauges,
    incr,
    isolated,
    merge_state,
    report,
    reset,
    snapshot,
    snapshot_state,
    span,
    timed,
    timer,
    tracer,
    tracing_enabled,
)
from repro.obs.spans import Instant, Span, Tracer

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "PhaseStat",
    "Span",
    "Instant",
    "Tracer",
    "add",
    "chrome_trace",
    "counters",
    "disable_tracing",
    "enable_tracing",
    "event",
    "export_chrome_trace",
    "export_jsonl",
    "gauge",
    "gauges",
    "incr",
    "isolated",
    "merge_state",
    "report",
    "reset",
    "snapshot",
    "snapshot_state",
    "span",
    "timed",
    "timer",
    "tracer",
    "tracing_enabled",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]


def export_chrome_trace(
    path: str,
    track_names: dict[int, str] | None = None,
    metadata: dict | None = None,
) -> None:
    """Write the live tracer's spans to ``path`` as Chrome-trace JSON.

    Raises ``RuntimeError`` if tracing was never enabled — there would be
    nothing to export, and silently writing an empty trace hides the
    misconfiguration.
    """
    t = tracer()
    if t is None:
        raise RuntimeError("tracing is not enabled; call obs.enable_tracing() first")
    write_chrome_trace(path, t.spans(), t.instants(), track_names, metadata)


def export_jsonl(path: str) -> None:
    """Write the live tracer's spans/instants to ``path`` as JSONL."""
    t = tracer()
    if t is None:
        raise RuntimeError("tracing is not enabled; call obs.enable_tracing() first")
    write_jsonl(path, t.spans(), t.instants())
