"""Process-global observability state and the instrumentation helpers.

Every process owns exactly one :data:`METRICS` registry (always on — a
clock read per timed phase) and at most one
:class:`~repro.obs.spans.Tracer` (off by default).  Instrumented code
calls four helpers:

- :func:`timed` — time a block into the metrics registry *and*, when
  tracing is enabled, emit a span; disabled-tracing cost is a registry
  timer plus one branch.
- :func:`span` — pure tracing region (AL iteration, machine job, ...);
  a shared no-op while tracing is off.
- :func:`event` — zero-duration annotation under the current span
  (fault strikes, retries, backoff); dropped while tracing is off.
- :func:`incr` / :func:`gauge` — metrics registry passthroughs.

The no-op contract: none of these helpers touches NumPy, RNG state, or
the values flowing through the instrumented code, so enabling tracing
can never change numerics — trajectories select byte-identical
experiment sequences with tracing on or off.

Worker processes ship their state home with :func:`snapshot_state`
(drain + metrics dump, picklable) and the parent folds payloads in with
:func:`merge_state` in whatever deterministic order it chooses
(:mod:`repro.core.service` uses campaign-submission order).
:func:`isolated` runs a block in-process as a worker would run it, so an
inline caller ships the same payload.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NOOP_SPAN, Tracer

#: The process-global metrics registry (always on).
METRICS = MetricsRegistry()

#: The process-global tracer; ``None`` = tracing disabled (the default).
_TRACER: Tracer | None = None


# ------------------------------------------------------------------ control


def enable_tracing() -> Tracer:
    """Switch span tracing on (idempotent); returns the live tracer."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def disable_tracing() -> None:
    """Switch span tracing off and drop any collected spans."""
    global _TRACER
    _TRACER = None


def tracing_enabled() -> bool:
    return _TRACER is not None


def tracer() -> Tracer | None:
    """The live tracer, or ``None`` while tracing is disabled."""
    return _TRACER


# ------------------------------------------------------- instrumentation


def span(name: str, cat: str = "", **attrs):
    """A tracing-only region; the shared no-op while tracing is off."""
    t = _TRACER
    if t is None:
        return NOOP_SPAN
    return t.span(name, cat, attrs)


def event(name: str, cat: str = "", **attrs) -> None:
    """A zero-duration annotation under the current span (if tracing)."""
    t = _TRACER
    if t is not None:
        t.instant(name, cat, attrs)


def timed(name: str, cat: str = "", **attrs):
    """Time a block into the metrics registry; also a span when tracing.

    The workhorse of the instrumentation: ``obs.timed(phase, cat=...)``
    wraps every hot-path phase.  With tracing off this *is* the metrics
    timer (two ``perf_counter()`` calls); with
    tracing on, the same block additionally becomes a span named after
    the phase.
    """
    t = _TRACER
    if t is None:
        return METRICS.timer(name)
    return _TimedAndTraced(t, name, cat, attrs)


class _TimedAndTraced:
    """``timed`` with tracing enabled: one region, span + metric."""

    __slots__ = ("_name", "_span", "_t0")

    def __init__(self, tracer: Tracer, name: str, cat: str, attrs: dict) -> None:
        self._name = name
        self._span = tracer.span(name, cat, attrs)

    def __enter__(self):
        active = self._span.__enter__()
        self._t0 = active._t0
        return active

    def __exit__(self, *exc) -> bool:
        dt = time.perf_counter() - self._t0
        self._span.__exit__(*exc)
        METRICS.add(self._name, dt)
        return False


def incr(counter: str, n: int = 1) -> None:
    """Bump a metrics counter (always on)."""
    METRICS.incr(counter, n)


def gauge(name: str, value: float) -> None:
    """Set a metrics gauge (always on)."""
    METRICS.gauge(name, value)


def timer(phase: str):
    """Metrics-only timer against the global registry (perf shim API)."""
    return METRICS.timer(phase)


def add(phase: str, seconds: float, calls: int = 1) -> None:
    METRICS.add(phase, seconds, calls)


def snapshot():
    """Per-phase timing table of the global registry."""
    return METRICS.snapshot()


def counters():
    return METRICS.counters()


def gauges():
    return METRICS.gauges()


def reset() -> None:
    """Clear the global metrics registry (spans are unaffected)."""
    METRICS.reset()


def report() -> str:
    """Human-readable table of the global registry."""
    return METRICS.report()


# ------------------------------------------------------- cross-process


def snapshot_state(reset_after: bool = False) -> dict:
    """Picklable dump of this process's observability state.

    Contains the metrics registry's :meth:`~MetricsRegistry.state` and,
    when tracing is enabled, the tracer's drained spans/instants.  With
    ``reset_after`` the metrics registry is cleared, so repeated
    snapshots from a long-lived worker never double-count.
    """
    state = {"metrics": METRICS.state(), "trace": None}
    t = _TRACER
    if t is not None:
        state["trace"] = t.drain()
    if reset_after:
        METRICS.reset()
    return state


@contextmanager
def isolated():
    """Run a block on fresh state, as a worker would, then restore this one.

    The block starts on an empty metrics registry and, while tracing, on
    a fresh tracer with this one's epoch and an empty span stack, so the
    :func:`snapshot_state` it takes holds exactly what a worker process
    would ship.  On the way out, also when the block raises, the state
    from before the block is back untouched — open spans keep their
    children — plus whatever the block recorded and did not ship (its
    spans on lane 0).
    """
    global _TRACER
    before = METRICS.state()
    METRICS.reset()
    outer = _TRACER
    if outer is not None:
        _TRACER = Tracer()
        _TRACER.epoch = outer.epoch
    try:
        yield
    finally:
        inner, _TRACER = _TRACER, outer
        METRICS.merge(before)
        if inner is not None and outer is not None:
            outer.absorb(inner.drain(), track=0)


def merge_state(state: dict, track: int = 0) -> None:
    """Fold a :func:`snapshot_state` payload into this process's state.

    Metrics always merge; spans merge only if tracing is enabled here
    too (they are re-idd onto lane ``track``).  Merging the same
    payloads in the same order produces the same registry and the same
    span table — the determinism contract the campaign service relies on.
    """
    METRICS.merge(state.get("metrics", {}))
    trace = state.get("trace")
    if trace is not None and _TRACER is not None:
        _TRACER.absorb(trace, track)
