"""The metrics half of :mod:`repro.obs`: counters, gauges, time histograms.

:class:`MetricsRegistry` is a per-phase timing table grown into a small
metrics system:

- **timers** — ``phase -> (calls, seconds)`` plus a log2-bucketed duration
  histogram per phase, fed by :meth:`MetricsRegistry.timer` (a context
  manager whose overhead is two ``perf_counter()`` calls) or
  :meth:`MetricsRegistry.add`;
- **counters** — monotone event counts (``lml_eval``, ``ws_hit``,
  fault-retry totals, ...) via :meth:`MetricsRegistry.incr`;
- **gauges** — last-written values (``n_train``, ``bytes_allocated``, ...)
  via :meth:`MetricsRegistry.gauge`; merged across processes by maximum,
  which is the meaningful aggregate for the peak-style quantities the
  instrumentation records.

Unlike span tracing (:mod:`repro.obs.spans`), the registry is always on:
its cost is two clock reads per timed phase, so enabling/disabling
observability never changes what the metrics tables collect.  Every process owns its own registry; worker registries are
shipped home as :meth:`state` dicts and folded in with :meth:`merge`
(deterministically, in the caller-chosen order — see
:mod:`repro.core.service`).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class PhaseStat:
    """Accumulated timing for one phase."""

    calls: int
    seconds: float

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.seconds / self.calls if self.calls else 0.0


def _bucket(seconds: float) -> int:
    """Histogram bucket of a duration: ``floor(log2(microseconds))``.

    Bucket ``b`` covers ``[2**b, 2**(b+1))`` µs; sub-microsecond and
    non-positive durations land in bucket ``-1``.
    """
    if seconds < 1e-6:
        return -1
    # frexp(x) = (m, e) with x = m * 2**e and 0.5 <= m < 1  =>  floor(log2 x) = e - 1
    return math.frexp(seconds * 1e6)[1] - 1


class MetricsRegistry:
    """Thread-safe accumulator of timers, counters, and gauges.

    ``add`` / ``incr`` / ``timer`` / ``snapshot`` / ``counters`` /
    ``reset`` / ``report``, plus gauges, per-phase duration histograms,
    and cross-process :meth:`state` / :meth:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hist: dict[str, dict[int, int]] = {}

    # ------------------------------------------------------------- recording

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Record ``calls`` invocations of ``phase`` totalling ``seconds``."""
        b = _bucket(seconds / calls if calls else seconds)
        with self._lock:
            self._calls[phase] = self._calls.get(phase, 0) + calls
            self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
            h = self._hist.setdefault(phase, {})
            h[b] = h.get(b, 0) + calls

    def incr(self, counter: str, n: int = 1) -> None:
        """Bump an event counter by ``n``."""
        with self._lock:
            self._counts[counter] = self._counts.get(counter, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value (merged across processes by max)."""
        with self._lock:
            self._gauges[name] = float(value)

    @contextmanager
    def timer(self, phase: str):
        """Time a ``with`` block and credit it to ``phase``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - t0)

    # --------------------------------------------------------------- reading

    def snapshot(self) -> dict[str, PhaseStat]:
        """Immutable copy of the per-phase timing table."""
        with self._lock:
            return {
                p: PhaseStat(self._calls[p], self._seconds[p])
                for p in sorted(self._calls)
            }

    def counters(self) -> dict[str, int]:
        """Immutable copy of the event counters."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def gauges(self) -> dict[str, float]:
        """Immutable copy of the gauges."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, dict[int, int]]:
        """Per-phase duration histograms: ``phase -> {log2(µs) bucket: calls}``."""
        with self._lock:
            return {p: dict(sorted(h.items())) for p, h in sorted(self._hist.items())}

    def reset(self) -> None:
        with self._lock:
            self._calls.clear()
            self._seconds.clear()
            self._counts.clear()
            self._gauges.clear()
            self._hist.clear()

    # ------------------------------------------------------- merge / export

    def state(self) -> dict:
        """Picklable/JSON-able dump of everything, for shipping and merging."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "seconds": dict(self._seconds),
                "counters": dict(self._counts),
                "gauges": dict(self._gauges),
                "hist": {p: dict(h) for p, h in self._hist.items()},
            }

    def merge(self, state: dict) -> None:
        """Fold another registry's :meth:`state` into this one.

        Timers and counters add; gauges keep the maximum (they record
        peak-style quantities); histogram buckets add.  Merging is
        commutative except for nothing — callers who care about
        determinism (the campaign service) merge in a fixed order
        anyway.
        """
        with self._lock:
            for p, c in state.get("calls", {}).items():
                self._calls[p] = self._calls.get(p, 0) + int(c)
            for p, s in state.get("seconds", {}).items():
                self._seconds[p] = self._seconds.get(p, 0.0) + float(s)
            for c, n in state.get("counters", {}).items():
                self._counts[c] = self._counts.get(c, 0) + int(n)
            for g, v in state.get("gauges", {}).items():
                v = float(v)
                if g not in self._gauges or v > self._gauges[g]:
                    self._gauges[g] = v
            for p, h in state.get("hist", {}).items():
                mine = self._hist.setdefault(p, {})
                for b, n in h.items():
                    b = int(b)
                    mine[b] = mine.get(b, 0) + int(n)

    def to_dict(self) -> dict:
        """JSON-ready view (phases with derived stats, counters, gauges)."""
        snap = self.snapshot()
        return {
            "phases": {
                p: {"calls": s.calls, "seconds": s.seconds, "mean_ms": s.mean_ms}
                for p, s in snap.items()
            },
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms_log2us": {
                p: {str(b): n for b, n in h.items()}
                for p, h in self.histograms().items()
            },
        }

    # ---------------------------------------------------------------- report

    def report(self) -> str:
        """Render timers, counters, and gauges as aligned text tables."""
        snap = self.snapshot()
        counts = self.counters()
        gauges = self.gauges()
        if not snap and not counts and not gauges:
            return "(no phases recorded)"
        lines = []
        if snap:
            width = max(len(p) for p in snap)
            lines.append(
                f"{'phase':<{width}}  {'calls':>7}  {'total_s':>9}  {'mean_ms':>8}"
            )
            for phase, stat in snap.items():
                lines.append(
                    f"{phase:<{width}}  {stat.calls:>7d}  {stat.seconds:>9.4f}  "
                    f"{stat.mean_ms:>8.3f}"
                )
        if counts:
            if lines:
                lines.append("")
            width = max(len(c) for c in counts)
            lines.append(f"{'counter':<{width}}  {'events':>8}")
            for counter, n in counts.items():
                lines.append(f"{counter:<{width}}  {n:>8d}")
        if gauges:
            if lines:
                lines.append("")
            width = max(len(g) for g in gauges)
            lines.append(f"{'gauge':<{width}}  {'value':>12}")
            for gauge, v in gauges.items():
                lines.append(f"{gauge:<{width}}  {v:>12.4g}")
        return "\n".join(lines)
