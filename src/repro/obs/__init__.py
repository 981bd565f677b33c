"""Unified observability layer: tracing, metrics, and the Snapshot API.

Three parts, all deterministic and wall-clock free:

* :class:`Tracer` (:mod:`repro.obs.tracer`) — bounded ring-buffer
  recorder of spans/events timestamped by the *simulated* clock, with a
  near-zero-cost no-op mode (:func:`active`).
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — named
  counters/histograms for cold-path instrumentation.
* :class:`Snapshot` (:mod:`repro.obs.api`) — the one protocol
  (``stats`` / ``fingerprint``) every measurement surface
  implements, composed into a facade by :class:`Observatory` and
  exposed as ``PrismaDB.observe()``.

Exporters (:mod:`repro.obs.export`) turn a trace into Chrome-trace
JSON for Perfetto or an aligned text profile.
"""

from repro.obs.api import (
    Observatory,
    Snapshot,
    SnapshotMixin,
    canonical,
    fingerprint_stats,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    text_profile,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer, TraceRecord, active

__all__ = [
    "DEFAULT_CAPACITY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Observatory",
    "Snapshot",
    "SnapshotMixin",
    "TraceRecord",
    "Tracer",
    "active",
    "canonical",
    "chrome_trace",
    "chrome_trace_json",
    "fingerprint_stats",
    "text_profile",
    "write_chrome_trace",
]
