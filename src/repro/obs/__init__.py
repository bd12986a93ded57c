"""Observability: deterministic flight recorder, lifecycle latencies,
wall-clock metrics, and trace diffing.

The paper's central property — interpretation is a pure function of
the block DAG (Lemma 4.2) — means every server's observable behaviour
is a *deterministic, comparable event stream*.  This package records
that stream:

- :mod:`repro.obs.trace` — per-server :class:`TraceRecorder` of typed
  events stamped with virtual time and a monotonic sequence number.
- :mod:`repro.obs.export` — JSONL export/load of recorded traces.
- :mod:`repro.obs.lifecycle` — joins events into per-(block, server)
  seal→receive→validate→interpret latencies with percentile summaries.
- :mod:`repro.obs.metrics` — the one wall-clock sink: typed metrics
  (counters, gauges, log2 histograms) with associative snapshot merge
  and canonical JSONL, kept strictly *outside* trace identity so
  traces stay seed-deterministic.
- :mod:`repro.obs.diverge` — first-divergence finder over two traces.
"""

from repro.obs.diverge import (
    Divergence,
    first_chain_divergence,
    first_divergence,
    first_event_divergence,
)
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.lifecycle import LifecycleIndex, LifecycleStats, StageSummary
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricPoint,
    MetricsRegistry,
    MetricsReport,
    MetricsSnapshot,
)
from repro.obs.trace import (
    NULL_RECORDER,
    ClusterTracer,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "NULL_RECORDER",
    "ClusterTracer",
    "Counter",
    "Divergence",
    "Gauge",
    "LifecycleIndex",
    "LifecycleStats",
    "MetricPoint",
    "MetricsRegistry",
    "MetricsReport",
    "MetricsSnapshot",
    "NullRecorder",
    "StageSummary",
    "TraceEvent",
    "TraceRecorder",
    "first_chain_divergence",
    "first_divergence",
    "first_event_divergence",
    "read_jsonl",
    "write_jsonl",
]
