"""Block-lifecycle latency: seal → first receive → validate → interpret.

The :class:`LifecycleIndex` listens to every recorder's emission hook
(:attr:`TraceRecorder.on_event`) and joins events into per-(block,
server) stage timestamps.  All times are **virtual** (simulator
clock), so the derived percentiles are seed-deterministic and safe to
embed in ``ScenarioResult`` JSON next to the other counters.

``seal → interpret`` is the commit latency the Lachesis-style DAG
metrics track: how long after a block is sealed does a given server
finish interpreting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.jsonvalue import JsonDocument

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceEvent
    from repro.types import ServerId

# Imported lazily-by-name to keep this module import-light; the kind
# strings are part of the trace vocabulary in repro.obs.trace.
_SEALED = "block-sealed"
_VALIDATED = "block-validated"
_RECV = "wire-recv"
_INTERPRETED = "interpreted"


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list —
    the one exact percentile (histograms use ``quantile_us``)."""
    if not sorted_values:
        raise ValueError("percentile of an empty series")
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return float(sorted_values[rank])


@dataclass(frozen=True)
class StageSummary(JsonDocument):
    """Percentile summary of one series of latency samples (a lifecycle
    stage, or request delivery latency); all zeros when it is empty."""

    count: int = 0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "StageSummary":
        if not samples:
            return cls()
        ordered = sorted(float(v) for v in samples)
        return cls(
            count=len(ordered),
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p99=percentile(ordered, 0.99),
            max=ordered[-1],
        )


@dataclass(frozen=True)
class LifecycleStats(JsonDocument):
    """The four stage summaries a run surfaces.

    ``seal_to_interpret`` is end-to-end commit latency; the other three
    decompose it (transport / admission / interpretation scheduling).
    """

    seal_to_first_receive: StageSummary
    receive_to_validate: StageSummary
    validate_to_interpret: StageSummary
    seal_to_interpret: StageSummary


class LifecycleIndex:
    """Joins trace events into per-(block, server) stage timestamps.

    Fed live via recorder ``on_event`` hooks, so joins are immune to
    ring-buffer eviction.  ``setdefault`` keeps *first* occurrences:
    the first wire receipt, the first validation, the first
    interpretation of a block at a server.
    """

    def __init__(self) -> None:
        #: block ref -> virtual seal time (recorded at the builder).
        self.sealed: dict[str, float] = {}
        #: (server, block ref) -> virtual time of first wire receipt.
        self.received: dict[tuple[str, str], float] = {}
        #: (server, block ref) -> virtual time of DAG admission.
        self.validated: dict[tuple[str, str], float] = {}
        #: (server, block ref) -> virtual time of interpretation.
        self.interpreted: dict[tuple[str, str], float] = {}

    def observe(self, server: "ServerId", event: "TraceEvent") -> None:
        kind = event.kind
        block = event.block
        if block is None:
            return
        if kind == _VALIDATED:
            self.validated.setdefault((str(server), block), event.t)
        elif kind == _RECV:
            self.received.setdefault((str(server), block), event.t)
        elif kind == _INTERPRETED:
            self.interpreted.setdefault((str(server), block), event.t)
        elif kind == _SEALED:
            self.sealed.setdefault(block, event.t)

    # -- derived samples -----------------------------------------------------------

    def seal_to_first_receive_samples(self) -> list[float]:
        return [
            t - self.sealed[ref]
            for (server, ref), t in sorted(self.received.items())
            if ref in self.sealed
        ]

    def receive_to_validate_samples(self) -> list[float]:
        return [
            t - self.received[key]
            for key, t in sorted(self.validated.items())
            if key in self.received
        ]

    def validate_to_interpret_samples(self) -> list[float]:
        return [
            t - self.validated[key]
            for key, t in sorted(self.interpreted.items())
            if key in self.validated
        ]

    def commit_latencies(self) -> list[float]:
        """seal → interpret per (block, server) — commit latency."""
        return [
            t - self.sealed[ref]
            for (server, ref), t in sorted(self.interpreted.items())
            if ref in self.sealed
        ]

    def commit_latency(self, fraction: float) -> float:
        """One percentile of commit latency (0.0 when no samples)."""
        samples = sorted(self.commit_latencies())
        return percentile(samples, fraction) if samples else 0.0

    def stats(self) -> LifecycleStats:
        return LifecycleStats(
            seal_to_first_receive=StageSummary.from_samples(
                self.seal_to_first_receive_samples()
            ),
            receive_to_validate=StageSummary.from_samples(
                self.receive_to_validate_samples()
            ),
            validate_to_interpret=StageSummary.from_samples(
                self.validate_to_interpret_samples()
            ),
            seal_to_interpret=StageSummary.from_samples(self.commit_latencies()),
        )
