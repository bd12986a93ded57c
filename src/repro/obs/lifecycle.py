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
from typing import TYPE_CHECKING, Mapping, Sequence

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
class StageSummary:
    """Percentile summary of one lifecycle stage's latency samples."""

    count: int = 0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_samples(cls, samples: list[float]) -> "StageSummary":
        if not samples:
            return cls()
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            p50=percentile(ordered, 0.50),
            p90=percentile(ordered, 0.90),
            p99=percentile(ordered, 0.99),
            max=ordered[-1],
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StageSummary":
        return cls(
            count=int(payload.get("count", 0)),  # type: ignore[arg-type]
            p50=float(payload.get("p50", 0.0)),  # type: ignore[arg-type]
            p90=float(payload.get("p90", 0.0)),  # type: ignore[arg-type]
            p99=float(payload.get("p99", 0.0)),  # type: ignore[arg-type]
            max=float(payload.get("max", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class LifecycleStats:
    """The four stage summaries a run surfaces.

    ``seal_to_interpret`` is end-to-end commit latency; the other three
    decompose it (transport / admission / interpretation scheduling).
    """

    seal_to_first_receive: StageSummary
    receive_to_validate: StageSummary
    validate_to_interpret: StageSummary
    seal_to_interpret: StageSummary

    def as_dict(self) -> dict[str, object]:
        return {
            "seal_to_first_receive": self.seal_to_first_receive.as_dict(),
            "receive_to_validate": self.receive_to_validate.as_dict(),
            "validate_to_interpret": self.validate_to_interpret.as_dict(),
            "seal_to_interpret": self.seal_to_interpret.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "LifecycleStats":
        def stage(key: str) -> StageSummary:
            return StageSummary.from_dict(payload.get(key, {}))  # type: ignore[arg-type]

        return cls(
            seal_to_first_receive=stage("seal_to_first_receive"),
            receive_to_validate=stage("receive_to_validate"),
            validate_to_interpret=stage("validate_to_interpret"),
            seal_to_interpret=stage("seal_to_interpret"),
        )


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
