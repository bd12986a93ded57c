"""Typed results of a scenario run.

A :class:`ScenarioResult` is everything a benchmark, CI step or paper
table needs from one run: request latency percentiles, throughput,
convergence, and the wire/interpreter/storage counters as the typed
snapshots of :mod:`repro.runtime.snapshots`.  ``to_json()`` emits a
stable (sorted-keys) document; for a fixed scenario + seed the document
is byte-identical across runs once the wall-clock field is excluded —
the determinism regression test asserts exactly that.  Request
latencies use the same :class:`~repro.obs.lifecycle.StageSummary` as
the block lifecycle (zeros when nothing was delivered).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jsonvalue import JsonDocument
from repro.obs.lifecycle import LifecycleStats, StageSummary
from repro.obs.metrics import MetricsReport
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.scenario.slo import SloReport


@dataclass(frozen=True)
class ScenarioResult(JsonDocument):
    """Everything one scenario run produced, as one typed value."""

    scenario: str
    protocol: str
    seed: int
    rounds_run: int = 0
    virtual_time: float = 0.0
    stopped_by: str = "stop-condition"
    converged: bool = False
    requests_issued: int = 0
    requests_delivered: int = 0
    #: Delivered requests per unit of virtual time.
    throughput: float = 0.0
    latency_rounds: StageSummary = field(default_factory=StageSummary)
    latency_time: StageSummary = field(default_factory=StageSummary)
    wire: WireSnapshot = field(default_factory=WireSnapshot)
    interpreter: InterpreterSnapshot = field(default_factory=InterpreterSnapshot)
    storage: StorageSnapshot = field(default_factory=StorageSnapshot)
    total_blocks: int = 0
    forks_observed: int = 0
    crashes: int = 0
    restarts: int = 0
    down_at_end: tuple[str, ...] = ()
    probes: dict[str, tuple[float, ...]] = field(default_factory=dict)
    #: Block-lifecycle latency percentiles (virtual time, hence fully
    #: deterministic), present when the topology enabled tracing.
    lifecycle: LifecycleStats | None = None
    #: Cluster-wide metrics merge.  On the simulated arm this is built
    #: from the deterministic wire/interpreter/storage counters (so the
    #: document stays byte-identical for a fixed seed); on the live arm
    #: it is the scraped wall-clock :class:`MetricsReport`.
    metrics: MetricsReport | None = None
    #: Wall-clock block lifecycle joined *across node processes* by ref
    #: (seal→first-receive→validate→interpret), live runs only.
    live_lifecycle: LifecycleStats | None = None
    #: SLO verdicts — evaluated on live runs when the scenario declares
    #: an ``slo`` block; ``None`` otherwise.
    slo: SloReport | None = None
    #: Wall-clock seconds — the one field excluded from determinism
    #: comparisons (``to_json(include_wall_clock=False)``).
    wall_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "down_at_end", tuple(self.down_at_end))
        object.__setattr__(
            self,
            "probes",
            {name: tuple(series) for name, series in self.probes.items()},
        )

    def as_dict(self, include_wall_clock: bool = True) -> dict[str, object]:
        data = super().as_dict()
        if not include_wall_clock:
            del data["wall_seconds"]
        return data
