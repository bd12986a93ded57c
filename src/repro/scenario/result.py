"""Typed results of a scenario run.

A :class:`ScenarioResult` is everything a benchmark, CI step or paper
table needs from one run: request latency percentiles, throughput,
convergence, and the wire/interpreter/storage counters as the typed
snapshots of :mod:`repro.runtime.snapshots`.  ``to_json()`` emits a
stable (sorted-keys) document; for a fixed scenario + seed the document
is byte-identical across runs once the wall-clock field is excluded —
the determinism regression test asserts exactly that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ScenarioError
from repro.obs.lifecycle import LifecycleStats, percentile
from repro.obs.metrics import MetricsError, MetricsReport
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.scenario.slo import SloReport


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of per-request delivery latencies."""

    count: int = 0
    p50: float | None = None
    p90: float | None = None
    p99: float | None = None
    max: float | None = None
    mean: float | None = None

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencyStats":
        values = sorted(float(v) for v in samples)
        if not values:
            return LatencyStats(count=0)
        return LatencyStats(
            count=len(values),
            p50=percentile(values, 0.50),
            p90=percentile(values, 0.90),
            p99=percentile(values, 0.99),
            max=values[-1],
            mean=round(sum(values) / len(values), 6),
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
            "mean": self.mean,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "LatencyStats":
        return LatencyStats(
            count=int(data.get("count", 0)),  # type: ignore[arg-type]
            p50=data.get("p50"),  # type: ignore[arg-type]
            p90=data.get("p90"),  # type: ignore[arg-type]
            p99=data.get("p99"),  # type: ignore[arg-type]
            max=data.get("max"),  # type: ignore[arg-type]
            mean=data.get("mean"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ScenarioResult:
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
    latency_rounds: LatencyStats = field(default_factory=LatencyStats)
    latency_time: LatencyStats = field(default_factory=LatencyStats)
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

    def delivery_ratio(self) -> float:
        """Delivered / issued (1.0 for an empty workload)."""
        if not self.requests_issued:
            return 1.0
        return self.requests_delivered / self.requests_issued

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self, include_wall_clock: bool = True) -> dict[str, object]:
        data: dict[str, object] = {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
            "rounds_run": self.rounds_run,
            "virtual_time": self.virtual_time,
            "stopped_by": self.stopped_by,
            "converged": self.converged,
            "requests": {
                "issued": self.requests_issued,
                "delivered": self.requests_delivered,
                "throughput": self.throughput,
                "latency_rounds": self.latency_rounds.as_dict(),
                "latency_time": self.latency_time.as_dict(),
            },
            "wire": self.wire.as_dict(),
            "interpreter": self.interpreter.as_dict(),
            "storage": self.storage.as_dict(),
            "cluster": {
                "total_blocks": self.total_blocks,
                "forks_observed": self.forks_observed,
                "crashes": self.crashes,
                "restarts": self.restarts,
                "down_at_end": list(self.down_at_end),
            },
            "probes": {
                name: list(series) for name, series in sorted(self.probes.items())
            },
            "lifecycle": (
                None if self.lifecycle is None else self.lifecycle.as_dict()
            ),
            "metrics": (
                None if self.metrics is None else self.metrics.as_dict()
            ),
            "live_lifecycle": (
                None
                if self.live_lifecycle is None
                else self.live_lifecycle.as_dict()
            ),
            "slo": None if self.slo is None else self.slo.to_json_dict(),
        }
        if include_wall_clock:
            data["wall_seconds"] = self.wall_seconds
        return data

    def to_json(
        self, include_wall_clock: bool = True, indent: int | None = None
    ) -> str:
        return json.dumps(
            self.to_json_dict(include_wall_clock=include_wall_clock),
            indent=indent,
            sort_keys=True,
        )

    @staticmethod
    def from_json_dict(data: Mapping[str, object]) -> "ScenarioResult":
        try:
            requests = data.get("requests", {})
            cluster = data.get("cluster", {})
            assert isinstance(requests, Mapping) and isinstance(cluster, Mapping)
            return ScenarioResult(
                scenario=str(data["scenario"]),
                protocol=str(data["protocol"]),
                seed=int(data["seed"]),  # type: ignore[arg-type]
                rounds_run=int(data.get("rounds_run", 0)),  # type: ignore[arg-type]
                virtual_time=float(data.get("virtual_time", 0.0)),  # type: ignore[arg-type]
                stopped_by=str(data.get("stopped_by", "stop-condition")),
                converged=bool(data.get("converged", False)),
                requests_issued=int(requests.get("issued", 0)),  # type: ignore[arg-type]
                requests_delivered=int(requests.get("delivered", 0)),  # type: ignore[arg-type]
                throughput=float(requests.get("throughput", 0.0)),  # type: ignore[arg-type]
                latency_rounds=LatencyStats.from_dict(
                    requests.get("latency_rounds", {})  # type: ignore[arg-type]
                ),
                latency_time=LatencyStats.from_dict(
                    requests.get("latency_time", {})  # type: ignore[arg-type]
                ),
                wire=WireSnapshot.from_dict(dict(data.get("wire", {}))),  # type: ignore[arg-type]
                interpreter=InterpreterSnapshot.from_dict(
                    dict(data.get("interpreter", {}))  # type: ignore[arg-type]
                ),
                storage=StorageSnapshot.from_dict(
                    dict(data.get("storage", {}))  # type: ignore[arg-type]
                ),
                total_blocks=int(cluster.get("total_blocks", 0)),  # type: ignore[arg-type]
                forks_observed=int(cluster.get("forks_observed", 0)),  # type: ignore[arg-type]
                crashes=int(cluster.get("crashes", 0)),  # type: ignore[arg-type]
                restarts=int(cluster.get("restarts", 0)),  # type: ignore[arg-type]
                down_at_end=tuple(cluster.get("down_at_end", ())),  # type: ignore[arg-type]
                probes={
                    str(name): tuple(float(v) for v in series)
                    for name, series in dict(data.get("probes", {})).items()  # type: ignore[arg-type]
                },
                lifecycle=(
                    None
                    if data.get("lifecycle") is None
                    else LifecycleStats.from_dict(data["lifecycle"])  # type: ignore[arg-type]
                ),
                metrics=(
                    None
                    if data.get("metrics") is None
                    else MetricsReport.from_dict(data["metrics"])  # type: ignore[arg-type]
                ),
                live_lifecycle=(
                    None
                    if data.get("live_lifecycle") is None
                    else LifecycleStats.from_dict(data["live_lifecycle"])  # type: ignore[arg-type]
                ),
                slo=(
                    None
                    if data.get("slo") is None
                    else SloReport.from_json_dict(data["slo"])  # type: ignore[arg-type]
                ),
                wall_seconds=float(data.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            )
        except (
            KeyError,
            AssertionError,
            ValueError,
            TypeError,
            MetricsError,
        ) as exc:
            raise ScenarioError(f"bad scenario-result document: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "ScenarioResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"result is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("result JSON must be an object")
        return ScenarioResult.from_json_dict(data)
