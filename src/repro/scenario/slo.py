"""Declarative wall-clock SLOs, evaluated against a live run's telemetry.

A :class:`SloSpec` rides in the Scenario JSON document (``"slo"``) and
names bounds on what the live arm actually measured: the cross-process
lifecycle join (seal→interpret wall-clock percentiles) and the merged
cluster :class:`~repro.obs.metrics.MetricsReport` (queue drops,
attributable reconnects).  The runner evaluates it into a
:class:`SloReport` of pass/fail verdicts carried in
``ScenarioResult.slo`` — which is what the CI gate asserts on.

Missing data fails the verdict: a bound on ``commit_p99_ms`` with no
lifecycle samples is a broken pipeline, not a green light.

Simulated runs never evaluate SLOs (virtual time has no wall-clock
latency), so a scenario with an ``slo`` block stays byte-deterministic
on the simulated arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument
from repro.obs.lifecycle import LifecycleStats
from repro.obs.metrics import MetricsReport

__all__ = ["SloReport", "SloSpec", "SloVerdict"]


@dataclass(frozen=True)
class SloSpec(JsonDocument):
    """Bounds a live run must meet; ``None`` means "not bounded".

    - ``commit_p99_ms`` — p99 of the wall-clock seal→interpret stage
      (a block's end-to-end commit latency across processes).
    - ``max_queue_drops`` — total oldest-dropped envelopes across every
      per-peer transport queue.
    - ``max_reconnects`` — total attributable reconnects (re-established
      after losing a live connection; the initial dial stampede does
      not count).
    """

    commit_p99_ms: float | None = None
    max_queue_drops: int | None = None
    max_reconnects: int | None = None

    def __post_init__(self) -> None:
        if self.commit_p99_ms is not None and self.commit_p99_ms <= 0:
            raise ScenarioError(
                f"slo.commit_p99_ms must be positive, got {self.commit_p99_ms}"
            )
        for name in ("max_queue_drops", "max_reconnects"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ScenarioError(f"slo.{name} must be >= 0, got {value}")

    def bounds(self) -> list[tuple[str, float]]:
        return [
            (name, getattr(self, name))
            for name in (
                "commit_p99_ms",
                "max_queue_drops",
                "max_reconnects",
            )
            if getattr(self, name) is not None
        ]

    def evaluate(
        self,
        lifecycle: LifecycleStats | None,
        metrics: MetricsReport | None,
    ) -> "SloReport":
        verdicts = []
        for name, bound in self.bounds():
            observed = self._observe(name, lifecycle, metrics)
            verdicts.append(
                SloVerdict(
                    name=name,
                    bound=float(bound),
                    observed=observed,
                    ok=observed is not None and observed <= bound,
                )
            )
        return SloReport(verdicts=tuple(verdicts))

    @staticmethod
    def _observe(
        name: str,
        lifecycle: LifecycleStats | None,
        metrics: MetricsReport | None,
    ) -> float | None:
        if name == "commit_p99_ms":
            if lifecycle is None or lifecycle.seal_to_interpret.count == 0:
                return None
            return lifecycle.seal_to_interpret.p99 * 1000.0
        if metrics is None:
            return None
        if name == "max_queue_drops":
            return float(metrics.merged.total("transport.queue-drops"))
        if name == "max_reconnects":
            return float(metrics.merged.total("transport.reconnects"))
        raise ScenarioError(f"unknown SLO bound {name!r}")


@dataclass(frozen=True)
class SloVerdict(JsonDocument):
    """One bound's outcome.  ``observed is None`` means the telemetry
    that would prove the bound never arrived — which fails it."""

    name: str
    bound: float
    observed: float | None
    ok: bool


@dataclass(frozen=True)
class SloReport(JsonDocument):
    """Every verdict from one evaluation; the gate checks ``passed``."""

    verdicts: tuple[SloVerdict, ...] = ()
    #: Derived from ``verdicts``; written to the document for the gate.
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(v.ok for v in self.verdicts))

    def render(self) -> str:
        lines = []
        for v in self.verdicts:
            observed = "n/a" if v.observed is None else f"{v.observed:.1f}"
            state = "ok" if v.ok else "FAIL"
            lines.append(f"  {v.name:<18} bound {v.bound:<10.1f} "
                         f"observed {observed:<10} {state}")
        return "\n".join(lines)
