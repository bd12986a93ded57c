"""Declarative stop conditions for scenario runs.

``run_until(lambda c: ...)`` predicates were copied, slightly mutated,
across every benchmark and example.  Stop conditions make the common
ones first-class values that serialize with the scenario: a run stops
when its condition holds (``stopped_by = "stop-condition"``) or when
``max_rounds`` is exhausted (``stopped_by = "max-rounds"`` — in a
correct run of a liveness scenario that usually means a bug, which is
exactly what the result should surface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.runner import ScenarioRunner


@dataclass(frozen=True)
class StopCondition(JsonDocument):
    """Base class of the declarative stop conditions."""

    kind: ClassVar[str]

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class AllDelivered(StopCondition):
    """The workload is exhausted and every issued request is delivered
    at every configured correct server."""

    kind = "all-delivered"

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        return runner.driver.exhausted() and runner.driver.all_delivered_now()


@dataclass(frozen=True)
class DagsConverged(StopCondition):
    """All configured correct servers hold identical DAGs (and none is
    down, unless ``live_only``)."""

    kind = "dags-converged"

    live_only: bool = False

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        return runner.cluster.dags_converged(live_only=self.live_only)


@dataclass(frozen=True)
class RoundsElapsed(StopCondition):
    """Plain round budget — for open-ended soak/pruning scenarios."""

    kind = "rounds-elapsed"

    rounds: int = 1

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ScenarioError(f"rounds must be ≥ 1, got {self.rounds}")

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        return runner.rounds_run >= self.rounds


@dataclass(frozen=True)
class _Composite(StopCondition):
    conditions: tuple[StopCondition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.conditions:
            raise ScenarioError(f"{self.kind} needs at least one condition")


@dataclass(frozen=True)
class And(_Composite):
    """All sub-conditions hold."""

    kind = "and"

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        return all(c.satisfied(runner) for c in self.conditions)


@dataclass(frozen=True)
class Or(_Composite):
    """Any sub-condition holds."""

    kind = "or"

    def satisfied(self, runner: "ScenarioRunner") -> bool:
        return any(c.satisfied(runner) for c in self.conditions)
