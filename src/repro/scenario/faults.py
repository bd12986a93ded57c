"""The unified fault timeline — one ordered event stream for all three
fault families.

The runtime grew three incompatible fault knobs: network faults
(:class:`~repro.net.faults.FaultPlan`, in virtual time), crash faults
(:class:`~repro.runtime.cluster.CrashPlan`, in rounds) and byzantine
seats (the ``adversaries`` constructor map).  A :class:`FaultSchedule`
describes all of them declaratively in *round* units and compiles down
to the three runtime artefacts in one place, so a "partition while a
server is down and an equivocator is live" scenario is a single list of
events instead of three coordinated objects.

Everything here is pure data and JSON round-trippable; Assumption 1
validation (no message loss between correct servers) still happens in
the :class:`~repro.net.faults.LinkFaults` constructor the compiled plan
is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument
from repro.net.faults import FaultPlan, HealingPartition, LinkFaults
from repro.runtime.adversary import (
    Adversary,
    CrashAdversary,
    EquivocatorAdversary,
    GarbageAdversary,
    SilentAdversary,
    WithholdingAdversary,
)
from repro.runtime.cluster import CrashEvent, CrashPlan
from repro.types import ServerId

#: Byzantine behaviours a scenario can seat, by name.
BEHAVIOURS: dict[str, Callable[..., Adversary]] = {
    "silent": SilentAdversary,
    "crash": CrashAdversary,
    "equivocator": EquivocatorAdversary,
    "garbage": GarbageAdversary,
    "withholding": WithholdingAdversary,
}


@dataclass(frozen=True)
class FaultEvent(JsonDocument):
    """Base class of the declarative fault events."""

    kind: ClassVar[str]

    def validate(self, servers: Sequence[ServerId]) -> None:
        """Check the event against the configured server set."""

    def _check_server(self, server: str, servers: Sequence[ServerId]) -> None:
        if server not in servers:
            raise ScenarioError(
                f"{self.kind} fault names unknown server {server!r} "
                f"(configured: {list(servers)})"
            )


@dataclass(frozen=True)
class PartitionFault(FaultEvent):
    """A healing partition between two server groups, in round units."""

    kind = "partition"

    start_round: int = 0
    heal_round: int = 1
    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.heal_round <= self.start_round:
            raise ScenarioError(
                f"partition must heal after it starts "
                f"(start={self.start_round}, heal={self.heal_round})"
            )
        if set(self.group_a) & set(self.group_b):
            raise ScenarioError("partition groups must be disjoint")
        # Callers may pass lists; normalize to tuples so Scenario stays hashable.
        object.__setattr__(self, "group_a", tuple(self.group_a))
        object.__setattr__(self, "group_b", tuple(self.group_b))

    def validate(self, servers: Sequence[ServerId]) -> None:
        for server in (*self.group_a, *self.group_b):
            self._check_server(server, servers)


@dataclass(frozen=True)
class CrashFault(FaultEvent):
    """Crash a correct server at ``crash_round``; optionally restart it
    from disk at ``restart_round`` (``None`` = down forever)."""

    kind = "crash"

    server: str = ""
    crash_round: int = 0
    restart_round: int | None = None

    def validate(self, servers: Sequence[ServerId]) -> None:
        self._check_server(self.server, servers)


@dataclass(frozen=True)
class ByzantineFault(FaultEvent):
    """Seat ``server`` with a byzantine behaviour for the whole run.

    ``equivocate_at`` (equivocator behaviour only) lists rounds at which
    the seat submits a conflicting request pair — one value to each half
    of the network — on a fresh instance label, making Figure 3's fork
    happen on demand.
    """

    kind = "byzantine"

    server: str = ""
    behaviour: str = "silent"
    equivocate_at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.behaviour not in BEHAVIOURS:
            raise ScenarioError(
                f"unknown byzantine behaviour {self.behaviour!r} "
                f"(known: {sorted(BEHAVIOURS)})"
            )
        if self.equivocate_at and self.behaviour != "equivocator":
            raise ScenarioError(
                "equivocate_at only makes sense for the 'equivocator' behaviour"
            )
        object.__setattr__(self, "equivocate_at", tuple(self.equivocate_at))

    def validate(self, servers: Sequence[ServerId]) -> None:
        self._check_server(self.server, servers)


@dataclass(frozen=True)
class LinkLossFault(FaultEvent):
    """Probabilistic loss on every link touching ``server``.

    Loss is only legal on links with a byzantine endpoint (Assumption 1),
    so this implicitly declares ``server`` byzantine to the fault layer;
    pair it with a :class:`ByzantineFault` seat or a silent server."""

    kind = "link-loss"

    server: str = ""
    probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ScenarioError(
                f"loss probability out of range: {self.probability}"
            )

    def validate(self, servers: Sequence[ServerId]) -> None:
        self._check_server(self.server, servers)


@dataclass(frozen=True)
class DuplicationFault(FaultEvent):
    """Probabilistic duplication on every link (always legal under
    Assumption 1 — correct protocols must deduplicate)."""

    kind = "duplication"

    probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ScenarioError(
                f"duplication probability out of range: {self.probability}"
            )


@dataclass(frozen=True)
class CompiledFaults:
    """The three runtime artefacts one schedule compiles into, plus the
    equivocation cues the runner injects while driving."""

    fault_plan: FaultPlan
    crash_plan: CrashPlan
    adversaries: Mapping[str, Callable[..., Adversary]]
    #: (round, server) pairs at which an equivocator seat forks.
    equivocation_cues: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class FaultSchedule(JsonDocument):
    """An ordered, composable timeline over all three fault families."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- views ----------------------------------------------------------------

    def byzantine_servers(self) -> set[str]:
        return {
            e.server for e in self.events if isinstance(e, ByzantineFault)
        } | {e.server for e in self.events if isinstance(e, LinkLossFault)}

    def crash_events(self) -> list[CrashFault]:
        return [e for e in self.events if isinstance(e, CrashFault)]

    def needs_storage(self) -> bool:
        """Crash faults wipe volatile state; restart requires a disk."""
        return bool(self.crash_events())

    # -- validation + compilation ----------------------------------------------

    def validate(self, servers: Sequence[ServerId]) -> None:
        byz = self.byzantine_servers()
        for event in self.events:
            event.validate(servers)
            if isinstance(event, CrashFault) and event.server in byz:
                raise ScenarioError(
                    f"server {event.server!r} is both a byzantine seat and a "
                    f"crash-fault target; crash faults apply to correct servers"
                )

    def compile(
        self, servers: Sequence[ServerId], round_duration: float
    ) -> CompiledFaults:
        """Lower the round-based timeline onto the runtime's fault knobs."""
        self.validate(servers)
        partitions: list[HealingPartition] = []
        crash_events: list[CrashEvent] = []
        adversaries: dict[ServerId, Callable[..., Adversary]] = {}
        cues: list[tuple[int, str]] = []
        byzantine: set[ServerId] = set()
        loss: dict[tuple[ServerId, ServerId], float] = {}
        duplication: dict[tuple[ServerId, ServerId], float] = {}
        for event in self.events:
            if isinstance(event, PartitionFault):
                partitions.append(
                    HealingPartition(
                        group_a=frozenset(ServerId(s) for s in event.group_a),
                        group_b=frozenset(ServerId(s) for s in event.group_b),
                        start=event.start_round * round_duration,
                        heal=event.heal_round * round_duration,
                    )
                )
            elif isinstance(event, CrashFault):
                crash_events.append(
                    CrashEvent(
                        ServerId(event.server),
                        event.crash_round,
                        event.restart_round,
                    )
                )
            elif isinstance(event, ByzantineFault):
                adversaries[ServerId(event.server)] = BEHAVIOURS[event.behaviour]
                byzantine.add(ServerId(event.server))
                for round_index in event.equivocate_at:
                    cues.append((round_index, event.server))
            elif isinstance(event, LinkLossFault):
                bad = ServerId(event.server)
                byzantine.add(bad)
                for peer in servers:
                    if peer == bad:
                        continue
                    loss[(bad, peer)] = event.probability
                    loss[(peer, bad)] = event.probability
            elif isinstance(event, DuplicationFault):
                for src in servers:
                    for dst in servers:
                        if src != dst:
                            duplication[(src, dst)] = event.probability
        fault_plan = FaultPlan(
            link_faults=LinkFaults(
                byzantine=frozenset(byzantine),
                loss=loss,
                duplication=duplication,
            ),
            partitions=partitions,
        )
        crash_plan = CrashPlan(events=tuple(crash_events))
        return CompiledFaults(
            fault_plan=fault_plan,
            crash_plan=crash_plan,
            adversaries=adversaries,
            equivocation_cues=tuple(sorted(cues)),
        )
