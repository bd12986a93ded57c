"""The fault vocabulary — one ordered event stream for every fault family.

A :class:`FaultSchedule` lists declarative events in *round* units:
partitions, crash/restart of correct servers, byzantine seats, and loss
and duplication on links.  The same value drives both arms, read where
each fault happens:

* :class:`~repro.runtime.cluster.Cluster` seats each
  :class:`ByzantineFault` with its behaviour's script from
  :data:`~repro.runtime.adversary.BEHAVIOURS`, fires crash and restart
  events at the start of their rounds and hands the simulator the
  network events as :class:`~repro.net.faults.LinkFaults`
  (:meth:`FaultSchedule.link_faults`);
* the scenario runner injects each equivocator seat's cues;
* :class:`~repro.runtime.live.cluster.LiveCluster` SIGKILLs and respawns
  node processes on :class:`CrashFault` events.

Everything here is pure data and JSON round-trippable; each event checks
its own fields on construction and :meth:`FaultSchedule.validate` checks
the schedule against the configured server set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument
from repro.net.faults import LinkFaults, Partition
from repro.runtime.adversary import BEHAVIOURS
from repro.types import ServerId


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
    """A healing partition between two server groups, in round units.

    Cross-cut messages sent during ``[start_round, heal_round)`` are
    delivered no earlier than the heal (delayed, not dropped)."""

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
    """Crash a correct server at the start of ``crash_round``: all its
    volatile state is lost.  With ``restart_round`` it restarts from
    disk at the start of that round (``None`` = down forever)."""

    kind = "crash"

    server: str = ""
    crash_round: int = 0
    restart_round: int | None = None

    def __post_init__(self) -> None:
        if self.crash_round < 0:
            raise ScenarioError(
                f"crash_round must be ≥ 0, got {self.crash_round}"
            )
        if self.restart_round is not None and self.restart_round <= self.crash_round:
            raise ScenarioError(
                f"restart_round {self.restart_round} must come after "
                f"crash_round {self.crash_round}"
            )

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
        if any(round_index < 0 for round_index in self.equivocate_at):
            raise ScenarioError(
                f"equivocate_at rounds must be ≥ 0, got {tuple(self.equivocate_at)}"
            )
        object.__setattr__(self, "equivocate_at", tuple(self.equivocate_at))

    def validate(self, servers: Sequence[ServerId]) -> None:
        self._check_server(self.server, servers)


@dataclass(frozen=True)
class LinkLossFault(FaultEvent):
    """Probabilistic loss on every link touching ``server``.

    Loss is only legal on links with a byzantine endpoint (Assumption 1),
    so this declares ``server`` byzantine to the fault layer, and
    :meth:`FaultSchedule.validate` requires a :class:`ByzantineFault`
    seating it."""

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
class FaultSchedule(JsonDocument):
    """An ordered, composable timeline over all fault families."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- views ----------------------------------------------------------------

    def byzantine_servers(self) -> set[str]:
        return {
            e.server
            for e in self.events
            if isinstance(e, (ByzantineFault, LinkLossFault))
        }

    def crash_events(self) -> list[CrashFault]:
        return [e for e in self.events if isinstance(e, CrashFault)]

    def crashes_at(self, round_index: int) -> list[str]:
        """Servers whose crash fires at the start of ``round_index``."""
        return [e.server for e in self.crash_events() if e.crash_round == round_index]

    def restarts_at(self, round_index: int) -> list[str]:
        """Servers restarting from disk at the start of ``round_index``."""
        return [
            e.server for e in self.crash_events() if e.restart_round == round_index
        ]

    def needs_storage(self) -> bool:
        """Crash faults wipe volatile state; restart requires a disk."""
        return bool(self.crash_events())

    def seats(self) -> dict[str, str]:
        """Each byzantine seat's behaviour name, by server."""
        return {
            e.server: e.behaviour for e in self.events if isinstance(e, ByzantineFault)
        }

    def validate(self, servers: Sequence[ServerId]) -> None:
        seats = self.seats()
        seated: set[str] = set()
        for event in self.events:
            event.validate(servers)
            if isinstance(event, ByzantineFault):
                if event.server in seated:
                    raise ScenarioError(
                        f"server {event.server!r} has two byzantine seats; "
                        f"a server runs one behaviour"
                    )
                seated.add(event.server)
            elif isinstance(event, CrashFault) and event.server in seats:
                raise ScenarioError(
                    f"server {event.server!r} is both a byzantine seat and a "
                    f"crash-fault target; crash faults apply to correct servers"
                )
            elif isinstance(event, LinkLossFault) and event.server not in seats:
                raise ScenarioError(
                    f"link loss on {event.server!r} needs a byzantine seat "
                    f"there: loss is legal only on links with a byzantine "
                    f"endpoint (Assumption 1)"
                )

    def link_faults(
        self, servers: Sequence[ServerId], round_duration: float
    ) -> LinkFaults:
        """The partition, loss and duplication events as the simulator
        reads them: per-link tables and partition windows in virtual
        time (round ``r`` starts at ``r * round_duration``)."""
        loss: dict[tuple[ServerId, ServerId], float] = {}
        duplication: dict[tuple[ServerId, ServerId], float] = {}
        partitions: list[Partition] = []
        for event in self.events:
            if isinstance(event, PartitionFault):
                partitions.append(
                    (
                        event.start_round * round_duration,
                        event.heal_round * round_duration,
                        frozenset(ServerId(s) for s in event.group_a),
                        frozenset(ServerId(s) for s in event.group_b),
                    )
                )
            elif isinstance(event, LinkLossFault):
                bad = ServerId(event.server)
                for peer in servers:
                    if peer != bad:
                        loss[(bad, peer)] = loss[(peer, bad)] = event.probability
            elif isinstance(event, DuplicationFault):
                for src in servers:
                    for dst in servers:
                        if src != dst:
                            duplication[(src, dst)] = event.probability
        return LinkFaults(
            byzantine=frozenset(ServerId(s) for s in self.byzantine_servers()),
            loss=loss,
            duplication=duplication,
            partitions=tuple(partitions),
        )
