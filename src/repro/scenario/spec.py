"""The :class:`Scenario` — one declarative, replayable description of a
whole run.

A scenario bundles everything that previously lived in hand-written
driver loops: the protocol (by registry name), the topology (server
count, latency model, round cadence, storage), the workload, the fault
schedule, the stop condition, the probes and the round budget.  It is
a frozen value that round-trips through JSON
(``Scenario.from_json(s.to_json()) == s``) and, for a fixed seed,
replays to an identical :class:`~repro.scenario.result.ScenarioResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ScenarioError
from repro.jsonvalue import JsonDocument
from repro.net.latency import FixedLatency, JitterLatency, LatencyModel
from repro.protocols.base import ProtocolSpec
from repro.protocols.bcb import BcbBroadcast, bcb_protocol
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.protocols.ledger import Append, ledger_protocol
from repro.protocols.pbft import Propose, pbft_protocol
from repro.protocols.phaseking import PkPropose, phase_king_protocol
from repro.runtime.cluster import StorageSpec
from repro.runtime.faults import FaultSchedule
from repro.scenario.probes import resolve_probe
from repro.scenario.slo import SloSpec
from repro.scenario.stop import AllDelivered, StopCondition
from repro.scenario.workload import OpenLoopWorkload, Workload
from repro.types import Request, ServerId, make_servers


# -- protocol registry ---------------------------------------------------------


@dataclass(frozen=True)
class ProtocolEntry:
    """A protocol as scenarios see it: the spec plus a deterministic
    request factory (request ``i`` of any workload, for any seed)."""

    name: str
    spec: ProtocolSpec
    make_request: Callable[[int], Request]


PROTOCOLS: dict[str, ProtocolEntry] = {
    "brb": ProtocolEntry("brb", brb_protocol, lambda i: Broadcast(i)),
    "bcb": ProtocolEntry("bcb", bcb_protocol, lambda i: BcbBroadcast(i)),
    "counter": ProtocolEntry("counter", counter_protocol, lambda i: Inc(i + 1)),
    "ledger": ProtocolEntry("ledger", ledger_protocol, lambda i: Append(i)),
    "pbft": ProtocolEntry("pbft", pbft_protocol, lambda i: Propose(f"v{i}")),
    "phaseking": ProtocolEntry(
        "phaseking", phase_king_protocol, lambda i: PkPropose(i % 2)
    ),
}


def resolve_protocol(name: str) -> ProtocolEntry:
    """Look a protocol up by registry name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown protocol {name!r} (known: {sorted(PROTOCOLS)})"
        ) from None


# -- topology ------------------------------------------------------------------


@dataclass(frozen=True)
class LatencySpec(JsonDocument):
    """Declarative latency model: ``fixed`` (``delay``) or ``jitter``
    (uniform in ``[low, high]``)."""

    model: str = "fixed"
    delay: float = 1.0
    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if self.model not in ("fixed", "jitter"):
            raise ScenarioError(
                f"unknown latency model {self.model!r} "
                f"(known: ['fixed', 'jitter'])"
            )

    def build(self) -> LatencyModel:
        if self.model == "fixed":
            return FixedLatency(self.delay)
        return JitterLatency(self.low, self.high)


@dataclass(frozen=True)
class Topology(JsonDocument):
    """Cluster shape and cadence."""

    n: int = 4
    round_duration: float = 6.0
    latency: LatencySpec = field(default_factory=LatencySpec)
    auto_interpret: bool = True
    storage: StorageSpec | None = None
    #: Record per-server flight-recorder traces (``repro.obs``): typed,
    #: virtual-time-stamped event streams plus block-lifecycle latency
    #: percentiles in the result.  Off by default — the hot path then
    #: pays one attribute check per instrumentation site.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScenarioError(f"topology needs n ≥ 1, got {self.n}")
        if self.round_duration <= 0:
            raise ScenarioError(
                f"topology needs round_duration > 0, got {self.round_duration}"
            )

    def servers(self) -> list[ServerId]:
        return make_servers(self.n)


# -- the scenario itself -------------------------------------------------------


@dataclass(frozen=True)
class Scenario(JsonDocument):
    """One declarative, seed-deterministic description of a whole run."""

    name: str
    protocol: str
    description: str = ""
    seed: int = 0
    topology: Topology = field(default_factory=Topology)
    workload: Workload = field(default_factory=OpenLoopWorkload)
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    stop: StopCondition = field(default_factory=AllDelivered)
    probes: tuple[str, ...] = ()
    max_rounds: int = 64
    #: Wall-clock SLO bounds, evaluated on live runs only (see
    #: :mod:`repro.scenario.slo`).  Ignored by the simulated arm, so a
    #: bounded scenario stays byte-deterministic there.
    slo: SloSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "probes", tuple(self.probes))
        resolve_protocol(self.protocol)
        for probe in self.probes:
            resolve_probe(probe)
        self.faults.validate(self.topology.servers())
        sender = self.workload.sender
        if sender.startswith("fixed:"):
            pinned = sender.split(":", 1)[1]
            if pinned not in self.topology.servers():
                raise ScenarioError(
                    f"workload sender {sender!r} names a server outside the "
                    f"topology (configured: {self.topology.servers()})"
                )
            byz = self.faults.byzantine_servers()
            if pinned in byz:
                raise ScenarioError(
                    f"workload sender {sender!r} is a byzantine seat; "
                    f"requests enter at correct servers"
                )
        elif sender not in ("round-robin", "random"):
            raise ScenarioError(
                f"unknown sender policy {sender!r} (expected 'round-robin', "
                f"'random', or 'fixed:<server>')"
            )
        if self.max_rounds < 1:
            raise ScenarioError(f"max_rounds must be ≥ 1, got {self.max_rounds}")

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario under a different seed."""
        return dataclasses.replace(self, seed=seed)

    def needs_storage(self) -> bool:
        return self.topology.storage is not None or self.faults.needs_storage()
