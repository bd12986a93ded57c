"""The block DAG cluster runtime.

Builds ``n`` servers — correct ones running :class:`~repro.shim.Shim`,
byzantine seats running an :class:`~repro.runtime.adversary.Adversary`
— over one :class:`~repro.net.simulator.NetworkSimulator`, and drives
them in *rounds*: every round each participant gets one ``disseminate``
opportunity (Algorithm 3 lines 10–11) and the network then runs for a
bounded stretch of virtual time.

Rounds are a driving convention, not a synchrony assumption: messages
routinely straddle round boundaries (latency jitter, partitions, FWD
retries), and correctness never depends on the round structure — it
only gives tests and benchmarks a deterministic way to pump the system
and measure progress ("delivered after k rounds").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import SignatureScheme
from repro.errors import ScenarioError, SimulationError
from repro.gossip.module import GossipConfig
from repro.jsonvalue import JsonDocument
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.simulator import NetworkSimulator
from repro.net.transport import RevocableTransport, SimTransport
from repro.obs.trace import ClusterTracer
from repro.protocols.base import ProtocolSpec, Trace
from repro.runtime.adversary import Adversary
from repro.runtime.faults import FaultSchedule
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.shim.shim import Shim
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.types import Label, Request, ServerId, make_servers


@dataclass(frozen=True)
class StorageSpec(JsonDocument):
    """Declarative persistence knobs, the JSON form of
    :class:`~repro.storage.blockstore.StorageConfig`: a scenario's
    topology turns storage on by holding one, and a live node's config
    carries it to the node's storage directory."""

    checkpoint_interval: int = 32
    segment_max_bytes: int = 64 * 1024
    prune: bool = True
    #: Memory release exempts the last this-many checkpoints' cone
    #: (anti-thrash pin window; ``0`` = release as eagerly as allowed).
    pin_recent_checkpoints: int = 2

    def __post_init__(self) -> None:
        if (
            self.checkpoint_interval < 1
            or self.segment_max_bytes < 1
            or self.pin_recent_checkpoints < 0
        ):
            raise ScenarioError(
                "storage spec needs checkpoint_interval ≥ 1, "
                f"segment_max_bytes ≥ 1, pin_recent_checkpoints ≥ 0; got {self}"
            )

    def build(self) -> StorageConfig:
        return StorageConfig(
            checkpoint_interval=self.checkpoint_interval,
            segment_max_bytes=self.segment_max_bytes,
            prune=self.prune,
            pin_recent_checkpoints=self.pin_recent_checkpoints,
        )


@dataclass
class ClusterConfig:
    """Knobs of a cluster run."""

    #: Virtual time allotted to each round's message exchange.
    round_duration: float = 6.0
    #: Per-server dissemination offset within a round (0 = simultaneous).
    stagger: float = 0.0
    #: Network latency model.
    latency: LatencyModel = field(default_factory=FixedLatency)
    #: Simulation seed (latency jitter, fault coins).
    seed: int = 0
    #: Gossip tunables for correct servers.
    gossip: GossipConfig = field(default_factory=GossipConfig)
    #: Interpret incrementally on insertion (False = off-line mode).
    auto_interpret: bool = True
    #: Root directory for per-server durable storage (``<dir>/<server>``).
    #: ``None`` (default) keeps everything in RAM, as before.
    storage_dir: str | Path | None = None
    #: Persistence tunables, used when ``storage_dir`` is set.
    storage: StorageConfig = field(default_factory=StorageConfig)
    #: Record per-server flight-recorder traces (``repro.obs``).  Off
    #: by default: every instrumentation site then holds the shared
    #: no-op recorder and pays one attribute check.
    trace: bool = False


class Cluster:
    """N servers running ``shim(P)`` over the simulated network.

    Parameters
    ----------
    protocol:
        The deterministic black box ``P``.
    servers:
        Explicit server ids, or use ``n`` to generate ``s1..sN``.
    faults:
        The fault schedule: crash and restart events fire at the start
        of their rounds (a crashed server loses all volatile state and
        restarts from its WAL + checkpoint, so they need
        ``config.storage_dir``); partition, loss and duplication events
        shape the simulated network.  Byzantine seats come from
        ``adversaries``, not from the schedule.
    adversaries:
        Mapping of server id to adversary factory; those seats run the
        adversary instead of a correct shim.
    """

    def __init__(
        self,
        protocol: ProtocolSpec,
        n: int | None = None,
        servers: Sequence[ServerId] | None = None,
        scheme: SignatureScheme | None = None,
        config: ClusterConfig | None = None,
        faults: FaultSchedule | None = None,
        adversaries: Mapping[ServerId, Callable[..., Adversary]] | None = None,
    ) -> None:
        if servers is None:
            if n is None:
                raise ValueError("provide either n or servers")
            servers = make_servers(n)
        self.servers: tuple[ServerId, ...] = tuple(servers)
        self.protocol = protocol
        self.config = config if config is not None else ClusterConfig()
        self.faults = faults if faults is not None else FaultSchedule()
        self.faults.validate(self.servers)
        if self.faults.needs_storage() and self.config.storage_dir is None:
            raise SimulationError(
                "a crash fault needs ClusterConfig.storage_dir: a crashed "
                "server loses all volatile state and can only restart "
                "from disk"
            )
        self.keyring = KeyRing(self.servers, scheme)
        self.sim = NetworkSimulator(
            latency=self.config.latency,
            seed=self.config.seed,
            faults=self.faults.link_faults(self.servers, self.config.round_duration),
        )
        #: The flight recorder set, one recorder per seat (adversaries
        #: included — their wire traffic is part of the record), or
        #: ``None`` when tracing is off.
        self.tracer: ClusterTracer | None = None
        if self.config.trace:
            self.tracer = ClusterTracer(self.servers, clock=lambda: self.sim.now)
            self.sim.tracers = dict(self.tracer.recorders)
        self.shims: dict[ServerId, Shim] = {}
        self.adversaries: dict[ServerId, Adversary] = {}
        #: Servers currently down (crashed, not yet restarted).
        self.down: set[ServerId] = set()
        self._transports: dict[ServerId, RevocableTransport] = {}
        self.rounds_run = 0
        self.crashes_performed = 0
        self.restarts_performed = 0
        adversaries = dict(adversaries or {})
        for server in self.servers:
            if server in adversaries:
                transport = SimTransport(self.sim, server)
                adversary = adversaries[server](
                    server=server,
                    keyring=self.keyring,
                    transport=transport,
                    protocol=protocol,
                )
                self.adversaries[server] = adversary
                self.sim.register(server, adversary.on_network)
            else:
                shim = self._build_shim(server)
                self.shims[server] = shim
                self.sim.register(server, shim.on_network)

    def _build_shim(self, server: ServerId) -> Shim:
        """A correct server's shim — wired to storage when configured.

        Construction *is* recovery: if the server's storage directory
        already holds data (a restart), the shim rebuilds itself from
        disk before it is attached to the network.
        """
        transport = RevocableTransport(SimTransport(self.sim, server))
        self._transports[server] = transport
        storage = None
        if self.config.storage_dir is not None:
            storage = ServerStorage(
                Path(self.config.storage_dir) / str(server),
                config=self.config.storage,
            )
        return Shim(
            server,
            self.protocol,
            self.keyring,
            transport,
            config=self.config.gossip,
            auto_interpret=self.config.auto_interpret,
            storage=storage,
            tracer=self.tracer.recorder(server) if self.tracer is not None else None,
        )

    # -- convenience ------------------------------------------------------------

    @property
    def correct_servers(self) -> list[ServerId]:
        """Servers running the honest shim."""
        return [s for s in self.servers if s in self.shims]

    def shim(self, server: ServerId) -> Shim:
        """The shim of a correct server."""
        return self.shims[server]

    # -- user interface ------------------------------------------------------------

    def request(self, server: ServerId, label: Label, request: Request) -> None:
        """Submit ``request(ℓ, r)`` at ``server`` (correct servers only)."""
        self.shims[server].request(label, request)

    def request_all(self, label: Label, request: Request) -> None:
        """Submit the same request at every correct server (used by
        consensus protocols where everyone proposes/ticks)."""
        for shim in self.shims.values():
            shim.request(label, request)

    # -- crash faults ----------------------------------------------------------------

    def crash(self, server: ServerId) -> None:
        """Kill a correct server: all volatile state is gone.

        Its transport is revoked (late timer callbacks of the dead
        incarnation can no longer send), its network handler swallows
        deliveries, and the shim object is dropped with its storage's
        file handles closed, nothing flushed.  Durable state — the WAL
        and checkpoints under ``storage_dir`` — survives, which is
        exactly and only what a real crash leaves behind.
        """
        if server in self.down:
            raise SimulationError(f"server already down: {server!r}")
        if server not in self.shims:
            raise SimulationError(f"not a live correct server: {server!r}")
        shim = self.shims.pop(server)
        if shim.storage is not None:
            shim.storage.abandon()
        self._transports[server].revoke()
        self.sim.replace_handler(server, lambda src, envelope: None)
        self.down.add(server)
        self.crashes_performed += 1
        if self.tracer is not None:
            self.tracer.recorder(server).emit("fault-injected", fault="crash")

    def restart(self, server: ServerId) -> Shim:
        """Bring a crashed server back, recovering from disk.

        The new shim rebuilds its DAG and annotations from the WAL +
        latest checkpoint during construction, then rejoins the network
        and catches up on blocks it missed through normal gossip/FWD.
        """
        if server not in self.down:
            raise SimulationError(f"server is not down: {server!r}")
        self.down.discard(server)
        if self.tracer is not None:
            self.tracer.recorder(server).emit("fault-injected", fault="restart")
        shim = self._build_shim(server)
        self.shims[server] = shim
        self.sim.replace_handler(server, shim.on_network)
        self.restarts_performed += 1
        return shim

    def _apply_crash_faults(self) -> None:
        for server in self.faults.restarts_at(self.rounds_run):
            self.restart(ServerId(server))
        for server in self.faults.crashes_at(self.rounds_run):
            self.crash(ServerId(server))

    # -- driving ------------------------------------------------------------------

    def round(self) -> None:
        """One dissemination round plus ``round_duration`` of network time."""
        self._apply_crash_faults()
        start = self.sim.now
        for index, server in enumerate(self.servers):
            offset = self.config.stagger * index
            if server in self.shims:
                shim = self.shims[server]
                self.sim.schedule(offset, shim.disseminate)
            elif server in self.adversaries:
                adversary = self.adversaries[server]
                self.sim.schedule(offset, adversary.on_round)
            # Servers in ``self.down`` sit the round out.
        self.sim.run(until=start + self.config.round_duration)
        self.rounds_run += 1

    def run_rounds(self, count: int) -> None:
        """Run ``count`` rounds."""
        for _ in range(count):
            self.round()

    def run_until(
        self,
        predicate: Callable[["Cluster"], bool],
        max_rounds: int = 64,
    ) -> int:
        """Round until ``predicate(self)`` holds; returns rounds used.

        Raises ``TimeoutError`` after ``max_rounds`` — in a correct run
        that means a liveness bug, which is exactly what the caller
        wants surfaced."""
        for used in range(max_rounds):
            if predicate(self):
                return used
            self.round()
        if predicate(self):
            return max_rounds
        raise TimeoutError(
            f"predicate still false after {max_rounds} rounds "
            f"(t={self.sim.now:.1f}, events pending={self.sim.pending()})"
        )

    def settle(self, quiet_rounds: int = 2) -> None:
        """Run extra rounds so in-flight traffic lands (e.g. after the
        last request of a workload)."""
        self.run_rounds(quiet_rounds)

    # -- observations ------------------------------------------------------------

    def dags_converged(self, live_only: bool = False) -> bool:
        """Whether all *configured* correct servers hold identical DAGs
        (the joint block DAG of Lemma 3.7, reached).

        By default a crashed correct server counts as not-converged:
        its view is gone, so the joint DAG has demonstrably not been
        reached by everyone it was configured for.  ``live_only=True``
        restricts the quantifier to currently-live correct servers
        (vacuously true with zero or one of them) — useful when a
        server is intentionally left down forever."""
        if not live_only and self.down:
            return False
        views = [shim.dag.refs for shim in self.shims.values()]
        if len(views) <= 1:
            return True
        return all(view == views[0] for view in views[1:])

    def all_delivered(
        self, label: Label, minimum: int = 1, live_only: bool = False
    ) -> bool:
        """Whether every correct server has at least ``minimum``
        indications for ``label``.

        Quantifies over the *configured* correct set: a crashed correct
        server has (currently) delivered nothing, so by default this is
        ``False`` while any correct server is down.  The old behaviour
        — quantify only over live servers, vacuously true when all
        correct servers are crashed — made
        ``run_until(lambda c: c.all_delivered(l))`` terminate spuriously
        mid-schedule; opt back in with ``live_only=True`` (e.g.
        when a server is deliberately left down for the whole run)."""
        if not live_only and self.down:
            return False
        return all(
            len(shim.indications_for(label)) >= minimum
            for shim in self.shims.values()
        )

    def trace(self) -> Trace:
        """The observable behaviour: per-server indication sequences."""
        trace = Trace()
        for server, shim in self.shims.items():
            for label, indication in shim.indications:
                trace.record(server, label, indication)
        return trace

    def total_blocks(self) -> int:
        """Blocks in the (first) live correct server's DAG (0 when all
        correct servers are down)."""
        first = next(iter(self.shims.values()), None)
        return 0 if first is None else len(first.dag)

    def wire_snapshot(self) -> WireSnapshot:
        """Typed snapshot of the simulator's wire counters."""
        metrics = self.sim.metrics
        return WireSnapshot(
            messages=metrics.messages,
            bytes=metrics.bytes,
            delivered=self.sim.delivered_count,
            dropped=self.sim.dropped_count,
            by_kind=dict(metrics.by_kind),
            bytes_by_kind=dict(metrics.bytes_by_kind),
        )

    def interpreter_snapshot(self) -> InterpreterSnapshot:
        """Typed aggregate of interpretation counters across live
        correct servers, with the GC-health counters also broken out per
        server — interpretability *divergence* (one stalled server among
        advancing peers) must be visible in scenario output, and a
        cluster-wide sum cannot show it."""
        blocks = delivered = materialized = requests = 0
        horizon = rehydrated = condemned = 0
        by_server: dict[str, dict[str, int]] = {}
        for server, shim in self.shims.items():
            interpreter = shim.interpreter
            blocks += interpreter.blocks_interpreted
            delivered += interpreter.messages_delivered
            materialized += interpreter.messages_materialized
            requests += interpreter.request_steps
            horizon += interpreter.below_horizon
            rehydrated += interpreter.rehydrated
            condemned += shim.gossip.metrics.condemned_below_horizon
            by_server[str(server)] = {
                "below_horizon": interpreter.below_horizon,
                "rehydrated": interpreter.rehydrated,
                "condemned_below_horizon": (
                    shim.gossip.metrics.condemned_below_horizon
                ),
            }
        return InterpreterSnapshot(
            blocks_interpreted=blocks,
            messages_delivered=delivered,
            messages_materialized=materialized,
            request_steps=requests,
            below_horizon=horizon,
            rehydrated=rehydrated,
            condemned_below_horizon=condemned,
            by_server=by_server,
        )

    def storage_snapshot(self) -> StorageSnapshot:
        """Typed aggregate of persistence counters across live correct
        servers (all zero when no ``storage_dir`` is configured)."""
        shims = [shim for shim in self.shims.values() if shim.storage is not None]
        stores = [s for s in (shim.storage for shim in shims) if s is not None]
        recoveries = [shim.recovery for shim in shims if shim.recovery is not None]
        return StorageSnapshot(
            wal_appends=sum(s.wal.stats.appends for s in stores),
            wal_bytes=sum(s.wal.size_bytes() for s in stores),
            wal_segments=sum(len(s.wal.segments()) for s in stores),
            checkpoints_written=sum(s.checkpoints.writes for s in stores),
            checkpoint_bytes=sum(s.checkpoints.bytes_written for s in stores),
            checkpoint_entries_written=sum(
                s.checkpoints.entries_written for s in stores
            ),
            checkpoint_entries_reused=sum(
                s.checkpoints.entries_reused for s in stores
            ),
            checkpoint_age_max=max(
                (shim.checkpoint_age() for shim in shims), default=0
            ),
            states_released=sum(s.states_released for s in stores),
            payloads_dropped=sum(s.payloads_dropped for s in stores),
            wal_segments_dropped=sum(s.wal.stats.segments_dropped for s in stores),
            blocks_recovered=sum(r.blocks_recovered for r in recoveries),
            blocks_replayed=sum(r.blocks_replayed for r in recoveries),
        )


def quick_cluster(
    protocol: ProtocolSpec,
    n: int = 4,
    seed: int = 0,
    *,
    round_duration: float = 6.0,
    stagger: float = 0.0,
    latency: LatencyModel | None = None,
    gossip: GossipConfig | None = None,
    auto_interpret: bool = True,
    storage_dir: str | Path | None = None,
    storage: StorageConfig | None = None,
    trace: bool = False,
) -> Cluster:
    """A fault-free n-server cluster with default wiring (examples/tests).

    Every :class:`ClusterConfig` knob is an explicit keyword parameter,
    so a typo (``quick_cluster(p, staggr=0.5)``) fails right here with
    a normal ``TypeError: unexpected keyword argument`` naming the call
    site — not as an opaque dataclass error deep inside construction.
    """
    config = ClusterConfig(
        round_duration=round_duration,
        stagger=stagger,
        latency=latency if latency is not None else FixedLatency(),
        seed=seed,
        gossip=gossip if gossip is not None else GossipConfig(),
        auto_interpret=auto_interpret,
        storage_dir=storage_dir,
        storage=storage if storage is not None else StorageConfig(),
        trace=trace,
    )
    return Cluster(protocol, n=n, config=config)
