"""A single live server: shim + ``LiveTransport`` + asyncio tick loop.

``python -m repro.node --config node.json`` runs one of these per OS
process.  The node's job is to make a real-socket run *admit the same
per-builder chains* as the simulator driving the same scenario, so the
flight-recorder comparison (``trace diff --mode chains``) closes the
loop between the two arms.  Three mechanisms buy that equality:

* **Lockstep gating** — before sealing tick ``t`` the node waits until
  every server's chain has reached ``k = t - 1`` in its DAG (with a
  generous timeout so a dead peer cannot wedge the cluster).  This is
  the live analogue of the simulator's round structure: all of round
  ``t - 1``'s blocks are validated before any round-``t`` block seals.
* **Ingress hold** — a foreign block with ``k`` equal to our *next*
  sequence number arrived "from the future" (its builder is already
  sealing the tick we have not sealed yet).  It is held outside gossip
  and replayed right after our own seal, exactly where the simulator
  would have delivered it.  Blocks further ahead (only possible during
  catch-up after a restart) pass straight through so FWD chasing can
  pull the gap.
* **Deterministic workload schedule** — the launcher compiles the
  scenario's workload into an explicit ``(tick, label, index)``
  schedule per server (see :mod:`repro.scenario.live`), so both arms
  inject identical requests at identical chain positions.

Liveness across kill -9: a periodic *tip beacon* re-broadcasts this
server's latest block.  A restarted peer that recovered from disk
buffers the beacon block and FWD-chases the whole missed range; peers'
outbound queues additionally retain traffic queued while it was down.

Publication: the status file is rewritten when a reader can act on
it, not after every seal.  A seal publishes only if it is this
incarnation's first (the setup mark: ``tick >= 1``) or its tick is in
``NodeConfig.publish_ticks`` — the launcher fills that with a crash
victim's crash rounds, the only mid-run ticks anyone acts on, so the
kill lands at the first poll after the seal that reaches the round.
Everything else is published on the ``status_interval`` timer, after
settling (``complete``) and at shutdown.  A rewrite (JSON, open a tmp
file, rename) runs before the tick yields, so it would hold up the
sealed block's write-out, and the launcher polls far slower than a
small tick seals.  A publication costs only what changed since the
last one: delivery counts and the number of still-unmet labels are kept
from the shim's ``on_indication`` callback, the DAG fingerprint is
folded per admitted block, and the metrics snapshot — whose cost grows
with the registry — is taken on the timer, after settling and at
shutdown, never on a seal.

Collector policy: Algorithm 2 only ever adds to what a node holds — the
DAG, each block's ``PIs``/``Ms`` annotation, the gossip indexes — and
the GC horizon drops it again by plain reference counting, so steady
state makes no reference cycles for Python's cyclic collector to find;
it would only re-walk the whole DAG, full collection after full
collection.  :meth:`LiveNode.run` therefore collects once after
assembly (recovery included), freezes the survivors, and freezes each
tick's survivors at the end of the tick: the collector sees one tick's
allocations at a time.  Every exit from ``run`` unfreezes, so a node
run in-process hands its caller the heap back as it found it.  The
``node.gc-pause`` histogram times every collection the process makes
while the node runs — pauses the span ledger would otherwise charge to
whichever span happened to allocate.
"""

from __future__ import annotations

import asyncio
import gc
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.crypto.keys import KeyRing
from repro.dag.block import Block
from repro.gossip.module import GossipConfig
from repro.jsonvalue import JsonDocument
from repro.net.live.transport import LiveTransport
from repro.net.message import BlockEnvelope, Envelope
from repro.obs.export import write_jsonl
from repro.obs.metrics import MetricsRegistry, perf_counter
from repro.obs.trace import TraceRecorder
from repro.protocols.base import ProtocolSpec
from repro.runtime.cluster import StorageSpec
from repro.shim.shim import Shim
from repro.storage.blockstore import ServerStorage
from repro.types import BlockRef, Indication, Label, Request, ServerId

_FOLD_MASK = (1 << 64) - 1


def fold_refs(refs: Iterable[BlockRef], fold: int = 0) -> int:
    """Add ``refs`` into a DAG fingerprint: the sum of each ref's
    leading 64 bits mod 2**64.  Refs are SHA-256 digests, so two
    different ref sets share a sum with probability 2**-64 — what the
    sorted-and-rehashed 16-hex digest it replaces offered — while the
    sum is independent of admission order and updates in O(1) per
    block."""
    for ref in refs:
        fold += int(ref[:16], 16)
    return fold & _FOLD_MASK


@dataclass(frozen=True)
class NodeConfig(JsonDocument):
    """Everything one node process needs, JSON-round-trippable.

    ``workload`` is the compiled injection schedule for *this* server:
    ``(tick, label, request index)`` triples, injected just before the
    seal of ``tick``.  ``expected`` lists ``(label, minimum)`` delivery
    targets the node reports completion against.
    """

    server: str
    servers: tuple[str, ...]
    protocol: str
    addresses: dict[str, str]
    seed: int = 0
    max_ticks: int = 8
    #: Per-tick lockstep gate timeout (seconds); on expiry the node
    #: seals anyway so a dead peer cannot wedge the cluster.
    tick_timeout: float = 10.0
    #: Budget for the post-seal completion wait.
    settle_timeout: float = 30.0
    #: Optional pacing delay between ticks (0 = as fast as the gate allows).
    tick_interval: float = 0.0
    status_interval: float = 0.2
    #: Ticks whose seal publishes the status at once (besides the
    #: first): what a reader acts on mid-run.  Derived, never a knob —
    #: ``LiveCluster`` fills it with a crash victim's crash rounds.
    publish_ticks: tuple[int, ...] = ()
    beacon_interval: float = 0.25
    fwd_retry_interval: float = 0.1
    max_requests_per_block: int = 256
    lockstep: bool = True
    workload: tuple[tuple[int, str, int], ...] = ()
    expected: tuple[tuple[str, int], ...] = ()
    storage_dir: str | None = None
    #: Persistence knobs, used when ``storage_dir`` is set.
    storage: StorageSpec = StorageSpec()
    trace_path: str | None = None
    status_path: str | None = None
    #: Canonical-JSONL metrics snapshot, rewritten beside the status file.
    metrics_path: str | None = None


@dataclass
class NodeStatus(JsonDocument):
    """What a node periodically publishes (atomic JSON file)."""

    server: str
    pid: int
    tick: int
    blocks: int
    fingerprint: str
    delivered: dict[str, int] = field(default_factory=dict)
    ticks_done: bool = False
    complete: bool = False
    recovered: bool = False
    gate_timeouts: int = 0
    held: int = 0
    wire_messages: int = 0
    wire_bytes: int = 0
    dropped_overflow: int = 0
    reconnects: int = 0
    #: Version of the newest metrics snapshot on disk (0 = none yet) —
    #: scrapers skip files whose seq is unchanged.  Snapshots follow
    #: the status timer, so this moves slower than ``tick``.
    metrics_seq: int = 0


class LiveNode:
    """One server over real sockets; see the module docstring."""

    def __init__(
        self,
        config: NodeConfig,
        protocol: ProtocolSpec,
        make_request: Callable[[int], Request],
    ) -> None:
        self.config = config
        self.protocol = protocol
        self.make_request = make_request
        self.server = ServerId(config.server)
        self.servers = [ServerId(s) for s in config.servers]
        self.keyring = KeyRing(self.servers)
        self.gate_timeouts = 0
        self.recorder: TraceRecorder | None = None
        self.shim: Shim | None = None
        self.transport: LiveTransport | None = None
        #: One registry per node; the transport and storage share it so
        #: a single snapshot covers every live-arm layer.
        self.metrics = MetricsRegistry(server=config.server)
        self._metrics_seq = 0
        self._gate_wait = self.metrics.histogram("node.gate-wait")
        self._seal_to_wire = self.metrics.histogram("node.seal-to-wire-out")
        self._status_write = self.metrics.histogram("node.status-write")
        self._held_gauge = self.metrics.gauge("node.ingress-held")
        self._beacon_rounds = self.metrics.counter("node.beacon-rounds")
        self._gate_timeout_count = self.metrics.counter("node.gate-timeouts")
        self._gc_pause = self.metrics.histogram("node.gc-pause")
        self._gc_started = 0.0
        #: Blocks held at the lockstep ingress gate, keyed by ref.
        self._held: dict[str, tuple[ServerId, BlockEnvelope]] = {}
        #: Ingress that arrived before the shim existed (a fast peer
        #: dialing in while we were still recovering from disk).
        self._pre_shim: list[tuple[ServerId, Envelope]] = []
        self._progress: asyncio.Event | None = None
        self._stop_event: asyncio.Event | None = None
        self._schedule: dict[int, list[tuple[str, int]]] = {}
        for tick, label, index in config.workload:
            self._schedule.setdefault(tick, []).append((label, index))
        #: Per expected label: the delivery target, the deliveries seen
        #: so far, and how many labels are still short of their target.
        self._minimum: dict[str, int] = {}
        for label, minimum in config.expected:
            self._minimum[label] = max(minimum, self._minimum.get(label, minimum))
        self._delivered: dict[str, int] = dict.fromkeys(self._minimum, 0)
        self._unmet = sum(1 for minimum in self._minimum.values() if minimum > 0)
        #: :func:`fold_refs` over every block in the DAG.
        self._ref_fold = 0
        #: ``(tmp, target)`` of the atomic status rewrite.
        self._status_paths: tuple[Path, Path] | None = None

    # -- assembly --------------------------------------------------------------

    async def _assemble(self) -> None:
        loop = asyncio.get_running_loop()
        self._progress = asyncio.Event()
        self._stop_event = asyncio.Event()
        config = self.config
        if config.status_path is not None:
            target = Path(config.status_path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._status_paths = (target.with_name(target.name + ".tmp"), target)
        if config.trace_path is not None:
            # 4x the simulator's ring: a live node records until SIGTERM.
            self.recorder = TraceRecorder(
                self.server, clock=loop.time, capacity=262144
            )
        self.transport = LiveTransport(
            self.server,
            {ServerId(s): a for s, a in config.addresses.items()},
            handler=self._on_network,
            tracer=self.recorder,
            metrics=self.metrics,
            seed=config.seed,
        )
        await self.transport.start()
        storage = None
        if config.storage_dir is not None:
            Path(config.storage_dir).mkdir(parents=True, exist_ok=True)
            storage = ServerStorage(
                config.storage_dir, config=config.storage.build()
            )
            storage.live_metrics = self.metrics
        # Shim construction *is* recovery when the directory holds a
        # previous incarnation's data (same seam the simulated cluster
        # uses for CrashFault restarts).
        self.shim = Shim(
            self.server,
            self.protocol,
            self.keyring,
            self.transport,
            config=GossipConfig(
                fwd_retry_interval=config.fwd_retry_interval,
                max_requests_per_block=config.max_requests_per_block,
            ),
            storage=storage,
            tracer=self.recorder,
        )
        # Seed the running status from whatever recovery rebuilt (the
        # restored indications never fire the callback), then keep it
        # current from the two hooks below.
        for label, indication in self.shim.indications:
            self._on_indication(label, indication)
        self.shim.on_indication = self._on_indication
        self._ref_fold = fold_refs(self.shim.dag.refs)
        # Chain the DAG-insert hook: the shim installed its WAL append;
        # the tick gate additionally needs a wakeup on every admission,
        # and the fingerprint its ref.
        inner = self.shim.gossip.on_insert
        progress = self._progress

        def on_insert(block: Block) -> None:
            if inner is not None:
                inner(block)
            self._ref_fold = fold_refs((block.ref,), self._ref_fold)
            progress.set()

        self.shim.gossip.on_insert = on_insert
        for src, envelope in self._pre_shim:
            self._on_network(src, envelope)
        self._pre_shim.clear()

    # -- ingress ---------------------------------------------------------------

    def _on_network(self, src: ServerId, envelope: Envelope) -> None:
        shim = self.shim
        if shim is None:
            self._pre_shim.append((src, envelope))
            return
        if (
            self.config.lockstep
            and isinstance(envelope, BlockEnvelope)
            and envelope.block.n != self.server
            and envelope.block.k == shim.gossip.builder.next_seq
        ):
            # "From the future": its builder already seals the tick we
            # have not sealed.  Hold it so our tick-t block references
            # exactly the rounds the simulator's would.
            self._held[str(envelope.block.ref)] = (src, envelope)
            self._held_gauge.set(len(self._held))
            return
        shim.on_network(src, envelope)

    def _flush_held(self) -> None:
        shim = self.shim
        assert shim is not None
        next_seq = shim.gossip.builder.next_seq
        ready = [
            ref
            for ref, (_, envelope) in self._held.items()
            if envelope.block.k < next_seq
        ]
        for ref in ready:
            src, envelope = self._held.pop(ref)
            shim.on_network(src, envelope)
        if ready:
            self._held_gauge.set(len(self._held))

    # -- tick loop -------------------------------------------------------------

    def _peers_at(self, k: int) -> bool:
        shim = self.shim
        assert shim is not None
        for peer in self.servers:
            if peer == self.server:
                continue
            tip = shim.dag.tip(peer)
            if tip is None or tip.k < k:
                return False
        return True

    async def _await_gate(self, tick: int) -> None:
        """Block until every peer's chain reached ``tick - 1``."""
        if not self.config.lockstep or tick == 0:
            return
        assert self._progress is not None and self._stop_event is not None
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + self.config.tick_timeout
        try:
            while not self._stop_event.is_set():
                if self._peers_at(tick - 1):
                    return
                remaining = deadline - loop.time()
                if remaining <= 0:
                    self.gate_timeouts += 1
                    self._gate_timeout_count.inc()
                    return
                self._progress.clear()
                if self._peers_at(tick - 1):
                    return
                try:
                    # The event wakes us on every admission; the cap is a
                    # safety poll against a lost edge.
                    await asyncio.wait_for(
                        self._progress.wait(), timeout=min(0.05, remaining)
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            self._gate_wait.observe(loop.time() - started)

    async def _tick_loop(self) -> None:
        shim = self.shim
        assert shim is not None and self._stop_event is not None
        loop = asyncio.get_running_loop()
        published = False
        while (
            shim.gossip.builder.next_seq < self.config.max_ticks
            and not self._stop_event.is_set()
        ):
            tick = shim.gossip.builder.next_seq
            await self._await_gate(tick)
            if self._stop_event.is_set():
                return
            for label, index in self._schedule.get(tick, ()):
                shim.request(Label(label), self.make_request(index))
            seal_started = loop.time()
            shim.disseminate()
            self._seal_to_wire.observe(loop.time() - seal_started)
            self._flush_held()
            # See "Publication" above: the first seal and the ticks a
            # reader acts on; the timer covers the rest.
            sealed = shim.gossip.builder.next_seq
            if not published or sealed in self.config.publish_ticks:
                self._write_status()
                published = True
            if self.config.tick_interval > 0:
                await asyncio.sleep(self.config.tick_interval)
            else:
                # Yield so reader tasks can run between back-to-back ticks.
                await asyncio.sleep(0)
            # What the tick built outlives it; keep it out of the
            # collector's reach (see "Collector policy" above).
            gc.freeze()

    # -- completion ------------------------------------------------------------

    def _on_indication(self, label: Label, indication: Indication) -> None:
        """Shim callback: count one delivery against its target."""
        minimum = self._minimum.get(label)
        if minimum is None:
            return
        count = self._delivered[label] = self._delivered[label] + 1
        if count == minimum:
            self._unmet -= 1

    def _complete(self) -> bool:
        """All expected deliveries in, all chains at final height here."""
        if self._unmet:
            return False
        shim = self.shim
        assert shim is not None
        final = self.config.max_ticks - 1
        for server in self.servers:
            tip = shim.dag.tip(server)
            if tip is None or tip.k < final:
                return False
        return True

    async def _settle(self) -> None:
        assert self._progress is not None and self._stop_event is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.settle_timeout
        while not self._stop_event.is_set() and loop.time() < deadline:
            self._flush_held()
            if self._complete():
                return
            self._progress.clear()
            if self._complete():
                return
            try:
                await asyncio.wait_for(self._progress.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    # -- background tasks ------------------------------------------------------

    async def _beacon_loop(self) -> None:
        """Re-broadcast our tip so restarted peers can chase the gap."""
        shim, transport = self.shim, self.transport
        assert shim is not None and transport is not None
        while True:
            await asyncio.sleep(self.config.beacon_interval)
            tip = shim.dag.tip(self.server)
            if tip is not None and not shim.dag.payload_pruned(tip.ref):
                self._beacon_rounds.inc()
                transport.broadcast(self.servers, BlockEnvelope(tip))

    async def _status_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.status_interval)
            self._publish()

    # -- status ----------------------------------------------------------------

    def status(self) -> NodeStatus:
        shim, transport = self.shim, self.transport
        assert shim is not None and transport is not None
        return NodeStatus(
            server=str(self.server),
            pid=os.getpid(),
            tick=int(shim.gossip.builder.next_seq),
            blocks=len(shim.dag),
            fingerprint=format(self._ref_fold, "016x"),
            delivered=dict(self._delivered),
            ticks_done=shim.gossip.builder.next_seq >= self.config.max_ticks,
            complete=self._complete(),
            recovered=shim.recovery is not None,
            gate_timeouts=self.gate_timeouts,
            held=len(self._held),
            wire_messages=transport.metrics.messages,
            wire_bytes=transport.metrics.bytes,
            dropped_overflow=transport.dropped_overflow,
            reconnects=transport.reconnects,
            metrics_seq=self._metrics_seq,
        )

    def _write_status(self) -> NodeStatus:
        """Publish :meth:`status` (atomically, when a path is set)."""
        clock = asyncio.get_running_loop().time
        started = clock()
        status = self.status()
        if self._status_paths is not None:
            tmp, target = self._status_paths
            tmp.write_text(status.to_json(), encoding="utf-8")
            os.replace(tmp, target)
        self._status_write.observe(clock() - started)
        return status

    def _publish(self) -> NodeStatus:
        """Metrics snapshot, then the status naming it.  The metrics
        file goes first and the seq moves only once it is written, so a
        published seq always names a snapshot on disk."""
        if self.config.metrics_path is not None:
            seq = self._metrics_seq + 1
            self.metrics.snapshot(seq=seq).write_jsonl(self.config.metrics_path)
            self._metrics_seq = seq
        return self._write_status()

    def _export_trace(self) -> None:
        if self.recorder is not None and self.config.trace_path is not None:
            write_jsonl(self.recorder.snapshot(), self.config.trace_path)

    # -- entrypoint ------------------------------------------------------------

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()
        if self._progress is not None:
            self._progress.set()

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        """``gc.callbacks`` hook: time each collection."""
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self._gc_pause.observe(perf_counter() - self._gc_started)

    async def run(self) -> NodeStatus:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_stop)
        gc.callbacks.append(self._on_gc)
        background: list[asyncio.Task[None]] = []
        final: NodeStatus | None = None
        try:
            await self._assemble()
            assert self._stop_event is not None
            gc.collect()
            gc.freeze()
            background = [
                loop.create_task(self._beacon_loop()),
                loop.create_task(self._status_loop()),
            ]
            await self._tick_loop()
            await self._settle()
            self._publish()
            # Stay up (serving FWD requests and beacons for peers that
            # are still settling) until the launcher says stop.
            await self._stop_event.wait()
        finally:
            gc.unfreeze()
            gc.callbacks.remove(self._on_gc)
            # Shutdown starts here, not inside transport.stop(): a
            # beacon queued for a peer that stopped first fails while
            # the tasks below are awaited, before the final publication
            # — teardown, not a disturbance to count against the peer.
            transport = self.transport
            if transport is not None:
                transport.closing = True
            for task in background:
                task.cancel()
            if background:
                await asyncio.gather(*background, return_exceptions=True)
            if self.shim is not None:
                self._export_trace()
                final = self._publish()
                if self.shim.storage is not None:
                    self.shim.storage.close()
            # A failed assembly may already hold the listener and the
            # peer pumps: release them before its exception leaves.
            if transport is not None:
                await transport.stop()
        assert final is not None
        return final


def run_node(
    config: NodeConfig,
    protocol: ProtocolSpec,
    make_request: Callable[[int], Request],
) -> NodeStatus:
    """Synchronous entrypoint: run one node to completion.

    The event loop is created and destroyed entirely inside this call,
    so callers (``repro.node``, tests) never import asyncio.
    """
    return asyncio.run(LiveNode(config, protocol, make_request).run())
