"""``shim(P)`` — Algorithm 3, the composition the main theorem is about.

The shim owns the two synchronized data structures (the request buffer
and the block DAG), runs one gossip and one interpreter instance over
them, and maintains ``P``'s interface toward the user:

* ``request(ℓ, r)``  → buffered, stamped into the next disseminated
  block, eventually requested from the simulated process (Lemma A.17);
* ``indicate(ℓ, i)`` ← fired when the interpretation indicates for
  *this* server, i.e. the event's ``B.n`` equals our identity
  (Algorithm 3 line 8, Lemma A.18).

Theorem 5.1: with ``P`` deterministic, this object implements exactly
``P``'s interface and preserves every property of ``P`` whose proof
rests on the reliable point-to-point link abstraction.  The integration
test suite checks that literally, by comparing traces against
:mod:`repro.runtime.direct`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.crypto.keys import KeyRing
from repro.dag.block import Block
from repro.dag.blockdag import BlockDag
from repro.gossip.module import Gossip, GossipConfig
from repro.horizon.claims import durable_frontier
from repro.horizon.tracker import HorizonTracker
from repro.interpret.instance import BlockState
from repro.interpret.interpreter import IndicationEvent, Interpreter
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.obs.trace import NULL_RECORDER
from repro.protocols.base import ProtocolSpec
from repro.requests import RequestBuffer
from repro.storage.blockstore import ServerStorage
from repro.storage.checkpoint import capture_checkpoint, restore_block_state
from repro.storage.gc import prune
from repro.storage.recover import RecoveryReport, recover_shim_state
from repro.types import BlockRef, Indication, Label, Request, ServerId

#: User-facing indication callback: ``(label, indication)``.
IndicationHandler = Callable[[Label, Indication], None]


class Shim:
    """One server's ``shim(P)`` instance (Algorithm 3).

    Parameters
    ----------
    server:
        This server's identity.
    protocol:
        The deterministic black box ``P``.
    keyring:
        Keys for the fixed server set.
    transport:
        Network facade for gossip.
    on_indication:
        Optional user callback; indications are also collected in
        :attr:`indications`.
    auto_interpret:
        When ``True`` (default) the interpreter runs after every DAG
        insertion.  The interpreter's incremental ready-queue scheduler
        makes each such run O(newly eligible work), not a DAG rescan —
        steady-state gossip interprets in amortized O(out-degree) per
        block.  ``False`` decouples building from interpretation — the
        off-line mode of experiment CLM-OFFLINE; call
        :meth:`interpret_now` explicitly.
    storage:
        Optional :class:`~repro.storage.blockstore.ServerStorage`.
        When given, every inserted block is appended to the WAL before
        interpretation, interpreter checkpoints are written every
        ``storage.config.checkpoint_interval`` interpreted blocks (with
        pruning below the stable frontier when enabled), and — if the
        storage directory already holds a previous incarnation's data —
        the shim **recovers from disk** during construction: DAG,
        annotations, indication history and builder chain all resume
        where the crash left them (see :mod:`repro.storage.recover`).
        Indications replayed for the post-checkpoint suffix re-fire the
        ``on_indication`` callback: delivery is at-least-once across a
        crash, exactly like any durable-log system.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder` — the flight
        recorder for this server, threaded into gossip, interpreter,
        horizon tracker and storage.  Defaults to the shared no-op
        recorder (tracing off).
    """

    def __init__(
        self,
        server: ServerId,
        protocol: ProtocolSpec,
        keyring: KeyRing,
        transport: Transport,
        config: GossipConfig | None = None,
        on_indication: IndicationHandler | None = None,
        auto_interpret: bool = True,
        storage: ServerStorage | None = None,
        tracer: object | None = None,
    ) -> None:
        self.server = server
        self.protocol = protocol
        self.keyring = keyring
        self.auto_interpret = auto_interpret
        self.on_indication = on_indication
        self.storage = storage
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        if storage is not None:
            # Before any recovery below, so the storage events it emits
            # are traced too.
            storage.tracer = self.tracer
        self.rqsts = RequestBuffer()  # line 2
        self.dag = BlockDag()  # line 3
        #: Coordinated GC is active when storage is configured: claims
        #: are stamped, pruning follows the agreed horizon, and
        #: below-horizon arrivals are condemned.  Without storage the
        #: tracker still observes peer claims (it is cheap and keeps the
        #: horizon view comparable across servers) but drives nothing.
        self.horizon = HorizonTracker(
            keyring.servers, dag=self.dag, tracer=self.tracer
        )
        self.gossip = Gossip(  # line 4
            server,
            keyring,
            transport,
            self.rqsts,
            dag=self.dag,
            config=config,
            on_insert=self._on_insert,
            on_batch_end=self._on_batch_end,
            horizon=self.horizon if storage is not None else None,
            tracer=self.tracer,
        )
        self.interpreter = Interpreter(  # line 5
            self.dag,
            protocol,
            keyring.servers,
            on_indication=self._on_event,
            tracer=self.tracer,
        )
        if storage is not None:
            self.interpreter.rehydrator = self._rehydrate_state
        #: Indications delivered to the user of ``P`` at this server, in
        #: delivery order, and the same indications grouped by label.
        #: :meth:`_deliver` is the only writer of both.
        self.indications: list[tuple[Label, Indication]] = []
        self._by_label: dict[Label, list[Indication]] = {}
        #: Report of the restart-from-disk performed at construction,
        #: or ``None`` if this shim started fresh.
        self.recovery: RecoveryReport | None = None
        self._interpreted_at_checkpoint = 0
        self._last_checkpoint = None
        #: Consecutive checkpoint passes each block has been
        #: destruction-eligible (the pruner's hysteresis state; resets
        #: naturally on restart — a recovered server must re-earn every
        #: streak).
        self._destruction_streaks: dict[BlockRef, int] = {}
        #: Interpreted sets of the last ``pin_recent_checkpoints``
        #: checkpoints, newest last — the pruner pins everything
        #: interpreted since the oldest of them (the recent cone),
        #: damping release→rehydrate thrash near the tip.
        self._recent_frontiers: "deque[frozenset[BlockRef]]" = deque(
            maxlen=max(
                1,
                storage.config.pin_recent_checkpoints if storage is not None else 1,
            )
        )
        if storage is not None and storage.has_data():
            self.recovery = recover_shim_state(self)
            self._interpreted_at_checkpoint = self.interpreter.blocks_interpreted
            self._last_checkpoint = self.recovery.checkpoint
            if self._last_checkpoint is not None:
                self._recent_frontiers.append(
                    frozenset(self._last_checkpoint.refs)
                )
                # Resume claiming where the previous incarnation left
                # off: the recovered checkpoint is our durable frontier.
                self.gossip.builder.set_claim(
                    durable_frontier(
                        self.dag, self.keyring.servers,
                        self._last_checkpoint.refs,
                    )
                )

    # -- the interface of P (lines 6–9) ------------------------------------------

    def request(self, label: Label, request: Request) -> None:
        """``request(ℓ, r)`` — lines 6–7."""
        self.rqsts.put(label, request)

    def _on_event(self, event: IndicationEvent) -> None:
        """Lines 8–9: surface only the interpretation of *ourselves*."""
        if event.server != self.server:
            return
        self._deliver(event.label, event.indication)
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "indication",
                block=event.block_ref,
                label=str(event.label),
                value=repr(event.indication),
            )
        if self.on_indication is not None:
            self.on_indication(event.label, event.indication)

    def _deliver(self, label: Label, indication: Indication) -> None:
        """Record one indication of this server in the history and its
        per-label index, without firing ``on_indication`` (recovery
        restores checkpointed indications through here: they were
        delivered to the user before the crash)."""
        self.indications.append((label, indication))
        bucket = self._by_label.get(label)
        if bucket is None:
            bucket = self._by_label[label] = []
        bucket.append(indication)

    # -- choreography (lines 10–11 and the dotted line of Figure 1) ----------------

    def disseminate(self) -> Block:
        """One ``gssp.disseminate()`` — invoked repeatedly by the runtime."""
        return self.gossip.disseminate()

    def on_network(self, src: ServerId, envelope: Envelope) -> None:
        """Network ingress, routed to gossip."""
        self.gossip.on_receive(src, envelope)

    def _on_insert(self, block: Block) -> None:
        # Write-ahead intent: the block joins the WAL chain-frame
        # buffer here; the frame is flushed at the gossip batch end —
        # always *before* interpretation, so the block is durable
        # before any visible effect (indications) can happen.  A whole
        # buffered chain admitted by one arrival becomes one WAL record
        # instead of one per block.
        if self.storage is not None:
            self.storage.append_block(block)

    def _on_batch_end(self) -> None:
        # One external gossip event (arrival or dissemination) fully
        # cascaded: make its insertions durable, then interpret the
        # newly eligible suffix in one batched pass.
        if self.storage is not None:
            self.storage.flush_wal()
        if self.auto_interpret:
            self.interpreter.run()
            self._maybe_checkpoint()

    def interpret_now(self) -> list[IndicationEvent]:
        """Run interpretation to the current DAG frontier (off-line mode)."""
        if self.storage is not None:
            self.storage.flush_wal()
        events = self.interpreter.run()
        self._maybe_checkpoint()
        return events

    # -- durability (storage subsystem) ---------------------------------------------

    def checkpoint_age(self) -> int:
        """Blocks interpreted since the last checkpoint (0 if none due)."""
        return self.interpreter.blocks_interpreted - self._interpreted_at_checkpoint

    def _maybe_checkpoint(self) -> None:
        if self.storage is None:
            return
        if self.checkpoint_age() >= self.storage.config.checkpoint_interval:
            self.checkpoint_now()

    def checkpoint_now(self) -> None:
        """Prune below the stable frontier, snapshot the interpreter,
        persist the snapshot, and GC the WAL segments it covers.

        Order matters for crash safety: states are only released if the
        *previous* durable checkpoint held them (rule 1 of
        :func:`repro.storage.gc.prunable_refs`), and WAL segments are
        only dropped once the checkpoint written *now* covers their
        skeletons — so (latest checkpoint + remaining WAL) always
        reconstructs the full state.

        The pruner follows the agreed horizon (memory released above
        it stays rehydratable from the carried checkpoint entries;
        payloads/WAL/checkpoint data retire only below it), and the
        freshly written checkpoint's frontier is
        stamped as this server's claim into every block sealed from now
        on — which is how the next horizon agreement forms.
        """
        if self.storage is None:
            return
        horizon = self.horizon.horizon
        if self.storage.config.prune and self._last_checkpoint is not None:
            durable = frozenset(self._last_checkpoint.states)
            # Destroying data (payloads → skeletons → WAL segments) is
            # deferred while this server is visibly behind — many
            # known-missing predecessors outstanding, or our own chain
            # trailing the best peer tip.  Blocks admitted during
            # catch-up may reference anything in that gap, and once a
            # payload is gone the only remaining answer is condemnation
            # — which must never hit honest history just because we
            # pruned mid-recovery.  Independently, anything a currently
            # buffered block references is pinned: it will be read the
            # moment that block is admitted.
            catching_up = (
                self.gossip.missing_predecessors() > 4
                or self.gossip.blocks_behind() > 2
            )
            report = prune(
                self.dag,
                self.interpreter,
                durable,
                horizon=horizon,
                allow_destruction=not catching_up,
                protected=frozenset(self.gossip.buffered_references()),
                # Hysteresis against the admission race: a block stays
                # destruction-eligible for two checkpoint passes before
                # its data goes, so a delayed fork sibling's vouching
                # references get a couple of cycles to surface.
                destruction_delay=2,
                streaks=self._destruction_streaks,
                pinned=self._pinned_recent(),
                tracer=self.tracer if self.tracer.enabled else None,
            )
            self.storage.states_released += report.states_released
            self.storage.payloads_dropped += report.payloads_dropped
        checkpoint = capture_checkpoint(
            self.storage.checkpoints.next_seq(),
            self.interpreter,
            self.dag,
            owner=self.server,
            previous=self._last_checkpoint,
        )
        self.storage.write_checkpoint(checkpoint)
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "checkpoint",
                seq=int(checkpoint.seq),
                refs=len(checkpoint.refs),
            )
        self._last_checkpoint = checkpoint
        self._recent_frontiers.append(frozenset(checkpoint.refs))
        self._interpreted_at_checkpoint = self.interpreter.blocks_interpreted
        self.gossip.builder.set_claim(
            durable_frontier(self.dag, self.keyring.servers, checkpoint.refs)
        )

    def _pinned_recent(self) -> frozenset[BlockRef]:
        """The recent cone the pruner must not release: everything
        interpreted since the ``pin_recent_checkpoints``-th most recent
        checkpoint.  Until that many checkpoints exist, everything is
        pinned — the window has not opened yet."""
        if self.storage is None:
            return frozenset()
        window = self.storage.config.pin_recent_checkpoints
        if window <= 0:
            return frozenset()
        if len(self._recent_frontiers) < window:
            return frozenset(self.interpreter.interpreted)
        return frozenset(
            self.interpreter.interpreted - self._recent_frontiers[0]
        )

    def _rehydrate_state(
        self, ref: BlockRef
    ) -> "tuple[BlockState, frozenset[Label], frozenset[Label]] | None":
        """Interpreter rehydration hook: reconstruct a released block's
        annotation from the covering checkpoint (held in memory — the
        carry-forward guarantees the latest checkpoint covers every
        released-above-horizon block)."""
        if self._last_checkpoint is None:
            return None
        return restore_block_state(
            self._last_checkpoint, self.protocol, self.interpreter.servers, ref
        )

    # -- introspection --------------------------------------------------------------

    def indications_for(self, label: Label) -> list[Indication]:
        """This server's indications for one protocol instance, in
        delivery order — a fresh list (O(its length), not a scan of the
        history), so no caller holds a handle into the index."""
        return list(self._by_label.get(label, ()))

    def backlog(self) -> int:
        """Buffered user requests not yet in a block."""
        return self.rqsts.peek_backlog()


def connect_shims(
    servers: Sequence[ServerId],
    protocol: ProtocolSpec,
    keyring: KeyRing,
    transports: dict[ServerId, Transport],
    **shim_kwargs: object,
) -> dict[ServerId, Shim]:
    """Build one shim per server over the given transports (helper for
    examples and tests that wire clusters manually)."""
    return {
        server: Shim(server, protocol, keyring, transports[server], **shim_kwargs)
        for server in servers
    }
