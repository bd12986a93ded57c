"""Algorithm 2 — interpreting a deterministic protocol ``P`` on a block DAG.

The interpreter walks the DAG in any eligibility-respecting order and,
per block ``B``:

1. copies the builder's process-instance map from the parent block
   (line 4);
2. applies every request ``(ℓ, r) ∈ B.rs`` to the builder's process for
   ``ℓ``, unioning the triggered messages into ``B.Ms[out, ℓ]``
   (lines 5–6);
3. for every label with a request in ``B``'s strict causal past
   (line 7), collects from each direct predecessor's out-buffer the
   messages addressed to ``B.n`` (lines 8–9) and feeds them to the
   builder's process in ``<_M`` order, unioning the responses into the
   out-buffer (lines 10–11).  The gather is receiver-first: buffers
   keep their out-messages ``receiver → label → run``, so one probe per
   predecessor yields the labels that hold something for ``B.n`` and
   only those are visited — a block costs what it receives, however
   many labels were ever requested.  The labels that arrive *are*
   line 7's, so no set of them is kept.  A predecessor holds
   ``Ms[out, ℓ]`` only for a label it stepped: one it carries a
   request for, or one a message arrived for, which by induction was
   requested in its own past — either way in ``B``'s strict past.  A
   requested label with nothing arriving adds nothing to ``Ms[in]``
   and steps nothing.  ``tests/reference.py`` asserts this at its
   literal line 7 on every block.  Each run was put in ``<_M`` order
   once, by the block that emitted it, and the runs of distinct
   builders are disjoint, so a label's inbox is its predecessors' runs
   joined in builder order: nothing is hashed or sorted per delivery;
4. marks ``B`` interpreted (line 12) and surfaces any indications the
   process raised (lines 13–14).

Everything is a pure function of the DAG: by Lemma 4.2 the interleaving
of eligible blocks is irrelevant and any two servers annotate every
block identically.  Tests exercise this directly by permuting
schedules.

Eligibility is tracked **incrementally**: the interpreter keeps a
pending-in-degree count per uninterpreted block (how many distinct
predecessors are still uninterpreted) and a ready queue of blocks whose
count has dropped to zero.  Inserting a block costs O(|preds|);
interpreting one costs O(out-degree) scheduler work — so steady-state
gossip does O(edges) total scheduling instead of rescanning the whole
DAG per insertion.  The scan-the-world frontier
(:func:`~repro.dag.traversal.eligible_frontier`) is what the literal
transcription of Algorithm 2 in ``tests/reference.py`` uses; property
tests assert this scheduler produces byte-identical annotations.

State copying is copy-on-write at **two** granularities.  At instance
granularity, block states share untouched instances with their
ancestors and an instance is copied the first time a given block steps
it.  At container granularity, that per-block copy is a structural
:meth:`~repro.protocols.base.ProcessInstance.fork` — O(fields), sharing
every unmutated container with the ancestor — and the protocol's own
write barrier copies only the containers a step actually touches.
Observable annotations are identical to the paper's copy-everything
formulation (any block that would mutate shared state copies first),
including the state *split* at equivocation forks — two children of
the same parent each copy before stepping; property tests assert
byte-identical annotations and event traces against the reference's
``copy.deepcopy`` of the parent's whole ``PIs``.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import Callable, KeysView, Sequence

from repro.dag.block import Block, parent_of
from repro.obs.trace import NULL_RECORDER
from repro.dag.blockdag import BlockDag
from repro.errors import PrunedStateError, SimulationError
from repro.interpret.instance import BlockState
from repro.interpret.order import ServerKeys, joined, server_key
from repro.protocols.base import Message, ProcessInstance, ProtocolSpec
from repro.types import BlockRef, Indication, Label, ServerId


@dataclass(frozen=True)
class IndicationEvent:
    """An indication raised during interpretation (Algorithm 2 line 14):
    instance ``label`` indicated ``indication`` on behalf of ``server``
    (= ``B.n``) while interpreting block ``block_ref``."""

    label: Label
    indication: Indication
    server: ServerId
    block_ref: BlockRef


#: Scheduler callback: pick the next block from the eligible frontier.
ChooseFn = Callable[[list[Block]], Block]

#: Rehydration callback: reconstruct a released block's annotation from
#: durable storage, or ``None`` when the covering checkpoint no longer
#: holds it.
RehydrateFn = Callable[[BlockRef], "BlockState | None"]


class Interpreter:
    """Executes Algorithm 2 over a (growing) block DAG.

    The interpreter never mutates the DAG; it may be re-run as gossip
    inserts blocks, resuming from its ``interpreted`` set.  It is
    deliberately ignorant of *which* server is running it — the point
    of Lemma 4.2 — but callers (the shim) filter indications by
    ``event.server``.

    Parameters
    ----------
    dag:
        The block DAG ``G`` to interpret (shared with gossip, read-only
        here).
    protocol:
        The black box ``P``.
    servers:
        The global server set ``Srvrs`` (process instances are simulated
        for each of them).
    on_indication:
        Optional callback fired for every indication event, in order.
    """

    def __init__(
        self,
        dag: BlockDag,
        protocol: ProtocolSpec,
        servers: Sequence[ServerId],
        on_indication: Callable[[IndicationEvent], None] | None = None,
        tracer: object | None = None,
    ) -> None:
        self.dag = dag
        self.protocol = protocol
        self.servers = tuple(servers)
        #: Each server id's sort key — its encoding — computed once
        #: (:func:`~repro.interpret.order.server_key`): for visiting a
        #: block's predecessors in their builders' order, and for every
        #: ``<_M`` sort and receiver order of this server's buffers.
        self.server_keys: ServerKeys = {}
        self.on_indication = on_indication
        #: Flight recorder (``repro.obs``) — the no-op recorder when
        #: tracing is off, so the per-block emission site costs one
        #: attribute check.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        #: ``I`` of Algorithm 2: every ref interpreted.  One is
        #: *resident* while its annotation is held in memory and
        #: *released* once pruning dropped it (:meth:`release_state`).
        self.interpreted: set[BlockRef] = set()
        self.events: list[IndicationEvent] = []
        #: Optional hook reconstructing a released predecessor's
        #: annotation from the covering checkpoint (set by the shim when
        #: durable storage is configured).  With it, a late reference to
        #: a locally-pruned block *rehydrates* instead of stalling.
        self.rehydrator: RehydrateFn | None = None
        self._states: dict[BlockRef, BlockState] = {}
        # Scheduler state: per-uninterpreted-block count of uninterpreted
        # distinct preds, and the ready set plus a canonical-order heap
        # over it (stale heap entries are skipped lazily).  A ref is
        # known to the scheduler iff it is interpreted, pending, ready or
        # below the horizon.
        self._pending: dict[BlockRef, int] = {}
        self._ready: set[BlockRef] = set()
        self._ready_heap: list[BlockRef] = []
        #: Blocks permanently uninterpretable because a direct
        #: predecessor's state was pruned (see :meth:`eligible`).
        self._horizon: set[BlockRef] = set()
        # Metrics backing the compression experiments (CLM-COMPRESS).
        # All of them commit atomically with line 12 (the interpreted
        # mark): a protocol step raising mid-block leaves every counter
        # exactly where it was, so counters never include work of a
        # block that was not marked interpreted.
        self.messages_delivered = 0
        self.messages_materialized = 0
        self.request_steps = 0
        #: Released annotations reconstructed from the covering
        #: checkpoint on demand (coordinated-GC subsystem).
        self.rehydrated = 0
        self.resync_schedule()
        # Register weakly: throwaway interpreters built over a
        # long-lived DAG (offline verification, analysis) must not
        # be kept alive by the DAG's listener list.  The wrapper
        # unsubscribes itself once its interpreter is collected.
        self_ref = weakref.ref(self)

        def _forward(block: Block) -> None:
            interpreter = self_ref()
            if interpreter is not None:
                interpreter._track(block)
            else:
                dag.remove_insert_listener(_forward)

        dag.add_insert_listener(_forward)

    # -- queries ------------------------------------------------------------

    def is_interpreted(self, ref: BlockRef) -> bool:
        """``I[B]`` of Algorithm 2 line 2."""
        return ref in self.interpreted

    @property
    def blocks_interpreted(self) -> int:
        """Blocks interpreted so far: the size of ``I``."""
        return len(self.interpreted)

    @property
    def released(self) -> frozenset[BlockRef]:
        """The interpreted refs not resident, built when asked (for tests
        and reports: no interpreter path walks ``I`` for them)."""
        return frozenset(ref for ref in self.interpreted if ref not in self._states)

    @property
    def below_horizon(self) -> int:
        """Distinct blocks permanently uninterpretable because a direct
        predecessor's annotation was pruned below the stable frontier.

        Tracked as a set rather than recomputed per call, so the count
        is stable across repeated :meth:`eligible` calls and does not
        decay to garbage once pruning stops."""
        return len(self._horizon)

    @property
    def resident_states(self) -> int:
        """Annotations currently held in memory — the quantity the
        coordinated-GC benchmark bounds."""
        return len(self._states)

    def resident(self) -> KeysView[BlockRef]:
        """Refs whose annotations are held in memory (a live view): the
        interpreted blocks not released."""
        return self._states.keys()

    def state_of(self, ref: BlockRef) -> BlockState:
        """The ``PIs``/``Ms`` annotation of an interpreted block."""
        state = self._states.get(ref)
        if state is None:
            if ref in self.interpreted:
                raise PrunedStateError(
                    f"annotation pruned below the stable frontier: {ref[:8]}…"
                )
            raise SimulationError(f"block not interpreted yet: {ref[:8]}…")
        return state

    def eligible(self) -> list[Block]:
        """Blocks currently satisfying ``eligible(B)`` (line 3), in
        canonical (reference) order.

        A block whose direct predecessor was pruned below the stable
        frontier can never be interpreted (its inputs are gone); such
        blocks — only a byzantine builder can produce them once GC's
        full-reference rule holds — are excluded rather than raised on,
        and counted in :attr:`below_horizon`.
        """
        # The ready set *is* the eligible frontier: pruned-pred
        # blocks were diverted to the horizon at ready time.
        return sorted(
            (self.dag.require(ref) for ref in self._ready),
            key=lambda b: b.ref,
        )

    # -- incremental scheduling ------------------------------------------------

    def resync_schedule(self) -> None:
        """Rebuild the scheduler's pending/ready structures from the
        DAG and the current ``interpreted`` set.

        Needed when the interpreted set changes outside
        :meth:`interpret_block` — installing a recovery checkpoint marks
        a whole prefix interpreted at once, invalidating the pending
        counts computed while the DAG was being rebuilt.  One O(N + E)
        pass."""
        self._pending.clear()
        self._ready.clear()
        self._ready_heap.clear()
        self._horizon.clear()
        for block in self.dag:
            self._track(block)

    def _track(self, block: Block) -> None:
        """Index a newly inserted block (the DAG insert listener).

        O(|preds|): counts the block's uninterpreted distinct
        predecessors; a count of zero sends it straight to the ready
        queue (or to the below-horizon set if a predecessor's state was
        already pruned)."""
        ref = block.ref
        interpreted = self.interpreted
        if (
            ref in interpreted or ref in self._pending or ref in self._ready
            or ref in self._horizon
        ):
            return  # already known to the scheduler
        # Count *distinct* uninterpreted predecessors without building a
        # set of all of them — runs once per insertion, and the missing
        # set is almost always empty or tiny.
        missing: set[BlockRef] | None = None
        for p in block.preds:
            if p not in interpreted:
                if missing is None:
                    missing = {p}
                else:
                    missing.add(p)
        if missing:
            self._pending[ref] = len(missing)
        else:
            self._make_ready(block)

    def _make_ready(self, block: Block) -> None:
        """All predecessors interpreted: queue for interpretation, or
        divert below the horizon when a predecessor's state is gone
        (and, with a rehydrator, cannot be reconstructed).

        The heap is maintained lazily: a singleton ready set needs no
        order (``run()`` takes it directly), so entries are pushed only
        once a second block is ready — at which point the whole ready
        set is (re-)pushed, restoring the ``heap ⊇ ready`` invariant
        the multi-element pop path relies on.  Duplicate pushes are
        harmless: a popped entry no longer in ``ready`` is skipped as
        stale."""
        if self._restore_released_preds(block):
            ready = self._ready
            ready.add(block.ref)
            if len(ready) == 2:
                heap = self._ready_heap
                for ref in ready:
                    heapq.heappush(heap, ref)
            elif len(ready) > 2:
                heapq.heappush(self._ready_heap, block.ref)
        else:
            self._horizon.add(block.ref)

    def _restore_released_preds(self, block: Block) -> bool:
        """Ensure every released direct predecessor of ``block`` has its
        annotation back in memory; ``True`` when interpretation can
        proceed.  Rehydration is per-predecessor: partially restored
        states are harmless (the block is diverted anyway and the
        restored prefix can be re-released by the next pruning pass).
        Every predecessor is interpreted here, so one not resident is
        released."""
        states = self._states
        if all(p in states for p in block.preds):
            return True  # every input in memory
        if self.rehydrator is None:
            return False
        released = [p for p in dict.fromkeys(block.preds) if p not in states]
        return all(self._rehydrate(ref) for ref in released)

    def _rehydrate(self, ref: BlockRef) -> bool:
        """Pull one released annotation back from the covering
        checkpoint.  The ref is resident again — a first-class
        annotation, which a later pruning pass may release anew once the
        usual rules hold."""
        assert self.rehydrator is not None
        restored = self.rehydrator(ref)
        if restored is None:
            return False
        self._states[ref] = restored
        self.rehydrated += 1
        return True

    def _on_interpreted(self, ref: BlockRef) -> None:
        """Propagate one interpretation to the ready queue: O(out-degree)."""
        self._ready.discard(ref)
        self._pending.pop(ref, None)
        for succ_ref in self.dag.graph.successors_view(ref):
            count = self._pending.get(succ_ref)
            if count is None:
                continue
            if count > 1:
                self._pending[succ_ref] = count - 1
            else:
                del self._pending[succ_ref]
                self._make_ready(self.dag.require(succ_ref))

    # -- pruning (storage subsystem) -------------------------------------------

    def release_state(self, ref: BlockRef) -> None:
        """Drop an interpreted block's annotation (``PIs``/``Ms``) to
        reclaim memory.  The block stays ``interpreted``; the
        caller (:mod:`repro.storage.gc`) guarantees a durable checkpoint
        holds the annotation and that no future interpretation needs it.
        """
        if ref not in self.interpreted:
            raise SimulationError(
                f"cannot release a block that was never interpreted: {ref[:8]}…"
            )
        self._states.pop(ref, None)
        # Any already-ready successor lost an input it would read;
        # divert it below the horizon (its stale heap entry is
        # skipped lazily).  A pending successor finds the input gone
        # when it becomes ready.
        for succ_ref in self.dag.graph.successors(ref):
            if succ_ref in self._ready:
                self._ready.discard(succ_ref)
                self._horizon.add(succ_ref)

    # -- execution ------------------------------------------------------------

    def run(self, choose: ChooseFn | None = None) -> list[IndicationEvent]:
        """Interpret until no block is eligible; returns new events.

        ``choose`` picks among eligible blocks (default: canonical
        reference order).  By Lemma 4.2 the choice cannot change any
        annotation — property tests rely on exactly this entry point to
        verify that.
        """
        start = len(self.events)
        if choose is None:
            # Hot path: pop the canonically smallest ready ref straight
            # off the heap — the exact schedule a frontier rescan
            # produces (it always picks the smallest eligible ref),
            # without materializing the frontier each step.  A
            # singleton ready set (the steady-state gossip shape) is
            # trivially the smallest choice and skips the heap
            # entirely; its stale entry is cleared with the rest once
            # the queue drains.
            ready = self._ready
            require = self.dag.require
            while ready:
                if len(ready) == 1:
                    for ref in ready:
                        break
                else:
                    ref = heapq.heappop(self._ready_heap)
                    if ref not in ready:
                        continue  # stale: interpreted or diverted meanwhile
                block = require(ref)
                try:
                    # Ready ⇒ eligible: all guards of interpret_block
                    # hold by scheduler invariant (release_state
                    # diverts ready successors), so go straight to the
                    # execution body.
                    self._execute(block, self.dag.predecessors(block))
                    # Scheduler propagation lives out here (not in
                    # _execute) so the Algorithm-2 core stays a pure
                    # function of the DAG — the handler-purity rule
                    # certifies it with an empty effect set.
                    self._on_interpreted(ref)
                except BaseException:
                    # Keep heap ⊇ ready even when a protocol step blows
                    # up mid-run, so a later run() still sees the block.
                    heapq.heappush(self._ready_heap, ref)
                    raise
            # Entries the singleton fast path never popped are
            # all stale now that the queue is drained.
            self._ready_heap.clear()
            return self.events[start:]
        while True:
            frontier = self.eligible()
            if not frontier:
                break
            self.interpret_block(choose(frontier))
        return self.events[start:]

    def interpret_block(self, block: Block) -> list[IndicationEvent]:
        """Interpret one eligible block (Algorithm 2 lines 4–14).

        Checks eligibility first — this is the public entry point for
        callers driving their own schedules (tests, ``run(choose=)``).
        The hot loop calls :meth:`_execute` directly: a
        block popped from the ready queue has these guards discharged
        by construction."""
        if block.ref in self.interpreted:
            raise SimulationError(f"block already interpreted: {block!r}")
        if block.ref not in self.dag:
            raise SimulationError(f"block not in DAG: {block!r}")
        preds = self.dag.predecessors(block)
        missing = [p for p in preds if p.ref not in self.interpreted]
        if missing:
            raise SimulationError(
                f"block not eligible, uninterpreted predecessors: {missing!r}"
            )
        if not self._restore_released_preds(block):
            pruned = [p for p in preds if p.ref not in self._states]
            raise PrunedStateError(
                f"cannot interpret {block!r}: predecessor annotations "
                f"pruned below the stable frontier: "
                f"{[p.ref[:8] for p in pruned]}"
            )
        events = self._execute(block, preds)
        self._on_interpreted(block.ref)
        return events

    def _execute(
        self, block: Block, preds: list[Block]
    ) -> list[IndicationEvent]:
        """Algorithm 2 lines 4–14 proper, eligibility already assured."""
        state = BlockState()
        parent = parent_of(block, preds)
        if parent is not None:
            # Line 4 — share the parent's instances copy-on-write; every
            # mutation below copies first.
            state.pis = dict(self._states[parent.ref].pis)
        pis = state.pis
        owned: set[Label] = set()

        # Indications, like the work counters, accumulate locally and
        # commit with line 12 below: a protocol step raising mid-block
        # must leave neither counters nor events (nor hook calls) of a
        # block never marked interpreted.
        new_events: list[IndicationEvent] = []
        request_steps = 0
        delivered = 0
        materialized = 0
        # What each stepped label emits, unioned into ``Ms[out, ℓ]`` once
        # per label below (lines 6 and 11), so each of its runs is
        # ordered once however many steps fed it.
        outboxes: dict[Label, list[Message]] = {}

        # Lines 5–6: requests carried by this block, in list order.
        for request_label, request in block.rs:
            instance = self._own(pis, owned, block, request_label)
            result = instance.step_request(request)
            request_steps += 1
            outbox = outboxes.get(request_label)
            if outbox is None:
                outboxes[request_label] = list(result.messages)
            else:
                outbox += result.messages
            for indication in result.indications:
                new_events.append(
                    IndicationEvent(request_label, indication, block.n, block.ref)
                )

        # Lines 8–9: gather the messages addressed to B.n from the direct
        # predecessors' out-buffers through their receiver-first index —
        # one probe per predecessor, answered with the labels that hold a
        # run for B.n.  Each run is sent by its block's builder and is in
        # <_M order already, so visiting the predecessors in the order of
        # their builders' encodings (once per block) leaves every
        # label's inbox (line 10) its runs joined; only two runs of one
        # builder are merged and sorted again.
        states = self._states
        receiver = block.n
        arrived: dict[Label, list[tuple[ServerId, tuple[Message, ...]]]] = {}
        if len(preds) > 1:
            keys = self.server_keys
            preds = sorted(preds, key=lambda p: keys.get(p.n) or server_key(keys, p.n))
        for p in preds:
            buffers = states[p.ref]._ms
            if buffers is None:
                continue  # block emitted nothing at all
            for message_label, run in buffers.outgoing_to(receiver).items():
                runs = arrived.get(message_label)
                if runs is None:
                    arrived[message_label] = [(p.n, run)]
                else:
                    runs.append((p.n, run))
        # Line 7: the labels that arrived are the ones requested in the
        # strict past that have something for B.n (module docstring).
        # Their canonical order only matters when there is a choice.
        for message_label in arrived if len(arrived) < 2 else sorted(arrived):
            incoming = joined(arrived[message_label], self.server_keys)
            state.ms.receive(message_label, incoming)
            # Lines 10–11: feed the label's inbox in <_M order to one
            # private instance, collecting the responses in its outbox.
            instance = self._own(pis, owned, block, message_label)
            outbox = outboxes.get(message_label)
            if outbox is None:
                outbox = outboxes[message_label] = []
            raised: list[Indication] = []
            for message in incoming:
                result = instance.step_message(message)
                outbox += result.messages
                raised += result.indications
            delivered += len(incoming)
            for indication in raised:
                new_events.append(
                    IndicationEvent(message_label, indication, block.n, block.ref)
                )
        # Lines 6 and 11 — with the empty list when nothing was emitted,
        # so ``Ms[out, ℓ]`` exists for every stepped label.
        for outbox_label, outbox in outboxes.items():
            state.ms.add_out(outbox_label, outbox, self.server_keys)
            materialized += len(outbox)

        # Line 12 — annotation, interpreted mark and work counters
        # commit together (nothing above this point mutated them).
        states[block.ref] = state
        self.interpreted.add(block.ref)
        self.request_steps += request_steps
        self.messages_delivered += delivered
        self.messages_materialized += materialized
        if new_events:
            self._emit(new_events)
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "interpreted", block=block.ref, n=str(block.n), k=block.k
            )
        return new_events

    # -- internals ------------------------------------------------------------

    # lint: effect() — ProtocolSpec.create calls the protocol factory, a
    # pure constructor building the initial state of P(ℓ, B.n) from its
    # Context; fork() clones structurally and touches nothing shared.
    def _own(
        self,
        pis: dict[Label, ProcessInstance],
        owned: set[Label],
        block: Block,
        label: Label,
    ) -> ProcessInstance:
        """The builder's process for ``label``, private to this block
        (copy-on-write discipline): created on first use, forked the
        first time this block steps an instance it shares.

        The ownership copy is a structural fork — O(fields), containers
        shared until a step's own write barrier touches them.  The
        parent block's instance is never mutated, so annotations stay
        per-block."""
        instance = pis.get(label)
        if instance is None:
            instance = self.protocol.create(self.servers, block.n, label)
        elif label not in owned:
            instance = instance.fork()
        else:
            return instance
        pis[label] = instance
        owned.add(label)
        return instance

    # lint: effect() — self.on_indication is the shim's recording hook;
    # it appends to per-run structures owned by the caller and must stay
    # effect-free (it runs inside interpretation on every replica).
    def _emit(self, events: list[IndicationEvent]) -> None:
        """Record a committed block's indications (lines 13–14) and fire
        the callback."""
        self.events += events
        if self.on_indication is not None:
            for event in events:
                self.on_indication(event)
