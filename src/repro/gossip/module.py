"""The gossip protocol — Algorithm 1.

A server running gossip maintains four structures (§3): the block DAG
``G`` and request buffer ``rqsts`` shared with the shim, its in-progress
block ``B`` (a :class:`~repro.dag.block.BlockBuilder`), and the buffer
``blks`` of received-but-not-yet-valid blocks.  The handlers here are
the pseudocode's ``when`` clauses, one method each:

* lines 4–5   → :meth:`Gossip.on_receive` (block case) buffers new blocks;
* lines 6–9   → :meth:`Gossip._try_admit` asks the
  :class:`~repro.dag.blockdag.Validator` for a buffered block's verdict
  and inserts a valid one into ``G``, appending its reference to ``B``.
  Only copies whose signature verified at ingress are buffered, so the
  validator checks the parent rule and that every predecessor is in
  ``G``.  Blocks that cannot be admitted yet are indexed by the
  predecessor they are missing, and every insertion or condemnation
  asks again for exactly the blocks waiting on it (no fixpoint rescan
  of the whole buffer per arrival);
* lines 10–11 → :meth:`Gossip._request_missing_for` sends ``FWD``
  requests for a newly buffered block's unknown predecessors to its
  builder.  Each chased reference has one pacing record (next retry,
  target) beside the missing-predecessor index, and one timer per
  instance, :meth:`Gossip._retry_forwarding`, walks a heap of those
  records and re-sends only what is due;
* lines 12–13 → :meth:`Gossip.on_receive` (FWD case) answers with the
  full block;
* lines 14–18 → :meth:`Gossip.disseminate` seals the current block,
  inserts it, sends it to everyone and rolls over.

Coordinated-GC validity extension (PR 4): when wired to a
:class:`~repro.horizon.tracker.HorizonTracker`, an *arriving* block
whose chain position is already below the agreed horizon is condemned
with cause — its inputs are gone everywhere by ``n - f`` agreement, so
admitting it could only stall.  The recorded ``INVALID`` verdict makes
buffered descendants invalid through the ordinary Definition 3.3 (iii)
cascade.  Only byzantine blocks (withheld fork siblings) can arrive
that late: any honest block travels ahead of the quorum of claims that
advances the horizon over it (see :mod:`repro.horizon.tracker`).

The module never interprets anything — the strict separation the paper
stresses ("independently, indicated by the dotted line", Figure 1) —
but it exposes an ``on_insert`` callback so the shim can trigger
incremental interpretation.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence  # noqa: F401 - Sequence used in signatures

from repro.crypto.keys import KeyRing
from repro.obs.trace import NULL_RECORDER
from repro.dag.block import Block, BlockBuilder
from repro.dag.blockdag import BlockDag, Validator, Validity
from repro.net.message import BlockEnvelope, Envelope, FwdRequestEnvelope
from repro.net.transport import Transport
from repro.requests import RequestBuffer
from repro.types import BlockRef, ServerId

#: Max requests stamped into one block on disseminate.
MAX_REQUESTS_PER_BLOCK = 256


@dataclass(frozen=True)
class GossipConfig:
    """Tunables of one gossip instance."""

    #: Virtual-time gap between FWD retries for the same reference (Δ_B').
    fwd_retry_interval: float = 3.0


@dataclass
class GossipMetrics:
    """Operational counters of one gossip instance."""

    blocks_received: int = 0
    duplicate_blocks: int = 0
    invalid_blocks: int = 0
    #: Arriving blocks rejected because their chain position was already
    #: below the agreed GC horizon (coordinated-GC validity rule).
    condemned_below_horizon: int = 0
    blocks_inserted: int = 0
    blocks_disseminated: int = 0
    fwd_requests_sent: int = 0
    fwd_requests_answered: int = 0
    fwd_requests_unanswerable: int = 0
    buffered_high_water: int = 0


class Gossip:
    """One server's gossip module (Algorithm 1).

    Parameters
    ----------
    server:
        This server's identity (the ``s`` of ``gossip(s, G, rqsts)``).
    keyring:
        Key material for signing own blocks and verifying others'.
    transport:
        Network facade (simulator- or socket-backed).
    rqsts:
        Request buffer shared with the shim (labels + requests to stamp
        into the next block).
    dag:
        The block DAG ``G`` shared with the interpreter; a fresh one is
        created when omitted.
    on_insert:
        Callback fired after every successful ``G.insert(B)``.
    on_batch_end:
        Callback fired once per external event (a network delivery or a
        dissemination) *after* its whole admission cascade settled, and
        only if the cascade inserted at least one block.  The shim
        hangs WAL flushing and batched interpretation off this hook: a
        catch-up drain admitting a whole buffered chain becomes one WAL
        flush and one interpreter pass instead of a per-block round
        trip.
    horizon:
        Optional agreed-horizon view (duck-typed: anything with a
        ``condemns(block)`` method, normally a
        :class:`~repro.horizon.tracker.HorizonTracker`).  When given,
        arriving blocks below the agreed horizon are condemned with
        cause instead of buffered.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder` — every seal,
        admission, condemnation and buffering emits a typed event
        stamped with virtual time.  Defaults to the no-op recorder.
    """

    def __init__(
        self,
        server: ServerId,
        keyring: KeyRing,
        transport: Transport,
        rqsts: RequestBuffer,
        dag: BlockDag | None = None,
        config: GossipConfig | None = None,
        on_insert: Callable[[Block], None] | None = None,
        on_batch_end: Callable[[], None] | None = None,
        horizon: object | None = None,
        tracer: object | None = None,
    ) -> None:
        self.server = server
        self.keyring = keyring
        self.transport = transport
        self.rqsts = rqsts
        self.dag = dag if dag is not None else BlockDag()
        self.config = config if config is not None else GossipConfig()
        self.on_insert = on_insert
        self.on_batch_end = on_batch_end
        self.horizon = horizon
        #: Flight recorder (``repro.obs``); the shared no-op recorder
        #: when tracing is off, so emission sites cost one attribute
        #: check.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        #: Inserts since the last batch-end notification.
        self._batch_inserts = 0
        self.builder = BlockBuilder(server)
        self.blks: dict[BlockRef, Block] = {}
        #: Buffered blocks indexed by the predecessor they wait for:
        #: ``missing ref -> refs of buffered blocks listing it``.  Lists
        #: (not sets) keep drain order deterministic across runs; dead
        #: entries are dropped lazily.
        self._waiting: dict[BlockRef, list[BlockRef]] = {}
        self._unblocked: deque[BlockRef] = deque()
        self._draining = False
        self.metrics = GossipMetrics()
        self.validator = Validator(self.dag, self.blks)
        #: FWD pacing per chased ref (§3: "waits a reasonable amount of
        #: time before (re-)issuing"): ``ref -> (next retry, target)``.
        #: Retries never give up; reliable delivery (Lemma 4.3) needs
        #: only patience against a correct builder.
        self._chases: dict[BlockRef, tuple[float, ServerId]] = {}
        #: ``(next retry, ref)`` over the records, walked by the one
        #: retry timer; entries left behind by a record's update are
        #: skipped when popped.
        self._retries: list[tuple[float, BlockRef]] = []
        self._retry_armed = False
        # Any insertion — own sealed blocks included — may unblock
        # buffered descendants; the listener drains exactly those.
        self.dag.add_insert_listener(self._on_dag_insert)

    # -- receiving (lines 4–5, 12–13) ------------------------------------------

    def on_receive(self, src: ServerId, envelope: Envelope) -> None:
        """Network ingress: blocks and FWD requests."""
        if isinstance(envelope, BlockEnvelope):
            self._on_block(envelope.block)
            self._end_batch()
        elif isinstance(envelope, FwdRequestEnvelope):
            self._on_fwd_request(src, envelope.ref)
        else:
            raise TypeError(f"gossip received unknown envelope {envelope!r}")

    def _end_batch(self) -> None:
        """Fire ``on_batch_end`` if the event just handled inserted
        anything (one external event = one batch, however long the
        buffered-chain cascade it unblocked)."""
        if self._batch_inserts:
            self._batch_inserts = 0
            if self.on_batch_end is not None:
                self.on_batch_end()

    def _on_block(self, block: Block) -> None:
        self.metrics.blocks_received += 1
        if block.ref in self.dag or block.ref in self.blks:
            self.metrics.duplicate_blocks += 1
            return
        if not self.keyring.verify(block.n, block.signing_payload(), block.sigma):
            # Ingress signature check: a badly signed copy is treated as
            # never received, so it can neither occupy the buffer slot of
            # the honest copy (they share a ref) nor waste FWD traffic.
            self.metrics.invalid_blocks += 1
            if self.tracer.enabled:
                self.tracer.emit("condemned", block=block.ref, cause="bad-signature")  # type: ignore[attr-defined]
            return
        if self.horizon is not None and self.horizon.condemns(block):  # type: ignore[attr-defined]
            # Coordinated-GC validity rule: the block's position is
            # below the agreed horizon — its inputs were retired by
            # n - f agreement, so it can never be interpreted here.
            # Condemn with cause (buffered descendants are discarded by
            # the INVALID cascade) instead of stalling them.
            self.metrics.condemned_below_horizon += 1
            if self.tracer.enabled:
                self.tracer.emit(  # type: ignore[attr-defined]
                    "condemned", block=block.ref, cause="below-horizon-position"
                )
            self.validator.condemn(block.ref)
            self._queue_unblocked(block.ref)
            return
        self.blks[block.ref] = block  # lines 4–5
        self._chases.pop(block.ref, None)
        self.metrics.buffered_high_water = max(
            self.metrics.buffered_high_water, len(self.blks)
        )
        self._try_admit(block)  # cascades through _on_dag_insert
        if block.ref in self.blks:
            if self.tracer.enabled:
                missing = [p for p in dict.fromkeys(block.preds) if p not in self.dag]
                self.tracer.emit(  # type: ignore[attr-defined]
                    "buffered-missing-pred",
                    block=block.ref,
                    missing=len(missing),
                    first_missing=str(missing[0]) if missing else None,
                )
            # Still buffered: chase only *this* block's missing preds —
            # every other buffered block already requested its own on
            # arrival, and _retry_forwarding re-issues on the timer.
            # (A full-index sweep here would make an out-of-order flood
            # quadratic again.)
            self._request_missing_for(block)

    def _on_fwd_request(self, src: ServerId, ref: BlockRef) -> None:
        # Lines 12–13: answer only from G.  (A correct server is only
        # ever asked for predecessors of blocks it disseminated, which
        # are in its G; anything else can be safely ignored.)  Blocks
        # whose payload was pruned below the stable frontier cannot be
        # served — the stub would not re-hash to the requested ref; a
        # peer that far behind needs a checkpoint, not FWD.
        block = self.dag.get(ref)
        if block is not None and not self.dag.payload_pruned(ref):
            self.metrics.fwd_requests_answered += 1
            self.transport.send(src, BlockEnvelope(block))
        else:
            self.metrics.fwd_requests_unanswerable += 1

    # -- validation & insertion (lines 6–9) -------------------------------------

    def _try_admit(self, block: Block) -> bool:
        """Try to move one buffered block into ``G`` (lines 6–9).

        Returns ``True`` when the block left the buffer — inserted, or
        discarded as permanently invalid.  Otherwise the block is
        registered in the missing-predecessor index under every direct
        predecessor not yet in ``G`` and will be retried exactly when
        one of them is inserted (or discarded, which condemns it too).
        """
        verdict = self.validator.validity(block)
        if verdict is Validity.INVALID:
            del self.blks[block.ref]
            self.metrics.invalid_blocks += 1
            if self.tracer.enabled:
                self.tracer.emit("condemned", block=block.ref, cause="invalid")  # type: ignore[attr-defined]
            # Waiters on this ref must be re-checked: with the INVALID
            # verdict now recorded they are invalid themselves (Def. 3.3
            # (iii)) and get discarded by the same cascade.
            self._queue_unblocked(block.ref)
            return True
        if verdict is Validity.VALID:
            if self.horizon is not None and any(
                self.dag.payload_pruned(p) for p in dict.fromkeys(block.preds)
            ):
                # Reference-below-horizon validity, second half: the
                # block's position is fresh but it references a block
                # whose data the agreed horizon already retired
                # (payload destroyed, checkpoint entry skeletonized).
                # It could never be interpreted here — only a byzantine
                # re-reference reaches this deep (destruction requires
                # every server's reference to exist already).  Condemn
                # with cause instead of admitting a permanent stall.
                del self.blks[block.ref]
                self.metrics.condemned_below_horizon += 1
                if self.tracer.enabled:
                    self.tracer.emit(  # type: ignore[attr-defined]
                        "condemned", block=block.ref, cause="below-horizon-reference"
                    )
                self.validator.condemn(block.ref)
                self._queue_unblocked(block.ref)
                return True
            self._insert(block)  # line 7 (listener drains waiters)
            del self.blks[block.ref]  # line 9
            return True
        for ref in dict.fromkeys(block.preds):
            if ref in self.dag:
                continue
            bucket = self._waiting.setdefault(ref, [])
            if block.ref not in bucket:
                bucket.append(block.ref)
        return False

    def _on_dag_insert(self, block: Block) -> None:
        """DAG insert listener: drain the chains this insertion unblocked."""
        self._queue_unblocked(block.ref)

    def _queue_unblocked(self, ref: BlockRef) -> None:
        """Re-admit the buffered blocks waiting on ``ref``.

        Iterative worklist with a re-entrancy guard: admissions insert
        into the DAG, which fires :meth:`_on_dag_insert` again — nested
        calls only enqueue, so arbitrarily long buffered chains drain
        without recursion.  Total work is O(blocks drained), not
        O(buffer size) per arrival."""
        self._unblocked.append(ref)
        self._pump_unblocked()

    def _pump_unblocked(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._unblocked:
                settled = self._unblocked.popleft()
                for waiter_ref in self._waiting.pop(settled, ()):
                    waiter = self.blks.get(waiter_ref)
                    if waiter is not None:
                        self._try_admit(waiter)
        finally:
            self._draining = False

    def _insert(self, block: Block) -> None:
        # The guard spans the whole insertion — the DAG listener fires
        # mid-``dag.insert`` and must only *enqueue* unblocked waiters,
        # never admit them before this block finished its own
        # ``on_insert`` (the shim's WAL append: admitting a descendant
        # first would write the WAL out of topological order and break
        # recovery replay).  The pump below drains in FIFO order, so
        # chains land in the log predecessors-first.
        was_draining = self._draining
        self._draining = True
        try:
            inserted = self.dag.insert(block)
            if not inserted:
                return
            self.metrics.blocks_inserted += 1
            self._batch_inserts += 1
            if self.tracer.enabled:
                self.tracer.emit(  # type: ignore[attr-defined]
                    "block-validated", block=block.ref, n=str(block.n), k=block.k
                )
            if block.n != self.server:
                # Line 8: reference every newly validated foreign block in
                # our own next block; own blocks already chain via parent.
                self.builder.add_pred(block.ref)
            if self.on_insert is not None:
                self.on_insert(block)
        finally:
            self._draining = was_draining
        self._pump_unblocked()

    # -- forwarding (lines 10–11) -------------------------------------------------

    def _request_missing_for(self, block: Block) -> None:
        """FWD-chase one buffered block's unresolved predecessors
        (lines 10–11): O(|preds|), run once at arrival.  A ref already
        chased is asked again here only once its retry is due, and then
        of this block's builder; the retry timer
        (:meth:`_retry_forwarding`) does every other re-issue, so no
        caller ever sweeps the whole missing-predecessor index."""
        now = self.transport.now
        for pred_ref in dict.fromkeys(block.preds):
            if pred_ref in self.dag or pred_ref in self.blks:
                continue
            chase = self._chases.get(pred_ref)
            if chase is None or now >= chase[0]:
                self._chase(pred_ref, block.n, now)
        self._arm_retry()

    def _chase(self, ref: BlockRef, target: ServerId, now: float) -> None:
        """Send a FWD for ``ref`` to ``target`` and pace the next one."""
        retry_at = now + self.config.fwd_retry_interval
        self._chases[ref] = (retry_at, target)
        heapq.heappush(self._retries, (retry_at, ref))
        self._send_fwd(ref, target)

    def _send_fwd(self, ref: BlockRef, target: ServerId) -> None:
        self.metrics.fwd_requests_sent += 1
        self.transport.send(target, FwdRequestEnvelope(ref))

    def _arm_retry(self) -> None:
        """Schedule the one retry timer at the heap's head, unless it
        is pending already.  Every new entry is due no earlier than
        the entries before it, so a pending timer is never late."""
        if self._retries and not self._retry_armed:
            self._retry_armed = True
            delay = self._retries[0][0] - self.transport.now
            self.transport.schedule(delay, self._retry_forwarding)

    def _retry_forwarding(self) -> None:
        """The retry timer: re-issue the FWDs whose pacing interval
        expired, then arm itself once, at the next one due.

        Only due heap entries are popped; one whose time no longer
        matches its ref's record (satisfied, or re-sent since) is
        stale and skipped.  Also the index janitor: a chased ref that
        is in ``G`` or buffered, or whose waiters have all left the
        buffer (condemned by the INVALID cascade, typically), is
        dropped from the index and the records instead of being
        re-requested forever for nobody."""
        self._retry_armed = False
        now = self.transport.now
        retries = self._retries
        while retries and retries[0][0] <= now:
            retry_at, ref = heapq.heappop(retries)
            chase = self._chases.get(ref)
            if chase is None or chase[0] != retry_at:
                continue
            if ref in self.dag or ref in self.blks:
                del self._chases[ref]
                continue
            waiters = [w for w in self._waiting.get(ref, ()) if w in self.blks]
            if not waiters:
                self._waiting.pop(ref, None)
                del self._chases[ref]
                continue
            self._waiting[ref] = waiters
            self._chase(ref, chase[1], now)
        self._arm_retry()

    # -- dissemination (lines 14–18) -----------------------------------------------

    def disseminate(self) -> Block:
        """Seal and send the current block to everyone; start the next.

        Uses the transport's broadcast primitive (line 17).  Returns the
        sealed block (tests and adversaries use it)."""
        block = self._seal_and_insert()
        self.transport.broadcast(self.keyring.servers, BlockEnvelope(block))
        return block

    def disseminate_to(self, recipients: Sequence[ServerId]) -> Block:
        """Seal, insert and send the current block to ``recipients`` only.

        Correct servers always use :meth:`disseminate` (line 17 sends to
        every server); this hook exists for withholding/equivocating
        adversaries, which seal valid blocks but control who sees them.
        """
        block = self._seal_and_insert()
        for recipient in recipients:
            self.transport.send(recipient, BlockEnvelope(block))
        return block

    def _seal_and_insert(self) -> Block:
        """Lines 14–16: stamp requests, sign, insert into ``G``."""
        requests = self.rqsts.get(MAX_REQUESTS_PER_BLOCK)
        block = self.builder.seal(
            requests,
            sign=lambda payload: self.keyring.sign(self.server, payload),
        )
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "block-sealed",
                block=block.ref,
                n=str(block.n),
                k=block.k,
                requests=len(requests),
            )
        self._insert(block)
        self.metrics.blocks_disseminated += 1
        self._end_batch()
        return block

    # -- introspection ------------------------------------------------------------

    def buffered_references(self) -> set[BlockRef]:
        """Every predecessor reference named by a currently buffered
        block — data the GC layer must not destroy, since admitting the
        buffered block will need it (input to
        :func:`repro.storage.gc.prune`'s protection set)."""
        refs: set[BlockRef] = set()
        for block in self.blks.values():
            refs.update(block.preds)
        return refs

    def missing_predecessors(self) -> int:
        """Distinct references currently known-missing (buffered blocks
        are waiting on them).  Steady-state gossip keeps this near zero;
        a large value means the server is visibly catching up — the
        shim defers data destruction while that holds."""
        return len(self._waiting)

    def blocks_behind(self) -> int:
        """Height gap between our chain tip and the most advanced peer's
        — with :meth:`missing_predecessors`, the shim's signal to defer
        data destruction while catching up."""
        own_tip = self.dag.tip(self.server)
        own_height = own_tip.k if own_tip is not None else -1
        best = own_height
        for server in self.keyring.servers:
            tip = self.dag.tip(server)
            if tip is not None:
                best = max(best, tip.k)
        return best - own_height
