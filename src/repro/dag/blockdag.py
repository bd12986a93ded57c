"""Block validity (Definition 3.3) and the block DAG (Definition 3.4).

A server considers a block *valid* when (i) its signature verifies,
(ii) it is a genesis block or has exactly one parent, and (iii) all its
predecessors are valid.  Check (i) is a property of the received copy
(``ref(B)`` excludes σ, so copies sharing a reference may differ in
it): gossip checks it once, at ingress, and only verified copies reach
the buffer.  The :class:`Validator` decides the rest for one buffered
block, the way Algorithm 1 line 6 asks it.  ``G`` holds only valid
blocks (Lemma A.5), so check (iii) needs no walk: it holds once every
predecessor is in ``G``.  The verdict is tri-state:

* ``VALID``   — every predecessor is in ``G`` and the parent rule holds;
* ``INVALID`` — permanently rejected (parent-rule violation, or a
  predecessor that was itself condemned or discarded); the only
  verdict the validator remembers;
* ``PENDING`` — some predecessor is not in ``G`` yet; gossip keeps the
  block buffered, requests forwarding (Algorithm 1 lines 10–11) and
  asks again when a predecessor is inserted or condemned.

The :class:`BlockDag` stores full blocks keyed by reference and
maintains the graph of Definition 3.4: a block is inserted only when
all predecessors are already vertices, so the ``insert`` of Definition
2.1 applies and acyclicity is by construction (Lemma A.3 / Lemma A.5).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, KeysView, Mapping

from repro.dag.block import Block
from repro.dag.digraph import Digraph
from repro.errors import MissingPredecessorError
from repro.types import BlockRef, SeqNum, ServerId


class Validity(enum.Enum):
    """Tri-state outcome of Definition 3.3 validation."""

    VALID = "valid"
    INVALID = "invalid"
    PENDING = "pending"


class Validator:
    """Definition 3.3 over one server's ``G`` and its buffer ``blks``.

    Only ``INVALID`` is remembered, as the set of condemned references.
    ``VALID`` and ``PENDING`` are read off ``G`` and the buffer on each
    call: gossip drops a copy of a block already in ``G`` before it
    asks, and asks again about a ``PENDING`` block when a predecessor
    is inserted or condemned.
    """

    def __init__(self, dag: BlockDag, buffered: Mapping[BlockRef, Block]) -> None:
        self._dag = dag
        self._buffered = buffered
        self._condemned: set[BlockRef] = set()

    def validity(self, block: Block) -> Validity:
        """Classify ``block``, whose signature was checked at ingress."""
        condemned = self._condemned
        # Check (iii) needs only the *verdict* of a predecessor: a
        # condemned or discarded one condemns the block, even when no
        # copy of it is held.
        if block.ref in condemned or any(p in condemned for p in block.preds):
            condemned.add(block.ref)
            return Validity.INVALID
        dag = self._dag
        in_dag = True
        parents = 0
        for pred_ref in block.preds:
            pred = dag.get(pred_ref)
            if pred is None:
                in_dag = False
                pred = self._buffered.get(pred_ref)
                if pred is None:
                    return Validity.PENDING
            if pred.n == block.n and pred.k == block.k - 1:
                parents += 1
        # Check (ii), as soon as every predecessor's content is held.
        if not block.is_genesis and parents != 1:
            condemned.add(block.ref)
            return Validity.INVALID
        return Validity.VALID if in_dag else Validity.PENDING

    def condemn(self, ref: BlockRef) -> None:
        """Record a permanent ``INVALID`` verdict for ``ref``.

        Gossip condemns a block whose chain position (or a predecessor's
        data) falls below the agreed GC horizon: its inputs are gone
        everywhere, by ``n - f`` agreement.  Every block waiting on
        ``ref`` is then invalid by check (iii) when gossip asks again,
        instead of waiting forever on a predecessor that will never be
        admitted.  The verdict is permanent for this view because the
        agreed horizon only advances."""
        self._condemned.add(ref)


class BlockDag:
    """A server's block DAG ``G`` (Definition 3.4).

    Vertices are block references; full block content is kept in an
    internal store.  All mutation goes through :meth:`insert`, which
    enforces the Definition 3.4 preconditions, so instances are always
    valid block DAGs (Lemma A.5).
    """

    def __init__(self) -> None:
        self.graph: Digraph[BlockRef] = Digraph()
        self._store: dict[BlockRef, Block] = {}
        self._by_server: dict[ServerId, dict[SeqNum, list[BlockRef]]] = {}
        #: Each payload-pruned ref's place in pruning order, and the
        #: refs in that order: pruning only ever adds to both.
        self._pruned_payloads: dict[BlockRef, int] = {}
        self._pruned_order: list[BlockRef] = []
        self._insert_listeners: list[Callable[[Block], None]] = []

    # -- queries --------------------------------------------------------------

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Block):
            return item.ref in self._store
        return item in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._store.values())

    def get(self, ref: BlockRef) -> Block | None:
        """Full block for ``ref``, or ``None`` if absent."""
        return self._store.get(ref)

    def require(self, ref: BlockRef) -> Block:
        """Full block for ``ref``; raises if absent."""
        block = self._store.get(ref)
        if block is None:
            raise MissingPredecessorError(f"block not in DAG: {ref[:8]}…")
        return block

    @property
    def refs(self) -> KeysView[BlockRef]:
        """All block references in the DAG, as a *live view*.

        The view supports O(1) membership and the usual set operators
        without copying the key set — gossip and interpretation check
        membership on every hot-path step, so a per-call copy would be
        O(N) each time.  Callers needing a frozen snapshot (e.g. to diff
        against a later state) should wrap it in ``set(...)``.
        """
        return self._store.keys()

    def blocks(self) -> list[Block]:
        """All blocks, in insertion order."""
        return list(self._store.values())

    def by_server(self, server: ServerId) -> list[Block]:
        """All blocks built by ``server``, ordered by sequence number."""
        chains = self._by_server.get(server, {})
        result: list[Block] = []
        for seq in sorted(chains):
            result.extend(self._store[ref] for ref in chains[seq])
        return result

    def refs_at(self, server: ServerId, k: SeqNum) -> tuple[BlockRef, ...]:
        """All block references at chain position ``(server, k)`` —
        usually zero or one, two or more when the server equivocated."""
        return tuple(self._by_server.get(server, {}).get(k, ()))

    def tip(self, server: ServerId) -> Block | None:
        """The highest-sequence block of ``server`` (first fork branch if
        the server equivocated)."""
        chains = self._by_server.get(server, {})
        if not chains:
            return None
        return self._store[chains[max(chains)][0]]

    def forks(self) -> dict[tuple[ServerId, SeqNum], list[Block]]:
        """Equivocations: ``(n, k)`` pairs carrying two or more distinct
        blocks (Example 3.5 / Figure 3).  Detection, not prevention —
        the framework tolerates forks; the §6 equivocation report
        (:func:`repro.invariants.equivocations`) reads them off here.
        """
        result: dict[tuple[ServerId, SeqNum], list[Block]] = {}
        for server, chains in self._by_server.items():
            for seq, ref_list in chains.items():
                if len(ref_list) > 1:
                    result[(server, seq)] = [self._store[r] for r in ref_list]
        return result

    # -- mutation -------------------------------------------------------------

    def add_insert_listener(self, listener: Callable[[Block], None]) -> None:
        """Subscribe to successful insertions.

        Listeners fire once per *new* block, after the DAG structures
        are updated (idempotent re-inserts do not fire).  This is how
        the interpreter's incremental scheduler and gossip's buffered-
        block index stay in sync with every insertion path — network
        gossip, crash-recovery replay and hand-built test DAGs alike —
        without each path having to thread callbacks explicitly.
        """
        self._insert_listeners.append(listener)

    def remove_insert_listener(self, listener: Callable[[Block], None]) -> None:
        """Unsubscribe a listener previously added; no-op if absent.
        Safe to call from within a firing listener."""
        try:
            self._insert_listeners.remove(listener)
        except ValueError:
            pass

    def insert(self, block: Block) -> bool:
        """``G.insert(B)`` per Definition 3.4.

        Preconditions: ``valid(s, B)`` (the caller's: gossip inserts
        only what its :class:`Validator` judged valid) and every
        predecessor already in the DAG.  Returns ``False`` if the block
        is already present (insert is idempotent, Lemma A.2); raises
        when a predecessor is missing.
        """
        if block.ref in self._store:
            return False
        # Dedupe once: a byzantine builder may list a reference twice;
        # edges are a set either way (Algorithm 2 line 9 takes unions,
        # so duplicates carry no extra meaning).
        preds = set(block.preds)
        store = self._store
        if not preds <= store.keys():
            # Name the gaps in the block's own (deterministic) listing
            # order, not set order — replicas report identical errors.
            missing = [m for m in dict.fromkeys(block.preds) if m not in store]
            raise MissingPredecessorError(
                f"predecessors not in DAG: {[m[:8] for m in missing]} "
                f"(Definition 3.4 (ii))"
            )
        # Trusted graph insert: absence and predecessor presence were
        # just checked against the store (store and graph stay in sync).
        self.graph.insert_new(block.ref, preds)
        store[block.ref] = block
        # Open-coded setdefault chain: setdefault evaluates its default
        # argument every call, which allocated a dict and a list per
        # insert on this hot path.
        by_server = self._by_server.get(block.n)
        if by_server is None:
            by_server = self._by_server[block.n] = {}
        bucket = by_server.get(block.k)
        if bucket is None:
            bucket = by_server[block.k] = []
        bucket.append(block.ref)
        # Snapshot: a listener may unsubscribe itself while firing.
        for listener in tuple(self._insert_listeners):
            listener(block)
        return True

    # -- pruning (storage subsystem GC) -----------------------------------------

    @property
    def pruned_payloads(self) -> frozenset[BlockRef]:
        """Refs whose stored blocks are payload-free stubs."""
        return frozenset(self._pruned_payloads)

    def pruned_stubs(self) -> "PrunedStubs":
        """The stub of every payload-pruned block, by ref: a snapshot
        taken without copying anything."""
        return PrunedStubs(self, len(self._pruned_order))

    def payload_pruned(self, ref: BlockRef) -> bool:
        """Whether ``ref``'s stored block lost its request payload."""
        return ref in self._pruned_payloads

    def drop_payload(self, ref: BlockRef) -> int | None:
        """Replace the stored block with its payload-free stub
        (:meth:`Block.stub`), so graph structure, parent relations and
        signature verification all still hold.  Only the request payload
        is gone; the GC layer guarantees nothing will read it again.
        Returns the estimated bytes freed, or ``None`` if already
        pruned.  Idempotent.
        """
        if ref in self._pruned_payloads:
            return None
        block = self._store.get(ref)
        if block is None:
            raise MissingPredecessorError(f"block not in DAG: {ref[:8]}…")
        freed = 0
        if block.rs:
            # ``hz`` survives: the claim is the input to horizon
            # agreement, which must stay recomputable from the DAG.
            stub = Block.stub(ref, block.n, block.k, block.preds, block.sigma, block.hz)
            freed = block.wire_size() - stub.wire_size()
            self._store[ref] = stub
        self._pruned_payloads[ref] = len(self._pruned_order)
        self._pruned_order.append(ref)
        return freed

    # -- relations between DAGs (⩽, ∪, joint DAG) -------------------------------

    def is_prefix_of(self, other: "BlockDag") -> bool:
        """The paper's ``G ⩽ G'`` lifted to block DAGs."""
        if not all(ref in other._store for ref in self._store):
            return False
        return self.graph.is_prefix_of(other.graph)

    def union(self, other: "BlockDag") -> "BlockDag":
        """``G ∪ G'`` — the joint block DAG of two (correct) servers.

        For views produced by gossip between correct servers the union
        is itself a block DAG (Lemma A.7); this method materializes it
        by topologically replaying both stores.
        """
        result = BlockDag()
        pending: dict[BlockRef, Block] = {}
        for dag in (self, other):
            for block in dag:
                pending.setdefault(block.ref, block)
        progress = True
        while pending and progress:
            progress = False
            for ref in list(pending):
                block = pending[ref]
                if all(p in result._store for p in block.preds):
                    result.insert(block)
                    del pending[ref]
                    progress = True
        if pending:
            raise MissingPredecessorError(
                f"union is not a block DAG: {len(pending)} blocks have "
                f"unresolvable predecessors"
            )
        return result

    def copy(self) -> "BlockDag":
        """An independent copy (blocks are immutable and shared).

        Insert listeners are deliberately *not* copied: they belong to
        the interpreter/gossip instances attached to the original."""
        result = BlockDag()
        result.graph = self.graph.copy()
        result._store = dict(self._store)
        result._by_server = {
            server: {seq: list(refs) for seq, refs in chains.items()}
            for server, chains in self._by_server.items()
        }
        result._pruned_payloads = dict(self._pruned_payloads)
        result._pruned_order = list(self._pruned_order)
        return result

    def predecessors(self, block: Block) -> list[Block]:
        """Full blocks referenced by ``block.preds`` (deduplicated).

        Runs once per interpreted block on the hot path: resolves
        straight off the store dict instead of one :meth:`require` call
        per reference."""
        store = self._store
        try:
            return [store[ref] for ref in dict.fromkeys(block.preds)]
        except KeyError as exc:
            raise MissingPredecessorError(
                f"block not in DAG: {exc.args[0][:8]}…"
            ) from None

    def __repr__(self) -> str:
        return f"BlockDag(|blocks|={len(self._store)}, |edges|={self.graph.edge_count()})"


class PrunedStubs(Mapping[BlockRef, Block]):
    """The stubs of the first ``count`` blocks a DAG payload-pruned, by
    ref in pruning order.  Pruning only adds to a DAG's pruned blocks
    and a stub never changes, so this is a snapshot that holds nothing
    of its own."""

    __slots__ = ("_dag", "_count")

    def __init__(self, dag: BlockDag, count: int) -> None:
        self._dag = dag
        self._count = count

    def __getitem__(self, ref: BlockRef) -> Block:
        if ref not in self:
            raise KeyError(ref)
        return self._dag.require(ref)

    def __contains__(self, ref: object) -> bool:
        return self._dag._pruned_payloads.get(ref, self._count) < self._count  # type: ignore[call-overload]

    def __iter__(self) -> Iterator[BlockRef]:
        return iter(self._dag._pruned_order[: self._count])

    def __len__(self) -> int:
        return self._count

    def added_since(self, earlier: Mapping[BlockRef, Block]) -> list[BlockRef] | None:
        """The refs pruned after ``earlier``, an older snapshot of the
        same DAG, read without looking at the ones before; ``None`` when
        ``earlier`` is no such snapshot."""
        if (
            isinstance(earlier, PrunedStubs)
            and earlier._dag is self._dag
            and earlier._count <= self._count
        ):
            return self._dag._pruned_order[earlier._count : self._count]
        return None
