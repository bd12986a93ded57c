"""Restart-from-disk: rebuild a shim's entire state from WAL + checkpoint.

This is the executable form of the paper's §7 observation that the
block DAG *is* the durable log: because interpretation is a pure
function of the DAG (Lemma 4.2), a crashed server recovers by

1. rebuilding the DAG — payload-pruned skeletons from the latest
   checkpoint first, then every WAL record in append (= original
   insertion) order;
2. installing the checkpointed annotations, so the prefix interpreted
   before the snapshot is *restored*, not recomputed;
3. replaying interpretation only for the suffix inserted after the
   snapshot (Algorithm 2 resumes from its ``interpreted`` set);
4. re-adopting its own chain tip (consecutive sequence numbers, §7) and
   re-accumulating references to foreign blocks its next block still
   owes (Algorithm 1 line 8's invariant, reconstructed from the DAG).

The recovered server then continues gossiping exactly where it left
off; blocks disseminated while it was down arrive through the normal
pipeline and FWD chasing.  Theorem 5.1 across a crash — the integration
tests assert the recovered server's annotations are byte-identical to
an uninterrupted peer's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.checkpoint import Checkpoint, install_checkpoint
from repro.types import BlockRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.shim.shim import Shim


@dataclass
class RecoveryReport:
    """What one restart-from-disk did."""

    checkpoint_seq: int | None = None
    #: Blocks inserted from the WAL (not those a skeleton stood for).
    blocks_recovered: int = 0
    skeletons_inserted: int = 0
    states_restored: int = 0
    blocks_replayed: int = 0
    indications_restored: int = 0
    chain_resumed: bool = False
    foreign_refs_readopted: int = 0
    #: Checkpoint refs dropped because neither the WAL nor the skeletons
    #: could rebuild their blocks (WAL suffix loss past the last record,
    #: possible without fsync).  The trimmed blocks re-arrive through
    #: normal gossip and are re-interpreted.
    refs_trimmed: int = 0
    #: The checkpoint recovery installed (so the shim can resume its
    #: pruning bookkeeping without re-reading the file), or ``None``.
    checkpoint: Checkpoint | None = field(default=None, repr=False)


def recover_shim_state(shim: "Shim") -> RecoveryReport:
    """Rebuild ``shim``'s DAG, interpreter and builder from its storage.

    Must run on a *fresh* shim (empty DAG, fresh interpreter) whose
    storage directory holds a previous incarnation's WAL/checkpoints.
    """
    storage = shim.storage
    if storage is None:
        raise StorageError("shim has no storage to recover from")
    report = RecoveryReport()
    checkpoint = storage.latest_checkpoint()
    blocks = storage.load_blocks()

    # A crash between flush and disk (no fsync) can lose a WAL suffix
    # beyond the final record, leaving the checkpoint referencing
    # blocks nothing can rebuild.  Recover the maximal consistent
    # durable prefix: trim the checkpoint to what WAL + skeletons can
    # reconstruct.  Lost records are a contiguous *tail* of the log, so
    # no surviving block references a trimmed one; the trimmed blocks
    # come back over gossip and are re-interpreted.
    if checkpoint is not None:
        available = {b.ref for b in blocks} | set(checkpoint.skeletons)
        checkpoint, report.refs_trimmed = _trim_to_available(
            checkpoint, available
        )

    # 1. DAG skeleton prefix (payload-pruned blocks whose WAL records
    #    may already be retired), then the WAL in insertion order.
    if checkpoint is not None:
        report.checkpoint_seq = checkpoint.seq
        report.checkpoint = checkpoint
        # The suffix replay (step 3) may hit blocks referencing states
        # the previous incarnation had already released — carried in
        # the checkpoint for exactly this purpose.  The shim's
        # rehydrator reads ``_last_checkpoint``, so it must be in place
        # *before* interpretation resumes, not only after construction
        # finishes.
        shim._last_checkpoint = checkpoint
        report.skeletons_inserted = _insert_skeletons(shim, checkpoint)
    # A record retired before the crash but not yet compacted away is
    # still replayed; its skeleton came first, so it is skipped here
    # and not counted.
    for block in blocks:
        if block.ref not in shim.dag:
            shim.dag.insert(block)
            report.blocks_recovered += 1

    # 2. Restore the interpreted prefix from the checkpoint.
    if checkpoint is not None:
        report.states_restored = install_checkpoint(
            checkpoint, shim.interpreter, shim.protocol
        )
        for event in checkpoint.events:
            if event.server == shim.server:
                # Restored, not re-fired: the user saw these before the
                # crash (only the replayed suffix below re-fires).
                shim._deliver(event.label, event.indication)
                report.indications_restored += 1

    # 3. Replay only the suffix (new indications flow to the shim's
    #    handler exactly as during live interpretation).
    before = shim.interpreter.blocks_interpreted
    shim.interpreter.run()
    report.blocks_replayed = shim.interpreter.blocks_interpreted - before

    # 4. Resume the builder: own chain tip + still-unreferenced foreign
    #    blocks (in original insertion order, so the next sealed block
    #    references them exactly as the pre-crash block would have).
    report.chain_resumed = shim.gossip.builder.continue_after(
        shim.dag.tip(shim.server)
    )
    report.foreign_refs_readopted = _readopt_foreign_refs(shim, blocks)
    return report


def _trim_to_available(
    checkpoint: Checkpoint, available: set[BlockRef]
) -> tuple[Checkpoint, int]:
    """Restrict a checkpoint to refs whose blocks are reconstructible:
    every skeleton is, so only rows are dropped.

    The per-block contributions to the message/request counters are not
    recorded, so after a lossy recovery those metrics over-report by the
    trimmed blocks' re-interpreted work.  Counters are analysis aids,
    never inputs to protocol logic.
    """
    missing = checkpoint.states.keys() - available
    if not missing:
        return checkpoint, 0
    trimmed = Checkpoint(
        seq=checkpoint.seq,
        states={r: v for r, v in checkpoint.states.items() if r not in missing},
        carried=checkpoint.carried - missing,
        skeletons=checkpoint.skeletons,
        events=tuple(e for e in checkpoint.events if e.block_ref not in missing),
        counters=checkpoint.counters,
        rows={r: name for r, name in checkpoint.rows.items() if r not in missing},
        objects=checkpoint.objects,
    )
    return trimmed, len(missing)


def _insert_skeletons(shim: "Shim", checkpoint: Checkpoint) -> int:
    """Insert payload-pruned stubs, topologically ordered among
    themselves (the pruned region is down-closed by construction).

    Kahn worklist over the skeleton subgraph — O(skeletons + edges),
    matching the interpreter's incremental scheduler, instead of a
    fixpoint rescan of the remaining set per inserted stub."""
    skeletons = checkpoint.skeletons
    pending: dict[BlockRef, int] = {}
    waiters: dict[BlockRef, list[BlockRef]] = {}
    ready: deque[BlockRef] = deque()
    for ref, skeleton in skeletons.items():
        blocking = 0
        for pred in dict.fromkeys(skeleton.preds):
            if pred in shim.dag:
                continue
            if pred not in skeletons:
                raise StorageError(
                    f"checkpoint skeleton {ref[:8]}… has a predecessor "
                    f"outside the pruned region and outside the DAG"
                )
            blocking += 1
            waiters.setdefault(pred, []).append(ref)
        if blocking:
            pending[ref] = blocking
        else:
            ready.append(ref)
    inserted = 0
    while ready:
        ref = ready.popleft()
        shim.dag.insert(skeletons[ref])
        shim.dag.drop_payload(ref)
        inserted += 1
        for waiter in waiters.pop(ref, ()):
            pending[waiter] -= 1
            if pending[waiter] == 0:
                del pending[waiter]
                ready.append(waiter)
    if pending:
        raise StorageError(
            f"checkpoint skeletons are not down-closed: "
            f"{len(pending)} unresolvable"
        )
    return inserted


def _readopt_foreign_refs(shim: "Shim", blocks: list) -> int:
    """Re-add foreign blocks the pre-crash builder had accumulated but
    never sealed into a block (Algorithm 1 line 8, reconstructed)."""
    referenced: set[BlockRef] = set()
    for own in shim.dag.by_server(shim.server):
        referenced.update(own.preds)
    readopted = 0
    for block in blocks:
        if block.n == shim.server or block.ref in referenced:
            continue
        if shim.gossip.builder.add_pred(block.ref):
            readopted += 1
    return readopted
