"""Per-server durable storage: WAL + checkpoints + record retirement, one facade.

:class:`ServerStorage` is what the shim talks to.  It owns one
:class:`~repro.storage.wal.WriteAheadLog` (every inserted block,
appended as canonical bytes before the insertion takes effect, one
block per record) and one
:class:`~repro.storage.checkpoint.CheckpointManager` (the object log:
state objects named by their hash, and one root per checkpoint), and
coordinates the invariant that makes pruning crash-safe:

    a block's WAL record is retired once **every retained root** — each
    read back byte for byte when it was written — reaches a skeleton
    for the block.

The store keeps two roots and recovery falls back to the older when
the newest does not load, so a record is retired only when the root
just written *and* the one before it cover it.  A skeleton object
reachable from a retained root is never collected by the store's GC
(it marks everything the retained roots reach), so at every instant
(any retained root that loads) + (the WAL's live records) reconstructs
the full server state, no matter where a crash lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.dag import codec
from repro.dag.block import Block
from repro.errors import StorageError
# The sanctioned wall-clock conduit (lint: no-wall-clock): timings taken
# here feed the attached MetricsRegistry only, never trace identity.
from repro.obs.metrics import perf_counter
from repro.obs.trace import NULL_RECORDER
from repro.storage.checkpoint import Checkpoint, CheckpointManager
from repro.storage.wal import WriteAheadLog
from repro.types import BlockRef

# Blocks must decode in a process that never encoded one.
codec.register_dataclass(Block)


@dataclass(frozen=True)
class StorageConfig:
    """Tunables of a server's persistence layer."""

    #: Blocks interpreted between checkpoints.
    checkpoint_interval: int = 32
    #: Whether to GC states/payloads/WAL records below the stable frontier.
    prune: bool = True
    #: Memory release exempts the last this-many checkpoints' cone
    #: (blocks interpreted since the K-th most recent checkpoint).
    #: Damps rehydration thrash: a block released the moment it is
    #: fully referenced is often re-read by a straggler a round later,
    #: forcing a checkpoint rehydration for zero memory benefit.
    #: ``0`` releases as aggressively as the rules allow (the old
    #: behavior).
    pin_recent_checkpoints: int = 2
    #: fsync WAL appends and checkpoint files (off: simulated crashes
    #: never lose the page cache).
    fsync: bool = False


class ServerStorage:
    """All durable state of one server, rooted at ``directory``."""

    def __init__(self, directory: str | Path, config: StorageConfig | None = None) -> None:
        self.directory = Path(directory)
        self.config = config if config is not None else StorageConfig()
        self.wal = WriteAheadLog(self.directory / "wal", fsync=self.config.fsync)
        # Two retained roots: recovery falls back to the older one when
        # the newest does not load.
        self.checkpoints = CheckpointManager(
            self.directory / "checkpoints", retain=2, fsync=self.config.fsync
        )
        #: What pruning removed from memory through this handle: the
        #: annotations released and the block payloads dropped (the
        #: shim adds each pass's :class:`~repro.storage.gc.PruneReport`).
        #: The WAL and the object log keep their own counters
        #: (``wal.stats``, ``checkpoints.writes`` and the rest).
        self.states_released = 0
        self.payloads_dropped = 0
        #: Flight recorder (``repro.obs``) — set by the shim when
        #: tracing is on; the no-op default keeps the write path at one
        #: attribute check.
        self.tracer = NULL_RECORDER
        #: Live-arm :class:`~repro.obs.metrics.MetricsRegistry` — set by
        #: the live node so WAL-flush / checkpoint-write latency lands
        #: in its exported snapshots (``storage.*`` histograms).
        self.live_metrics = None
        #: Blocks appended since the last WAL flush, in insertion order.
        #: The shim flushes at every gossip batch end, *before*
        #: interpretation, so a crash can only lose blocks that never
        #: had a visible effect.
        self._pending: list[Block] = []
        #: The WAL record of each block this handle appended or
        #: replayed and has not retired, by ref.
        self._records: dict[BlockRef, int] = {}
        #: The skeletons of the previous intact checkpoint write: with
        #: the one just written, the retained roots.  Empty on a fresh
        #: handle, so its first write retires nothing.
        self._covered: Mapping[BlockRef, object] = {}

    # -- queries -------------------------------------------------------------------

    def has_data(self) -> bool:
        """Whether anything durable exists to recover from."""
        return self.wal.size_bytes() > 0 or bool(self.checkpoints.sequences())

    # -- the write path ------------------------------------------------------------

    def append_block(self, block: Block) -> None:
        """Queue one inserted block for the WAL.

        The caller contract is *flush before any visible effect*: the
        shim calls :meth:`flush_wal` at every gossip batch end, before
        the interpreter runs, so every interpreted (and a fortiori
        every checkpointed) block is durable.  Blocks buffered here and
        lost to a crash never had observable consequences — recovery
        treats them as never received and they re-arrive over gossip.
        """
        self._pending.append(block)

    def flush_wal(self) -> None:
        """Write the buffered blocks, one WAL record each."""
        if not self._pending:
            return
        live_metrics = self.live_metrics
        if live_metrics is not None:
            _started = perf_counter()
        pending, self._pending = self._pending, []
        for block in pending:
            payload = codec.encode(block)
            self._records[block.ref] = self.wal.append(payload)
            if self.tracer.enabled:
                self.tracer.emit("wal-append", block=block.ref, bytes=len(payload))
        if live_metrics is not None:
            live_metrics.histogram("storage.wal-flush").observe(
                perf_counter() - _started
            )

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Persist a checkpoint, then retire the WAL records every
        retained root covers.

        What was just appended to the object log — the objects the store
        lacked and the root — is read back and compared, byte for byte,
        with what was written before any record is retired: once a
        record is gone, the retained roots' skeletons are the only copy
        of its block, so retirement must never act on a write the disk
        garbled.  A mismatch retires nothing; the next checkpoint cuts
        the garbled append off and appends its objects again.
        """
        # Invariant: a checkpoint never covers an unflushed block.  The
        # shim flushes before interpreting, so this is normally a
        # no-op; it makes direct callers safe too.
        self.flush_wal()
        live_metrics = self.live_metrics
        if live_metrics is not None:
            _started = perf_counter()
        intact = self.checkpoints.write(checkpoint)
        if live_metrics is not None:
            # Write plus read-back: the whole cost of making it durable.
            live_metrics.histogram("storage.checkpoint-write").observe(
                perf_counter() - _started
            )
        if not intact:
            return
        covered, skeletons = self._covered, checkpoint.skeletons
        self._covered = skeletons
        if self.config.prune:
            # Blocks, not skeletons, stand in for live annotations
            # (children may read their ``rs``), so only a skeleton in
            # both retained roots retires a record.
            retired = [ref for ref in self._records if ref in covered and ref in skeletons]
            self.wal.retire([self._records.pop(ref) for ref in retired])

    # -- the recovery path ---------------------------------------------------------

    def load_blocks(self) -> list[Block]:
        """Decode every live WAL record, in append (= insertion) order.

        A block met twice — the copy a compaction left when a crash
        came between its rename and its unlink — is retired as dead
        bytes and returned once.
        """
        blocks: list[Block] = []
        records: dict[BlockRef, int] = {}
        duplicates = []
        for number, payload in self.wal.replay():
            block = codec.decode(payload)
            if not isinstance(block, Block):
                raise StorageError(
                    f"WAL record {number} decoded to {type(block).__name__}, expected Block"
                )
            if block.ref in records:
                duplicates.append(number)
                continue
            records[block.ref] = number
            blocks.append(block)
        self._records.update(records)
        self.wal.retire(duplicates)
        return blocks

    def latest_checkpoint(self) -> Checkpoint | None:
        return self.checkpoints.latest()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush the buffered blocks, then close."""
        self.flush_wal()
        self.wal.close()

    def abandon(self) -> None:
        """Release the file handles and write nothing, as a crash does.
        Blocks still buffered stay unwritten (a crash loses them: they
        never had a visible effect, see :meth:`append_block`); an object
        driven on writes them at its next flush, reopening the WAL."""
        self.wal.abandon()
