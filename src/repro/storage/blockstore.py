"""Per-server durable storage: WAL + checkpoints + segment GC, one facade.

:class:`ServerStorage` is what the shim talks to.  It owns one
:class:`~repro.storage.wal.WriteAheadLog` (every inserted block,
appended as canonical bytes before the insertion takes effect) and one
:class:`~repro.storage.checkpoint.CheckpointManager` (the object log:
state objects named by their hash, and one root per checkpoint), and
coordinates the invariant that makes pruning crash-safe:

    a WAL segment is deleted only when the **root just written** — read
    back byte for byte with every object it needed that the store did
    not hold — reaches a skeleton for every block in the segment.

A skeleton object reachable from a retained root is never collected by
the store's GC (it marks everything the retained roots reach), so at
every instant (newest intact root) + (remaining WAL suffix)
reconstructs the full server state, no matter where a crash lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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

    #: Soft WAL segment capacity in bytes.
    segment_max_bytes: int = 64 * 1024
    #: Blocks interpreted between checkpoints.
    checkpoint_interval: int = 32
    #: Whether to GC states/payloads/segments below the stable frontier.
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

    #: Chain frames are flushed once they hold this many blocks even if
    #: no batch boundary arrived (bounds buffered memory; durability
    #: still precedes interpretation because flushes only ever happen
    #: earlier, never later, than the batch end).
    CHAIN_FRAME_MAX_BLOCKS = 64

    def __init__(self, directory: str | Path, config: StorageConfig | None = None) -> None:
        self.directory = Path(directory)
        self.config = config if config is not None else StorageConfig()
        self.wal = WriteAheadLog(
            self.directory / "wal",
            segment_max_bytes=self.config.segment_max_bytes,
            fsync=self.config.fsync,
        )
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
        #: Blocks appended since the last WAL flush, in insertion
        #: order.  One WAL record ("chain frame") is written per
        #: maximal same-builder run at flush time — the shim flushes at
        #: every gossip batch end, *before* interpretation, so a crash
        #: can only lose blocks that never had a visible effect.
        self._pending: list[Block] = []

    # -- queries -------------------------------------------------------------------

    def has_data(self) -> bool:
        """Whether anything durable exists to recover from."""
        return self.wal.size_bytes() > 0 or bool(self.checkpoints.sequences())

    # -- the write path ------------------------------------------------------------

    def append_block(self, block: Block) -> None:
        """Queue one inserted block for the WAL (chain-frame buffered).

        The caller contract is *flush before any visible effect*: the
        shim calls :meth:`flush_wal` at every gossip batch end, before
        the interpreter runs, so every interpreted (and a fortiori
        every checkpointed) block is durable.  Blocks buffered here and
        lost to a crash never had observable consequences — recovery
        treats them as never received and they re-arrive over gossip.
        """
        self._pending.append(block)
        if len(self._pending) >= self.CHAIN_FRAME_MAX_BLOCKS:
            self.flush_wal()

    def flush_wal(self) -> None:
        """Write buffered blocks as one WAL record per same-builder run.

        Framing a same-builder run as a single record amortizes the
        per-block record header/CRC/flush cost, and tagging it with the
        builder (``chain_key``) lets the WAL rotate segments on chain
        boundaries — which is what makes whole segments retire together
        under the GC horizon."""
        if not self._pending:
            return
        live_metrics = self.live_metrics
        if live_metrics is not None:
            _started = perf_counter()
        pending, self._pending = self._pending, []
        start = 0
        for i in range(1, len(pending) + 1):
            if i == len(pending) or pending[i].n != pending[start].n:
                run = pending[start:i]
                # A lone block keeps the bare-Block framing: the tuple
                # wrapper only pays for itself when it amortizes.
                payload = codec.encode(run[0] if len(run) == 1 else tuple(run))
                self.wal.append(
                    payload,
                    refs=[str(b.ref) for b in run],
                    chain_key=str(run[0].n),
                )
                if self.tracer.enabled:
                    self.tracer.emit(
                        "wal-append",
                        block=run[-1].ref,
                        bytes=len(payload),
                        blocks=len(run),
                        chain=str(run[0].n),
                    )
                start = i
        if live_metrics is not None:
            live_metrics.histogram("storage.wal-flush").observe(
                perf_counter() - _started
            )

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Persist a checkpoint, then GC WAL segments it fully covers.

        What was just appended to the object log — the objects the store
        lacked and the root — is read back and compared, byte for byte,
        with what was written before any segment is dropped: once those
        records are gone, this checkpoint's skeletons are the only copy
        of the pruned prefix, so GC must never act on a write the disk
        garbled.  A mismatch keeps the WAL; the next checkpoint cuts the
        garbled append off and appends its objects again.
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
        if intact and self.config.prune:
            self._drop_covered_segments(checkpoint)

    def _drop_covered_segments(self, checkpoint: Checkpoint) -> None:
        """Delete non-active segments whose every record is a block the
        checkpoint can stand in for *without replay* — i.e. pruned
        blocks with a stored skeleton.  Blocks with live annotations
        still need their full content from the WAL (children may read
        their ``rs``), so only skeleton coverage counts."""
        covered = set(checkpoint.skeletons)
        for segment in self.wal.segments():
            if segment.index == self.wal.active_index:
                continue
            if not segment.refs:
                # A segment this handle never wrote nor replayed: its
                # contents are unknown — keep it.
                continue
            if all(BlockRef(ref) in covered for ref in segment.refs):
                self.wal.drop_segment(segment.index)

    # -- the recovery path ---------------------------------------------------------

    def load_blocks(self) -> list[Block]:
        """Decode every WAL record, in append (= insertion) order.

        Also re-tags segments with the refs they hold so a recovered
        handle can make pruning decisions.
        """
        blocks: list[Block] = []
        segment_refs: dict[int, list[str]] = {}
        for index, payload in self.wal.replay():
            value = codec.decode(payload)
            # A record is either one block (legacy framing) or a chain
            # frame: a tuple of consecutive same-builder blocks.
            frame = (value,) if isinstance(value, Block) else value
            if not isinstance(frame, (tuple, list)) or not all(
                isinstance(b, Block) for b in frame
            ):
                raise StorageError(
                    f"WAL record in segment {index} decoded to "
                    f"{type(value).__name__}, expected Block or chain frame"
                )
            for block in frame:
                blocks.append(block)
                segment_refs.setdefault(index, []).append(str(block.ref))
        for segment in self.wal.segments():
            if segment.index in segment_refs:
                segment.refs = segment_refs[segment.index]
        return blocks

    def latest_checkpoint(self) -> Checkpoint | None:
        return self.checkpoints.latest()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush the chain-frame buffer, then close."""
        self.flush_wal()
        self.wal.close()

    def abandon(self) -> None:
        """Release the file handles and write nothing, as a crash does.
        Blocks still in the chain-frame buffer stay unwritten (a crash
        loses them: they never had a visible effect, see
        :meth:`append_block`); an object driven on writes them at its
        next flush, reopening the WAL."""
        self.wal.abandon()
