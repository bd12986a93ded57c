"""Interpreter checkpoints — durable snapshots of ``BlockState`` at a frontier.

The paper's offline-interpretation property (Lemma 4.2 / Theorem 5.1)
makes the whole interpreter state a pure function of the DAG, so a
crashed server *could* recover by re-interpreting everything from
genesis.  Checkpoints trade a little disk for a lot of restart time:
a snapshot of the interpreted set plus every still-referenceable
block's annotations lets recovery replay only the suffix that was
interpreted after the snapshot.

A checkpoint carries:

* ``refs``       — the interpreted set ``I`` at snapshot time;
* ``states``     — per-block annotation entries (see below) for every
  block still above the agreed GC horizon — annotations the
  interpreter holds in memory *plus* released ones carried forward
  from the previous checkpoint so late references can rehydrate them;
* ``active``     — the per-block active-label sets (Algorithm 2 line 7
  inputs for future children);
* ``released``   — refs whose in-memory states were pruned before the
  snapshot (their entries, when still present in ``states``, exist for
  rehydration only and are not restored to memory on recovery);
* ``skeletons``  — ``(n, k, preds, sigma, hz)`` for payload-pruned
  blocks (below the agreed horizon), enough to rebuild the DAG vertex
  (and keep its signature verifiable — ``sign`` covers ``ref(B)``,
  which the skeleton preserves) after the WAL segments holding the
  full blocks are deleted;
* ``events``     — the indication history, so a recovered shim reports
  the same ledger its user saw before the crash;
* ``counters``   — interpreter metrics, for continuity of analysis.

A state entry is **delta-encoded** along the builder's chain: because
Algorithm 2 copies ``PIs`` from the parent and mutates copy-on-write,
a block's annotation differs from its parent's exactly on the block's
*own-label set* (the labels it stepped).  Entries therefore store only
the owned instances plus ``own`` and a ``base`` pointer to the parent
entry; the full map is reassembled by walking the chain.  Entries whose
parent has no entry in the same checkpoint (chain start, or parent
skeletonized below the horizon) are materialized in full.  This makes
checkpoint size proportional to work done, not blocks × labels.

A checkpoint pass — prune, capture, write — builds and encodes only
what changed since the last one (it still walks the rows it takes
over).  An annotation is a pure function of the DAG (Lemma 4.2), and so
are a block's skeleton, its delta base and an indication event, so
nothing the previous capture built is built again:

* a state entry is written the same way for as long as its ``base``
  stands, so capture takes it over with the canonical bytes kept on the
  ``Checkpoint`` (``encoded``), and it is encoded once per
  ``(ref, base)``;
* a *new* entry costs what its block wrote.  A state container
  (``list``/``dict``/``set``) of an interpreted block never changes
  again, so it is frozen straight to its canonical bytes in one walk,
  once per object (see :mod:`repro.storage.state_codec`), and every
  entry sharing it splices those bytes.  An entry's buffers are the
  runs the block's ``Ms`` keeps, already in ``<_M`` order (``out``
  joined in receiver order), so nothing is sorted; a message is encoded
  once per capture and its bytes are spliced into the entry;
* skeletons, event rows and parent refs are taken over, so only blocks
  pruned and events indicated since are built;
* the pruner examines the blocks the last checkpoint held in memory,
  never the whole DAG (:func:`repro.storage.gc.prunable_refs`).

The memos live on the ``Checkpoint`` (``memo``, a :class:`CaptureMemo`).
The container memo falls back to the previous capture's and keeps what
it reached, so the containers of the last two captures stay pinned and
a builder silent for longer is encoded afresh once.  Message bytes are
held only until their entry is first encoded: carried on, they would
pin every message of a capture between checkpoints for the few that
cross one.  A loaded checkpoint has no memo; the capture after it
builds everything once.

On disk, too, a checkpoint costs what changed.  Each server's
checkpoints form a log (:class:`CheckpointManager`): a CRC-framed full
checkpoint in the canonical codec — no pickle, same guarantees as the
WAL — followed by appended CRC-framed *deltas*.  A delta holds the new
and rebased ``states`` entries (spliced from ``encoded``) with their
``active`` rows, the refs whose entries left, the refs, released refs
and skeletons that were added (and the released refs that were
rehydrated since), an edit of ``events`` — the ones appended plus the
ones the released filter dropped — and the ``counters``.  Entries are
spliced from ``encoded`` in a delta and a full frame alike.  Skeletons
and events are encoded again in each full frame: their bytes, kept
between checkpoints, cost a long-running node more memory than the
encodes they save, and a full frame is written only once the deltas
outgrew the last one, so over a log its encodes are at most what the
deltas already wrote.  Reading the log folds the full frame and then every intact delta in order, and the
fold encodes to exactly the full frame a from-scratch write would
produce.  Once the deltas outgrow the full frame, the next checkpoint
starts a new log with a full frame.  Every frame is read back and
compared byte for byte with the bytes just written.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.dag import codec
from repro.dag.block import Block, parent_of
from repro.errors import CheckpointError, CodecError
from repro.storage.state_codec import ContainerMemo, restore_process, snapshot_process
from repro.types import BlockRef, Label, ServerId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dag.blockdag import BlockDag
    from repro.interpret.interpreter import Interpreter
    from repro.protocols.base import Message, ProtocolSpec

_FRAME = struct.Struct(">II")
_PREFIX = "ckpt-"
_SUFFIX = ".bin"
_TMP_SUFFIX = ".tmp"


@dataclass(frozen=True)
class BlockSkeleton:
    """Payload-free reconstruction info for a pruned block.

    ``hz`` (the horizon claim) survives skeletonization: claims are the
    input to horizon agreement, which must stay recomputable from a
    recovered DAG."""

    n: ServerId
    k: int
    preds: tuple[BlockRef, ...]
    sigma: bytes
    hz: tuple[tuple[ServerId, int], ...] = ()

    def to_block(self, ref: BlockRef) -> Block:
        """Rebuild the payload-pruned stub carrying its original ref."""
        from repro.crypto.signatures import Signature

        stub = Block(
            n=self.n, k=self.k, preds=self.preds, rs=(),
            sigma=Signature(self.sigma), hz=self.hz,
        )
        # ``ref(B)`` covers the dropped ``rs``; pin the original so the
        # stub keeps its identity (and its signature stays verifiable).
        stub.__dict__["ref"] = ref
        return stub


@dataclass
class CaptureMemo:
    """What one capture keeps for its write and for the next capture,
    so that each costs what changed.

    Never serialized: a loaded checkpoint has none, and the capture
    after it builds everything afresh once."""

    #: State containers the capture froze, each encoded once, by object
    #: identity (see :class:`~repro.storage.state_codec.ContainerMemo`).
    containers: ContainerMemo
    #: Per new entry, the bytes of its ``in`` and ``out`` messages in
    #: entry order — the bytes that ordered them — until the entry is
    #: first encoded.
    message_wires: dict[BlockRef, dict[str, dict[str, tuple[codec.Canonical, ...]]]]
    #: Each live ref's delta base candidate (:func:`_parent_ref`).
    parents: dict[BlockRef, BlockRef | None]
    #: The event list the capture read (the interpreter's, which only
    #: grows), how much of it, and for which ``owner``.
    event_source: list[Any]
    events_seen: int
    owner: ServerId | None


@dataclass
class Checkpoint:
    """One durable snapshot of a server's interpretation progress."""

    seq: int
    refs: frozenset[BlockRef]
    states: dict[BlockRef, dict[str, Any]]
    active: dict[BlockRef, tuple[Label, ...]]
    released: frozenset[BlockRef] = frozenset()
    skeletons: dict[BlockRef, BlockSkeleton] = field(default_factory=dict)
    events: tuple[tuple[Label, Any, ServerId, BlockRef], ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    #: Canonical bytes of ``states`` entries, by ref — a memo, not part
    #: of the snapshot.  An entry never changes once written (Lemma
    #: 4.2), so a capture that takes an entry over from ``previous``
    #: takes its bytes too and the entry is encoded once in its life.
    #: Lives and dies with this object; a loaded checkpoint has none.
    encoded: dict[BlockRef, bytes] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: What the capture that built this checkpoint kept for its write
    #: and for the next capture; ``None`` on a loaded checkpoint.
    memo: CaptureMemo | None = field(default=None, repr=False, compare=False)

    def state_bytes(self, ref: BlockRef) -> bytes:
        """Canonical encoding of ``states[ref]``, encoded at most once;
        the messages of a captured entry are spliced from the bytes its
        capture ordered them by."""
        data = self.encoded.get(ref)
        if data is None:
            entry = self.states[ref]
            wires = None if self.memo is None else self.memo.message_wires.pop(ref, None)
            if wires is not None:
                entry = {**entry, **wires}
            data = self.encoded[ref] = codec.encode(entry)
        return data


def _ordered(
    runs: "Mapping[Label, tuple[Message, ...]]",
    memo: "dict[int, tuple[Message, codec.Canonical]]",
) -> "tuple[dict[str, tuple[Message, ...]], dict[str, tuple[codec.Canonical, ...]]]":
    """One side of an entry's buffers, each label's run in ``<_M`` order
    as the buffers keep it (see :mod:`repro.interpret.buffers`), and the
    canonical bytes of its messages.  ``memo`` holds the bytes of every
    message the capture met, so a message that is in one block's ``out``
    and another's ``in`` is encoded once."""
    ordered: dict[str, tuple[Message, ...]] = {}
    wires: dict[str, tuple[codec.Canonical, ...]] = {}
    for label, run in runs.items():
        run_wires = []
        for message in run:
            held = memo.get(id(message))
            if held is None:
                held = memo[id(message)] = (
                    message, codec.Canonical(codec.encode(message))
                )
            run_wires.append(held[1])
        ordered[str(label)] = run
        wires[str(label)] = tuple(run_wires)
    return ordered, wires


def _parent_ref(dag: "BlockDag", ref: BlockRef) -> BlockRef | None:
    """The delta base for ``ref``'s state entry: the same parent the
    interpreter's copy-on-write used (the shared rule of
    :func:`repro.dag.block.parent_of` over the same deduplicated,
    reference-ordered predecessor list)."""
    block = dag.require(ref)
    parent = parent_of(block, dag.predecessors(block))
    return None if parent is None else parent.ref


def _merged_pis(
    states: dict[BlockRef, dict[str, Any]], ref: BlockRef
) -> dict[str, Any]:
    """A ref's full wire-form ``PIs``, reassembled along its delta chain
    (nearest-owner-wins, so the walk mirrors copy-on-write sharing)."""
    entry = states[ref]
    merged = dict(entry["pis"])
    base = entry.get("base")
    while base is not None:
        parent = states[base]
        for lbl, snapshot in parent["pis"].items():
            merged.setdefault(lbl, snapshot)
        base = parent.get("base")
    return merged


def _materialize_entry(
    states: dict[BlockRef, dict[str, Any]], ref: BlockRef
) -> dict[str, Any]:
    """A self-contained (``base=None``) copy of one delta entry —
    needed when its base is about to leave the checkpoint (skeletonized
    below the agreed horizon)."""
    entry = states[ref]
    return {**entry, "pis": _merged_pis(states, ref), "base": None}


def capture_checkpoint(
    seq: int,
    interpreter: "Interpreter",
    dag: "BlockDag",
    owner: ServerId | None = None,
    previous: "Checkpoint | None" = None,
) -> Checkpoint:
    """Snapshot an interpreter's current state into a checkpoint.

    ``owner`` bounds event-history growth: events for blocks pruned
    below the stable frontier are dropped *except* those indicated on
    behalf of the owning server — the user-visible ledger a recovered
    shim must re-report.  Without pruning (or without ``owner``) the
    full history is kept.

    ``previous`` enables the coordinated-GC carry-forward: annotations
    of blocks released from memory but still above the agreed horizon
    (payload intact) are copied from the previous checkpoint's entries,
    so late references can rehydrate them until the horizon agreement
    retires them for good.  Entries for payload-pruned blocks become
    skeletons, and any carried entry whose delta base was just retired
    is materialized in full first.

    ``previous`` also bounds the work to what changed since it was
    taken.  A live block whose entry is in ``previous.states`` with the
    same ``base`` keeps that entry object and the bytes ``previous``
    memoised for it; only refs interpreted (or rehydrated) since and
    refs whose base just left the checkpoint are snapshotted; of those,
    only the containers ``previous.memo`` has not seen are encoded, and
    each message once.  Each skeleton, event row and parent ref is
    taken over, so only blocks pruned and events indicated since
    ``previous`` are built.
    """
    memo = None if previous is None else previous.memo
    released = interpreter.released
    live = list(interpreter.resident())
    carried = []
    if previous is not None:
        carried = [
            ref for ref in previous.states
            if ref in released and not dag.payload_pruned(ref)
        ]
    planned = set(live)
    planned.update(carried)
    containers = ContainerMemo(None if memo is None else memo.containers)
    messages: dict[int, tuple[Message, codec.Canonical]] = {}
    message_wires: dict[BlockRef, Any] = {}
    known_parents = {} if memo is None else memo.parents
    parents: dict[BlockRef, BlockRef | None] = {}
    states: dict[BlockRef, dict[str, Any]] = {}
    active: dict[BlockRef, tuple[Label, ...]] = {}
    for ref in live:
        parent = (
            known_parents[ref] if ref in known_parents else _parent_ref(dag, ref)
        )
        parents[ref] = parent
        base = parent if parent in planned else None
        entry = None if previous is None else previous.states.get(ref)
        if entry is not None and entry.get("base") == base:
            # Interpreted once, annotated for good: the entry written
            # last time is the entry a re-freeze would produce.
            states[ref] = entry
            active[ref] = previous.active[ref]  # type: ignore[union-attr]
            continue
        state = interpreter.state_of(ref)
        own = interpreter.own_labels(ref)
        labels = own if base is not None else state.pis.keys()
        # Raw slot read: ``state.ms`` would materialize the lazily
        # allocated buffers for every message-less block on every
        # checkpoint, defeating the laziness exactly where it pays.
        runs = state._ms.runs() if state._ms is not None else {"in": {}, "out": {}}
        received, received_wires = _ordered(runs["in"], messages)
        emitted, emitted_wires = _ordered(runs["out"], messages)
        states[ref] = {
            "pis": {
                str(lbl): snapshot_process(state.pis[lbl], containers)
                for lbl in sorted(labels)
            },
            "in": received,
            "out": emitted,
            "own": tuple(sorted(str(lbl) for lbl in own)),
            "base": base,
        }
        message_wires[ref] = {"in": received_wires, "out": emitted_wires}
        active[ref] = tuple(sorted(interpreter.active_labels(ref)))
    for ref in carried:
        entry = previous.states[ref]  # type: ignore[union-attr]
        if entry.get("base") is not None and entry["base"] not in planned:
            entry = _materialize_entry(previous.states, ref)  # type: ignore[union-attr]
        states[ref] = entry
        active[ref] = previous.active[ref]  # type: ignore[union-attr]
    # The fallback served this capture only: unlinked, each memo dies
    # with its checkpoint instead of chaining back to the first.
    containers.older = None
    # An entry taken over as the same object brings its bytes along.
    encoded = (
        {}
        if previous is None
        else {
            ref: data
            for ref, data in previous.encoded.items()
            if states.get(ref) is previous.states[ref]
        }
    )
    return Checkpoint(
        seq=seq,
        refs=frozenset(interpreter.interpreted),
        states=states,
        active=active,
        released=frozenset(released),
        skeletons=_capture_skeletons(dag, previous),
        events=_capture_events(interpreter, owner, previous),
        encoded=encoded,
        memo=CaptureMemo(
            containers=containers,
            message_wires=message_wires,
            parents=parents,
            event_source=interpreter.events,
            events_seen=len(interpreter.events),
            owner=owner,
        ),
        counters={
            "blocks_interpreted": interpreter.blocks_interpreted,
            "messages_delivered": interpreter.messages_delivered,
            "messages_materialized": interpreter.messages_materialized,
            "request_steps": interpreter.request_steps,
            "rehydrated": interpreter.rehydrated,
            "chain_runs": interpreter.chain_runs,
            "chain_blocks": interpreter.chain_blocks,
        },
    )


def _capture_skeletons(
    dag: "BlockDag", previous: "Checkpoint | None"
) -> dict[BlockRef, BlockSkeleton]:
    """A skeleton per payload-pruned block: ``previous``'s, and a new
    one for each block pruned since.  A skeleton is a function of its
    block, so a kept one is the one a rebuild would make."""
    pruned = dag.pruned_payloads
    kept = {} if previous is None else previous.skeletons
    skeletons = {ref: s for ref, s in kept.items() if ref in pruned}
    for ref in pruned.difference(kept):
        block = dag.require(ref)
        skeletons[ref] = BlockSkeleton(
            n=block.n, k=block.k, preds=block.preds,
            sigma=bytes(block.sigma), hz=block.hz,
        )
    return skeletons


_EventRow = tuple[Label, Any, ServerId, BlockRef]


def _capture_events(
    interpreter: "Interpreter",
    owner: ServerId | None,
    previous: "Checkpoint | None",
) -> tuple[_EventRow, ...]:
    """The event rows a capture keeps: every indication except those of
    released blocks on behalf of other servers than ``owner``.

    The interpreter's event list only grows, so the rows of the events
    ``previous`` read are ``previous``'s own rows, refiltered.  A block
    rehydrated since brings back rows ``previous`` dropped; then every
    row is built afresh, as with no ``previous``."""
    released = interpreter.released
    events = interpreter.events
    rows: list[_EventRow] = []
    seen = 0
    memo = None if previous is None else previous.memo
    if (
        previous is not None
        and memo is not None
        and memo.event_source is events
        and memo.owner == owner
        and previous.released <= released
    ):
        seen = memo.events_seen
        gone = released - previous.released
        rows.extend(
            row for row in previous.events if row[3] not in gone or row[2] == owner
        )
    rows.extend(
        (event.label, event.indication, event.server, event.block_ref)
        for event in events[seen:]
        if event.block_ref not in released or event.server == owner
    )
    return tuple(rows)


def restore_block_state(
    checkpoint: Checkpoint,
    protocol: "ProtocolSpec",
    servers: "tuple[ServerId, ...]",
    ref: BlockRef,
) -> "tuple[Any, frozenset[Label], frozenset[Label]] | None":
    """Rehydrate one block's annotation from a covering checkpoint.

    Returns ``(BlockState, active labels, own labels)`` — the triple
    the interpreter needs to resume reading the block as a predecessor
    — or ``None`` when the checkpoint no longer holds the entry (the
    agreed horizon retired it; referencing it is condemned instead).
    """
    from repro.interpret.instance import BlockState

    entry = checkpoint.states.get(ref)
    if entry is None:
        return None
    state = BlockState()
    for lbl_str, snapshot in _merged_pis(checkpoint.states, ref).items():
        state.pis[Label(lbl_str)] = restore_process(protocol, servers, snapshot)
    for lbl_str, messages in entry["in"].items():
        state.ms.add_in(Label(lbl_str), messages)
    for lbl_str, messages in entry["out"].items():
        state.ms.add_out(Label(lbl_str), messages)
    active = frozenset(Label(l) for l in checkpoint.active.get(ref, ()))
    own = frozenset(Label(l) for l in entry.get("own", ()))
    return state, active, own


def install_checkpoint(
    checkpoint: Checkpoint,
    interpreter: "Interpreter",
    protocol: "ProtocolSpec",
) -> int:
    """Load a checkpoint into a *fresh* interpreter.

    The DAG must already contain every checkpointed ref (recovery
    rebuilds it from skeletons + WAL first).  Returns the number of
    block states restored.
    """
    from repro.interpret.instance import BlockState
    from repro.interpret.interpreter import IndicationEvent

    if interpreter.interpreted:
        raise CheckpointError("refusing to install into a non-fresh interpreter")
    missing = [ref for ref in checkpoint.refs if ref not in interpreter.dag]
    if missing:
        raise CheckpointError(
            f"checkpoint references {len(missing)} blocks absent from the "
            f"rebuilt DAG (first: {missing[0][:8]}…)"
        )
    # Delta entries reference their parent's entry; walk each builder's
    # chain bottom-up so a child's base is restored (or at least
    # merge-able at the wire level) before the child.  Entries for
    # *released* refs are carried for rehydration only — they are not
    # restored to memory, preserving the memory bound across a restart.
    order = sorted(
        checkpoint.states,
        key=lambda r: (
            interpreter.dag.require(r).n,
            interpreter.dag.require(r).k,
            r,
        ),
    )
    restored = 0
    for ref in order:
        if ref in checkpoint.released:
            continue
        entry = checkpoint.states[ref]
        base = entry.get("base")
        state = BlockState()
        if base is not None and base in interpreter._states:
            # Share the base's restored instances, exactly like the
            # live copy-on-write discipline (Algorithm 2 line 4).
            state.pis = dict(interpreter._states[base].pis)
            pis_wire = entry["pis"]
        else:
            pis_wire = _merged_pis(checkpoint.states, ref)
        for lbl_str, snapshot in pis_wire.items():
            state.pis[Label(lbl_str)] = restore_process(
                protocol, interpreter.servers, snapshot
            )
        for lbl_str, messages in entry["in"].items():
            state.ms.add_in(Label(lbl_str), messages)
        for lbl_str, messages in entry["out"].items():
            state.ms.add_out(Label(lbl_str), messages)
        interpreter._states[ref] = state
        interpreter._own_labels[ref] = frozenset(
            Label(l) for l in entry.get("own", ())
        )
        labels = frozenset(Label(l) for l in checkpoint.active.get(ref, ()))
        # Route through the interpreter's intern pool so restored
        # annotations share active-set objects with live ones (the
        # line-7 gather's identity fast path).
        interpreter._active_labels[ref] = interpreter._active_pool.setdefault(
            labels, labels
        )
        restored += 1
    interpreter.interpreted |= set(checkpoint.refs)
    interpreter.released |= set(checkpoint.released)
    interpreter.events.extend(
        IndicationEvent(label, indication, server, block_ref)
        for (label, indication, server, block_ref) in checkpoint.events
    )
    for name, value in checkpoint.counters.items():
        setattr(interpreter, name, value)
    # The interpreted set just grew behind the scheduler's back: pending
    # in-degree counts computed while the DAG was being rebuilt are now
    # stale.  One linear resync and the ready queue holds exactly the
    # post-checkpoint suffix (incremental mode; no-op otherwise).
    interpreter.resync_schedule()
    return restored


# -- persistence ---------------------------------------------------------------


class CheckpointManager:
    """Keeps one server's checkpoints as append-only logs in one directory.

    A *generation* is one file, ``ckpt-<seq>.bin``, named after the
    checkpoint its first frame holds.  Every frame is ``length | CRC32 |
    payload``.  Frame 0 is a full checkpoint; each later frame is a
    delta taking what the frames before it fold to onto the next
    checkpoint (see the module docstring), appended in place.

    *Compaction.*  Once the deltas appended to the newest generation
    together outgrow its full frame, the next write starts a new
    generation: a full frame written atomically (temp file + rename, so
    a crash mid-write leaves the previous generation intact; the temp
    file such a crash leaves behind is removed the next time the
    directory is opened).  After it, all but the newest ``retain``
    generations are deleted.  The first write of a manager is a full
    frame too, so a delta is only ever taken against a checkpoint this
    manager wrote and read back — never against one that recovery
    folded, trimmed or fell back to.

    Every frame is read back and compared with the bytes just written
    before :meth:`write` reports it durable; a frame that fails the
    comparison ends its generation, and the next write starts a new
    one.  With ``fsync`` a full frame's temp file is synced before the
    rename and the directory after it, and an appended frame is synced
    in place, so the frame is durable before anyone deletes WAL records
    on the strength of it.
    """

    def __init__(
        self, directory: str | Path, retain: int = 2, fsync: bool = False
    ) -> None:
        if retain < 1:
            raise ValueError(f"must retain at least one checkpoint, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = retain
        self.fsync = fsync
        #: Checkpoints written (full frames and deltas alike) and the
        #: bytes actually written for them.
        self.writes = 0
        self.bytes_written = 0
        #: ``states`` entries of the checkpoints written, and how many
        #: of them arrived with their bytes already encoded (taken over
        #: from the previous checkpoint).
        self.entries_written = 0
        self.entries_reused = 0
        #: The checkpoint the newest generation folds to, when this
        #: manager wrote it and read it back — the next delta's base —
        #: and that generation's file.
        self._tip: tuple[Checkpoint, Path] | None = None
        #: Size of that generation's full frame, and of the deltas
        #: appended to it since.
        self._base_bytes = 0
        self._delta_bytes = 0
        #: Highest sequence number written or folded here.
        self._seq = 0
        for stale in self.directory.glob(f"{_PREFIX}*{_TMP_SUFFIX}"):
            stale.unlink(missing_ok=True)

    def _path(self, seq: int) -> Path:
        return self.directory / f"{_PREFIX}{seq:08d}{_SUFFIX}"

    def sequences(self) -> list[int]:
        """Sequence numbers of the stored generations (each one's full
        frame), oldest first."""
        result = []
        for path in self.directory.glob(f"{_PREFIX}*{_SUFFIX}"):
            try:
                result.append(int(path.name[len(_PREFIX) : -len(_SUFFIX)]))
            except ValueError:
                continue
        return sorted(result)

    def next_seq(self) -> int:
        """Sequence number the next written checkpoint should carry."""
        sequences = self.sequences()
        if sequences and self._seq < sequences[-1]:
            # Nothing here wrote or folded the newest generation yet:
            # its deltas may number past its name.
            self.latest()
        return max(self._seq, sequences[-1] if sequences else 0) + 1

    def write(self, checkpoint: Checkpoint) -> bool:
        """Persist a checkpoint — as a delta appended to the newest
        generation, or as a full frame starting a new one — and read
        the frame back.

        Returns whether the file holds exactly the frame that was
        written.  Only then are older generations pruned — and only
        then may the caller treat the checkpoint as durable.
        """
        self.writes += 1
        self.entries_written += len(checkpoint.states)
        self.entries_reused += len(checkpoint.encoded)
        tip, self._tip = self._tip, None
        if tip is not None and self._delta_bytes <= self._base_bytes:
            previous, path = tip
            delta = _delta(previous, checkpoint)
            if delta is not None:
                return self._append(checkpoint, path, codec.encode(delta))
        return self._write_full(checkpoint)

    def _write_full(self, checkpoint: Checkpoint) -> bool:
        payload = codec.encode(_to_wire(checkpoint))
        header = _FRAME.pack(len(payload), zlib.crc32(payload))
        path = self._path(checkpoint.seq)
        tmp = path.with_suffix(_TMP_SUFFIX)
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        tmp.replace(path)
        if self.fsync:
            self._sync_directory()
        if not self._commit(checkpoint, path, header, payload, 0):
            return False
        self._base_bytes = len(header) + len(payload)
        self._delta_bytes = 0
        for seq in self.sequences()[: -self.retain]:
            self._path(seq).unlink(missing_ok=True)
        return True

    def _append(self, checkpoint: Checkpoint, path: Path, payload: bytes) -> bool:
        header = _FRAME.pack(len(payload), zlib.crc32(payload))
        with open(path, "ab") as handle:
            offset = handle.tell()
            handle.write(header)
            handle.write(payload)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if not self._commit(checkpoint, path, header, payload, offset):
            return False
        self._delta_bytes += len(header) + len(payload)
        return True

    def _commit(
        self,
        checkpoint: Checkpoint,
        path: Path,
        header: bytes,
        payload: bytes,
        offset: int,
    ) -> bool:
        """Count a frame just written and, when it reads back, make its
        checkpoint the next delta's base."""
        self.bytes_written += len(header) + len(payload)
        self._seq = max(self._seq, checkpoint.seq)
        if not self._reads_back(path, header, payload, offset):
            return False
        self._tip = (checkpoint, path)
        return True

    def _sync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @staticmethod
    def _reads_back(
        path: Path, header: bytes, payload: bytes, offset: int = 0
    ) -> bool:
        """Whether ``path`` holds ``header + payload`` from ``offset`` on
        and nothing after it.

        The header carries the payload's length and CRC, so equal bytes
        are a frame the fold accepts; comparing them catches any write
        the disk garbled without decoding anything."""
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                return handle.read(len(header)) == header and handle.read() == payload
        except OSError:
            return False

    def _fold(self, seq: int, until: int | None = None) -> tuple[Checkpoint, str]:
        """Fold generation ``seq`` frame by frame, through the frame
        holding checkpoint ``until`` or else through its last intact
        frame.

        Returns the fold and why the frames after it were not read
        (``""`` when none were left).  Every way the *full* frame can
        fail to yield a checkpoint — torn, failing its CRC, or intact
        bytes that do not decode in this process — is a
        :class:`CheckpointError`; a delta frame failing the same ways
        ends the log instead."""
        data = self._path(seq).read_bytes()
        payload, offset = _read_frame(data, 0, f"checkpoint {seq}")
        checkpoint = _decoded(f"checkpoint {seq}", _from_wire, payload)
        frame = 0
        why = ""
        while offset < len(data) and checkpoint.seq != until:
            frame += 1
            name = f"frame {frame} of checkpoint log {seq}"
            try:
                payload, offset = _read_frame(data, offset, name)
                checkpoint = _decoded(name, _apply, payload, checkpoint)
            except CheckpointError as exc:
                why = str(exc)
                break
        self._seq = max(self._seq, checkpoint.seq)
        return checkpoint, why

    def load(self, seq: int) -> Checkpoint:
        """Checkpoint ``seq``, folded from the generation that holds it.

        A :class:`CheckpointError` when that generation's full frame
        does not load or its log ends before ``seq``."""
        bases = [base for base in self.sequences() if base <= seq]
        if not bases:
            raise CheckpointError(f"no checkpoint log holds checkpoint {seq}")
        checkpoint, why = self._fold(bases[-1], until=seq)
        if checkpoint.seq != seq:
            raise CheckpointError(
                f"checkpoint {seq} is not in its log ({why or 'the log ends first'})"
            )
        return checkpoint

    def latest(self) -> Checkpoint | None:
        """The newest generation folded through its last intact frame,
        or ``None``.

        A torn or CRC-failing delta ends the log, so a crash mid-append
        yields the checkpoint before it; a newest generation whose full
        frame does not load falls back to the next-newest.
        """
        for seq in reversed(self.sequences()):
            try:
                return self._fold(seq)[0]
            except CheckpointError:
                continue
        return None


def _read_frame(data: bytes, offset: int, name: str) -> tuple[bytes, int]:
    """The payload of the frame at ``offset`` and the offset after it."""
    if len(data) - offset < _FRAME.size:
        raise CheckpointError(f"{name} truncated")
    length, crc = _FRAME.unpack_from(data, offset)
    start = offset + _FRAME.size
    payload = data[start : start + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise CheckpointError(f"{name} failed its integrity check")
    return payload, start + length


def _decoded(
    name: str, build: Callable[..., Checkpoint], payload: bytes, *args: Any
) -> Checkpoint:
    """``build(*args, wire)`` over a decoded payload; intact bytes that
    do not decode into a checkpoint in this process are a
    :class:`CheckpointError`.  Bytes that decode to values of the wrong
    shape — a list where a map belongs, a short tuple, a sequence
    number that is no ``int`` — are intact bytes that do not decode."""
    try:
        checkpoint = build(*args, codec.decode(payload))
        if type(checkpoint.seq) is not int:
            raise TypeError(f"sequence number {checkpoint.seq!r}")
        return checkpoint
    except (CodecError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{name} does not decode: {exc}") from exc


def _delta(old: Checkpoint, new: Checkpoint) -> dict[str, Any] | None:
    """The delta frame taking ``old`` to ``new``, or ``None`` when
    ``new`` lost a ref or a skeleton ``old`` had (only a full frame
    says that).

    Entries and ``active`` rows are compared by identity: a capture
    takes unchanged ones over as the same objects.  A skeleton is a
    function of its block, so only refs new to ``skeletons`` are
    written."""
    if not (
        old.refs <= new.refs and old.skeletons.keys() <= new.skeletons.keys()
    ):
        return None
    unreleased = old.released - new.released
    return {
        "seq": new.seq,
        "states": {
            str(ref): codec.Canonical(new.state_bytes(ref))
            for ref, entry in new.states.items()
            if old.states.get(ref) is not entry
        },
        "active": {
            str(ref): _active_wire(row)
            for ref, row in new.active.items()
            if old.active.get(ref) is not row
        },
        "states_left": sorted(old.states.keys() - new.states.keys()),
        "active_left": sorted(old.active.keys() - new.active.keys()),
        "refs": sorted(new.refs - old.refs),
        "released": sorted(new.released - old.released),
        "unreleased": sorted(unreleased),
        "skeletons": {
            str(ref): _skeleton_wire(new.skeletons[ref])
            for ref in new.skeletons.keys() - old.skeletons.keys()
        },
        "events": _event_edit(old.events, new.events, unreleased),
        "counters": new.counters,
    }


def _event_edit(
    before: tuple[Any, ...], after: tuple[Any, ...], unreleased: frozenset[BlockRef]
) -> list[Any]:
    """Ops taking ``before`` to ``after``: ``n > 0`` keeps the next
    ``n`` events, ``n < 0`` skips ``-n`` of them and a tuple inserts
    one event.

    Exact for any two lists.  It is short for the lists two captures
    make: ``after`` is ``before`` without the events whose blocks were
    released since, with the events of blocks rehydrated since
    (``unreleased``) back in place, and with the new events appended.
    """
    if after[: len(before)] == before:
        ops: list[Any] = [len(before)] if before else []
        ops.extend(_event_wire(event) for event in after[len(before) :])
        return ops
    ops = []

    def run(n: int) -> None:
        if ops and isinstance(ops[-1], int) and (ops[-1] > 0) == (n > 0):
            ops[-1] += n
        else:
            ops.append(n)

    i = 0
    for event in after:
        if event[3] not in unreleased:
            while i < len(before) and before[i] != event:
                run(-1)
                i += 1
        if i < len(before) and before[i] == event:
            run(1)
            i += 1
        else:
            ops.append(_event_wire(event))
    if i < len(before):
        run(i - len(before))
    return ops


def _apply(checkpoint: Checkpoint, delta: dict[str, Any]) -> Checkpoint:
    """The checkpoint a delta frame takes ``checkpoint`` to — a new
    object, so a delta that does not decode leaves the fold as it was."""
    left = {BlockRef(ref) for ref in delta["states_left"]}
    states = {r: e for r, e in checkpoint.states.items() if r not in left}
    states.update((BlockRef(ref), entry) for ref, entry in delta["states"].items())
    left = {BlockRef(ref) for ref in delta["active_left"]}
    active = {r: a for r, a in checkpoint.active.items() if r not in left}
    active.update(
        (BlockRef(ref), _active_from_wire(row)) for ref, row in delta["active"].items()
    )
    released = checkpoint.released - {BlockRef(r) for r in delta["unreleased"]}
    skeletons = dict(checkpoint.skeletons)
    skeletons.update(
        (BlockRef(ref), _skeleton_from_wire(s)) for ref, s in delta["skeletons"].items()
    )
    events: list[Any] = []
    at = 0
    for op in delta["events"]:
        if isinstance(op, int):
            if op > 0:
                events.extend(checkpoint.events[at : at + op])
            at += abs(op)
        else:
            events.append(_event_from_wire(op))
    if at != len(checkpoint.events):
        raise ValueError(
            f"event edit covers {at} of {len(checkpoint.events)} events"
        )
    return Checkpoint(
        seq=delta["seq"],
        refs=checkpoint.refs | {BlockRef(r) for r in delta["refs"]},
        states=states,
        active=active,
        released=released | {BlockRef(r) for r in delta["released"]},
        skeletons=skeletons,
        events=tuple(events),
        counters=dict(delta["counters"]),
    )


def _active_wire(labels: tuple[Label, ...]) -> tuple[str, ...]:
    return tuple(str(label) for label in labels)


def _active_from_wire(labels: Any) -> tuple[Label, ...]:
    return tuple(Label(label) for label in labels)


def _skeleton_wire(s: BlockSkeleton) -> tuple[Any, ...]:
    return (
        str(s.n),
        s.k,
        tuple(str(p) for p in s.preds),
        s.sigma,
        tuple((str(sv), k) for sv, k in s.hz),
    )


def _skeleton_from_wire(wire: Any) -> BlockSkeleton:
    n, k, preds, sigma, hz = wire
    return BlockSkeleton(
        n=ServerId(n),
        k=k,
        preds=tuple(BlockRef(p) for p in preds),
        sigma=sigma,
        hz=tuple((ServerId(sv), ck) for sv, ck in hz),
    )


def _event_wire(event: tuple[Label, Any, ServerId, BlockRef]) -> tuple[Any, ...]:
    label, indication, server, block_ref = event
    return (str(label), indication, str(server), str(block_ref))


def _event_from_wire(wire: Any) -> tuple[Label, Any, ServerId, BlockRef]:
    label, indication, server, block_ref = wire
    return (Label(label), indication, ServerId(server), BlockRef(block_ref))


def _to_wire(checkpoint: Checkpoint) -> dict[str, Any]:
    return {
        "seq": checkpoint.seq,
        "refs": sorted(checkpoint.refs),
        # Spliced from the per-entry memo: an entry taken over from the
        # previous checkpoint is not encoded again.
        "states": {
            str(ref): codec.Canonical(checkpoint.state_bytes(ref))
            for ref in checkpoint.states
        },
        "active": {str(k): _active_wire(v) for k, v in checkpoint.active.items()},
        "released": sorted(checkpoint.released),
        "skeletons": {
            str(ref): _skeleton_wire(s) for ref, s in checkpoint.skeletons.items()
        },
        "events": tuple(_event_wire(event) for event in checkpoint.events),
        "counters": checkpoint.counters,
    }


def _from_wire(wire: dict[str, Any]) -> Checkpoint:
    return Checkpoint(
        seq=wire["seq"],
        refs=frozenset(BlockRef(r) for r in wire["refs"]),
        states={BlockRef(k): v for k, v in wire["states"].items()},
        active={BlockRef(k): _active_from_wire(v) for k, v in wire["active"].items()},
        released=frozenset(BlockRef(r) for r in wire["released"]),
        skeletons={
            BlockRef(ref): _skeleton_from_wire(s)
            for ref, s in wire["skeletons"].items()
        },
        events=tuple(_event_from_wire(event) for event in wire["events"]),
        counters=dict(wire["counters"]),
    )
