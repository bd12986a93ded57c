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

Files are written atomically (temp + rename) with a CRC-protected frame
and the canonical codec — no pickle, same guarantees as the WAL.

A checkpoint costs what changed since the last one.  An annotation is
a pure function of the DAG (Lemma 4.2), so a state entry, once written,
is written the same way for as long as its ``base`` stands: capture
takes such entries over from the previous checkpoint instead of
re-freezing them, and each entry's canonical bytes are kept on the
``Checkpoint`` object (``encoded``) and spliced into the next file, so
an entry is encoded once per ``(ref, base)``.  A *new* entry costs what
its block wrote: a state container (``list``/``dict``/``set``) of an
interpreted block never changes again, so it is frozen and encoded once
per object (``frozen``, see :mod:`repro.storage.state_codec`) and every
entry sharing it splices those bytes.  That memo lives on the
``Checkpoint`` too; a capture falls back to the previous one's and keeps
what it reached, so the containers of the last two captures stay pinned
and a builder silent for longer is encoded afresh once.  The file is
then read back and compared byte for byte with the frame just written.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.dag import codec
from repro.dag.block import Block, parent_of
from repro.errors import CheckpointError, CodecError
from repro.interpret.order import ordered
from repro.storage.state_codec import ContainerMemo, restore_process, snapshot_process
from repro.types import BlockRef, Label, ServerId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dag.blockdag import BlockDag
    from repro.interpret.interpreter import Interpreter
    from repro.protocols.base import ProtocolSpec

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
    #: The state containers this capture reached, frozen and encoded, by
    #: object identity — sound because an interpreted block's containers
    #: are never written again, bounded because the next capture takes
    #: only what it still reaches and this object is then dropped.
    #: Never serialized; empty on a loaded checkpoint.
    frozen: ContainerMemo = field(
        default_factory=ContainerMemo, repr=False, compare=False
    )

    def state_bytes(self, ref: BlockRef) -> bytes:
        """Canonical encoding of ``states[ref]``, encoded at most once."""
        data = self.encoded.get(ref)
        if data is None:
            data = self.encoded[ref] = codec.encode(self.states[ref])
        return data


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

    ``previous`` also bounds the work: a live block whose entry is in
    ``previous.states`` with the same ``base`` is not frozen again —
    the entry object, and with it the bytes ``previous`` memoised for
    it, is taken over.  Only refs interpreted since ``previous`` and
    refs whose base just left the checkpoint are snapshotted, and of
    those only the containers ``previous.frozen`` has not seen.
    """
    live = [
        ref for ref in interpreter.interpreted
        if ref not in interpreter.released
    ]
    carried = []
    if previous is not None:
        carried = [
            ref for ref in interpreter.released
            if ref in previous.states and not dag.payload_pruned(ref)
        ]
    planned = set(live) | set(carried)
    frozen = ContainerMemo(None if previous is None else previous.frozen)
    states: dict[BlockRef, dict[str, Any]] = {}
    active: dict[BlockRef, tuple[Label, ...]] = {}
    for ref in live:
        parent = _parent_ref(dag, ref)
        base = parent if (parent is not None and parent in planned) else None
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
        buffers = (
            state._ms.snapshot()
            if state._ms is not None
            else {"in": {}, "out": {}}
        )
        states[ref] = {
            "pis": {
                str(lbl): snapshot_process(state.pis[lbl], frozen)
                for lbl in sorted(labels)
            },
            "in": {str(lbl): tuple(ordered(msgs))
                   for lbl, msgs in buffers["in"].items()},
            "out": {str(lbl): tuple(ordered(msgs))
                    for lbl, msgs in buffers["out"].items()},
            "own": tuple(sorted(str(lbl) for lbl in own)),
            "base": base,
        }
        active[ref] = tuple(sorted(interpreter.active_labels(ref)))
    for ref in carried:
        entry = previous.states[ref]  # type: ignore[union-attr]
        if entry.get("base") is not None and entry["base"] not in planned:
            entry = _materialize_entry(previous.states, ref)  # type: ignore[union-attr]
        states[ref] = entry
        active[ref] = previous.active[ref]  # type: ignore[union-attr]
    # The fallback served this capture only: unlinked, each memo dies
    # with its checkpoint instead of chaining back to the first.
    frozen.older = None
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
    skeletons = {
        ref: BlockSkeleton(
            n=block.n, k=block.k, preds=block.preds,
            sigma=bytes(block.sigma), hz=block.hz,
        )
        for ref in dag.pruned_payloads
        for block in (dag.require(ref),)
    }
    events = tuple(
        (event.label, event.indication, event.server, event.block_ref)
        for event in interpreter.events
        if event.block_ref not in interpreter.released or event.server == owner
    )
    return Checkpoint(
        seq=seq,
        refs=frozenset(interpreter.interpreted),
        states=states,
        active=active,
        released=frozenset(interpreter.released),
        skeletons=skeletons,
        events=events,
        encoded=encoded,
        frozen=frozen,
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
    """Writes, lists and loads checkpoint files in one directory.

    ``retain`` bounds disk use: after a successful write, all but the
    newest ``retain`` checkpoints are deleted.  Writes are atomic
    (temp file + rename), so a crash mid-checkpoint leaves the previous
    checkpoint intact and recovery simply uses it; the temp file such a
    crash leaves behind is removed the next time the directory is
    opened.  With ``fsync`` the temp file is synced before the rename
    and the directory after it, so the rename is durable before anyone
    deletes WAL records on the strength of the new file.
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
        self.writes = 0
        self.bytes_written = 0
        #: ``states`` entries written, and how many of them arrived
        #: with their bytes already encoded (taken over from the
        #: previous checkpoint).
        self.entries_written = 0
        self.entries_reused = 0
        for stale in self.directory.glob(f"{_PREFIX}*{_TMP_SUFFIX}"):
            stale.unlink(missing_ok=True)

    def _path(self, seq: int) -> Path:
        return self.directory / f"{_PREFIX}{seq:08d}{_SUFFIX}"

    def sequences(self) -> list[int]:
        """Sequence numbers of stored checkpoints, oldest first."""
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
        return (sequences[-1] + 1) if sequences else 1

    def write(self, checkpoint: Checkpoint) -> bool:
        """Persist a checkpoint atomically and read it back.

        Returns whether the file holds exactly the frame that was
        written.  Only then are older checkpoints pruned — and only
        then may the caller treat the file as durable.
        """
        reused = len(checkpoint.encoded)
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
        self.writes += 1
        self.bytes_written += len(header) + len(payload)
        self.entries_written += len(checkpoint.states)
        self.entries_reused += reused
        if not self._reads_back(path, header, payload):
            return False
        for seq in self.sequences()[: -self.retain]:
            self._path(seq).unlink(missing_ok=True)
        return True

    def _sync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @staticmethod
    def _reads_back(path: Path, header: bytes, payload: bytes) -> bool:
        """Whether ``path`` holds ``header + payload`` and nothing else.

        The header carries the payload's length and CRC, so equal bytes
        are a frame :meth:`load` accepts; comparing them catches any
        write the disk garbled without decoding anything."""
        try:
            with open(path, "rb") as handle:
                return handle.read(len(header)) == header and handle.read() == payload
        except OSError:
            return False

    def load(self, seq: int) -> Checkpoint:
        """Read and verify one checkpoint.

        Every way the file can fail to yield a checkpoint — torn,
        failing its CRC, or intact bytes that do not decode in this
        process — is a :class:`CheckpointError`, so :meth:`latest` can
        fall back to an older one."""
        data = self._path(seq).read_bytes()
        if len(data) < _FRAME.size:
            raise CheckpointError(f"checkpoint {seq} truncated")
        length, crc = _FRAME.unpack_from(data, 0)
        payload = data[_FRAME.size : _FRAME.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise CheckpointError(f"checkpoint {seq} failed its integrity check")
        try:
            return _from_wire(codec.decode(payload))
        except (CodecError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {seq} does not decode: {exc}") from exc

    def latest(self) -> Checkpoint | None:
        """The newest *intact* checkpoint, or ``None``.

        A corrupt or torn newest file (crash mid-rename is impossible,
        but disks happen) falls back to the next-newest.
        """
        for seq in reversed(self.sequences()):
            try:
                return self.load(seq)
            except CheckpointError:
                continue
        return None


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
        "active": {str(k): tuple(str(l) for l in v) for k, v in checkpoint.active.items()},
        "released": sorted(checkpoint.released),
        "skeletons": {
            str(ref): (
                str(s.n),
                s.k,
                tuple(str(p) for p in s.preds),
                s.sigma,
                tuple((str(sv), k) for sv, k in s.hz),
            )
            for ref, s in checkpoint.skeletons.items()
        },
        "events": tuple(
            (str(label), indication, str(server), str(block_ref))
            for (label, indication, server, block_ref) in checkpoint.events
        ),
        "counters": checkpoint.counters,
    }


def _from_wire(wire: dict[str, Any]) -> Checkpoint:
    return Checkpoint(
        seq=wire["seq"],
        refs=frozenset(BlockRef(r) for r in wire["refs"]),
        states={BlockRef(k): v for k, v in wire["states"].items()},
        active={
            BlockRef(k): tuple(Label(l) for l in v)
            for k, v in wire["active"].items()
        },
        released=frozenset(BlockRef(r) for r in wire["released"]),
        skeletons={
            BlockRef(ref): BlockSkeleton(
                n=ServerId(n),
                k=k,
                preds=tuple(BlockRef(p) for p in preds),
                sigma=sigma,
                hz=tuple((ServerId(sv), ck) for sv, ck in hz),
            )
            for ref, (n, k, preds, sigma, hz) in wire["skeletons"].items()
        },
        events=tuple(
            (Label(label), indication, ServerId(server), BlockRef(block_ref))
            for (label, indication, server, block_ref) in wire["events"]
        ),
        counters=dict(wire["counters"]),
    )
