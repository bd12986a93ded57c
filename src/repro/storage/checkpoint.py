"""Interpreter checkpoints — content-addressed snapshots of ``BlockState``.

Interpretation is a pure function of the DAG (Lemma 4.2), so a crashed
server could re-interpret from genesis; a checkpoint lets it restore
the interpreted prefix and replay only the suffix.  A checkpoint holds
one *row* per block still above the agreed GC horizon in ``states`` —
a *live* row per resident annotation, and a *carried* row per released
one, kept so late references can rehydrate it; a *skeleton* per
payload-pruned block — the DAG's own stub (``n, k, preds, sigma, hz``:
the vertex, its signature still verifiable, after its WAL record is
retired); the indication ``events``; and the interpreter ``counters``.
Nothing else: the interpreted refs are the rows and the skeletons, and
the released ones the carried rows and the skeletons.

State is stored the way blocks are, as *objects*, each its canonical
bytes named by their hash (:mod:`repro.storage.state_codec`), of four
kinds: process instances, mutable state containers, rows and chain
chunks.  A row is an annotation, ``PIs`` and ``Ms`` and nothing else:
``(ref, base, labels, pis, in, out)``.  It names the instances of the
labels its block stepped — the labels of its ``Ms[out]``, which lines 6
and 11 fill for every stepped label — with a ``base`` pointer to its
parent's row (Algorithm 2 copies ``PIs`` from the parent,
copy-on-write); a row whose parent has no row names every label.  Its
``Ms`` runs it holds itself: under each label, the messages in ``<_M``
order, or ``None``.  A run belongs to its one block, so it is no object
of its own.  The history sections — ``skeletons`` and ``events`` — are
*chains* of chunk objects, each chunk naming the one before it and
holding what its checkpoint added; a section that lost something
starts a new chain.  A checkpoint on disk is one *root*: ``seq``, the
counters, its live and carried row names and the two chain heads.

A capture costs what changed: it takes over every row whose base
stands, names every object the previous capture met without encoding
it (the write barrier is the only place state changes), reads the
skeletons off the DAG without copying them and extends each chain by
what its section gained, and the store appends only objects it lacks
(:class:`CheckpointManager`).  What it does encode, it encodes once
(:class:`ObjectWriter`): a container of scalars equal to one met in the
capture takes that one's name, an instance's class and attribute names
come from bytes built once per layout, and the bytes of a message and
of a run are kept — :class:`CaptureMemo` — until the row that wrote
them first leaves, so each server encodes each once, and a row
rewritten when its base leaves joins bytes already held.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.crypto.hashing import DIGEST_SIZE, digester
from repro.dag import codec
from repro.dag.block import Block, parent_of
from repro.dag.blockdag import PrunedStubs
from repro.errors import CheckpointError, CodecError
from repro.interpret.order import ServerKeys
from repro.protocols.base import Message
from repro.storage.state_codec import (
    ObjectWriter,
    object_links,
    object_name,
    object_value,
    restore_process,
)
from repro.storage.wal import LogFiles
from repro.types import BlockRef, Label, ServerId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dag.blockdag import BlockDag
    from repro.interpret.instance import BlockState
    from repro.interpret.interpreter import IndicationEvent, Interpreter
    from repro.protocols.base import ProtocolSpec

_FRAME = struct.Struct(">II")
#: A frame's payload: kind, name, bytes.
_OBJECT = b"o"
_ROOT = b"r"
_KINDS = (_OBJECT, _ROOT)
#: Where a frame may start after damage: a byte that could be its kind.
_KIND_BYTE = re.compile(b"[or]")
_HEAD = 1 + DIGEST_SIZE
#: The name of a root record's bytes, under a hash domain of its own.
root_name = digester("repro/checkpoint-root")
_PREFIX = "ckpt-"
_SUFFIX = ".bin"

#: The history sections, each kept as a chain of chunks.
SECTIONS = ("skeletons", "events")

#: What a bad object or root raises while it is decoded and walked.
_SHAPE_ERRORS = (CodecError, AttributeError, LookupError, TypeError, ValueError)


@dataclass
class CaptureMemo:
    """What one capture keeps for the next; a loaded checkpoint has
    none, and the capture after it encodes its new rows afresh once."""

    #: ``id -> (object, name)`` of every instance and container named.
    names: dict[int, tuple[Any, bytes]]
    #: ``id -> bytes`` of every message and run a capture wrote, and
    #: the messages and runs each retained row wrote first: held there,
    #: so their ids are not reused, until that row leaves.
    encodings: dict[int, bytes]
    first_written: dict[BlockRef, list[Any]]
    #: Each live ref's base candidate (:func:`_parent_ref`).
    parents: dict[BlockRef, BlockRef | None]
    #: The interpreter's event list (it only grows) and how much of it
    #: the capture read.
    event_source: list[Any]
    events_seen: int


#: The interpreter counters a checkpoint carries.  Install restores
#: these by name and ignores any other key, such as a counter an older
#: version wrote and this one no longer keeps.
COUNTERS = ("messages_delivered", "messages_materialized", "request_steps", "rehydrated")


@dataclass
class _Objects:
    """A capture's objects — those it built, as bytes until written —
    in front of ``older``."""

    built: dict[bytes, bytes]
    #: The names each built object refers to, as the writer kept them.
    links: dict[bytes, tuple[bytes, ...]]
    older: Any = None

    def __getitem__(self, name: bytes) -> Any:
        if name in self.built:
            return object_value(self.built[name])
        if self.older is None:
            raise CheckpointError(f"object {name.hex()[:8]}… is nowhere")
        return self.older[name]


@dataclass
class Checkpoint:
    """One durable snapshot of a server's interpretation progress."""

    seq: int
    #: Every row's entry, live and carried: ``pis`` maps each label it
    #: names to its instance's name, ``in`` and ``out`` each label to
    #: its run, and ``base`` is the parent whose row it extends.
    states: dict[BlockRef, dict[str, Any]]
    #: The rows of released blocks, carried for rehydration.
    carried: frozenset[BlockRef] = frozenset()
    #: The payload-pruned stub of every block below the rows
    #: (:meth:`Block.stub`).
    skeletons: Mapping[BlockRef, Block] = field(default_factory=dict)
    events: tuple["IndicationEvent", ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    #: Each row's object name, and each history section's chain head
    #: (``None``: an empty section), as a capture or a load sets them.
    rows: dict[BlockRef, bytes] = field(default_factory=dict, repr=False, compare=False)
    chains: dict[str, bytes | None] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Reads the rows' objects by name: the store's, once written or
    #: loaded.
    objects: Any = field(
        default_factory=lambda: _Objects({}, {}), repr=False, compare=False
    )
    memo: CaptureMemo | None = field(default=None, repr=False, compare=False)
    #: The rows' instances held in memory, by name: rehydration takes
    #: them as they are (an interpreted block's are never written again)
    #: instead of reading the store.
    values: dict[bytes, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def refs(self) -> frozenset[BlockRef]:
        """The refs interpreted at capture: every row and skeleton."""
        return frozenset(self.states).union(self.skeletons)

    @property
    def released(self) -> frozenset[BlockRef]:
        """The refs released at capture: every carried row and
        skeleton."""
        return self.carried.union(self.skeletons)


def _parent_ref(dag: "BlockDag", ref: BlockRef) -> BlockRef | None:
    """The base for ``ref``'s row: the parent the interpreter's
    copy-on-write used (:func:`repro.dag.block.parent_of`)."""
    block = dag.require(ref)
    parent = parent_of(block, dag.predecessors(block))
    return None if parent is None else parent.ref


def _merged_pis(
    states: dict[BlockRef, dict[str, Any]], ref: BlockRef
) -> dict[str, bytes]:
    """A ref's full ``PIs`` as instance names, along its base chain
    (nearest owner wins, as copy-on-write shares)."""
    entry = states[ref]
    merged = dict(entry["pis"])
    while entry["base"] is not None:
        entry = states[entry["base"]]
        for lbl, name in entry["pis"].items():
            merged.setdefault(lbl, name)
    return merged


def capture_checkpoint(
    seq: int,
    interpreter: "Interpreter",
    dag: "BlockDag",
    previous: "Checkpoint | None" = None,
) -> Checkpoint:
    """Snapshot an interpreter's current state into a checkpoint.

    ``previous`` carries the rows of blocks released from memory but
    still above the agreed horizon (payload intact), so late references
    can rehydrate them; a row whose base was just retired names every
    label.  It also bounds the work to what changed since: a live row
    with the same base is taken over, a row whose base left names its
    parent's instances from ``previous``, and only the objects
    ``previous`` did not meet are encoded.
    """
    memo = None if previous is None else previous.memo
    # Copies: a capture that fails part way leaves the memo it read
    # as it was.
    writer = ObjectWriter(*(() if memo is None else (memo.names, dict(memo.encodings))))
    resident = interpreter.resident()
    live = list(resident)
    kept: dict[BlockRef, dict[str, Any]] = {}
    carried = []
    if previous is not None:
        kept = previous.states
        # A kept row is an interpreted block's: released when it is not
        # resident, and carried while its payload stands.
        carried = [
            ref for ref in kept if ref not in resident and not dag.payload_pruned(ref)
        ]
    planned = set(live)
    planned.update(carried)
    older = {} if previous is None else previous.values
    values: dict[bytes, Any] = {}
    parents = {} if memo is None else memo.parents
    first_written = {} if memo is None else dict(memo.first_written)
    encoded = writer.encoded
    states: dict[BlockRef, dict[str, Any]] = {}
    rows: dict[BlockRef, bytes] = {}
    instance = writer.instance
    for ref in (*live, *carried):
        if ref not in parents:
            parents[ref] = _parent_ref(dag, ref)
        parent = parents[ref]
        base = parent if parent in planned else None
        entry = kept.get(ref)
        if entry is not None and (base is None or entry["base"] == base or ref not in resident):
            if entry["base"] not in (base, None):
                # Its base left: the same annotation, every label named.
                entry = {**entry, "pis": _merged_pis(kept, ref), "base": None}
            for name in entry["pis"].values():
                if name in older:
                    values[name] = older[name]
            states[ref] = entry
            if entry is kept[ref]:
                # Interpreted once, annotated for good.
                rows[ref] = previous.rows[ref]  # type: ignore[union-attr]
                continue
        else:
            state = interpreter.state_of(ref)
            # Raw slot read: ``state.ms`` would allocate the lazy buffers.
            runs = (
                state._ms.runs(interpreter.server_keys) if state._ms is not None
                else {"in": {}, "out": {}}
            )
            # Line 4 shares the parent's instances: with its row at hand,
            # a row that names every label takes their names from it, and
            # names anew only the labels its block stepped — those of its
            # ``Ms[out]``.
            pis = {}
            if base is None and parent in kept:
                pis = _merged_pis(kept, parent)  # type: ignore[arg-type]
                values.update((n, older[n]) for n in pis.values() if n in older)
            labels = runs["out"].keys() if base is not None or pis else state.pis.keys()
            for lbl in sorted(labels):
                name = instance(state.pis[lbl])
                values[name] = state.pis[lbl]
                pis[str(lbl)] = name
            entry = states[ref] = {
                "pis": pis, "in": dict(runs["in"]), "out": runs["out"], "base": base,
            }
        start = len(encoded)
        rows[ref] = _row(writer, ref, entry)
        if len(encoded) > start:
            first_written[ref] = [*first_written.get(ref, ()), *encoded[start:]]
    # A message's bytes go with the row that wrote it first: the block
    # that emits a message leaves before the blocks that receive it,
    # and no row written later holds it.  A run's go with its row.
    for ref in [ref for ref in first_written if ref not in states]:
        for value in first_written.pop(ref):
            writer.encodings.pop(id(value), None)
    events = interpreter.events
    fresh = None
    if memo is not None and memo.event_source is events:
        fresh = events[memo.events_seen :]
    elif previous is not None and tuple(events[: len(previous.events)]) == previous.events:
        # A loaded checkpoint's, once per incarnation: recovery put its
        # events first.
        fresh = events[len(previous.events) :]
    checkpoint = Checkpoint(
        seq=seq,
        states=states,
        carried=frozenset(carried),
        skeletons=dag.pruned_stubs(),
        events=tuple(events) if fresh is None else previous.events + tuple(fresh),  # type: ignore[union-attr]
        counters={name: getattr(interpreter, name) for name in COUNTERS},
        rows=rows,
        values=values,
        objects=_Objects(writer.built, writer.links, previous and previous.objects),
    )
    checkpoint.chains = _chains(writer, checkpoint, previous, fresh)
    checkpoint.memo = CaptureMemo(
        names=writer.reached,
        encodings=writer.encodings,
        first_written=first_written,
        parents={ref: parents[ref] for ref in states},
        event_source=events,
        events_seen=len(events),
    )
    return checkpoint


def _row(writer: ObjectWriter, ref: BlockRef, entry: dict[str, Any]) -> bytes:
    """Write one row object: ref, base, the labels it holds and, per
    label, the name of its ``pis`` instance and its ``in`` and ``out``
    runs (messages in ``<_M`` order), each ``None`` where it has none.
    The labels are those of the annotation alone, so a row's bytes do
    not depend on how many labels its past requested.  A row refers to
    its instances and to nothing else: its runs are its own."""
    pis = entry["pis"]
    labels = tuple(sorted({*pis, *entry["in"], *entry["out"]}))
    none, run = writer.scalar(None), writer.run
    # The bytes of ``(str(ref), base, labels, pis, in, out)``.
    parts = [
        codec.tuple_head(6), writer.scalar(str(ref)), writer.scalar(entry["base"]),
        writer.scalars(labels), writer.scalars([pis.get(label) for label in labels]),
    ]
    for side in ("in", "out"):
        runs = entry[side]
        parts.append(codec.tuple_head(len(labels)))
        parts.extend(none if label not in runs else run(runs[label]) for label in labels)
    return writer.put(b"".join(parts), list(pis.values()))


def _chains(
    writer: ObjectWriter,
    checkpoint: Checkpoint,
    previous: Checkpoint | None = None,
    fresh_events: Any = None,
) -> dict[str, bytes | None]:
    """Each history section's chain head: ``previous``'s extended by a
    chunk of what was added, or — when it has no chain, the section
    lost something since, or the new events are not given — a new
    chain of one chunk."""
    heads = {} if previous is None else previous.chains

    def extend(head: bytes | None, wires: list[Any]) -> bytes | None:
        if not wires:
            return head
        return writer.put(codec.encode((head, tuple(wires))), () if head is None else (head,))

    skeletons = checkpoint.skeletons
    head, added = None, None
    if "skeletons" in heads:
        added = _added(skeletons, previous.skeletons)  # type: ignore[union-attr]
        if added is not None:
            head = heads["skeletons"]
    chains = {"skeletons": extend(head, [
        _skeleton_wire(ref, skeletons[ref]) for ref in sorted(skeletons if added is None else added)
    ])}
    head, events = None, checkpoint.events
    if "events" in heads and fresh_events is not None:
        head, events = heads["events"], fresh_events
    chains["events"] = extend(head, [_event_wire(e) for e in events])
    return chains


def _added(skeletons: Mapping[BlockRef, Block], before: Mapping[BlockRef, Block]) -> list[BlockRef] | None:
    """The refs of ``skeletons`` that ``before`` lacks, or ``None`` when
    ``before`` holds one ``skeletons`` lacks: read off the DAG when both
    are its snapshots (:meth:`BlockDag.pruned_stubs`), else compared —
    once per incarnation, against the checkpoint it loaded."""
    if isinstance(skeletons, PrunedStubs):
        added = skeletons.added_since(before)
        if added is not None:
            return added
    if not all(ref in skeletons for ref in before):
        return None
    return [ref for ref in skeletons if ref not in before]


def restore_block_state(
    checkpoint: Checkpoint,
    protocol: "ProtocolSpec",
    servers: "tuple[ServerId, ...]",
    ref: BlockRef,
) -> "BlockState | None":
    """Rehydrate one block's annotation from a covering checkpoint, or
    ``None`` when the checkpoint no longer holds the row (the agreed
    horizon retired it; referencing it is condemned instead)."""
    entry = checkpoint.states.get(ref)
    if entry is None:
        return None
    restore = _Restorer(checkpoint, protocol, servers)
    return restore.block({}, _merged_pis(checkpoint.states, ref), entry)


class _Restorer:
    """Rebuilds annotations from a checkpoint: an instance it holds in
    memory is taken as it is, any other is restored from its object
    once — an interpreted block's instances are never written again, so
    blocks share them as copy-on-write does — and the runs are the
    row's own.  What it restores enters the checkpoint's memo, so the
    next capture names it without encoding it."""

    def __init__(
        self,
        checkpoint: Checkpoint,
        protocol: "ProtocolSpec",
        servers: "tuple[ServerId, ...]",
    ) -> None:
        self.load = checkpoint.objects.__getitem__
        self.protocol, self.servers = protocol, servers
        self.values = checkpoint.values
        self.named = None if checkpoint.memo is None else checkpoint.memo.names
        self.keys: ServerKeys = {}

    def block(self, pis: dict, names: dict[str, bytes], entry: dict[str, Any]) -> "BlockState":
        from repro.interpret.instance import BlockState

        state = BlockState()
        state.pis = pis
        for lbl_str, name in names.items():
            instance = self.values.get(name)
            if instance is None:
                instance = self.values[name] = restore_process(
                    self.protocol, self.servers, self.load(name), self.load, self.named
                )
            if self.named is not None:
                self.named[id(instance)] = (instance, name)
            pis[Label(lbl_str)] = instance
        for lbl_str, run in entry["in"].items():
            state.ms.add_in(Label(lbl_str), run, self.keys)
        for lbl_str, run in entry["out"].items():
            state.ms.add_out(Label(lbl_str), run, self.keys)
        return state


def install_checkpoint(
    checkpoint: Checkpoint,
    interpreter: "Interpreter",
    protocol: "ProtocolSpec",
) -> int:
    """Load a checkpoint into a *fresh* interpreter whose DAG already
    holds every checkpointed ref (recovery rebuilds it from skeletons +
    WAL first).  Returns the number of block states restored."""
    if interpreter.interpreted:
        raise CheckpointError("refusing to install into a non-fresh interpreter")
    refs = checkpoint.refs
    missing = [ref for ref in refs if ref not in interpreter.dag]
    if missing:
        raise CheckpointError(
            f"checkpoint references {len(missing)} blocks absent from the "
            f"rebuilt DAG (first: {missing[0][:8]}…)"
        )
    # Each builder's chain bottom-up, so a base is restored before its
    # child.  Carried rows are for rehydration only: they stay out of
    # memory, preserving the memory bound across a restart.
    dag = interpreter.dag
    order = sorted(checkpoint.states, key=lambda r: (dag.require(r).n, dag.require(r).k, r))
    restore = _Restorer(checkpoint, protocol, interpreter.servers)
    restored = 0
    for ref in order:
        if ref in checkpoint.carried:
            continue
        entry = checkpoint.states[ref]
        base = entry["base"]
        if base is not None and base in interpreter._states:
            # Share the base's instances, as copy-on-write does (line 4).
            pis, names = dict(interpreter._states[base].pis), entry["pis"]
        else:
            pis, names = {}, _merged_pis(checkpoint.states, ref)
        interpreter._states[ref] = restore.block(pis, names, entry)
        restored += 1
    interpreter.interpreted |= refs
    interpreter.events.extend(checkpoint.events)
    for name in COUNTERS:
        if name in checkpoint.counters:
            setattr(interpreter, name, checkpoint.counters[name])
    # The interpreted set grew behind the scheduler's back: one linear
    # resync and the ready queue holds exactly the suffix.
    interpreter.resync_schedule()
    return restored


# -- persistence ---------------------------------------------------------------


class CheckpointManager:
    """Keeps one server's checkpoints as a content-addressed object log.

    The log is one file, ``ckpt-<generation>.bin``, of frames ``length
    | CRC32 | kind | name | bytes``: an object (kind ``o``) named by the
    hash of its bytes, or a root (kind ``r``) named by their hash under
    a domain of its own.  A write appends the objects the store lacks
    and the root in one append, and reads it all back byte for byte
    before it counts; an append that does not read back is cut off
    again at once and its objects kept for the next write.  With
    ``fsync`` the append is synced (and the directory, for a new file).

    Reading trusts nothing: every object and root is checked against
    its name, and a root whose objects do not all load does not load —
    :meth:`latest` falls back to the older retained root.  A damaged
    frame (torn, failing its CRC, of no known kind) is stepped over to
    the next intact one, so it costs only the roots that reach it; bytes
    after the last intact frame are a torn tail, and only they are cut
    off, by the next write.

    *Store GC* marks what the ``retain`` newest roots reach, following
    the names each object begins with (:func:`_reached`): it decodes
    nothing.  Whenever the log grew by more than the live bytes at the
    last mark, it marks again; if the rest outgrows the live bytes, the
    live frames are copied verbatim into the next generation by the
    copy the WAL compacts with too (:meth:`LogFiles.compact`: temp file,
    read back, rename) and the old files go.
    """

    def __init__(
        self, directory: str | Path, retain: int = 2, fsync: bool = False
    ) -> None:
        if retain < 1:
            raise ValueError(f"must retain at least one checkpoint, got {retain}")
        self._log = LogFiles(directory, _PREFIX, _SUFFIX, fsync)
        self.directory = self._log.directory
        self.retain = retain
        self.fsync = fsync
        #: Checkpoints written, the bytes appended for them, and the
        #: objects their captures built: appended, or already stored.
        self.writes = 0
        self.bytes_written = 0
        self.objects_appended = 0
        self.objects_stored = 0
        #: Every intact object, ``name -> (file, offset, frame length)``,
        #: the newest intact root of each checkpoint, ``seq -> (file,
        #: offset, frame length, the names it starts from)``, and the
        #: names each object written or read so far refers to.
        self._objects: dict[bytes, tuple[Path, int, int]] = {}
        self._roots: dict[int, tuple[Path, int, int, tuple[bytes, ...]]] = {}
        self._links: dict[bytes, tuple[bytes, ...]] = {}
        #: The newest file, the end of its last intact frame, and the
        #: highest sequence number written or read here.
        self._path: Path | None = None
        self._end = 0
        self._seq = 0
        #: Objects of an append that did not read back, and the names
        #: they refer to, for the next.
        self._unwritten: tuple[dict[bytes, bytes], dict[bytes, tuple[bytes, ...]]] = ({}, {})
        #: Live bytes at the last mark, and bytes appended since.
        self._live = 0
        self._since_mark = 0
        for path in self._log.paths():
            self._scan(path)

    def _scan(self, path: Path) -> None:
        """Index ``path``'s intact frames, stepping over damaged ones."""
        data = path.read_bytes()
        offset = end = 0
        while offset < len(data):
            frame_end = _intact(data, offset)
            if frame_end is None:
                offset = _resync(data, offset)
                continue
            start = offset + _FRAME.size
            kind, name = data[start : start + 1], data[start + 1 : start + _HEAD]
            if kind == _OBJECT:
                self._objects.setdefault(name, (path, offset, frame_end - offset))
            else:
                root = _root_starts(name, data[start + _HEAD : frame_end])
                if root is not None:
                    self._roots[root[0]] = (path, offset, frame_end - offset, root[1])
                    self._seq = max(self._seq, root[0])
            offset = end = frame_end
        self._path, self._end = path, end

    # -- queries -------------------------------------------------------------------

    def sequences(self) -> list[int]:
        """The retained roots' sequence numbers — the newest ``retain``
        — oldest first."""
        return sorted(self._roots)[-self.retain :]

    def next_seq(self) -> int:
        """Sequence number the next written checkpoint should carry."""
        return self._seq + 1

    def load(self, seq: int) -> Checkpoint:
        """Checkpoint ``seq``, every object it reaches read and checked;
        a :class:`CheckpointError` when no intact root holds it or an
        object is absent, fails its name or does not decode into a
        checkpoint in this process."""
        if seq not in self._roots:
            raise CheckpointError(f"no intact root holds checkpoint {seq}")
        view = _StoreView(self)
        return _assemble(view.root(seq), view)

    def latest(self) -> Checkpoint | None:
        """The newest retained checkpoint that loads, or ``None``."""
        for seq in reversed(self.sequences()):
            try:
                return self.load(seq)
            except CheckpointError:
                continue
        return None

    # -- the write path ------------------------------------------------------------

    def write(self, checkpoint: Checkpoint) -> bool:
        """Append the objects ``checkpoint`` needs that the store lacks,
        then its root, and read the append back.  Returns whether the
        file holds exactly what was appended — only then may the caller
        treat the checkpoint as durable."""
        self.writes += 1
        pending, links = self._unwritten
        objects = checkpoint.objects
        if isinstance(objects, _Objects):
            pending = {**pending, **objects.built}
            links = {**links, **objects.links}
        out = bytearray()
        placed = []
        for name, data in pending.items():
            if name not in self._objects:
                placed.append((name, len(out)))
                _append_frame(out, _OBJECT, name, data)
        root = {
            "seq": checkpoint.seq,
            "counters": checkpoint.counters,
            "rows": tuple(sorted(
                checkpoint.rows[r] for r in checkpoint.states if r not in checkpoint.carried
            )),
            "carried": tuple(sorted(checkpoint.rows[r] for r in checkpoint.carried)),
            "chains": {section: checkpoint.chains[section] for section in SECTIONS},
        }
        root_data = codec.encode(root)
        root_at = len(out)
        _append_frame(out, _ROOT, root_name(root_data), root_data)
        if self._path is None:
            self._path, self._end = self._log.next_path(), 0
        path, offset = self._path, self._end
        created = not path.exists()
        with open(path, "ab") as handle:
            # A torn tail goes first: no intact frame follows it.
            handle.truncate(offset)
            handle.write(out)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if created and self.fsync:
            self._log.sync_directory()
        self.bytes_written += len(out)
        self._seq = max(self._seq, checkpoint.seq)
        if not self._reads_back(path, bytes(out), offset):
            # Cut off at once, so no root of it is read after a crash.
            with open(path, "r+b") as handle:
                handle.truncate(offset)
            self._unwritten = (pending, links)
            return False
        self._unwritten = ({}, {})
        self._end = offset + len(out)
        for name, at in placed:
            self._objects[name] = (path, offset + at, _FRAME.size + _HEAD + len(pending[name]))
            self._links[name] = links[name]
        self._roots[checkpoint.seq] = (path, offset + root_at, len(out) - root_at, _starts(root))
        self.objects_appended += len(placed)
        self.objects_stored += len(pending) - len(placed)
        checkpoint.objects = _StoreView(self)
        self._since_mark += len(out)
        if self._since_mark > self._live:
            self._collect()
        return True

    def _collect(self) -> None:
        """Mark the live bytes — the frames the retained roots reach;
        copy them into a new generation once the rest outgrows them."""
        view = _StoreView(self)
        objects = self._objects
        kept = {}
        live: set[bytes] = set()
        for seq in self.sequences():
            try:
                reached = _reached(view, self._roots[seq][3])
            except (CheckpointError, *_SHAPE_ERRORS):
                continue  # a root that does not load keeps nothing alive
            if reached.issubset(objects):
                kept[seq] = self._roots[seq]
                live |= reached
        self._live = sum(objects[name][2] for name in live) + sum(r[2] for r in kept.values())
        self._since_mark = 0
        if sum(path.stat().st_size for path in self._log.paths()) <= 2 * self._live:
            return
        names = sorted(live, key=lambda n: (objects[n][0].name, objects[n][1]))
        placed = self._log.compact(
            [objects[name] for name in names] + [root[:3] for root in kept.values()]
        )
        if placed is None:
            return
        target, offsets = placed
        self._objects = {
            name: (target, at, objects[name][2]) for name, at in zip(names, offsets)
        }
        self._roots = {
            seq: (target, at, length, starts)
            for (seq, (_, _, length, starts)), at in zip(kept.items(), offsets[len(names) :])
        }
        self._links = {name: self._links[name] for name in self._objects if name in self._links}
        self._path, self._end = target, self._live

    @staticmethod
    def _reads_back(path: Path, data: bytes, offset: int = 0) -> bool:
        """Whether ``path`` holds ``data`` from ``offset`` on and nothing
        after it.  Frames carry their lengths, CRCs and names, so equal
        bytes are frames the reader accepts; nothing is decoded."""
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                return handle.read() == data
        except OSError:
            return False


def _append_frame(out: bytearray, kind: bytes, name: bytes, data: bytes) -> None:
    crc = zlib.crc32(data, zlib.crc32(name, zlib.crc32(kind)))
    out += _FRAME.pack(_HEAD + len(data), crc)
    out += kind
    out += name
    out += data


def _intact(data: bytes, offset: int) -> int | None:
    """Where the frame at ``offset`` ends, or ``None`` when it runs past
    the end, fails its CRC or is of no known kind."""
    if offset + _FRAME.size >= len(data):
        return None
    length, crc = _FRAME.unpack_from(data, offset)
    start = offset + _FRAME.size
    end = start + length
    if length < _HEAD or end > len(data) or data[start : start + 1] not in _KINDS:
        return None
    return end if zlib.crc32(memoryview(data)[start:end]) == crc else None


def _resync(data: bytes, bad: int) -> int:
    """The offset of the first intact frame after the damaged one at
    ``bad`` — the one its length points to, else the first found byte
    by byte — or the end of ``data`` when none follows."""
    if bad + _FRAME.size <= len(data):
        after = bad + _FRAME.size + _FRAME.unpack_from(data, bad)[0]
        if _intact(data, after) is not None:
            return after
    for kind in _KIND_BYTE.finditer(data, bad + _FRAME.size + 1):
        if _intact(data, kind.start() - _FRAME.size) is not None:
            return kind.start() - _FRAME.size
    return len(data)


def _root_starts(name: bytes, data: bytes) -> tuple[int, tuple[bytes, ...]] | None:
    """A root's sequence number and the names it starts from, or
    ``None`` when it fails its name or does not decode to a root."""
    if root_name(data) != name:
        return None
    try:
        root = codec.decode(data)
        seq, starts = root["seq"], _starts(root)
    except _SHAPE_ERRORS:
        return None
    return (seq, starts) if type(seq) is int else None


def _starts(root: Any) -> tuple[bytes, ...]:
    """The names a root starts from: its rows and chain heads."""
    heads = (head for head in root["chains"].values() if head is not None)
    return (*root["rows"], *root["carried"], *heads)


class _StoreView(dict):
    """A store's objects, decoded on first use and checked against their
    names; each file is read whole, once."""

    def __init__(self, store: CheckpointManager) -> None:
        super().__init__()
        self.store = store
        self.files: dict[Path, bytes] = {}

    def file(self, path: Path) -> bytes:
        if path not in self.files:
            try:
                self.files[path] = path.read_bytes()
            except OSError as exc:
                raise CheckpointError(f"{path.name} is unreadable: {exc}") from exc
        return self.files[path]

    def _frame(self, path: Path, offset: int, length: int) -> tuple[bytes, bytes]:
        frame = self.file(path)[offset : offset + length]
        return frame[_FRAME.size + 1 : _FRAME.size + _HEAD], frame[_FRAME.size + _HEAD :]

    def _object(self, name: bytes) -> bytes:
        where = self.store._objects.get(name)
        if where is None:
            raise CheckpointError(f"object {name.hex()[:8]}… is not in the store")
        return self._frame(*where)[1]

    def links(self, name: bytes) -> tuple[bytes, ...]:
        """The names object ``name`` refers to, read without decoding
        and kept by the store."""
        found = self.store._links.get(name)
        if found is None:
            found = self.store._links[name] = object_links(self._object(name))
        return found

    def __missing__(self, name: bytes) -> Any:
        data = self._object(name)
        if object_name(data) != name:
            raise CheckpointError(f"object {name.hex()[:8]}… does not hash to its name")
        try:
            self[name] = value = object_value(data)
        except CodecError as exc:
            raise CheckpointError(f"{name.hex()[:8]}… does not decode: {exc}") from exc
        return value

    def root(self, seq: int) -> Any:
        name, data = self._frame(*self.store._roots[seq][:3])
        if root_name(data) != name:
            raise CheckpointError(f"root of checkpoint {seq} does not hash to its name")
        try:
            return codec.decode(data)
        except CodecError as exc:
            raise CheckpointError(f"root of checkpoint {seq} does not decode: {exc}") from exc


def _reached(objects: _StoreView, starts: tuple[bytes, ...]) -> set[bytes]:
    """The names of every object reached from ``starts`` — a root's
    rows and chain heads, and what each object names in turn — read
    without decoding any object."""
    pending = list(starts)
    reached: set[bytes] = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(objects.links(name))
    return reached


def _assemble(root: Any, objects: _StoreView) -> Checkpoint:
    """The checkpoint a root names, every object it reaches read.
    Intact bytes that do not make a checkpoint in this process — a list
    where a map belongs, a short tuple, a sequence number that is no
    ``int``, a run cell that is neither ``None`` nor a tuple of
    messages (such as a row written before rows held their runs, which
    names a run object there) — are a :class:`CheckpointError`."""
    from repro.interpret.interpreter import IndicationEvent

    try:
        seq = root["seq"]
        if type(seq) is not int:
            raise TypeError(f"sequence number {seq!r}")
        for name in _reached(objects, _starts(root)):
            objects[name]
        states: dict[BlockRef, dict[str, Any]] = {}
        rows: dict[BlockRef, bytes] = {}
        for name in (*root["rows"], *root["carried"]):
            ref, base, named, pis, ins, outs = objects[name]
            pis = {lbl: n for lbl, n in zip(named, pis, strict=True) if n is not None}
            ins, outs = _runs(named, ins), _runs(named, outs)
            ref = BlockRef(ref)
            rows[ref] = name
            states[ref] = {
                "pis": pis, "in": ins, "out": outs,
                "base": None if base is None else BlockRef(base),
            }
        carried = frozenset(BlockRef(objects[name][0]) for name in root["carried"])
        chains = {section: root["chains"][section] for section in SECTIONS}
        history = {section: _walk(objects, chains[section]) for section in SECTIONS}
        return Checkpoint(
            seq=seq,
            states=states,
            carried=carried,
            skeletons=dict(_skeleton_from_wire(s) for s in history["skeletons"]),
            events=tuple(
                IndicationEvent(Label(label), indication, ServerId(server), BlockRef(ref))
                for label, indication, server, ref in history["events"]
            ),
            counters=dict(root["counters"]),
            rows=rows,
            chains=chains,
            objects=objects,
        )
    except _SHAPE_ERRORS as exc:
        raise CheckpointError(f"checkpoint does not decode: {exc}") from exc


def _runs(labels: Any, cells: Any) -> dict[str, tuple[Message, ...]]:
    """A row's runs by label, from its column of cells."""
    runs = {}
    for label, cell in zip(labels, cells, strict=True):
        if cell is None:
            continue
        if type(cell) is not tuple or not all(isinstance(m, Message) for m in cell):
            raise TypeError(f"a run cell holds {type(cell).__name__}, not a run")
        runs[label] = cell
    return runs


def _walk(objects: Any, head: bytes | None) -> list[Any]:
    """A chain's items, oldest chunk first."""
    chunks = []
    while head is not None:
        head, items = objects[head]
        chunks.append(items)
    return [item for items in reversed(chunks) for item in items]


def _skeleton_wire(ref: BlockRef, stub: Block) -> tuple[Any, ...]:
    hz = tuple((str(sv), k) for sv, k in stub.hz)
    return (str(ref), str(stub.n), stub.k, tuple(map(str, stub.preds)), stub.sigma, hz)


def _skeleton_from_wire(wire: Any) -> tuple[BlockRef, Block]:
    ref, n, k, preds, sigma, hz = wire
    ref = BlockRef(ref)
    return ref, Block.stub(
        ref, ServerId(n), k, tuple(BlockRef(p) for p in preds), sigma,
        tuple((ServerId(sv), ck) for sv, ck in hz),
    )


def _event_wire(event: "IndicationEvent") -> tuple[Any, ...]:
    return (str(event.label), event.indication, str(event.server), str(event.block_ref))
