"""Mutability-faithful, content-addressed serialization of process state.

Checkpoints persist the interpreter's per-block annotations — live
:class:`~repro.protocols.base.ProcessInstance` objects included — so
execution continues bit for bit after a restore.  The canonical codec
alone is not enough: it turns ``set`` into ``frozenset``, fatal for a
restored instance that wants to ``.add()`` to its quorum sets.  State
is therefore written in a tagged *frozen form* that records each
container's kind — ``set`` vs ``frozenset``, ``list`` vs ``tuple`` —
and is itself canonically encodable; :func:`thaw` inverts it.  Frozen
dataclasses (messages, payloads, requests, indications) are atoms.

:class:`ObjectWriter` writes state as *objects*: the canonical bytes of
one process instance or one mutable container (``list``/``dict``/``set``),
named by their domain-separated hash (:func:`object_name`), as a block
is named by ``ref(B)``.  A checkpoint adds rows and chain chunks
(:mod:`repro.storage.checkpoint`); an ``Ms`` run is no object of its
own but is written inside its block's row, which is all that holds
it (:meth:`ObjectWriter.run` gives its bytes).  Inside an
object a mutable container is the pair ``("h", name)``, so equal
containers are stored once however many instances, blocks and
checkpoints hold them.  An object's bytes begin with the names it
refers to (:func:`object_bytes`), hashed with the rest, so the store
follows them without decoding anything.  An annotation never changes
once its block is interpreted (Algorithm 2 line 12): a later block
forks the instance, and the write barrier (``_writable`` /
``_writable_entry``) copies a container before its first write, so
the barrier is the only place state changes and the copy is a new
object; the deepcopy oracle in ``tests/integration/test_conformance.py``
guards the barrier.

A capture names each object once and encodes each distinct new value
once:

* **identity first.**  A name is kept by object identity from one
  capture to the next (the memo holds the object, so its ``id`` is not
  reused); an object the memo names is never encoded again.
* **content names for scalar containers.**  On an identity miss, a
  list, set or frozenset whose members are all scalars is named by its
  typed content within the capture (``1`` and ``True`` stay apart),
  so BRB's many equal sender sets are encoded once.  A dict, or any
  container that holds containers, is never keyed by content.
* **per-class prefixes.**  An instance's bytes start with its class
  name and end their fixed part with its sorted attribute names; both
  are built once per class and attribute layout, and the attributes
  are read without walking the class's MRO again.
* **one encode per message and per run per server.**  A message's
  bytes (its endpoints from the scalar memo), and a run's, are kept by
  identity while the retained row that wrote them first holds them, so
  a receiver's row, or a row rewritten once its base left, does not
  encode them again.

An object with the same bytes as one built earlier in the capture is
not hashed again, and the store takes each new object's links from the
writer.  ``tests/reference_writer.py`` keeps the reflective writer
this one replaced; every name and byte must stay what it gives.

No pickle: a checkpoint written by one process restores in another as
long as the protocol modules are imported (which registers their
dataclasses with the codec).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.crypto.hashing import DIGEST_SIZE, digester
from repro.dag import codec
from repro.errors import CheckpointError, CodecError
from repro.protocols.base import (
    INTERNAL_STATE_ATTRS,
    Message,
    ProcessInstance,
    ProtocolSpec,
)
from repro.types import Label, ServerId

# Frozen-form tags: the pair (tag, payload) is itself codec-encodable.
_ATOM = "a"
_LIST = "l"
_TUPLE = "t"
_DICT = "d"
_SET = "s"
_FROZENSET = "f"
#: A mutable container stored as its own object: ``("h", name)``.
_REF = "h"

#: Hash domain of a state object's name.
OBJECT_DOMAIN = "repro/checkpoint-object"
#: The name of the object whose bytes are the argument.
object_name = digester(OBJECT_DOMAIN)
#: An object's bytes begin with how many names it refers to, in this
#: many bytes.
_COUNT = 4

#: Reads a stored object's decoded value by its name.
Loader = Callable[[bytes], Any]

#: Scalars: atoms whose bytes a writer keeps, by exact type (``1`` and
#: ``True`` are one dict key with two encodings).
_SCALARS = (int, str, bytes, bool, type(None))
#: The tag of the container types, exactly; any other type resolves
#: through :func:`_tag_of`.
_TAGS = {list: _LIST, tuple: _TUPLE, dict: _DICT, set: _SET, frozenset: _FROZENSET}


def _value_bytes(value: Any) -> bytes:
    """``value``'s canonical bytes, as the codec's item writer writes
    them inside a frame."""
    out = bytearray()
    codec.write_value(value, out)
    return bytes(out)


def _pair_head(first: str) -> bytes:
    """The bytes a frozen form ``(first, payload)`` begins with."""
    return codec.tuple_head(2) + _value_bytes(first)


#: A frozen form's first bytes, by tag; its payload follows (an atom's
#: value, or a tuple head and the items).
_HEADS = {tag: _pair_head(tag) for tag in (_ATOM, _LIST, _TUPLE, _DICT, _SET, _FROZENSET)}
_ATOM_HEAD = _HEADS[_ATOM]
#: ``("h", name)`` up to the name's own bytes.
_REF_HEAD = _pair_head(_REF) + _value_bytes(bytes(DIGEST_SIZE))[:-DIGEST_SIZE]
_PAIR = codec.tuple_head(2)
#: A :class:`Message`'s bytes up to its fields: sender, receiver, payload.
_MESSAGE_HEAD = codec.dataclass_head(Message)


def _tag_of(value: Any) -> str:
    """``value``'s tag: the kind of container it is, or ``_ATOM``."""
    if isinstance(value, (list, tuple)):
        return _LIST if isinstance(value, list) else _TUPLE
    if isinstance(value, dict):
        return _DICT
    if isinstance(value, (set, frozenset)):
        return _SET if isinstance(value, set) else _FROZENSET
    return _ATOM


def _content_key(tag: str, value: Any) -> tuple[Any, ...] | None:
    """The typed content of a container whose members are all scalars,
    which names it as its bytes would; ``None`` for any other.  Members
    are keyed with their types, so ``{1}`` and ``{True}`` differ."""
    kinds = set(map(type, value))
    if not kinds.issubset(_SCALARS):
        return None
    members = tuple(value) if tag == _LIST else frozenset(value)
    if len(kinds) < 2:
        return (tag, kinds.pop() if kinds else None, members)
    typed = zip(map(type, value), value)
    return (tag, tuple(typed) if tag == _LIST else frozenset(typed))


class ObjectWriter:
    """Writes one capture's state as objects, each distinct new value
    encoded and hashed once (the module docstring has the rules).

    ``known`` is what the previous capture reached (``id -> (object,
    name)``) and ``reached`` collects the same for this one.
    ``encodings`` holds the bytes of every message and ``Ms`` run
    written, by ``id``, and ``encoded`` the messages and runs this
    capture added; the caller keeps an entry, and its value, across
    captures while the row that wrote it is retained.  ``built`` holds
    the bytes of each object built, by name, and ``links`` the names
    each refers to, so the store appends what it lacks without parsing
    anything."""

    __slots__ = (
        "known", "reached", "built", "links", "encodings", "encoded", "_contents",
        "_linked", "_blobs", "_scalars", "_writers", "_slotted", "_plans", "_payloads",
    )

    def __init__(
        self,
        known: dict[int, tuple[Any, bytes]] | None = None,
        encodings: dict[int, bytes] | None = None,
    ) -> None:
        self.known = {} if known is None else known
        self.reached: dict[int, tuple[Any, bytes]] = {}
        self.built: dict[bytes, bytes] = {}
        self.links: dict[bytes, tuple[bytes, ...]] = {}
        self.encodings = {} if encodings is None else encodings
        #: The messages and runs this capture encoded, in order: they
        #: hold the ids ``encodings`` is keyed by.
        self.encoded: list[Any] = []
        #: This capture's content names (a frozenset's: its bytes), by
        #: typed content.
        self._contents: dict[tuple[Any, ...], bytes] = {}
        #: The names the object being encoded refers to so far.
        self._linked: list[bytes] = []
        #: The name of each object's bytes built in this capture.
        self._blobs: dict[bytes, bytes] = {}
        #: Bytes of the scalars that recur all over the state.
        self._scalars: dict[type, dict[Any, bytes]] = {kind: {} for kind in _SCALARS}
        #: The writer of each type met (unbound: a bound one would tie
        #: the writer into a reference cycle).
        self._writers = dict(_WRITERS)
        #: Whether a class keeps state in slots (read reflectively),
        #: and each instance layout's plan.
        self._slotted: dict[type, bool] = {}
        self._plans: dict[tuple[Any, ...], tuple[bytes, bytes, tuple[str, ...]]] = {}
        #: A payload's bytes, shared by the messages of one broadcast.
        self._payloads: dict[int, tuple[Any, bytes]] = {}

    def put(self, data: bytes, links: Sequence[bytes] = ()) -> bytes:
        """Name the object whose value's bytes are ``data`` and which
        refers to ``links``, and keep it for the store."""
        names = tuple(dict.fromkeys(links)) if links else ()
        blob = _blob(names, data)
        name = self._blobs.get(blob)
        if name is None:
            name = self._blobs[blob] = object_name(blob)
            self.built[name] = blob
            self.links[name] = names
        return name

    def _named(self, value: Any, name_of: Callable[[Any], bytes]) -> bytes:
        """``value``'s name by identity, else ``name_of(value)``."""
        key = id(value)
        held = self.reached.get(key)
        if held is None:
            held = self.known.get(key)
            if held is None:
                held = (value, name_of(value))
            self.reached[key] = held
        return held[1]

    def instance(self, instance: ProcessInstance) -> bytes:
        """The name of a process instance's object: ``(class, self id,
        label, attribute names, frozen values)``, in name order."""
        return self._named(instance, self._instance_name)

    def _instance_name(self, instance: ProcessInstance) -> bytes:
        cls = type(instance)
        slotted = self._slotted.get(cls)
        if slotted is None:
            slotted = self._slotted[cls] = not hasattr(instance, "__dict__") or any(
                slot not in INTERNAL_STATE_ATTRS
                for klass in cls.__mro__
                for slot in getattr(klass, "__slots__", ())
            )
        attrs = _instance_attrs(instance) if slotted else instance.__dict__
        plan = self._plans.get((cls, *attrs))
        if plan is None:
            # Once per class and attribute layout: the bytes before the
            # self id, those between the label and the values, and the
            # names of the attributes stored.
            names = tuple(sorted(name for name in attrs if name not in INTERNAL_STATE_ATTRS))
            plan = self._plans[(cls, *attrs)] = (
                codec.tuple_head(5) + _value_bytes(cls.__qualname__),
                _value_bytes(names) + codec.tuple_head(len(names)),
                names,
            )
        head, tail, names = plan
        ctx = instance.ctx
        outer, self._linked = self._linked, []
        out = bytearray(head)
        out += self.scalar(str(ctx.self_id))
        out += self.scalar(str(ctx.label))
        out += tail
        write = self._write
        for name in names:
            write(attrs[name], out)
        links, self._linked = self._linked, outer
        return self.put(bytes(out), links)

    def run(self, run: tuple[Any, ...]) -> bytes:
        """One ``Ms`` run's bytes, its messages in order: kept by the
        run's identity, as each message's are."""
        encoded = self.encoded
        kept = self.encodings
        data = kept.get(id(run))
        if data is None:
            parts = [codec.tuple_head(len(run))]
            for message in run:
                part = kept.get(id(message))
                if part is None:
                    part = kept[id(message)] = self._encode_message(message)
                    encoded.append(message)
                parts.append(part)
            data = kept[id(run)] = b"".join(parts)
            encoded.append(run)
        return data

    def _encode_message(self, message: Any) -> bytes:
        """A message's bytes: its endpoints' from the scalar memo, and
        its payload's encoded once per capture (a broadcast's messages
        share one payload)."""
        if type(message) is not Message:
            return codec.encode(message)
        payload = message.payload
        held = self._payloads.get(id(payload))
        if held is None:
            held = self._payloads[id(payload)] = (payload, _value_bytes(payload))
        return b"".join((
            _MESSAGE_HEAD,
            self.scalar(message.sender),
            self.scalar(message.receiver),
            held[1],
        ))

    def scalars(self, values: Sequence[Any]) -> bytes:
        """The canonical bytes of the tuple of ``values``, scalars."""
        return b"".join((codec.tuple_head(len(values)), *map(self.scalar, values)))

    def scalar(self, value: Any) -> bytes:
        """A scalar's canonical bytes, kept by exact type."""
        kept = self._scalars.get(type(value))
        if kept is None:
            return _value_bytes(value)
        data = kept.get(value)
        if data is None:
            data = kept[value] = _value_bytes(value)
        return data

    def _write(self, value: Any, out: bytearray) -> None:
        """Append ``value``'s frozen form, a mutable container as a
        reference to its object."""
        writer = self._writers.get(type(value))
        if writer is None:
            writer = self._writers[type(value)] = _TAG_WRITERS[_tag_of(value)]
        writer(self, value, out)

    def _write_scalar(self, value: Any, out: bytearray) -> None:
        out += _ATOM_HEAD
        out += self.scalar(value)

    def _write_atom(self, value: Any, out: bytearray) -> None:
        out += _ATOM_HEAD
        codec.write_value(value, out)

    def _write_shared(self, value: Any, out: bytearray) -> None:
        held = self.reached.get(id(value))
        name = self._named(value, self._container_name) if held is None else held[1]
        self._linked.append(name)
        out += _REF_HEAD
        out += name

    def _container_name(self, value: Any) -> bytes:
        """The name of a list, dict or set the identity memo missed: by
        its typed content when its members are all scalars, else by its
        bytes, which refer to the names linked while they are written."""
        tag = _TAGS.get(type(value)) or _tag_of(value)
        content = None if tag == _DICT else _content_key(tag, value)
        name = None if content is None else self._contents.get(content)
        if name is None:
            outer, self._linked = self._linked, []
            out = bytearray()
            self._write_items(tag, value, out)
            links, self._linked = self._linked, outer
            name = self.put(bytes(out), links)
            if content is not None:
                self._contents[content] = name
        return name

    def _write_tuple(self, value: Any, out: bytearray) -> None:
        self._write_items(_TUPLE, value, out)

    def _write_frozenset(self, value: Any, out: bytearray) -> None:
        content = _content_key(_FROZENSET, value)
        data = None if content is None else self._contents.get(content)
        if data is None:
            written = bytearray()
            self._write_items(_FROZENSET, value, written)
            data = bytes(written)
            if content is not None:
                self._contents[content] = data
        out += data

    def _write_items(self, tag: str, value: Any, out: bytearray) -> None:
        """Append a container's frozen form."""
        out += _HEADS[tag]
        out += codec.tuple_head(len(value))
        write = self._write
        if tag == _DICT:
            for key, item in value.items():
                out += _PAIR
                write(key, out)
                write(item, out)
        elif tag in (_SET, _FROZENSET):
            # Members in the order of their canonical bytes, so equal
            # sets write the same; a member is hashable, never a
            # reference.
            members = []
            for member in value:
                written = bytearray()
                write(member, written)
                members.append(written)
            members.sort()
            for data in members:
                out += data
        else:
            for item in value:
                write(item, out)


_Write = Callable[[ObjectWriter, Any, bytearray], None]
#: Each tag's writer: for a type :func:`_tag_of` resolves.
_TAG_WRITERS: dict[str, _Write] = {
    **dict.fromkeys((_LIST, _DICT, _SET), ObjectWriter._write_shared),
    _TUPLE: ObjectWriter._write_tuple,
    _FROZENSET: ObjectWriter._write_frozenset,
    _ATOM: ObjectWriter._write_atom,
}
#: The writer of each common type, exactly.
_WRITERS: dict[type, _Write] = {
    **dict.fromkeys(_SCALARS, ObjectWriter._write_scalar),
    **{kind: _TAG_WRITERS[tag] for kind, tag in _TAGS.items()},
}


def object_bytes(links: Sequence[bytes], data: bytes) -> bytes:
    """An object's bytes: the names it refers to, each once, then its
    value's canonical bytes ``data``.  The names are hashed with the
    value, and the store GC reads them without decoding anything."""
    return _blob(tuple(dict.fromkeys(links)), data)


def _blob(names: tuple[bytes, ...], data: bytes) -> bytes:
    return b"".join((len(names).to_bytes(_COUNT, "big"), *names, data))


def object_links(blob: bytes) -> tuple[bytes, ...]:
    """The names an object's bytes refer to."""
    start, end = _COUNT, _value_start(blob)
    return tuple(blob[at : at + DIGEST_SIZE] for at in range(start, end, DIGEST_SIZE))


def object_value(blob: bytes) -> Any:
    """The decoded value of an object's bytes."""
    return codec.decode(blob[_value_start(blob) :])


def _value_start(blob: bytes) -> int:
    end = _COUNT + int.from_bytes(blob[:_COUNT], "big") * DIGEST_SIZE
    if end > len(blob):
        raise CodecError("an object shorter than the names it counts")
    return end


def thaw(
    wire: Any,
    load: Loader | None = None,
    named: dict[int, tuple[Any, bytes]] | None = None,
) -> Any:
    """Invert the frozen form; a reference is read through ``load``, and
    the container it becomes is entered in ``named`` under its name, as
    :class:`ObjectWriter` keeps it."""
    try:
        tag, payload = wire
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed wire form: {wire!r}") from exc
    if tag == _ATOM:
        return payload
    if tag == _REF and load is not None:
        value = thaw(load(payload), load, named)
        if named is not None:
            named[id(value)] = (value, payload)
        return value
    if tag == _LIST:
        return [thaw(v, load, named) for v in payload]
    if tag == _TUPLE:
        return tuple(thaw(v, load, named) for v in payload)
    if tag == _DICT:
        return {thaw(k, load, named): thaw(v, load, named) for k, v in payload}
    if tag == _SET:
        return {thaw(v, load, named) for v in payload}
    if tag == _FROZENSET:
        return frozenset(thaw(v, load, named) for v in payload)
    raise CheckpointError(f"unknown wire tag: {tag!r}")


# -- process instances ---------------------------------------------------------


def _instance_attrs(instance: ProcessInstance) -> dict[str, Any]:
    """All persistent attributes of a process instance: ``ctx`` is
    rebuilt, not stored, and the copy-on-write stamps
    (:data:`~repro.protocols.base.INTERNAL_STATE_ATTRS`) are bookkeeping
    two behaviourally identical instances may disagree on."""
    attrs: dict[str, Any] = {}
    if hasattr(instance, "__dict__"):
        attrs.update(instance.__dict__)
    for klass in type(instance).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in INTERNAL_STATE_ATTRS and hasattr(instance, slot):
                attrs.setdefault(slot, getattr(instance, slot))
    for name in INTERNAL_STATE_ATTRS:
        attrs.pop(name, None)
    return attrs


def restore_process(
    protocol: ProtocolSpec,
    servers: Sequence[ServerId],
    snapshot: Sequence[Any],
    load: Loader | None = None,
    named: dict[int, tuple[Any, bytes]] | None = None,
) -> ProcessInstance:
    """Rebuild a process instance from its decoded object, whose
    containers ``load`` reads (see :func:`thaw` for ``named``): a fresh
    instance from the protocol's own factory, so the context and any
    derived constants are rebuilt as during live interpretation, with
    its attributes overwritten."""
    cls, self_id, label, names, values = snapshot
    instance = protocol.create(servers, ServerId(self_id), Label(label))
    if type(instance).__qualname__ != cls:
        raise CheckpointError(
            f"checkpoint holds a {cls} instance but protocol "
            f"{protocol.name!r} builds {type(instance).__qualname__}"
        )
    for name, wire in zip(names, values, strict=True):
        setattr(instance, name, thaw(wire, load, named))
    return instance


def instance_fingerprint(instance: ProcessInstance) -> bytes:
    """Canonical bytes identifying a process instance's state: two
    instances with the same fingerprint are behaviourally the same
    process state.  The raw codec sorts dict entries and set elements
    by their encodings and folds ``set`` into ``frozenset`` — exactly
    the equivalence the Lemma 4.2 assertions need."""
    return codec.encode(
        {
            "cls": type(instance).__qualname__,
            "attrs": _instance_attrs(instance),
        }
    )


def annotation_fingerprint(interpreter: Any, ref: Any) -> bytes:
    """Canonical bytes for one block's full annotation — ``PIs`` and
    ``Ms``, all Algorithm 2 keeps per block: the unit of the
    "byte-identical annotations" claim (Lemma 4.2 across servers,
    Theorem 5.1 across a restart)."""
    state = interpreter.state_of(ref)
    return codec.encode(
        {
            "pis": {
                str(lbl): instance_fingerprint(pi)
                for lbl, pi in state.pis.items()
            },
            "ms": state.ms.snapshot(),
        }
    )


__all__ = [
    "ObjectWriter",
    "annotation_fingerprint",
    "instance_fingerprint",
    "object_bytes",
    "object_links",
    "object_name",
    "object_value",
    "restore_process",
    "thaw",
]
