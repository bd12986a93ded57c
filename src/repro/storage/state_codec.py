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
one process instance, one mutable container (``list``/``dict``/``set``)
or one ``Ms`` run, named by their domain-separated hash
(:func:`object_name`), as a block is named by ``ref(B)``.  Inside an
object a mutable container is the pair ``("h", name)``, so equal
containers are stored once however many instances, blocks and
checkpoints hold them.  An object's bytes begin with the names it
refers to (:func:`object_bytes`), hashed with the rest, so the store
follows them without decoding anything.  An annotation never changes once its block is
interpreted (Algorithm 2 line 12): a later block forks the instance,
and the write barrier (``_writable`` / ``_writable_entry``) copies a
container before its first write, so the barrier is the only place
state changes and the copy is a new object.  A name is therefore kept
by object identity from one capture to the next (the memo holds the
object, so its ``id`` is not reused) and each object is encoded and
hashed once while it is in use; the deepcopy oracle in
``tests/integration/test_conformance.py`` guards the barrier.

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

#: The tag of the common types, exactly; any other type resolves
#: through :func:`_tag_of`.
_TAGS: dict[type, str] = {
    list: _LIST, tuple: _TUPLE, dict: _DICT, set: _SET, frozenset: _FROZENSET,
    **dict.fromkeys((int, str, bytes, bool, type(None)), _ATOM),
}
#: Writers of a frozen form around items written by the caller; the
#: frame is the codec's.
_WRITE_ATOM = codec.pair_writer(_ATOM)
_WRITE_REF = codec.pair_writer(_REF)
_WRITE_TAGGED = {
    tag: codec.tagged_tuple_writer(tag)
    for tag in (_LIST, _TUPLE, _DICT, _SET, _FROZENSET)
}
#: Atoms whose bytes a writer keeps, keyed with their type (``1`` and
#: ``True`` are one dict key with two encodings).
_SCALARS = frozenset((int, str, bytes, bool, type(None)))
#: Tags of the containers stored as objects of their own.
_SHARED = frozenset((_LIST, _DICT, _SET))


def _tag_of(value: Any) -> str:
    """``value``'s tag: the kind of container it is, or ``_ATOM``."""
    if isinstance(value, (list, tuple)):
        return _LIST if isinstance(value, list) else _TUPLE
    if isinstance(value, dict):
        return _DICT
    if isinstance(value, (set, frozenset)):
        return _SET if isinstance(value, set) else _FROZENSET
    return _ATOM


def _splice(data: bytes | bytearray, out: bytearray) -> None:
    out += data


class ObjectWriter:
    """Writes one capture's state as objects.

    ``known`` is what the previous capture reached (``id -> (object,
    name)``), and ``messages`` the message bytes it wrote: a hit is
    taken over without encoding anything.  ``reached`` and
    ``messages`` collect the same for this capture; ``built`` holds the
    bytes of each object it encoded, by name, so the store appends what
    it lacks."""

    __slots__ = (
        "known", "reached", "built", "messages", "_linked", "_older_messages", "_kept",
    )

    def __init__(
        self,
        known: dict[int, tuple[Any, bytes]] | None = None,
        messages: dict[int, tuple[Any, bytes]] | None = None,
    ) -> None:
        self.known = {} if known is None else known
        self.reached: dict[int, tuple[Any, bytes]] = {}
        self.built: dict[bytes, bytes] = {}
        # A message is in its sender's ``out`` run and, often a capture
        # later, in its receiver's ``in`` run: encoded once.
        self.messages: dict[int, tuple[Any, bytes]] = {}
        self._older_messages = {} if messages is None else messages
        #: The names the object being encoded refers to so far.
        self._linked: list[bytes] = []
        #: Bytes of the scalars that recur all over the state.
        self._kept: dict[tuple[Any, Any], bytes] = {}

    def put(self, data: bytes, links: Sequence[bytes] = ()) -> bytes:
        """Name the object whose value's bytes are ``data`` and which
        refers to ``links``, and keep it for the store."""
        blob = object_bytes(links, data)
        name = object_name(blob)
        self.built[name] = blob
        return name

    def _named(self, value: Any, encode: Callable[[Any], bytes]) -> bytes:
        key = id(value)
        held = self.reached.get(key)
        if held is None:
            held = self.known.get(key)
            if held is None:
                outer, self._linked = self._linked, []
                data = encode(value)
                links, self._linked = self._linked, outer
                held = (value, self.put(data, links))
            self.reached[key] = held
        return held[1]

    def instance(self, instance: ProcessInstance) -> bytes:
        """The name of a process instance's object: ``(class, self id,
        label, attribute names, frozen values)``, in name order."""
        return self._named(instance, self._instance_bytes)

    def run(self, run: tuple[Any, ...]) -> bytes:
        """The name of one ``Ms`` run's object: its messages in order."""
        return self._named(run, self._run_bytes)

    def _instance_bytes(self, instance: ProcessInstance) -> bytes:
        ctx = instance.ctx
        attrs = sorted(_instance_attrs(instance).items())
        names = tuple(name for name, _ in attrs)
        fields = (type(instance).__qualname__, str(ctx.self_id), str(ctx.label), names)
        out = bytearray()
        codec.write_tuple((*fields, [value for _, value in attrs]), self._write_field, out)
        return bytes(out)

    def _write_field(self, field: Any, out: bytearray) -> None:
        if type(field) is list:  # the values, frozen
            codec.write_tuple(field, self._write, out)
        else:
            codec.write_value(field, out)

    def _run_bytes(self, run: tuple[Any, ...]) -> bytes:
        out = bytearray()
        codec.write_tuple(run, self._write_message, out)
        return bytes(out)

    def _write_message(self, message: Any, out: bytearray) -> None:
        key = id(message)
        held = self.messages.get(key) or self._older_messages.get(key)
        if held is None:
            held = (message, codec.encode(message))
        self.messages[key] = held
        out += held[1]

    def _container_bytes(self, value: Any) -> bytes:
        out = bytearray()
        self._write_items(_TAGS.get(type(value)) or _tag_of(value), value, out)
        return bytes(out)

    def _write(self, value: Any, out: bytearray) -> None:
        """Append ``value``'s frozen form, a mutable container as a
        reference to its object."""
        tag = _TAGS.get(type(value)) or _tag_of(value)
        if tag == _ATOM:
            out += self._atom(value)
        elif tag in _SHARED:
            name = self._named(value, self._container_bytes)
            self._linked.append(name)
            _WRITE_REF(name, out)
        else:
            self._write_items(tag, value, out)

    def _write_items(self, tag: str, value: Any, out: bytearray) -> None:
        if tag == _DICT:
            _WRITE_TAGGED[tag](value.items(), self._write_pair, out)
        elif tag in (_SET, _FROZENSET):
            # Members in the order of their canonical bytes, so equal
            # sets write the same; a member is hashable, never a reference.
            members = []
            for member in value:
                if (_TAGS.get(type(member)) or _tag_of(member)) == _ATOM:
                    members.append(self._atom(member))
                else:
                    written = bytearray()
                    self._write(member, written)
                    members.append(written)
            members.sort()
            _WRITE_TAGGED[tag](members, _splice, out)
        else:
            _WRITE_TAGGED[tag](value, self._write, out)

    def _write_pair(self, pair: tuple[Any, Any], out: bytearray) -> None:
        codec.write_tuple(pair, self._write, out)

    def _atom(self, value: Any) -> bytes | bytearray:
        key = (type(value), value) if type(value) in _SCALARS else None
        data = None if key is None else self._kept.get(key)
        if data is None:
            data = bytearray()
            _WRITE_ATOM(value, data)
            if key is not None:
                data = self._kept[key] = bytes(data)
        return data


def object_bytes(links: Sequence[bytes], data: bytes) -> bytes:
    """An object's bytes: the names it refers to, each once, then its
    value's canonical bytes ``data``.  The names are hashed with the
    value, and the store GC reads them without decoding anything."""
    names = tuple(dict.fromkeys(links))
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
