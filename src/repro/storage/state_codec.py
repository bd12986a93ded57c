"""Mutability-faithful serialization of process-instance state.

Checkpoints must persist the interpreter's per-block annotations —
including live :class:`~repro.protocols.base.ProcessInstance` objects —
and restore them so execution *continues bit-for-bit*.  The canonical
codec alone is not enough: it deliberately canonicalizes ``set`` to
``frozenset`` (harmless for hashing/ordering, fatal for a restored
protocol instance that wants to ``.add()`` to its quorum sets).

``freeze`` therefore rewrites a value tree into a tagged *wire form*
that records the container kind exactly — ``set`` vs ``frozenset``,
``list`` vs ``tuple`` — and is itself canonically encodable; ``thaw``
inverts it.  Frozen dataclasses (messages, payloads, requests,
indications) pass through as atoms: the codec round-trips them via its
dataclass registry, and being frozen they never need the mutability
distinction.

With a :class:`ContainerMemo`, ``freeze`` writes a container straight
to the canonical bytes of its wire form, in one walk and without
building the wire form, and returns them as a
:class:`~repro.dag.codec.Canonical`.
It does so for a ``list``/``dict``/``set`` once per object: the bytes
are memoised and spliced into every parent and every later state entry
that holds the same object.  Identity is a sound key because an
annotation is immutable once its block is interpreted (Algorithm 2 line
12) — a later block forks the instance and the write barrier copies a
container before its first write, which the deepcopy oracle in
``tests/integration/test_conformance.py`` guards — and because the memo
holds the object, so its ``id`` is not reused.  Tuples and frozensets
are immutable but unshared, and are written afresh.  Such bytes exist in
memory only and equal the encoding of the plain wire form; what
``CheckpointManager.load`` returns never contains a ``Canonical``.

No pickle anywhere: like the rest of the library, persistence is
independent of Python memory layout, and a checkpoint written by one
process restores in another as long as the protocol modules are
imported (which registers their dataclasses with the codec).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dag import codec
from repro.errors import CheckpointError
from repro.protocols.base import (
    INTERNAL_STATE_ATTRS,
    ProcessInstance,
    ProtocolSpec,
)
from repro.types import Label, ServerId

# Wire-form tags.  Single characters keep encodings small; the tagged
# pair (tag, payload) is itself codec-encodable.
_ATOM = "a"
_LIST = "l"
_TUPLE = "t"
_DICT = "d"
_SET = "s"
_FROZENSET = "f"


class ContainerMemo(dict):
    """``id(container) -> (container, Canonical)`` for the containers one
    capture froze.  A miss falls back to ``older`` — the previous
    capture's memo — and promotes what it finds, so a memo holds what
    its own capture reached and nothing else."""

    def __init__(self, older: "ContainerMemo | None" = None) -> None:
        super().__init__()
        self.older = older

    def __missing__(self, key: int) -> tuple[Any, codec.Canonical]:
        if self.older is None:
            raise KeyError(key)
        found = self[key] = self.older[key]
        return found


def freeze(value: Any, memo: ContainerMemo | None = None) -> Any:
    """Rewrite ``value`` into the tagged, codec-encodable wire form —
    with a ``memo``, a container straight into that form's canonical
    bytes, each mutable container frozen and encoded once."""
    tag = _TAGS.get(type(value)) or _tag_of(value)
    if tag == _ATOM:
        # Scalars and frozen dataclasses: the codec handles them natively.
        return (_ATOM, value)
    if memo is not None:
        out = bytearray()
        _FrozenWriter(memo).write(value, out)
        # A container's bytes are held once, by the memo.
        held = memo.get(id(value))
        return codec.Canonical(bytes(out)) if held is None else held[1]
    if tag == _DICT:
        return (_DICT, tuple((freeze(k), freeze(v)) for k, v in value.items()))
    if tag in (_SET, _FROZENSET):
        # Sort by canonical encoding so equal sets freeze identically.
        return (tag, tuple(sorted((freeze(v) for v in value), key=codec.encode)))
    return (tag, tuple(freeze(v) for v in value))


#: The wire tag of the common types, exactly; any other type resolves
#: through :func:`_tag_of`.
_TAGS: dict[type, str] = {
    list: _LIST, tuple: _TUPLE, dict: _DICT, set: _SET, frozenset: _FROZENSET,
    **dict.fromkeys((int, str, bytes, bool, type(None)), _ATOM),
}
#: Writers of ``encode(freeze(value))`` around items written by the
#: caller, one per tag; the frame is the codec's.
_WRITE_ATOM = codec.pair_writer(_ATOM)
_WRITE_TAGGED = {
    tag: codec.tagged_tuple_writer(tag)
    for tag in (_LIST, _TUPLE, _DICT, _SET, _FROZENSET)
}


def _tag_of(value: Any) -> str:
    """``value``'s wire tag: the kind of container it is, or ``_ATOM``."""
    if isinstance(value, (list, tuple)):
        return _LIST if isinstance(value, list) else _TUPLE
    if isinstance(value, dict):
        return _DICT
    if isinstance(value, (set, frozenset)):
        return _SET if isinstance(value, set) else _FROZENSET
    return _ATOM


def _splice(data: bytes | bytearray, out: bytearray) -> None:
    out += data


class _FrozenWriter:
    """Appends ``encode(freeze(value))`` in one walk, without building
    the wire form: the codec frames each tagged pair and tuple around
    items this writer appends.  Mutable containers are spliced from and
    filled into ``memo``."""

    __slots__ = ("memo",)

    def __init__(self, memo: ContainerMemo) -> None:
        self.memo = memo

    def write(self, value: Any, out: bytearray) -> None:
        tag = _TAGS.get(type(value)) or _tag_of(value)
        if tag == _ATOM:
            _WRITE_ATOM(value, out)
            return
        shared = tag in (_LIST, _DICT, _SET)
        if shared:
            try:
                out += self.memo[id(value)][1].data
                return
            except KeyError:
                start = len(out)
        if tag == _DICT:
            _WRITE_TAGGED[tag](value.items(), self.write_pair, out)
        elif tag in (_SET, _FROZENSET):
            # Members in the order of their canonical bytes, as in
            # ``freeze`` without a memo.
            members = []
            for member in value:
                written = bytearray()
                self.write(member, written)
                members.append(written)
            members.sort()
            _WRITE_TAGGED[tag](members, _splice, out)
        else:
            _WRITE_TAGGED[tag](value, self.write, out)
        if shared:
            self.memo[id(value)] = (value, codec.Canonical(bytes(out[start:])))

    def write_pair(self, pair: tuple[Any, Any], out: bytearray) -> None:
        codec.write_tuple(pair, self.write, out)


def thaw(wire: Any) -> Any:
    """Invert :func:`freeze`."""
    if type(wire) is codec.Canonical:
        wire = codec.decode(wire.data)
    try:
        tag, payload = wire
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed wire form: {wire!r}") from exc
    if tag == _ATOM:
        return payload
    if tag == _LIST:
        return [thaw(v) for v in payload]
    if tag == _TUPLE:
        return tuple(thaw(v) for v in payload)
    if tag == _DICT:
        return {thaw(k): thaw(v) for k, v in payload}
    if tag == _SET:
        return {thaw(v) for v in payload}
    if tag == _FROZENSET:
        return frozenset(thaw(v) for v in payload)
    raise CheckpointError(f"unknown wire tag: {tag!r}")


# -- process instances ---------------------------------------------------------


def _instance_attrs(instance: ProcessInstance) -> dict[str, Any]:
    """All persistent attributes of a process instance.

    ``ctx`` is excluded (reconstructed, not stored), as are the
    copy-on-write generation stamp and cell table
    (:data:`~repro.protocols.base.INTERNAL_STATE_ATTRS`) — structural-
    sharing bookkeeping that two behaviourally identical instances may
    disagree on, and that a restored instance rebuilds fresh."""
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


def snapshot_process(
    instance: ProcessInstance, memo: ContainerMemo | None = None
) -> dict[str, Any]:
    """Serializable snapshot of one process instance.

    Captures the class name (for a sanity check on restore), the static
    context identity, and every attribute in frozen wire form
    (:func:`freeze` with the same ``memo``).
    """
    ctx = instance.ctx
    return {
        "cls": type(instance).__qualname__,
        "self_id": str(ctx.self_id),
        "label": str(ctx.label),
        "attrs": {
            name: freeze(value, memo)
            for name, value in sorted(_instance_attrs(instance).items())
        },
    }


def restore_process(
    protocol: ProtocolSpec,
    servers: Sequence[ServerId],
    snapshot: dict[str, Any],
) -> ProcessInstance:
    """Rebuild a process instance from :func:`snapshot_process` output.

    A fresh instance is created through the protocol's own factory (so
    the context and any derived constants are rebuilt exactly as during
    live interpretation) and its attributes are overwritten with the
    thawed snapshot.
    """
    instance = protocol.create(
        servers, ServerId(snapshot["self_id"]), Label(snapshot["label"])
    )
    if type(instance).__qualname__ != snapshot["cls"]:
        raise CheckpointError(
            f"checkpoint holds a {snapshot['cls']} instance but protocol "
            f"{protocol.name!r} builds {type(instance).__qualname__}"
        )
    for name, wire in snapshot["attrs"].items():
        setattr(instance, name, thaw(wire))
    return instance


def instance_fingerprint(instance: ProcessInstance) -> bytes:
    """Canonical bytes identifying a process instance's state.

    Used by the byte-identical-annotation checks: two instances with the
    same fingerprint are behaviourally the same process state.  The raw
    codec is canonical here (dict entries and set elements sort by their
    encodings), so the fingerprint is independent of insertion order and
    of the set/frozenset distinction — exactly the equivalence the
    Lemma 4.2 assertions need.
    """
    return codec.encode(
        {
            "cls": type(instance).__qualname__,
            "attrs": _instance_attrs(instance),
        }
    )


def annotation_fingerprint(interpreter: Any, ref: Any) -> bytes:
    """Canonical bytes for one block's full annotation — ``PIs``, ``Ms``
    and active labels.

    This is the unit of the "byte-identical annotations" claim: per
    Lemma 4.2 every server must produce the same fingerprint for the
    same block, and the crash-recovery tests extend that across a
    restart-from-disk (Theorem 5.1 across a crash).
    """
    state = interpreter.state_of(ref)
    return codec.encode(
        {
            "pis": {
                str(lbl): instance_fingerprint(pi)
                for lbl, pi in state.pis.items()
            },
            "ms": state.ms.snapshot(),
            "active": sorted(interpreter.active_labels(ref)),
        }
    )


__all__ = [
    "ContainerMemo",
    "annotation_fingerprint",
    "freeze",
    "thaw",
    "snapshot_process",
    "restore_process",
    "instance_fingerprint",
]
