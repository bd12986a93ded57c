"""Canonical, injective byte encoding.

Two places in the paper require a deterministic encoding of structured
values:

* ``ref(B)`` must be a hash "computed from n, k, preds, and rs"
  (Definition 3.1) — so those fields need a canonical byte form;
* the total order ``<_M`` on messages (§2) — we realize it as the
  lexicographic order on canonical encodings, which is total because
  the encoding is injective.

The encoding is a small, self-describing tagged format (a deliberately
minimal cousin of canonical CBOR): every value is a one-byte type tag
followed by a fixed-width length and the payload.  Dataclasses encode
as their class name plus the tuple of field values, so distinct message
types never collide.  No pickling — the format is independent of Python
memory layout and stable across runs, which the determinism argument
(Lemma 4.2) relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import CodecError

_TAG_NONE = b"N"
_TAG_FALSE = b"f"
_TAG_TRUE = b"t"
_TAG_INT = b"i"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"T"
_TAG_DICT = b"d"
_TAG_SET = b"S"
_TAG_DATACLASS = b"D"


class Canonical:
    """A value standing for bytes that already *are* its canonical
    encoding: :func:`encode` splices ``data`` in verbatim wherever the
    value would have gone.  The caller vouches that ``data`` came from
    :func:`encode`; a cache of encoded parts (checkpoint entries, and
    inside a new entry the state containers ``storage.state_codec``
    froze once per object) can then be re-framed without this module's
    container layout leaking out of it."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


def encode(value: Any) -> bytes:
    """Canonically encode ``value``.

    Supported: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
    ``list``, ``tuple``, ``dict`` (keys sorted by their encoding),
    ``set``/``frozenset`` (elements sorted by their encoding), frozen
    dataclasses, and :class:`Canonical` (spliced as is).  Anything else
    raises :class:`CodecError`.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
        return
    if value is True:
        out += _TAG_TRUE
        return
    if value is False:
        out += _TAG_FALSE
        return
    if isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += _TAG_INT
        out += len(body).to_bytes(4, "big")
        out += body
        return
    if isinstance(value, str):
        body = value.encode("utf-8")
        out += _TAG_STR
        out += len(body).to_bytes(8, "big")
        out += body
        return
    if isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        out += len(value).to_bytes(8, "big")
        out += bytes(value)
        return
    if isinstance(value, list):
        _encode_sequence(_TAG_LIST, value, out)
        return
    if isinstance(value, tuple):
        _encode_sequence(_TAG_TUPLE, value, out)
        return
    if isinstance(value, dict):
        items = sorted(
            ((encode(k), encode(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        )
        out += _TAG_DICT
        out += len(items).to_bytes(8, "big")
        for key_bytes, value_bytes in items:
            out += len(key_bytes).to_bytes(8, "big")
            out += key_bytes
            out += len(value_bytes).to_bytes(8, "big")
            out += value_bytes
        return
    if isinstance(value, (set, frozenset)):
        encoded = sorted(encode(v) for v in value)
        out += _TAG_SET
        out += len(encoded).to_bytes(8, "big")
        for item in encoded:
            out += len(item).to_bytes(8, "big")
            out += item
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        cached = _ENCODE_CACHE.get(cls)
        if cached is None:
            # Auto-register for decoding: anything encoded in-process
            # can be decoded in-process (sufficient for the KV-store
            # substrate).  Field introspection is cached per class —
            # ``dataclasses.fields`` rebuilds a tuple of Field objects
            # on every call, which dominated message ordering (``<_M``)
            # on the interpretation hot path.
            _DATACLASS_REGISTRY.setdefault(cls.__qualname__, cls)
            cached = (
                cls.__qualname__.encode("utf-8"),
                tuple(f.name for f in dataclasses.fields(value)),
            )
            _ENCODE_CACHE[cls] = cached
        name, field_names = cached
        fields = tuple(getattr(value, f) for f in field_names)
        out += _TAG_DATACLASS
        out += len(name).to_bytes(4, "big")
        out += name
        _encode_into(fields, out)
        return
    if type(value) is Canonical:
        out += value.data
        return
    raise CodecError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def _encode_sequence(tag: bytes, items: Any, out: bytearray) -> None:
    out += tag
    out += len(items).to_bytes(8, "big")
    for item in items:
        _encode_into(item, out)


def encoding_key(value: Any) -> bytes:
    """Sort key realizing the paper's arbitrary-but-fixed total order ``<_M``.

    Lexicographic order over injective encodings is a total order on
    encodable values.  ``interpret.order`` feeds messages to process
    instances in this order (Algorithm 2 line 10) without calling it
    per message; protocols and ``runtime.compare`` key values by it.
    """
    return encode(value)


# -- decoding -----------------------------------------------------------------
#
# The key-value store substrate (repro.kvstore) stores blocks as real
# bytes and reads them back, so the codec is bidirectional.  Dataclasses
# round-trip through a registry keyed by qualified class name; protocol
# payload/request/indication classes self-register via their marker base
# classes, and Block/Message register explicitly.

_DATACLASS_REGISTRY: dict[str, type] = {}  # lint: registry — populated once at import time by register_dataclass; lookups after that are pure

#: Per-class encode metadata: ``(qualname bytes, field names)``.
_ENCODE_CACHE: dict[type, tuple[bytes, tuple[str, ...]]] = {}  # lint: registry — per-type memo of immutable metadata; an entry is computed deterministically from the class and never changes


def register_dataclass(cls: type) -> type:
    """Register a dataclass for decoding; usable as a decorator."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"not a dataclass: {cls!r}")
    _DATACLASS_REGISTRY[cls.__qualname__] = cls
    return cls


def decode(data: bytes) -> Any:
    """Decode a canonical encoding back into a value.

    Inverse of :func:`encode` up to two harmless canonicalizations:
    sets decode as ``frozenset`` and byte-likes as ``bytes``.
    """
    value, offset = _decode_at(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def _read(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise CodecError("truncated encoding")
    return data[offset:end], end


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    tag, offset = _read(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _read(data, offset, 4)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return int.from_bytes(body, "big", signed=True), offset
    if tag == _TAG_STR:
        raw, offset = _read(data, offset, 8)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return body.decode("utf-8"), offset
    if tag == _TAG_BYTES:
        raw, offset = _read(data, offset, 8)
        body, offset = _read(data, offset, int.from_bytes(raw, "big"))
        return body, offset
    if tag in (_TAG_LIST, _TAG_TUPLE):
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        result = {}
        for _ in range(count):
            raw, offset = _read(data, offset, 8)
            key_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            raw, offset = _read(data, offset, 8)
            value_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            result[decode(key_bytes)] = decode(value_bytes)
        return result, offset
    if tag == _TAG_SET:
        raw, offset = _read(data, offset, 8)
        count = int.from_bytes(raw, "big")
        members = set()
        for _ in range(count):
            raw, offset = _read(data, offset, 8)
            item_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
            members.add(decode(item_bytes))
        return frozenset(members), offset
    if tag == _TAG_DATACLASS:
        raw, offset = _read(data, offset, 4)
        name_bytes, offset = _read(data, offset, int.from_bytes(raw, "big"))
        name = name_bytes.decode("utf-8")
        fields, offset = _decode_at(data, offset)
        cls = _DATACLASS_REGISTRY.get(name)
        if cls is None:
            raise CodecError(f"dataclass not registered for decoding: {name}")
        return cls(*fields), offset
    raise CodecError(f"unknown tag byte: {tag!r}")
