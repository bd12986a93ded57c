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

:func:`encode` writes each value once, into one ``bytearray``: a table
maps a value's exact type to its writer, and a dict value is written
in place behind a length that is filled in afterwards.  Only dict keys
and set members are encoded on their own, because they are sorted by
their bytes.  A caller that writes a tuple or a dataclass value it
never builds (the frozen state of a checkpoint, see
:mod:`repro.storage.state_codec`) takes the bytes it begins with from
:func:`tuple_head` and :func:`dataclass_head` and appends the items
(:func:`write_value` one), so the layout stays here.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Any, Callable

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


def encode(value: Any) -> bytes:
    """Canonically encode ``value``.

    Supported: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
    ``list``, ``tuple``, ``dict`` (keys sorted by their encoding),
    ``set``/``frozenset`` (elements sorted by their encoding) and frozen
    dataclasses.  Anything else raises :class:`CodecError`.
    """
    return bytes(_encoded(value))


_Writer = Callable[[Any, bytearray], None]


def tuple_head(count: int) -> bytes:
    """The bytes a tuple of ``count`` values begins with; the encoded
    values follow, one after another."""
    return _TAG_TUPLE + count.to_bytes(8, "big")


def dataclass_head(cls: type) -> bytes:
    """The bytes every encoding of a ``cls`` value begins with; the
    encoded values of its fields follow, in field order."""
    name = cls.__qualname__.encode("utf-8")
    fields = dataclasses.fields(cls)
    return _TAG_DATACLASS + len(name).to_bytes(4, "big") + name + tuple_head(len(fields))


def write_value(value: Any, out: bytearray) -> None:
    """Append the encoding of ``value``: one item after a head."""
    (_WRITERS.get(type(value)) or _resolve(value))(value, out)


def _encoded(value: Any) -> bytearray:
    out = bytearray()
    (_WRITERS.get(type(value)) or _resolve(value))(value, out)
    return out


def _write_singleton(value: bool | None, out: bytearray) -> None:
    out += _TAG_NONE if value is None else _TAG_TRUE if value else _TAG_FALSE


def _write_int(value: int, out: bytearray) -> None:
    body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    out += _TAG_INT
    out += len(body).to_bytes(4, "big")
    out += body


def _write_str(value: str, out: bytearray) -> None:
    body = value.encode()
    out += _TAG_STR
    out += len(body).to_bytes(8, "big")
    out += body


def _write_bytes(value: bytes | bytearray, out: bytearray) -> None:
    out += _TAG_BYTES
    out += len(value).to_bytes(8, "big")
    out += value


def _sequence_writer(tag: bytes) -> _Writer:
    def write(value: Any, out: bytearray) -> None:
        out += tag
        out += len(value).to_bytes(8, "big")
        for item in value:
            (_WRITERS.get(type(item)) or _resolve(item))(item, out)

    return write


def _write_dict(value: dict, out: bytearray) -> None:
    out += _TAG_DICT
    out += len(value).to_bytes(8, "big")
    for key, item in sorted([(_encoded(k), v) for k, v in value.items()], key=_first):
        out += len(key).to_bytes(8, "big")
        out += key
        # The value goes straight into ``out`` behind a placeholder,
        # which is then filled in with its length.
        start = len(out) + 8
        out += _LENGTH_PLACEHOLDER
        (_WRITERS.get(type(item)) or _resolve(item))(item, out)
        out[start - 8 : start] = (len(out) - start).to_bytes(8, "big")


def _write_set(value: set | frozenset, out: bytearray) -> None:
    out += _TAG_SET
    out += len(value).to_bytes(8, "big")
    for member in sorted([_encoded(v) for v in value]):
        out += len(member).to_bytes(8, "big")
        out += member


def _dataclass_writer(cls: type) -> _Writer:
    # Auto-register for decoding: anything encoded in-process can be
    # decoded in-process.  Bytes read back from disk or the wire may
    # come from another process, so those classes register explicitly.
    _DATACLASS_REGISTRY.setdefault(cls.__qualname__, cls)
    field_names = tuple(f.name for f in dataclasses.fields(cls))
    header = dataclass_head(cls)

    def write(value: Any, out: bytearray) -> None:
        out += header
        for field_name in field_names:
            item = getattr(value, field_name)
            (_WRITERS.get(type(item)) or _resolve(item))(item, out)

    return write


def _resolve(value: Any) -> _Writer:
    """The writer for a type missing from the table, cached there: a
    subclass gets the writer of its first base in the format's
    ``isinstance`` order, a dataclass a writer of its own."""
    cls = type(value)
    for base, writer in _BASE_WRITERS:
        if isinstance(value, base):
            break
    else:
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"cannot canonically encode {cls.__name__}: {value!r}")
        writer = _dataclass_writer(cls)
    _WRITERS[cls] = writer
    return writer


_first = itemgetter(0)
_PAIR = _TAG_TUPLE + (2).to_bytes(8, "big")
_LENGTH_PLACEHOLDER = bytes(8)

#: The format's container and scalar types in ``isinstance`` order.
_BASE_WRITERS: tuple[tuple[type, _Writer], ...] = (
    (int, _write_int),
    (str, _write_str),
    (bytes, _write_bytes),
    (bytearray, _write_bytes),
    (list, _sequence_writer(_TAG_LIST)),
    (tuple, _sequence_writer(_TAG_TUPLE)),
    (dict, _write_dict),
    (set, _write_set),
    (frozenset, _write_set),
)

#: Exact type -> writer; a subclass or a dataclass joins on first encode.
_WRITERS: dict[type, _Writer] = {  # lint: registry — per-type writer table; an entry is computed deterministically from the class and never changes
    type(None): _write_singleton,
    bool: _write_singleton,
    **dict(_BASE_WRITERS),
}


def encoding_key(value: Any) -> bytes:
    """Sort key realizing the paper's arbitrary-but-fixed total order ``<_M``.

    Lexicographic order over injective encodings is a total order on
    encodable values.  ``interpret.order`` feeds messages to process
    instances in this order (Algorithm 2 line 10) without calling it
    per message; protocols and :mod:`repro.invariants` key values by it.
    """
    return encode(value)


# -- decoding -----------------------------------------------------------------
#
# The WAL, checkpoints and live wire frames store blocks and states as
# real bytes and read them back, so the codec is bidirectional.  Dataclasses
# round-trip through a registry keyed by qualified class name; protocol
# payload/request/indication classes self-register via their marker base
# classes, and Block/Message register explicitly.

_DATACLASS_REGISTRY: dict[str, type] = {}  # lint: registry — populated once at import time by register_dataclass; lookups after that are pure


def register_dataclass(cls: type) -> type:
    """Register a dataclass for decoding; usable as a decorator."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"not a dataclass: {cls!r}")
    _DATACLASS_REGISTRY[cls.__qualname__] = cls
    return cls


def decode(data: bytes) -> Any:
    """Decode a canonical encoding back into a value.

    Inverse of :func:`encode` up to two harmless canonicalizations:
    sets decode as ``frozenset`` and byte-likes as ``bytes``.  Every
    way ``data`` can fail to be an encoding — including well-framed
    values a constructor refuses, unhashable keys and nesting too deep
    to follow — raises :class:`CodecError`.
    """
    try:
        value, offset = _decode_at(data, 0)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed encoding: {type(exc).__name__}: {exc}") from exc
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
        if type(fields) is not tuple:
            raise CodecError(f"fields of {name} are a {type(fields).__name__}, not a tuple")
        return cls(*fields), offset
    raise CodecError(f"unknown tag byte: {tag!r}")
