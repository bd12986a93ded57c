"""The canonical encoder as it was first written — the byte oracle.

``repro.dag.codec.encode`` writes every value once into one buffer
through a per-type writer table and back-patched dict lengths.  Its
bytes must stay exactly those of this straightforward recursive
encoder: one ``isinstance`` chain per value, and every dict key and
value encoded on its own before it is framed.  The code below is that
encoder, copied verbatim; the only line left out registers classes for
decoding, which is not part of the byte format.
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

_ENCODE_CACHE: dict[type, tuple[bytes, tuple[str, ...]]] = {}


def encode(value: Any) -> bytes:
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
    raise CodecError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def _encode_sequence(tag: bytes, items: Any, out: bytearray) -> None:
    out += tag
    out += len(items).to_bytes(8, "big")
    for item in items:
        _encode_into(item, out)
