"""The checkpoint object writer as it was first written — the byte oracle.

``repro.storage.state_codec.ObjectWriter`` names each capture's objects
through memos: per-class instance prefixes, content names for
containers of scalars, one message encode per server.  Every object it
names must have exactly the name and the bytes this straightforward
reflective writer gives the same value: one walk of the instance's
MRO per instance, every prefix and every container encoded where it is
met.  The code below is that writer, copied verbatim with the memos
across captures left out (they name an object without encoding it, so
they add no bytes); ``object_bytes`` and the codec's frame writers it
used (``write_tuple``, ``pair_writer``, ``tagged_tuple_writer``) are
copied beside it, each head taken from a whole encoding (``None``
encodes as one byte).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.dag import codec
from repro.protocols.base import INTERNAL_STATE_ATTRS, ProcessInstance
from repro.storage.state_codec import object_name

_ATOM = "a"
_LIST = "l"
_TUPLE = "t"
_DICT = "d"
_SET = "s"
_FROZENSET = "f"
_REF = "h"
_COUNT = 4

_TAGS: dict[type, str] = {
    list: _LIST, tuple: _TUPLE, dict: _DICT, set: _SET, frozenset: _FROZENSET,
    **dict.fromkeys((int, str, bytes, bool, type(None)), _ATOM),
}


def write_tuple(items: Any, write_item: Callable[[Any, bytearray], None], out: bytearray) -> None:
    out += codec.tuple_head(len(items))
    for item in items:
        write_item(item, out)


def pair_writer(first: Any) -> Callable[[Any, bytearray], None]:
    head = codec.encode((first, None))[:-1]

    def write(value: Any, out: bytearray) -> None:
        out += head
        codec.write_value(value, out)

    return write


def tagged_tuple_writer(tag: Any) -> Callable[[Any, Any, bytearray], None]:
    head = codec.encode((tag, None))[:-1]

    def write(items: Any, write_item: Callable[[Any, bytearray], None], out: bytearray) -> None:
        out += head
        write_tuple(items, write_item, out)

    return write


_WRITE_ATOM = pair_writer(_ATOM)
_WRITE_REF = pair_writer(_REF)
_WRITE_TAGGED = {
    tag: tagged_tuple_writer(tag)
    for tag in (_LIST, _TUPLE, _DICT, _SET, _FROZENSET)
}
_SCALARS = frozenset((int, str, bytes, bool, type(None)))
_SHARED = frozenset((_LIST, _DICT, _SET))


def _tag_of(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return _LIST if isinstance(value, list) else _TUPLE
    if isinstance(value, dict):
        return _DICT
    if isinstance(value, (set, frozenset)):
        return _SET if isinstance(value, set) else _FROZENSET
    return _ATOM


def _splice(data: bytes | bytearray, out: bytearray) -> None:
    out += data


def object_bytes(links: Sequence[bytes], data: bytes) -> bytes:
    names = tuple(dict.fromkeys(links))
    return b"".join((len(names).to_bytes(_COUNT, "big"), *names, data))


class ReferenceWriter:
    """Writes state as objects; ``built`` holds each object's bytes by
    name."""

    def __init__(self) -> None:
        self.reached: dict[int, tuple[Any, bytes]] = {}
        self.built: dict[bytes, bytes] = {}
        self.messages: dict[int, tuple[Any, bytes]] = {}
        self._linked: list[bytes] = []
        self._kept: dict[tuple[Any, Any], bytes] = {}

    def put(self, data: bytes, links: Sequence[bytes] = ()) -> bytes:
        blob = object_bytes(links, data)
        name = object_name(blob)
        self.built[name] = blob
        return name

    def _named(self, value: Any, encode: Callable[[Any], bytes]) -> bytes:
        key = id(value)
        held = self.reached.get(key)
        if held is None:
            outer, self._linked = self._linked, []
            data = encode(value)
            links, self._linked = self._linked, outer
            held = (value, self.put(data, links))
            self.reached[key] = held
        return held[1]

    def instance(self, instance: ProcessInstance) -> bytes:
        return self._named(instance, self._instance_bytes)

    def run(self, run: tuple[Any, ...]) -> bytes:
        return self._named(run, self._run_bytes)

    def _instance_bytes(self, instance: ProcessInstance) -> bytes:
        ctx = instance.ctx
        attrs = sorted(_instance_attrs(instance).items())
        names = tuple(name for name, _ in attrs)
        fields = (type(instance).__qualname__, str(ctx.self_id), str(ctx.label), names)
        out = bytearray()
        write_tuple((*fields, [value for _, value in attrs]), self._write_field, out)
        return bytes(out)

    def _write_field(self, field: Any, out: bytearray) -> None:
        if type(field) is list:
            write_tuple(field, self._write, out)
        else:
            codec.write_value(field, out)

    def _run_bytes(self, run: tuple[Any, ...]) -> bytes:
        out = bytearray()
        write_tuple(run, self._write_message, out)
        return bytes(out)

    def _write_message(self, message: Any, out: bytearray) -> None:
        key = id(message)
        held = self.messages.get(key)
        if held is None:
            held = (message, codec.encode(message))
        self.messages[key] = held
        out += held[1]

    def _container_bytes(self, value: Any) -> bytes:
        out = bytearray()
        self._write_items(_TAGS.get(type(value)) or _tag_of(value), value, out)
        return bytes(out)

    def _write(self, value: Any, out: bytearray) -> None:
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
        write_tuple(pair, self._write, out)

    def _atom(self, value: Any) -> bytes | bytearray:
        key = (type(value), value) if type(value) in _SCALARS else None
        data = None if key is None else self._kept.get(key)
        if data is None:
            data = bytearray()
            _WRITE_ATOM(value, data)
            if key is not None:
                data = self._kept[key] = bytes(data)
        return data


def _instance_attrs(instance: ProcessInstance) -> dict[str, Any]:
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
