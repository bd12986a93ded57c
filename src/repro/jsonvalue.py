"""One JSON mapping for every document class.

Scenarios, their results, and the configs and statuses that carry a
live run across process boundaries are frozen dataclasses.  Instead of
hand-written serializers, each inherits :class:`JsonDocument` and is
written and read by the two functions here, driven by its fields and
their type hints.  The one rule:

* a field becomes a key of the same name;
* a class that declares its own ``kind`` writes it as a tag, and on
  read the class is found by that tag among the subclasses of the
  field's declared type;
* tuples are written as lists and ``X | None`` as null;
* an ``int`` field takes a JSON integer only; a ``float`` field takes
  an integer or a float, read as a float; a string or a bool is never
  a number;
* a field with ``init=False`` is derived: it is written, and recomputed
  rather than read;
* an unknown key is rejected.

A class outside the mapping that brings its own ``as_dict``/
``from_dict`` pair (:class:`~repro.obs.metrics.MetricsReport`) is
written and read through it.  Every failure raises
:class:`~repro.errors.ScenarioError` naming the path of the offending
value, e.g. ``topology.storage.horizon_gc`` or ``workload[0]``.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Any, NamedTuple, TypeVar

from repro.errors import ReproError, ScenarioError

__all__ = ["JsonDocument", "read", "write"]

T = TypeVar("T", bound="JsonDocument")

_SCALARS = frozenset({str, int, float, bool, type(None)})
_NONE = type(None)


class _Shape(NamedTuple):
    #: Every field, in declaration order (what the writer emits).
    names: tuple[str, ...]
    #: Constructor fields -> resolved type hint (what the reader accepts).
    hints: dict[str, Any]
    #: ``init=False`` fields: written, skipped on read.
    derived: frozenset[str]
    #: The class's own ``kind`` tag, if it declares one.
    tag: str | None


_SHAPES: dict[type, _Shape] = {}  # lint: registry — per-class field table; an entry is computed from the class alone and never changes


def _shape(cls: type) -> _Shape:
    shape = _SHAPES.get(cls)
    if shape is None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        shape = _SHAPES[cls] = _Shape(
            names=tuple(f.name for f in fields),
            hints={f.name: hints[f.name] for f in fields if f.init},
            derived=frozenset(f.name for f in fields if not f.init),
            tag=cls.__dict__.get("kind"),
        )
    return shape


# -- writer --------------------------------------------------------------------


def write(value: object) -> object:
    """The JSON value of ``value`` under the one rule."""
    cls = value.__class__
    if cls in _SCALARS:
        return value
    if cls is tuple or cls is list:
        if _SCALARS.issuperset(map(type, value)):  # type: ignore[call-overload]
            return list(value)  # type: ignore[call-overload]
        return [write(v) for v in value]  # type: ignore[attr-defined]
    if cls is dict:
        if _SCALARS.issuperset(map(type, value.values())):  # type: ignore[attr-defined]
            return dict(value)  # type: ignore[call-overload]
        return {k: write(v) for k, v in value.items()}  # type: ignore[attr-defined]
    if isinstance(value, JsonDocument):
        return _write_document(value)
    as_dict = getattr(value, "as_dict", None)
    if as_dict is None:
        raise ScenarioError(f"no JSON mapping for {cls.__name__}")
    return as_dict()


def _write_document(value: JsonDocument) -> dict[str, Any]:
    shape = _SHAPES.get(value.__class__) or _shape(value.__class__)
    doc: dict[str, Any] = {} if shape.tag is None else {"kind": shape.tag}
    for name in shape.names:
        item = getattr(value, name)
        doc[name] = item if item.__class__ in _SCALARS else write(item)
    return doc


# -- reader --------------------------------------------------------------------


def _fail(path: str, message: str) -> typing.NoReturn:
    raise ScenarioError(f"{path}: {message}" if path else message)


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def read(hint: Any, data: object, path: str = "") -> Any:
    """Decode the JSON value ``data`` as the declared type ``hint``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        if data is None and _NONE in typing.get_args(hint):
            return None
        (inner,) = [a for a in typing.get_args(hint) if a is not _NONE]
        return read(inner, data, path)
    if hint is str or hint is bool:
        if data.__class__ is not hint:
            _fail(path, f"expected {hint.__name__}, got {data!r}")
        return data
    if hint is int:
        if data.__class__ is not int:
            _fail(path, f"expected int, got {data!r}")
        return data
    if hint is float:
        if data.__class__ is float:
            return data
        if data.__class__ is int:
            try:
                return float(data)  # type: ignore[arg-type]
            except OverflowError:
                pass
        _fail(path, f"expected float, got {data!r}")
    if origin is tuple:
        if data.__class__ is not list:
            _fail(path, f"expected a list, got {type(data).__name__}")
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            if {args[0]}.issuperset(map(type, data)):  # type: ignore[call-overload]
                return tuple(data)  # type: ignore[arg-type]
            args = (args[0],) * len(data)  # type: ignore[arg-type]
        elif len(args) != len(data):  # type: ignore[arg-type]
            _fail(path, f"expected {len(args)} items, got {len(data)}")  # type: ignore[arg-type]
        return tuple(
            read(arg, item, f"{path}[{i}]")
            for i, (arg, item) in enumerate(zip(args, data))  # type: ignore[call-overload]
        )
    if origin is dict:
        key_hint, value_hint = typing.get_args(hint)
        obj = _object(data, path)
        if {key_hint}.issuperset(map(type, obj)) and {value_hint}.issuperset(
            map(type, obj.values())
        ):
            return dict(obj)
        return {
            read(key_hint, k, path): read(value_hint, v, _key(path, k))
            for k, v in obj.items()
        }
    if isinstance(hint, type) and issubclass(hint, JsonDocument):
        return _read_document(hint, _object(data, path), path)
    from_dict = getattr(hint, "from_dict", None)
    if from_dict is None:
        _fail(path, f"no JSON mapping for {hint!r}")
    try:
        return from_dict(_object(data, path))
    except ReproError as exc:
        _fail(path, str(exc))


def _object(data: object, path: str) -> dict[str, Any]:
    if data.__class__ is not dict:
        _fail(path, f"expected an object, got {type(data).__name__}")
    return data  # type: ignore[return-value]


def _tags(cls: type) -> dict[str, type]:
    """``kind`` -> class, over ``cls`` and its subclasses declaring one."""
    found: dict[str, type] = {}
    stack = [cls]
    while stack:
        klass = stack.pop()
        tag = klass.__dict__.get("kind")
        if isinstance(tag, str):
            found[tag] = klass
        stack.extend(klass.__subclasses__())
    return found


def _read_document(cls: type[T], data: dict[str, Any], path: str) -> T:
    tags = _tags(cls)
    if tags:
        kind = data.get("kind")
        tagged = tags.get(kind) if isinstance(kind, str) else None
        if tagged is None:
            _fail(_key(path, "kind"), f"unknown kind {kind!r} (known: {sorted(tags)})")
        cls = tagged  # type: ignore[assignment]
    shape = _shape(cls)
    kwargs = {}
    for key, value in data.items():
        hint = shape.hints.get(key)
        if hint is not None:
            kwargs[key] = read(hint, value, _key(path, key))
        elif key not in shape.derived and not (key == "kind" and tags):
            _fail(_key(path, key), f"unknown key (known: {', '.join(shape.names)})")
    try:
        return cls(**kwargs)
    except ScenarioError as exc:
        _fail(path, str(exc))
    except (TypeError, ValueError) as exc:
        _fail(path, f"bad {cls.__name__}: {exc}")


class JsonDocument:
    """The four document methods, all through the one mapping."""

    def as_dict(self) -> dict[str, Any]:
        return _write_document(self)

    @classmethod
    def from_dict(cls: type[T], data: object) -> T:
        return read(cls, data)  # type: ignore[no-any-return]

    def to_json(self, indent: int | None = None, **options: Any) -> str:
        return json.dumps(self.as_dict(**options), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls: type[T], text: str) -> T:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)
