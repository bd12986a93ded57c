"""Core type aliases and small value types shared across the library.

The paper's notation maps onto these types as follows:

* ``Srvrs``  — a set of :class:`ServerId`
* ``L``      — a set of :class:`Label`
* ``ref(B)`` — a :class:`BlockRef` (hex-encoded content hash)
* ``Rqsts``  — protocol-specific request objects (see ``repro.protocols.base``)
* ``Inds``   — protocol-specific indication objects

Keeping these as plain, hashable value types keeps every layer of the
stack (DAG, gossip, interpretation) trivially serializable and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NewType

#: Identifier of a server (the paper's ``n`` field of a block, and the
#: elements of ``Srvrs``).  Plain strings keep logs and test assertions
#: readable ("s1", "s2", ...).
ServerId = NewType("ServerId", str)

#: Label distinguishing parallel protocol instances (the paper's ``ℓ ∈ L``).
Label = NewType("Label", str)

#: Content-hash reference to a block (the paper's ``ref(B)``), hex encoded.
BlockRef = NewType("BlockRef", str)

#: Sequence number of a block (the paper's ``k ∈ N0``).
SeqNum = int


def server_id(name: str) -> ServerId:
    """Construct a :data:`ServerId` from a plain string."""
    return ServerId(name)


def label(name: str) -> Label:
    """Construct a :data:`Label` from a plain string."""
    return Label(name)


def make_servers(n: int, prefix: str = "s") -> list[ServerId]:
    """Return ``n`` distinct server identifiers ``s1 .. sN``.

    A convenience used pervasively by tests, examples and benchmarks.
    """
    if n < 1:
        raise ValueError(f"need at least one server, got {n}")
    return [ServerId(f"{prefix}{i}") for i in range(1, n + 1)]


def quorum_size(n: int) -> int:
    """Byzantine quorum ``2f + 1`` for ``n = 3f + 1`` servers.

    For arbitrary ``n`` this returns ``ceil((n + f + 1) / 2)`` specialised
    to the standard ``f = (n - 1) // 3`` fault budget, i.e. the smallest
    set guaranteed to intersect any other such set in a correct server.
    """
    return 2 * max_faults(n) + 1


def max_faults(n: int) -> int:
    """Maximum tolerated byzantine servers ``f`` for ``n`` servers (``n ⩾ 3f+1``)."""
    if n < 1:
        raise ValueError(f"need at least one server, got {n}")
    return (n - 1) // 3


def _register_with_codec(cls: type) -> None:
    """Register a marker-base subclass for codec decoding.

    Registration must happen at class-definition (module-import) time,
    not first-encode time: a process recovering from another process's
    WAL or checkpoint decodes these classes before it ever encodes one.
    Imported lazily — ``repro.dag`` imports this module.
    """
    from repro.dag.codec import register_dataclass

    register_dataclass(cls)


@dataclass(frozen=True, slots=True)
class Request:
    """Marker base class for protocol requests (the paper's ``r ∈ Rqsts``).

    Concrete protocols subclass this with frozen dataclasses so requests
    are hashable, comparable and canonically encodable.  Subclasses
    self-register with the codec at definition time, so requests stored
    as bytes (the storage WAL, live wire frames) decode back to the
    right class in any process that imported the protocol.
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        # Explicit two-arg super: ``slots=True`` recreates the class,
        # invalidating the ``__class__`` cell zero-arg super needs.
        super(Request, cls).__init_subclass__(**kwargs)
        _register_with_codec(cls)


@dataclass(frozen=True, slots=True)
class Indication:
    """Marker base class for protocol indications (the paper's ``i ∈ Inds``).

    Subclasses self-register with the codec, like :class:`Request`."""

    def __init_subclass__(cls, **kwargs: object) -> None:
        # Explicit two-arg super: ``slots=True`` recreates the class,
        # invalidating the ``__class__`` cell zero-arg super needs.
        super(Indication, cls).__init_subclass__(**kwargs)
        _register_with_codec(cls)
