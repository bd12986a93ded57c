"""Byzantine consistent broadcast — authenticated echo broadcast.

After Cachin, Guerraoui & Rodrigues, Module 3.10 ("authenticated echo
broadcast", Srikanth–Toueg style).  Weaker than reliable broadcast —
consistency without totality — and cheaper: one echo round, no ready
amplification.  It is the abstraction underlying broadcast-based
payment systems (FastPay, Astro) that the paper's introduction
motivates, which is why we embed it alongside BRB.

Interface::

    Rqsts = { bcb-broadcast(v) | v ∈ Vals }
    Inds  = { bcb-deliver(origin, v) }

Properties: validity, no duplication, integrity, and **consistency** —
no two correct servers deliver different values for the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec, holdable
from repro.types import Indication, Request, ServerId

Value = Any


@dataclass(frozen=True, slots=True)
class BcbBroadcast(Request):
    """Request: broadcast ``value`` consistently on this instance."""

    value: Value


@dataclass(frozen=True, slots=True)
class BcbDeliver(Indication):
    """Indication: ``value`` from ``origin`` is consistent."""

    origin: ServerId
    value: Value


@dataclass(frozen=True, slots=True)
class Send(Payload):
    """The sender's ``SEND v``."""

    value: Value


@dataclass(frozen=True, slots=True)
class BcbEcho(Payload):
    """A witness ``ECHO origin v``."""

    origin: ServerId
    value: Value


class ConsistentBroadcast(ProcessInstance):
    """One process of authenticated echo broadcast.

    The instance's sender is whichever server first requests
    ``BcbBroadcast`` (one label = one instance, matching BRB usage).
    Each process echoes at most one ``(origin, value)`` pair; a quorum
    of matching echoes makes the value consistent.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.sent = False
        self._echoed_for: set[ServerId] = set()
        self.delivered = False
        self._echoes: dict[tuple[ServerId, Value], set[ServerId]] = {}

    def on_request(self, request: Request) -> None:
        if not isinstance(request, BcbBroadcast) or not holdable(request.value):
            return  # not a request a correct user makes: ignored
        if self.sent:
            return
        self.sent = True
        self.ctx.broadcast(Send(request.value))

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, Send):
            self._on_send(message.sender, payload.value)
        elif isinstance(payload, BcbEcho):
            self._on_echo(message.sender, payload.origin, payload.value)
        else:
            raise TypeError(f"BCB received foreign payload {payload!r}")

    def _on_send(self, origin: ServerId, value: Value) -> None:
        # Echo at most once per origin: an equivocating origin gets at
        # most one echo from each correct process, so conflicting values
        # cannot both reach a quorum.
        if origin in self._echoed_for:
            return
        self._writable("_echoed_for").add(origin)
        self.ctx.broadcast(BcbEcho(origin, value))

    def _on_echo(self, sender: ServerId, origin: ServerId, value: Value) -> None:
        witnesses = self._writable_entry("_echoes", (origin, value), set)
        witnesses.add(sender)
        if len(witnesses) >= self.ctx.quorum and not self.delivered:
            self.delivered = True
            self.ctx.indicate(BcbDeliver(origin, value))


#: The protocol spec handed to ``shim``/``interpret``.
bcb_protocol = ProtocolSpec(name="bcb", factory=ConsistentBroadcast)
