"""Byzantine reliable broadcast — authenticated double-echo (Algorithm 4).

This is the paper's running example ``P`` (§5): Bracha-style reliable
broadcast after Cachin, Guerraoui & Rodrigues, Module 3.12.

Interface::

    Rqsts = { broadcast(v) | v ∈ Vals }
    Inds  = { deliver(v)   | v ∈ Vals }

Messages are ``ECHO v`` and ``READY v``.  Properties (all preserved by
the embedding, Theorem 5.1):

* **validity** — if a correct server broadcasts ``v``, every correct
  server eventually delivers ``v``;
* **no duplication** — every correct server delivers at most once;
* **integrity** — if a correct server delivers ``v`` and the sender is
  correct, ``v`` was broadcast;
* **consistency** — no two correct servers deliver different values;
* **totality** — if any correct server delivers, every correct server
  eventually delivers.

One label = one broadcast instance; the server that issues the
``broadcast(v)`` request is that instance's sender.  Request
authentication is ``P``'s own concern (§5, "we assume that P — not
shim(P) — authenticates requests"): in the embedding it is inherited
from the block signature of the block carrying the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec, holdable
from repro.types import Indication, Request, ServerId

#: Values are any canonically-encodable payload (ints in the paper's examples).
Value = Any


@dataclass(frozen=True, slots=True)
class Broadcast(Request):
    """Request ``broadcast(v)``."""

    value: Value


@dataclass(frozen=True, slots=True)
class Deliver(Indication):
    """Indication ``deliver(v)``."""

    value: Value


@dataclass(frozen=True, slots=True)
class Echo(Payload):
    """``ECHO v`` message."""

    value: Value


@dataclass(frozen=True, slots=True)
class Ready(Payload):
    """``READY v`` message."""

    value: Value


class ReliableBroadcast(ProcessInstance):
    """One process of authenticated double-echo broadcast (Algorithm 4).

    State is the three booleans of the paper's pseudocode plus per-value
    sender sets for the two amplification thresholds.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.echoed = False
        self.readied = False
        self.delivered = False
        self._echo_senders: dict[Value, set[ServerId]] = {}
        self._ready_senders: dict[Value, set[ServerId]] = {}

    # Algorithm 4, lines 3–5: upon broadcast(v).
    def on_request(self, request: Request) -> None:
        if not isinstance(request, Broadcast) or not holdable(request.value):
            return  # not a request a correct user makes: ignored
        if self.echoed:
            return
        self.echoed = True
        self.ctx.broadcast(Echo(request.value))

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, Echo):
            self._on_echo(message.sender, payload.value)
        elif isinstance(payload, Ready):
            self._on_ready(message.sender, payload.value)
        else:
            raise TypeError(f"BRB received foreign payload {payload!r}")

    def _on_echo(self, sender: ServerId, value: Value) -> None:
        # Lines 6–8: echo amplification (echo at most once, any value).
        if not self.echoed:
            self.echoed = True
            self.ctx.broadcast(Echo(value))
        # Lines 9–11: 2f+1 ECHO v → READY v.  Write barrier: only this
        # value's sender set is copied out of shared state.
        senders = self._writable_entry("_echo_senders", value, set)
        senders.add(sender)
        if len(senders) >= self.ctx.quorum and not self.readied:
            self.readied = True
            self.ctx.broadcast(Ready(value))

    def _on_ready(self, sender: ServerId, value: Value) -> None:
        senders = self._writable_entry("_ready_senders", value, set)
        senders.add(sender)
        # Lines 12–14: f+1 READY v → READY v (amplification).
        if len(senders) >= self.ctx.f + 1 and not self.readied:
            self.readied = True
            self.ctx.broadcast(Ready(value))
        # Lines 15–17: 2f+1 READY v → deliver(v).
        if len(senders) >= self.ctx.quorum and not self.delivered:
            self.delivered = True
            self.ctx.indicate(Deliver(value))


#: The protocol spec handed to ``shim``/``interpret``.
brb_protocol = ProtocolSpec(name="brb", factory=ReliableBroadcast)
