"""A trivial deterministic protocol used by unit tests.

``CounterProtocol`` exposes the embedding's message plumbing with no
thresholds or fault logic in the way: an ``Inc(x)`` request broadcasts
``Add(x, sent)``, ``sent`` being how many the sender had broadcast
before; every process sums what it receives and indicates the running
total after each addition.  Tests assert on the exact message
and indication sequences, which makes it a sharp probe of Algorithm 2's
bookkeeping (buffer contents, ordering by ``<_M``, per-block state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec
from repro.types import Indication, Request


@dataclass(frozen=True, slots=True)
class Inc(Request):
    """Request: add ``amount`` at every server."""

    amount: int


@dataclass(frozen=True, slots=True)
class Add(Payload):
    """Message: ``amount`` to be added.  ``sent`` is the sender's count
    of earlier ``Add``s, so two ``Inc(x)`` make two messages."""

    amount: int
    sent: int


@dataclass(frozen=True, slots=True)
class Total(Indication):
    """Indication: running total after an addition."""

    value: int


class CounterProtocol(ProcessInstance):
    """Sum all received ``Add`` amounts; indicate the total each time.

    **COW audit note.**  This protocol holds *scalar state only*
    (``total``, ``request_count``: ints), so it needs no
    ``_writable``/``_writable_entry`` barrier anywhere: rebinding a
    scalar (``self.total += x`` rebinds — int ``+=`` allocates a new
    object) is automatically private to the writing fork, per the
    protocol-author rules in :mod:`repro.protocols.base`.  The
    fork-vs-reference-deepcopy trace-equality tests in
    ``tests/unit/test_cow.py`` and ``tests/integration/test_conformance.py``
    prove the exemption holds at runtime.
    Adding any *container* attribute here obligates a barrier.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.total = 0
        self.request_count = 0

    def on_request(self, request: Request) -> None:
        if not isinstance(request, Inc) or not isinstance(request.amount, int):
            return  # not a request a correct user makes: ignored
        self.ctx.broadcast(Add(request.amount, self.request_count))
        self.request_count += 1

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, Add):
            raise TypeError(f"counter received foreign payload {payload!r}")
        self.total += payload.amount
        self.ctx.indicate(Total(self.total))


#: The protocol spec handed to ``shim``/``interpret``.
counter_protocol = ProtocolSpec(name="counter", factory=CounterProtocol)
