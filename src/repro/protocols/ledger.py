"""A replicated append-only ledger — the growing-state workload.

The broadcast protocols (BRB/BCB) and the toy counter keep O(1)-ish
per-instance state, which made the interpreter's per-step deep copy
look cheap.  Real replicated services *accumulate*: every applied
command grows the state that Algorithm 2's line-4 copy has to carry to
the next block.  This protocol makes that cost model explicit: on it
the structurally-shared state layer copies the same containers per
block however long the ledger grows (``tests/unit/test_cow.py``),
while the reference's ``copy.deepcopy`` walks the whole ledger.

Interface::

    Rqsts = { append(v) | v ∈ Vals }
    Inds  = { applied(seq, v) }

An ``append(v)`` broadcasts ``ENTRY v`` numbered by the sender's
count of earlier entries (so two ``append(v)`` are two entries); every
process applies received entries in ``<_M`` order, bucketing them by
sequence number (``_BUCKET_SIZE`` entries per bucket) so a single
application touches one bucket — the shape the write barrier's
:meth:`~repro.protocols.base.ProcessInstance._writable_entry` rewards
with O(bucket) copies instead of O(ledger).

Determinism: state is a pure function of the applied-entry sequence,
which the embedding fixes via ``<_M`` (§2) — every server's simulation
of every process applies the same entries in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec
from repro.types import Indication, Request

Value = Any

#: Entries per storage bucket: the write barrier privatizes one bucket
#: per touched write, so this bounds the per-step copy cost.
_BUCKET_SIZE = 16


@dataclass(frozen=True, slots=True)
class Append(Request):
    """Request: append ``value`` to the replicated ledger."""

    value: Value


@dataclass(frozen=True, slots=True)
class Entry(Payload):
    """Message: ``value`` to be applied by every replica.  ``sent`` is
    the sender's count of earlier entries."""

    value: Value
    sent: int


@dataclass(frozen=True, slots=True)
class Applied(Indication):
    """Indication: ``value`` was applied at ledger position ``seq``."""

    seq: int
    value: Value


class Ledger(ProcessInstance):
    """One replica of the append-only ledger."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        #: Applied entries, bucketed: ``seq // _BUCKET_SIZE -> [values]``.
        self._buckets: dict[int, list[Value]] = {}
        self.count = 0
        #: Entries this replica broadcast.
        self.sent = 0

    def on_request(self, request: Request) -> None:
        if not isinstance(request, Append):
            return  # not a request a correct user makes: ignored
        self.ctx.broadcast(Entry(request.value, self.sent))
        self.sent += 1

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, Entry):
            raise TypeError(f"ledger received foreign payload {payload!r}")
        seq = self.count
        bucket = self._writable_entry("_buckets", seq // _BUCKET_SIZE, list)
        bucket.append(payload.value)
        self.count = seq + 1
        self.ctx.indicate(Applied(seq, payload.value))

    # -- introspection ---------------------------------------------------------

    def entries(self) -> list[Value]:
        """The applied sequence, in order (tests and examples)."""
        return [
            value
            for index in sorted(self._buckets)
            for value in self._buckets[index]
        ]


#: The protocol spec handed to ``shim``/``interpret``.
ledger_protocol = ProtocolSpec(name="ledger", factory=Ledger)
