"""Phase-king consensus — a classic deterministic BFT consensus.

Berman–Garay phase-king: ``n > 4f`` servers decide a common value in
``f + 1`` phases of two rounds each, with no randomness — a canonical
member of the deterministic protocol class the paper's embedding
targets (§2 explicitly rules out coin flips; phase king needs none).

Phase ``p`` (1-indexed):

* **round 1** — everyone broadcasts its current value; each process
  computes the majority value and its multiplicity;
* **round 2** — the phase's *king* (server ``p``) broadcasts its
  majority value; each process keeps its own majority if the
  multiplicity exceeded ``n/2 + f``, otherwise adopts the king's value.

After phase ``f + 1`` at least one phase had a correct king, which
forces agreement; validity holds because a unanimous start never loses
its majority.

**Round discipline without clocks.**  Phase king is a synchronous
protocol.  To keep the process deterministic, round advancement is an
explicit :class:`PkAdvance` *request* injected by the environment —
the synchrony assumption becomes "the environment advances rounds only
after all correct round-``r`` messages are in", mirroring how the
paper folds network assumptions into the protocol's own requirements
(§2).  The embedding then satisfies that assumption by advancing rounds
a safe number of gossip layers apart.

Interface::

    Rqsts = { pk-propose(v) } ∪ { pk-advance }
    Inds  = { pk-decide(v) }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dag.codec import encoding_key
from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec
from repro.types import Indication, Request, ServerId

Value = Any


@dataclass(frozen=True, slots=True)
class PkPropose(Request):
    """Request: start consensus with initial ``value``."""

    value: Value


@dataclass(frozen=True, slots=True)
class PkAdvance(Request):
    """Request: the current round is over; process it and move on."""


@dataclass(frozen=True, slots=True)
class PkDecide(Indication):
    """Indication: decided ``value`` after ``f + 1`` phases."""

    value: Value


@dataclass(frozen=True, slots=True)
class PkValue(Payload):
    """A value broadcast in (``phase``, ``round``)."""

    phase: int
    round: int
    value: Value


class PhaseKing(ProcessInstance):
    """One process of phase-king consensus (``n > 4f``).

    **COW audit note.**  The only mutable container is ``_received``
    (votes per ``(phase, round)``), and its single mutation site in
    :meth:`on_message` goes through ``_writable_entry`` so a fork
    privatizes just the touched round's slot.  Everything else —
    ``value``, ``phase``, ``round``, ``started``, ``decided``,
    ``_majority``, ``_multiplicity`` — is scalar state updated by
    rebinding, which is fork-private without a barrier (see
    :mod:`repro.protocols.base`).  ``_end_round_one``/``_end_round_two``
    only *read* ``_received`` (``dict.get``), which never needs a
    barrier.  The reference oracle in ``tests/integration/test_conformance.py``
    checks this discipline at runtime.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        # Phase king tolerates fewer faults than the 3f+1 system budget.
        self.f = (ctx.n - 1) // 4
        self.value: Value | None = None
        self.phase = 1
        self.round = 1
        self.started = False
        self.decided = False
        self._received: dict[tuple[int, int], dict[ServerId, Value]] = {}
        self._majority: Value | None = None
        self._multiplicity = 0

    def king_of(self, phase: int) -> ServerId:
        """The king of ``phase`` (1-indexed into the server list)."""
        return self.ctx.servers[(phase - 1) % self.ctx.n]

    def on_request(self, request: Request) -> None:
        if isinstance(request, PkPropose):
            self._on_propose(request.value)
        elif isinstance(request, PkAdvance):
            self._on_advance()
        # Any other request is not one a correct user makes: ignored.

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, PkValue):
            raise TypeError(f"phase king received foreign payload {payload!r}")
        slot = self._writable_entry(
            "_received", (payload.phase, payload.round), dict
        )
        # First value per sender per round counts; a byzantine sender
        # gains nothing by repetition.
        slot.setdefault(message.sender, payload.value)

    def _on_propose(self, value: Value) -> None:
        if self.started:
            return
        self.started = True
        self.value = value
        self.ctx.broadcast(PkValue(self.phase, 1, value))

    def _on_advance(self) -> None:
        if not self.started or self.decided:
            return
        if self.round == 1:
            self._end_round_one()
        else:
            self._end_round_two()

    def _end_round_one(self) -> None:
        votes = self._received.get((self.phase, 1), {})
        self._majority, self._multiplicity = _majority_value(votes, self.value)
        if self.king_of(self.phase) == self.ctx.self_id:
            self.ctx.broadcast(PkValue(self.phase, 2, self._majority))
        self.round = 2

    def _end_round_two(self) -> None:
        king_votes = self._received.get((self.phase, 2), {})
        king_value = king_votes.get(self.king_of(self.phase), self._majority)
        threshold = self.ctx.n / 2 + self.f
        if self._multiplicity > threshold:
            self.value = self._majority
        else:
            self.value = king_value
        self.phase += 1
        self.round = 1
        if self.phase > self.f + 1:
            self.decided = True
            self.ctx.indicate(PkDecide(self.value))
        else:
            self.ctx.broadcast(PkValue(self.phase, 1, self.value))

    @property
    def rounds_total(self) -> int:
        """Total number of rounds the protocol runs: 2 per phase."""
        return 2 * (self.f + 1)


def _majority_value(
    votes: dict[ServerId, Value], fallback: Value
) -> tuple[Value, int]:
    """The most frequent value and its multiplicity; ties broken by the
    canonical encoding order so every replica agrees on the outcome."""
    if not votes:
        return fallback, 0
    counts: dict[bytes, tuple[int, Value]] = {}
    for value in votes.values():
        key = encoding_key(value)
        count, _ = counts.get(key, (0, value))
        counts[key] = (count + 1, value)
    best_key = max(counts, key=lambda k: (counts[k][0], k))
    count, value = counts[best_key]
    return value, count


#: The protocol spec handed to ``shim``/``interpret``.
phase_king_protocol = ProtocolSpec(name="phase-king", factory=PhaseKing)
