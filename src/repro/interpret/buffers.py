"""Per-block message buffers — the paper's ``Ms[in, ℓ]`` / ``Ms[out, ℓ]``.

Each interpreted block carries, per protocol instance label, the set of
messages its builder's process *received at* this block and the set it
*emitted at* this block (§4).  The buffers use set semantics because
Algorithm 2 lines 9 and 11 are set unions: an identical message
reachable through two predecessors (possible only via equivocating
builders) is delivered once, and duplicate emissions collapse.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.interpret.order import ordered
from repro.protocols.base import Message
from repro.types import Label


#: What :meth:`MessageBuffers.outgoing_to` answers for a receiver the
#: block emitted nothing to.
_NOTHING: Mapping[Label, set[Message]] = MappingProxyType({})


class MessageBuffers:
    """The ``Ms`` annotation of one block: in/out message sets per label.

    Alongside the canonical out-sets, the buffers maintain a
    *receiver index* (``receiver -> label -> messages``): Algorithm 2's
    line-9 gather asks every direct predecessor for the messages with
    ``m.receiver = B.n``, so one probe per predecessor returns exactly
    the labels that have something for ``B.n`` — a successor's cost
    follows what it receives, not the number of labels ever requested
    nor the messages addressed to others.  The index is derived state
    — rebuilt by ``add_out`` wherever the buffers are reconstructed
    (checkpoint restore, rehydration) and never serialized."""

    __slots__ = ("_in", "_out", "_out_rcv")

    def __init__(self) -> None:
        self._in: dict[Label, set[Message]] = {}
        self._out: dict[Label, set[Message]] = {}
        self._out_rcv: dict[object, dict[Label, set[Message]]] = {}

    # -- writes (Algorithm 2 lines 6, 9, 11) -------------------------------------

    def add_in(self, label: Label, messages: Iterable[Message]) -> None:
        """``Ms[in, ℓ] ∪= messages`` (line 9)."""
        self._in.setdefault(label, set()).update(messages)

    def add_out(self, label: Label, messages: Iterable[Message]) -> None:
        """``Ms[out, ℓ] ∪= messages`` (lines 6, 11)."""
        self._out.setdefault(label, set()).update(messages)
        out_rcv = self._out_rcv
        for message in messages:
            by_label = out_rcv.get(message.receiver)
            if by_label is None:
                by_label = out_rcv[message.receiver] = {}
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = {message}
            else:
                bucket.add(message)

    # -- reads ----------------------------------------------------------------

    def incoming(self, label: Label) -> list[Message]:
        """``Ms[in, ℓ]`` ordered by ``<_M`` (line 10)."""
        return ordered(self._in.get(label, ()))

    def outgoing(self, label: Label) -> list[Message]:
        """``Ms[out, ℓ]`` ordered by ``<_M`` (for line 9 at successor blocks)."""
        return ordered(self._out.get(label, ()))

    def outgoing_to(self, receiver: object) -> Mapping[Label, set[Message]]:
        """``ℓ ↦ {m ∈ Ms[out, ℓ] | m.receiver = receiver}`` for every
        label with such a message, unordered — one block's whole
        contribution to the line 9 gather at a successor built by
        ``receiver``.  Callers must not mutate what is returned."""
        return self._out_rcv.get(receiver, _NOTHING)

    def outgoing_for(self, label: Label, receiver: object) -> list[Message]:
        """``{m ∈ Ms[out, ℓ] | m.receiver = receiver}`` — the line 9 filter."""
        return [m for m in self.outgoing(label) if m.receiver == receiver]

    def labels_in(self) -> Iterator[Label]:
        """Labels with any received message."""
        return iter(self._in)

    def in_count(self) -> int:
        """Total received messages across labels (metrics)."""
        return sum(len(v) for v in self._in.values())

    def out_count(self) -> int:
        """Total emitted messages across labels (metrics)."""
        return sum(len(v) for v in self._out.values())

    def snapshot(self) -> dict[str, dict[Label, frozenset[Message]]]:
        """Immutable view for equivalence assertions (Lemma 4.2)."""
        return {
            "in": {label: frozenset(msgs) for label, msgs in self._in.items()},
            "out": {label: frozenset(msgs) for label, msgs in self._out.items()},
        }
