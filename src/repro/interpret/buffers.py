"""Per-block message buffers — the paper's ``Ms[in, ℓ]`` / ``Ms[out, ℓ]``.

Each interpreted block carries, per protocol instance label, the
messages its builder's process *received at* this block and the ones
it *emitted at* this block (§4).  Algorithm 2 lines 6, 9 and 11 are set
unions, so each buffer holds a message once: an identical message
reachable through two predecessors of one builder is delivered once,
and duplicate emissions collapse.

The buffers hold *runs*: tuples deduplicated and in ``<_M`` order.
``Ms[out]`` is kept ``receiver → label → run`` and ``Ms[in]`` as
``label → run``.  A run is ordered once, where its block emits it
(:func:`~repro.interpret.order.run_of`), and a successor's line-9
gather joins its predecessors' runs for ``B.n`` without ordering them
again (:func:`~repro.interpret.order.joined`).  The set views —
``snapshot()``, ``outgoing(ℓ)``, the counts — are derived when asked.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.interpret.order import ServerKeys, run_of, server_key
from repro.protocols.base import Message
from repro.types import Label

#: A deduplicated, ``<_M``-ordered tuple of messages.
Run = tuple[Message, ...]

#: What :meth:`MessageBuffers.outgoing_to` answers for a receiver the
#: block emitted nothing to.
_NOTHING: Mapping[Label, Run] = MappingProxyType({})


class MessageBuffers:
    """The ``Ms`` annotation of one block: in/out runs per label.

    ``Ms[out]`` is indexed by receiver first: Algorithm 2's line-9
    gather asks every direct predecessor for the messages with
    ``m.receiver = B.n``, so one probe per predecessor returns exactly
    the labels that have something for ``B.n`` — a successor's cost
    follows what it receives, not the number of labels ever requested
    nor the messages addressed to others.  ``_stepped`` holds every
    label the block stepped, so a label that emitted nothing keeps its
    empty ``Ms[out, ℓ]``."""

    __slots__ = ("_in", "_out", "_stepped")

    def __init__(self) -> None:
        self._in: dict[Label, Run] = {}
        self._out: dict[object, dict[Label, Run]] = {}
        self._stepped: set[Label] = set()

    # -- writes (Algorithm 2 lines 6, 9, 11) -------------------------------------

    def receive(self, label: Label, inbox: Run) -> None:
        """``Ms[in, ℓ] := inbox``, a run gathered for this block (line 9)."""
        self._in[label] = inbox

    def add_in(
        self, label: Label, messages: Iterable[Message], keys: ServerKeys | None = None
    ) -> None:
        """``Ms[in, ℓ] ∪= messages`` (line 9); ``keys`` as in
        :func:`~repro.interpret.order.ordered`."""
        self._in[label] = run_of([*self._in.get(label, ()), *messages], keys)

    def add_out(
        self, label: Label, messages: Iterable[Message], keys: ServerKeys | None = None
    ) -> None:
        """``Ms[out, ℓ] ∪= messages`` (lines 6, 11): one run per
        receiver, ordered here and nowhere downstream — and only when a
        receiver's run grows past one message."""
        self._stepped.add(label)
        out = self._out
        grown: set[object] | None = None
        for message in messages:
            receiver = message.receiver
            by_label = out.get(receiver)
            if by_label is None:
                out[receiver] = {label: (message,)}
                continue
            held = by_label.get(label)
            if held is None:
                by_label[label] = (message,)
                continue
            by_label[label] = held + (message,)
            if grown is None:
                grown = {receiver}
            else:
                grown.add(receiver)
        if grown is not None:
            for receiver in grown:
                by_label = out[receiver]
                by_label[label] = run_of(by_label[label], keys)

    # -- reads ----------------------------------------------------------------

    def incoming(self, label: Label) -> list[Message]:
        """``Ms[in, ℓ]`` ordered by ``<_M`` (line 10)."""
        return list(self._in.get(label, ()))

    def outgoing(self, label: Label) -> list[Message]:
        """``Ms[out, ℓ]`` ordered by ``<_M`` (for line 9 at successor blocks)."""
        return list(self.runs()["out"].get(label, ()))

    def outgoing_to(self, receiver: object) -> Mapping[Label, Run]:
        """``ℓ ↦ {m ∈ Ms[out, ℓ] | m.receiver = receiver}`` as runs, for
        every label with such a message — one block's whole
        contribution to the line 9 gather at a successor built by
        ``receiver``.  Callers must not mutate what is returned."""
        return self._out.get(receiver, _NOTHING)

    def outgoing_for(self, label: Label, receiver: object) -> list[Message]:
        """``{m ∈ Ms[out, ℓ] | m.receiver = receiver}`` — the line 9 filter."""
        return list(self.outgoing_to(receiver).get(label, ()))

    def runs(self, keys: ServerKeys | None = None) -> dict[str, dict[Label, Run]]:
        """``Ms`` label by label as runs: ``in`` as kept, and ``out`` for
        every stepped label with its receivers' runs joined in the order
        of their encodings (each keyed once in ``keys``) — ``<_M``
        order, since every message here is sent by the block's builder.
        Callers must not mutate ``in``."""
        out: dict[Label, Run] = {label: () for label in self._stepped}
        receivers: Iterable[object] = self._out
        if len(self._out) > 1:
            held = {} if keys is None else keys
            receivers = sorted(self._out, key=lambda receiver: server_key(held, receiver))
        for receiver in receivers:
            for label, run in self._out[receiver].items():
                out[label] += run
        return {"in": self._in, "out": out}

    def labels_in(self) -> Iterator[Label]:
        """Labels with any received message."""
        return iter(self._in)

    def in_count(self) -> int:
        """Total received messages across labels (metrics)."""
        return sum(len(run) for run in self._in.values())

    def out_count(self) -> int:
        """Total emitted messages across labels (metrics)."""
        return sum(
            len(run) for by_label in self._out.values() for run in by_label.values()
        )

    def snapshot(self) -> dict[str, dict[Label, frozenset[Message]]]:
        """Immutable view for equivalence assertions (Lemma 4.2)."""
        return {
            side: {label: frozenset(run) for label, run in runs.items()}
            for side, runs in self.runs().items()
        }
