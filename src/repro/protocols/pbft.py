"""Deterministic leader-based consensus — simplified PBFT, Blockmania-style.

Blockmania (Danezis & Hrycyszyn 2018) — one of the four systems the
paper generalizes — interprets its block DAG as a *simplified PBFT*.
This module provides that protocol as an embeddable black box: a
single-shot, view-based, three-phase consensus (pre-prepare / prepare /
commit) with view changes.

**Determinism and timers.**  PBFT's liveness relies on timeouts, but
the embedding requires ``P`` to be deterministic (§2): a process may
not read a clock.  Following the paper's observation that "the exact
requirements on the network synchronicity depend on the protocol P" and
its §7 discussion of partial synchrony, timeouts are reified as
explicit :class:`Tick` *requests*: the environment (the shim user, or a
test harness) injects ticks, and a process that sees ``TIMEOUT`` ticks
without progress votes for a view change.  This turns partial synchrony
into data — exactly the trick Blockmania plays by reading timeouts off
the DAG structure — and keeps every transition a pure function of the
input sequence.

Interface::

    Rqsts = { propose(v) | v ∈ Vals } ∪ { tick }
    Inds  = { decide(v) }

Safety: agreement and validity hold with ``n ⩾ 3f + 1`` under the usual
PBFT quorum-intersection argument (view-change messages carry the
sender's prepared certificate; in the embedded setting those claims are
independently recomputable from the DAG, making them unforgeable).
Liveness: a decision is reached once a correct leader's view lasts long
enough — i.e. ticks are injected slowly enough, the moral equivalent of
partial synchrony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dag.codec import encoding_key
from repro.protocols.base import Context, Message, Payload, ProcessInstance, ProtocolSpec
from repro.types import Indication, Request, ServerId

Value = Any

#: Ticks a process waits in a view before voting to change it.
DEFAULT_TIMEOUT = 3


@dataclass(frozen=True, slots=True)
class Propose(Request):
    """Request: propose ``value`` for decision."""

    value: Value


@dataclass(frozen=True, slots=True)
class Tick(Request):
    """Request: one unit of logical time passed (drives view changes)."""


@dataclass(frozen=True, slots=True)
class Decide(Indication):
    """Indication: consensus decided ``value``."""

    value: Value


@dataclass(frozen=True, slots=True)
class PrePrepare(Payload):
    """Leader's proposal for ``view``."""

    view: int
    value: Value


@dataclass(frozen=True, slots=True)
class Prepare(Payload):
    """First-phase vote."""

    view: int
    value: Value


@dataclass(frozen=True, slots=True)
class Commit(Payload):
    """Second-phase vote."""

    view: int
    value: Value


@dataclass(frozen=True, slots=True)
class ViewChange(Payload):
    """Vote to move to ``new_view``; carries the sender's prepared
    certificate ``(prepared_view, prepared_value)`` or ``(-1, None)``."""

    new_view: int
    prepared_view: int
    prepared_value: Value


@dataclass(frozen=True, slots=True)
class NewView(Payload):
    """New leader's re-proposal for ``view``."""

    view: int
    value: Value


class Pbft(ProcessInstance):
    """One process of simplified PBFT (single-shot consensus)."""

    def __init__(self, ctx: Context, timeout: int = DEFAULT_TIMEOUT) -> None:
        super().__init__(ctx)
        self.view = 0
        self.decided: Value | None = None
        self.done = False
        self.pending: Value | None = None  # value from a local Propose request
        self.timeout = timeout
        self.ticks_in_view = 0
        self._preprepared: dict[int, Value] = {}  # view -> accepted proposal
        self._sent_prepare: set[int] = set()
        self._sent_commit: set[int] = set()
        self._sent_preprepare: set[int] = set()
        self._sent_viewchange: set[int] = set()
        self._sent_newview: set[int] = set()
        self._prepares: dict[tuple[int, bytes], set[ServerId]] = {}
        self._commits: dict[tuple[int, bytes], set[ServerId]] = {}
        self._prepare_values: dict[tuple[int, bytes], Value] = {}
        self._viewchanges: dict[int, dict[ServerId, tuple[int, Value]]] = {}
        self.prepared_view = -1
        self.prepared_value: Value | None = None

    # -- leadership -------------------------------------------------------------

    def leader_of(self, view: int) -> ServerId:
        """Round-robin leader assignment."""
        return self.ctx.servers[view % self.ctx.n]

    @property
    def is_leader(self) -> bool:
        """Whether this process leads its current view."""
        return self.leader_of(self.view) == self.ctx.self_id

    # -- requests ---------------------------------------------------------------

    def on_request(self, request: Request) -> None:
        if isinstance(request, Propose):
            self._on_propose(request.value)
        elif isinstance(request, Tick):
            self._on_tick()
        # Any other request is not one a correct user makes: ignored.

    def _on_propose(self, value: Value) -> None:
        if self.pending is None:
            self.pending = value
        self._maybe_lead()

    def _maybe_lead(self) -> None:
        """Leader of the current view proposes if it has something to propose."""
        if self.done or not self.is_leader or self.view in self._sent_preprepare:
            return
        value = self.prepared_value if self.prepared_view >= 0 else self.pending
        if value is None:
            return
        self._writable("_sent_preprepare").add(self.view)
        self.ctx.broadcast(PrePrepare(self.view, value))

    def _on_tick(self) -> None:
        if self.done:
            return
        self.ticks_in_view += 1
        if self.ticks_in_view >= self.timeout:
            self._vote_view_change(self.view + 1)

    def _vote_view_change(self, new_view: int) -> None:
        if new_view <= self.view or new_view in self._sent_viewchange:
            return
        self._writable("_sent_viewchange").add(new_view)
        self.view = new_view
        self.ticks_in_view = 0
        self.ctx.broadcast(
            ViewChange(new_view, self.prepared_view, self.prepared_value)
        )
        self._maybe_lead_new_view(new_view)

    # -- messages ---------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, PrePrepare):
            self._on_preprepare(message.sender, payload)
        elif isinstance(payload, Prepare):
            self._on_prepare(message.sender, payload)
        elif isinstance(payload, Commit):
            self._on_commit(message.sender, payload)
        elif isinstance(payload, ViewChange):
            self._on_viewchange(message.sender, payload)
        elif isinstance(payload, NewView):
            self._on_newview(message.sender, payload)
        else:
            raise TypeError(f"PBFT received foreign payload {payload!r}")

    def _on_preprepare(self, sender: ServerId, msg: PrePrepare) -> None:
        if self.done or msg.view != self.view:
            return
        if sender != self.leader_of(msg.view):
            return
        if msg.view in self._preprepared:
            return  # accept at most one proposal per view
        self._writable("_preprepared")[msg.view] = msg.value
        if msg.view not in self._sent_prepare:
            self._writable("_sent_prepare").add(msg.view)
            self.ctx.broadcast(Prepare(msg.view, msg.value))

    def _on_prepare(self, sender: ServerId, msg: Prepare) -> None:
        key = (msg.view, encoding_key(msg.value))
        self._writable_entry("_prepares", key, set).add(sender)
        self._writable("_prepare_values")[key] = msg.value
        self._check_prepared(msg.view)

    def _check_prepared(self, view: int) -> None:
        if self.done or view != self.view or view in self._sent_commit:
            return
        accepted = self._preprepared.get(view)
        if accepted is None:
            return
        key = (view, encoding_key(accepted))
        if len(self._prepares.get(key, ())) >= self.ctx.quorum:
            self._writable("_sent_commit").add(view)
            self.prepared_view = view
            self.prepared_value = accepted
            self.ctx.broadcast(Commit(view, accepted))

    def _on_commit(self, sender: ServerId, msg: Commit) -> None:
        key = (msg.view, encoding_key(msg.value))
        commits = self._writable_entry("_commits", key, set)
        commits.add(sender)
        if self.done:
            return
        if len(commits) >= self.ctx.quorum:
            self.decided = msg.value
            self.done = True
            self.ctx.indicate(Decide(msg.value))

    def _on_viewchange(self, sender: ServerId, msg: ViewChange) -> None:
        votes = self._writable_entry("_viewchanges", msg.new_view, dict)
        votes[sender] = (msg.prepared_view, msg.prepared_value)
        if self.done:
            return
        # Join rule: f+1 servers left our view — follow them even if our
        # own timer has not fired (standard PBFT amplification).
        if len(votes) >= self.ctx.f + 1 and msg.new_view > self.view:
            self._vote_view_change(msg.new_view)
        self._maybe_lead_new_view(msg.new_view)

    def _maybe_lead_new_view(self, new_view: int) -> None:
        """Leader of ``new_view`` announces it once a quorum voted for it."""
        if self.done or self.leader_of(new_view) != self.ctx.self_id:
            return
        if new_view in self._sent_newview or new_view != self.view:
            return
        votes = self._viewchanges.get(new_view, {})
        if self.ctx.self_id not in votes and new_view in self._sent_viewchange:
            votes = dict(votes)
            votes[self.ctx.self_id] = (self.prepared_view, self.prepared_value)
        if len(votes) < self.ctx.quorum:
            return
        # Choose the value of the highest prepared certificate; fall
        # back to our own pending proposal.  Ties broken by encoding
        # order so every replica of this process computes the same pick.
        best: tuple[int, bytes] | None = None
        value: Value | None = None
        for prepared_view, prepared_value in votes.values():
            if prepared_view < 0:
                continue
            candidate = (prepared_view, encoding_key(prepared_value))
            if best is None or candidate > best:
                best = candidate
                value = prepared_value
        if value is None:
            value = self.pending
        if value is None:
            return  # nothing to propose yet; a later Propose will lead
        self._writable("_sent_newview").add(new_view)
        self.ctx.broadcast(NewView(new_view, value))

    def _on_newview(self, sender: ServerId, msg: NewView) -> None:
        if self.done or sender != self.leader_of(msg.view):
            return
        if msg.view < self.view:
            return
        if msg.view > self.view:
            # The quorum moved on without us; catch up.
            self.view = msg.view
            self.ticks_in_view = 0
        if msg.view in self._preprepared:
            return
        self._writable("_preprepared")[msg.view] = msg.value
        if msg.view not in self._sent_prepare:
            self._writable("_sent_prepare").add(msg.view)
            self.ctx.broadcast(Prepare(msg.view, msg.value))


#: The protocol spec handed to ``shim``/``interpret``.
pbft_protocol = ProtocolSpec(name="pbft", factory=Pbft)


def pbft_protocol_with_timeout(timeout: int) -> ProtocolSpec:
    """A PBFT spec with a non-default view-change timeout (in ticks)."""
    return ProtocolSpec(
        name=f"pbft-t{timeout}",
        factory=lambda ctx: Pbft(ctx, timeout=timeout),
    )
