"""The deterministic protocol black box — the paper's ``P`` (§2, §4).

The embedding requires of ``P`` only that it is *deterministic*: a state
and a sequence of inputs (requests and messages) determine the next
state and the emitted messages.  This module pins that contract down as
an executable interface:

* A :class:`ProcessInstance` is one process of ``P`` — the thing the
  paper writes ``P(ℓ, s_i)`` and stores in ``B.PIs[ℓ]``.  It reacts to a
  request (:meth:`ProcessInstance.on_request`) or a message
  (:meth:`ProcessInstance.on_message`) by mutating its own state and
  emitting through its :class:`Context`.
* The :class:`Context` is the *only* effectful interface available to a
  process: ``send``, ``broadcast`` and ``indicate``.  It provides no
  clock and no randomness, which makes non-determinism a type error
  rather than a discipline.
* A :class:`ProtocolSpec` bundles a process factory with a protocol
  name; ``interpret`` instantiates one process per ``(label, server)``
  pair at the genesis blocks (§4, "we assume a running process instance
  ℓ for every s_i ∈ Srvrs").

Messages returned by a step are exactly "the messages m_1 … m_k
triggered" that the paper assumes are returned immediately (§4) —
:meth:`ProcessInstance.step_request` / :meth:`step_message` package a
call plus the outbox drain into one deterministic transition.

Process instances must be deep-copyable (Algorithm 2 line 4 copies
``B.parent.PIs`` onto ``B``), which holds automatically as long as
implementations keep only plain data in their attributes.

**Structural sharing (the copy-on-write state layer).**  The paper's
footnote 1 (§4) observes that a real implementation would avoid the
per-block annotation-copy cost with a global-state representation.  We
get the same effect while keeping per-block annotations observable: a
:class:`ProcessInstance` carries a *generation stamp* and per-container
ownership stamps (the state-cell table ``_cells``), :meth:`~ProcessInstance.fork`
produces an O(fields) clone whose containers are *shared* with the
original, and every mutation goes through a **write barrier**
(:meth:`~ProcessInstance._writable` / :meth:`~ProcessInstance._writable_entry`)
that copies only the touched container the first time the owning
generation touches it.  Observable state is byte-identical to the
deep-copy formulation — ``tests/reference.py`` keeps that formulation
alive as the oracle and property tests assert trace equality.

Rules for protocol authors:

* scalar attributes (ints, bools, frozen dataclasses, ``None``) need no
  barrier — rebinding ``self.x = ...`` is automatically private;
* a flat mutable container is mutated through
  ``self._writable("_field")`` (copies the whole container once per
  generation — fine for small containers);
* a keyed container-of-containers (quorum sets per value, votes per
  view, ...) is mutated through
  ``self._writable_entry("_field", key, factory)``, which shallow-copies
  the outer map once and privatizes only the touched entry — per-step
  cost stays proportional to the touched bucket, not total state;
* never mix both barriers on the same field: ``_writable`` assumes it
  owns the field *deeply*, ``_writable_entry`` only per-entry;
* two equal sends are one message: a block's ``Ms`` is a set
  (Algorithm 2 lines 9–11), so a message sent twice by one instance in
  one block arrives once, where a direct network delivers it twice.  A
  protocol for which the second send counts (two equal requests of a
  counter or a ledger) numbers its payloads with the sender's send
  count.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.dag.codec import register_dataclass
from repro.types import Indication, Label, Request, ServerId, max_faults, quorum_size


@dataclass(frozen=True, slots=True)
class Payload:
    """Marker base class for protocol message payloads.

    Concrete payloads are frozen dataclasses, so messages are hashable,
    canonically encodable (for the ``<_M`` order) and safely shared
    between simulated processes.  Subclasses self-register with the
    codec at definition time so persisted messages (checkpoints) decode
    in any process that imported the protocol.
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        # Explicit two-arg super: ``slots=True`` recreates the class,
        # invalidating the ``__class__`` cell zero-arg super needs.
        super(Payload, cls).__init_subclass__(**kwargs)
        register_dataclass(cls)


# Messages appear inside persisted checkpoints; registered for decoding.
@register_dataclass
@dataclass(frozen=True, slots=True)
class Message:
    """A protocol message ``m ∈ M_P`` with ``m.sender`` and ``m.receiver`` (§2)."""

    sender: ServerId
    receiver: ServerId
    payload: Payload


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of one deterministic transition: emitted messages (in
    emission order) and raised indications."""

    messages: tuple[Message, ...] = ()
    indications: tuple[Indication, ...] = ()


#: The result of a step that emitted and raised nothing (shared: a
#: :class:`StepResult` is immutable).
_SILENT = StepResult()


class Context:
    """Deterministic execution context of one process instance.

    Deliberately *minimal*: the absence of clocks, randomness, IO and
    inter-instance channels is what lets every server replay every other
    server's processes bit-for-bit (Lemma 4.2).
    """

    __slots__ = (
        "servers", "self_id", "label", "n", "f", "quorum", "_outbox", "_indications"
    )

    def __init__(
        self,
        servers: Sequence[ServerId],
        self_id: ServerId,
        label: Label,
    ) -> None:
        self.servers: tuple[ServerId, ...] = tuple(servers)
        self.self_id = self_id
        self.label = label
        #: Number of servers.  It and the two constants derived from it
        #: are fixed at construction: quorum checks read them every step.
        self.n = n = len(self.servers)
        #: Tolerated byzantine servers (``n ⩾ 3f + 1``).
        self.f = max_faults(n)
        #: Byzantine quorum size ``2f + 1``.
        self.quorum = quorum_size(n)
        self._outbox: list[Message] = []
        self._indications: list[Indication] = []

    # -- effects ---------------------------------------------------------------

    def send(self, receiver: ServerId, payload: Payload) -> None:
        """Emit one message to ``receiver``."""
        self._outbox.append(Message(self.self_id, receiver, payload))

    def broadcast(self, payload: Payload) -> None:
        """Emit one message to every server, including this process
        itself (the standard 'send to all' of BFT pseudocode)."""
        for server in self.servers:
            self._outbox.append(Message(self.self_id, server, payload))

    def indicate(self, indication: Indication) -> None:
        """Raise an indication ``i ∈ Inds_P`` to the user of ``P``."""
        self._indications.append(indication)

    def _drain(self) -> StepResult:
        outbox = self._outbox
        indications = self._indications
        if not outbox and not indications:
            return _SILENT  # most quorum steps emit and raise nothing
        self._outbox = []
        self._indications = []
        return StepResult(tuple(outbox), tuple(indications))


#: Monotone source of generation stamps.  A generation identifies one
#: *owner* of container state: the instance that created (or forked)
#: it.  Stamps only ever compare for equality, so a process-global
#: counter is enough — and it is never persisted (checkpoints snapshot
#: logical state only, see :data:`INTERNAL_STATE_ATTRS`).
_GENERATIONS = itertools.count(1)

#: Framework bookkeeping attributes that are *not* protocol state:
#: excluded from snapshots, fingerprints and checkpoints so the
#: structurally-shared representation stays observationally identical
#: to the deep-copy one.
INTERNAL_STATE_ATTRS = frozenset({"ctx", "_gen", "_cells"})


def fork_container(value: Any) -> Any:
    """Structural copy of one state container.

    Built-in mutable containers are copied recursively; everything else
    (scalars, frozen dataclasses, messages) is immutable protocol data
    and is *shared* — which is what makes this dramatically cheaper
    than ``copy.deepcopy`` on message-heavy quorum state.  Set elements
    are hashable, hence immutable, hence shareable wholesale.
    """
    if isinstance(value, dict):
        return {k: fork_container(v) for k, v in value.items()}
    if isinstance(value, set):
        return set(value)
    if isinstance(value, list):
        return [fork_container(v) for v in value]
    if isinstance(value, tuple):
        return tuple(fork_container(v) for v in value)
    return value


def holdable(value: Any) -> bool:
    """Whether ``value`` can key a process's sets and dicts."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


class ProcessInstance(ABC):
    """One process of a deterministic protocol ``P`` — ``B.PIs[ℓ]``.

    Subclasses implement :meth:`on_request` and :meth:`on_message`,
    using ``self.ctx`` for all effects.  State lives in plain instance
    attributes; the framework *forks* instances along parent chains
    (Algorithm 2 line 4) with structural sharing — see the module
    docstring — while ``copy.deepcopy`` remains valid (and is the
    reference interpreter's copy discipline): a deep copy clones ``_gen``
    and ``_cells`` together, so the clone owns exactly what the original
    owned, over containers that are now private anyway.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: This instance's generation stamp (who "I" am as an owner).
        self._gen = next(_GENERATIONS)
        #: The state-cell table: container field name (or ``(name,
        #: key)`` for keyed entries) -> generation that privately owns
        #: it.  Empty after a fork — nothing is owned until written.
        self._cells: dict[Hashable, int] = {}

    # -- structural sharing (the copy-on-write state layer) ---------------------

    def fork(self) -> "ProcessInstance":
        """An O(fields) clone sharing every container with ``self``.

        The clone gets a fresh generation and an empty cell table, so
        its first mutation of any container copies it (write barrier);
        untouched containers stay shared forever.  The context is
        shared too — it carries only static identity plus effect queues
        that are drained within every step.  This is Algorithm 2's
        line-4 copy made O(1)-ish; equivocation forks still split state
        exactly as the paper describes, because *each* sibling copies
        before its first write.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        if hasattr(self, "__dict__"):
            clone.__dict__.update(self.__dict__)
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(self, slot):
                    object.__setattr__(clone, slot, getattr(self, slot))
        clone._gen = next(_GENERATIONS)
        clone._cells = {}
        return clone

    def _writable(self, name: str) -> Any:
        """Write barrier for a flat container field.

        Returns a container the current generation privately owns,
        copying the (possibly shared) one on first touch.  Mutations of
        container fields must go through here (or
        :meth:`_writable_entry`); reads never need to.
        """
        value = getattr(self, name)
        if self._cells.get(name) != self._gen:
            value = fork_container(value)
            setattr(self, name, value)
            self._cells[name] = self._gen
        return value

    # lint: effect() — `factory` is always a container constructor (dict,
    # set, list) supplied at the call site inside a certified handler; it
    # allocates fresh state and touches nothing outside the instance.
    def _writable_entry(
        self, name: str, key: Hashable, factory: Callable[[], Any]
    ) -> Any:
        """Write barrier for one entry of a keyed container-of-containers.

        Privatizes the *outer* map with a shallow copy (entries still
        shared) once per generation, then privatizes only the ``key``
        entry — creating it via ``factory`` when absent.  Per-step cost
        is O(outer size) pointer-copying once plus O(touched bucket),
        independent of how much state the other buckets hold (a count
        test in ``tests/unit/test_cow.py`` holds privatisations per
        block flat while a ledger grows).
        """
        outer = getattr(self, name)
        if self._cells.get(name) != self._gen:
            outer = dict(outer)
            setattr(self, name, outer)
            self._cells[name] = self._gen
        cell = (name, key)
        if self._cells.get(cell) != self._gen:
            entry = outer.get(key)
            entry = factory() if entry is None else fork_container(entry)
            outer[key] = entry
            self._cells[cell] = self._gen
            return entry
        return outer[key]

    # -- protocol logic (implemented by concrete protocols) --------------------

    @abstractmethod
    def on_request(self, request: Request) -> None:
        """React to a user request ``r ∈ Rqsts_P``.  Ignore, never raise
        on, a request no correct user makes (a wrong type, a value the
        state cannot hold): a byzantine server's block may carry one."""

    @abstractmethod
    def on_message(self, message: Message) -> None:
        """React to a received message ``m`` with ``m.receiver = self``."""

    # -- framework-facing deterministic transitions -----------------------------

    def step_request(self, request: Request) -> StepResult:
        """Apply a request and return the triggered messages/indications
        (the paper's 'immediately returns messages m_1 … m_k')."""
        self.on_request(request)
        return self.ctx._drain()

    def step_message(self, message: Message) -> StepResult:
        """Apply a message delivery and return what it triggered."""
        if message.receiver != self.ctx.self_id:
            raise ValueError(
                f"message for {message.receiver!r} delivered to process of "
                f"{self.ctx.self_id!r}"
            )
        self.on_message(message)
        return self.ctx._drain()


#: Factory building one process instance for a ``(label, server)`` pair.
ProcessFactory = Callable[[Context], ProcessInstance]


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol as the framework sees it: a name plus a process factory.

    ``interpret`` calls ``spec.create(servers, self_id, label)`` once per
    simulated server per label; everything else about ``P`` stays
    opaque.
    """

    name: str
    factory: ProcessFactory

    def create(
        self,
        servers: Sequence[ServerId],
        self_id: ServerId,
        label: Label,
    ) -> ProcessInstance:
        """Instantiate the process ``P(ℓ, s_i)``."""
        return self.factory(Context(servers, self_id, label))


@dataclass
class Trace:
    """A recorded execution trace of a protocol instance set.

    Used by equivalence tests (Theorem 5.1): two executions of ``P`` are
    compared by their per-server indication sequences — the observable
    behaviour at the user interface.
    """

    indications: dict[ServerId, list[tuple[Label, Indication]]] = field(
        default_factory=dict
    )

    def record(self, server: ServerId, label: Label, indication: Indication) -> None:
        """Append an indication observed at ``server`` for instance ``label``."""
        self.indications.setdefault(server, []).append((label, indication))

    def at(self, server: ServerId) -> list[tuple[Label, Indication]]:
        """Indication sequence observed at ``server``."""
        return list(self.indications.get(server, []))

    def per_label(self, server: ServerId, label: Label) -> list[Indication]:
        """Indications at ``server`` for one instance."""
        return [i for (l, i) in self.indications.get(server, []) if l == label]
