"""Discrete-event network simulator.

A single-threaded event loop with a virtual clock: messages and timers
are heap-ordered events; running the simulation drains the heap.  The
loop is deterministic for a fixed seed — the foundation for replaying
"eventually" arguments as bounded checks.

Two kinds of events exist:

* **delivery** — a message handed to the destination's handler;
* **timer** — an arbitrary callback (gossip uses these for FWD retries
  and the cluster runtime for dissemination cadence).

The simulator also keeps the wire metrics (message and byte counters,
per envelope kind) that every benchmark reads.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError
from repro.net.faults import LinkFaults
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import BlockEnvelope, Envelope, FwdRequestEnvelope
from repro.types import ServerId

#: Handler invoked on delivery: ``handler(source, envelope)``.
Handler = Callable[[ServerId, Envelope], None]


def _envelope_ref(envelope: Envelope) -> str | None:
    """The block reference an envelope is about, if any (trace labels)."""
    if isinstance(envelope, BlockEnvelope):
        return str(envelope.block.ref)
    if isinstance(envelope, FwdRequestEnvelope):
        return str(envelope.ref)
    return None


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


@dataclass
class WireMetrics:
    """Counters of what actually crossed the simulated wire."""

    messages: int = 0
    bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, envelope: Envelope) -> None:
        kind = type(envelope).__name__
        size = envelope.wire_size()
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size


class NetworkSimulator:
    """The event loop connecting all simulated servers.

    Parameters
    ----------
    latency:
        Delay model for deliveries (default: fixed 1.0).
    seed:
        Seed for the simulation RNG (latency jitter, fault coin flips).
    faults:
        Link faults and partition windows; defaults to fault-free.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        seed: int = 0,
        faults: LinkFaults | None = None,
    ) -> None:
        self.latency = latency if latency is not None else FixedLatency()
        self.faults = faults if faults is not None else LinkFaults()
        self.rng = random.Random(seed)
        self.now = 0.0
        self.metrics = WireMetrics()
        self.delivered_count = 0
        self.dropped_count = 0
        self._heap: list[_Event] = []
        self._seq = 0
        self._handlers: dict[ServerId, Handler] = {}
        #: Per-server flight recorders (``repro.obs``).  Empty — the
        #: default — means tracing is off and the send/deliver paths
        #: pay a single truthiness check.
        self.tracers: dict[ServerId, object] = {}

    # -- wiring ---------------------------------------------------------------

    def register(self, server: ServerId, handler: Handler) -> None:
        """Attach ``server``'s receive handler."""
        if server in self._handlers:
            raise NetworkError(f"server already registered: {server!r}")
        self._handlers[server] = handler

    def replace_handler(self, server: ServerId, handler: Handler) -> None:
        """Swap a handler (used by adversaries hijacking a server)."""
        if server not in self._handlers:
            raise NetworkError(f"server not registered: {server!r}")
        self._handlers[server] = handler

    # -- sending ---------------------------------------------------------------

    def send(self, src: ServerId, dst: ServerId, envelope: Envelope) -> None:
        """Submit a message; the link faults and latency model decide the
        rest.  Self-sends are legal and go through the same path."""
        if dst not in self._handlers:
            raise NetworkError(f"unknown destination: {dst!r}")
        self.metrics.record(envelope)
        if self.tracers:
            tracer = self.tracers.get(src)
            if tracer is not None:
                tracer.emit(  # type: ignore[attr-defined]
                    "wire-send",
                    block=_envelope_ref(envelope),
                    peer=dst,
                    envelope=type(envelope).__name__,
                    bytes=envelope.wire_size(),
                )
        copies, extra_delay = self.faults.disposition(src, dst, self.now, self.rng)
        if not copies:
            self.dropped_count += 1
            return
        for _ in range(copies):
            delay = self.latency.sample(src, dst, self.rng) + extra_delay
            self._push(delay, lambda s=src, d=dst, e=envelope: self._deliver(s, d, e))

    def _deliver(self, src: ServerId, dst: ServerId, envelope: Envelope) -> None:
        handler = self._handlers.get(dst)
        if handler is None:  # pragma: no cover - handlers never deregister
            return
        self.delivered_count += 1
        if self.tracers:
            tracer = self.tracers.get(dst)
            if tracer is not None:
                tracer.emit(  # type: ignore[attr-defined]
                    "wire-recv",
                    block=_envelope_ref(envelope),
                    peer=src,
                    envelope=type(envelope).__name__,
                    bytes=envelope.wire_size(),
                )
        handler(src, envelope)

    # -- timers ---------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` time units."""
        if delay < 0:
            raise NetworkError(f"negative delay: {delay}")
        self._push(delay, action)

    def _push(self, delay: float, action: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, _Event(self.now + delay, self._seq, action))

    # -- running ---------------------------------------------------------------

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._heap)

    def step(self) -> bool:
        """Process one event; returns ``False`` when the heap is empty."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.now = event.time
        event.action()
        return True

    def run(self, max_events: int | None = None, until: float | None = None) -> int:
        """Drain events until idle, ``max_events``, or virtual ``until``.

        Returns the number of events processed.  ``until`` leaves later
        events queued and advances the clock to exactly ``until``.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and self._heap[0].time > until:
                break
            self.step()
            processed += 1
        if (
            until is not None
            and self.now < until
            and (not self._heap or self._heap[0].time > until)
        ):
            # The documented contract: the clock ends at exactly
            # ``until`` even when the heap drains early (but never
            # jumps past events a max_events break left pending).
            # Round-driven callers — the cluster, fault schedules in
            # round indices — rely on round r spanning
            # exactly [r·duration, (r+1)·duration) of virtual time.
            self.now = until
        return processed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain all events; raises if the budget is exhausted (a live
        lock in the system under test)."""
        processed = self.run(max_events=max_events)
        if self._heap:
            raise NetworkError(
                f"simulation still live after {max_events} events — "
                f"possible message storm"
            )
        return processed
