"""``LiveTransport`` — the :class:`~repro.net.transport.Transport` ABC
over real sockets.

One instance serves one server process: it listens on the server's own
address (UDS path or TCP ``host:port``), dials every peer lazily, and
carries the same two gossip envelopes the simulator carries — framed by
:mod:`repro.net.live.framing` over the canonical codec.

Design points, mirroring what the discrete-event simulator guarantees
for free:

* **Per-peer outbound queues.**  ``send`` never blocks the caller (the
  gossip hot path): envelopes join a bounded per-peer deque and a pump
  task drains it over the connection.  When a peer is down the queue
  retains traffic across reconnects, so a restarted peer receives the
  backlog — the live analogue of the simulator's in-flight heap.  On
  overflow the *oldest* envelope is dropped (gossip's FWD chasing and
  the node's tip beacon recover anything a drop loses).
* **Reconnect with jittered exponential backoff.**  Dial failures back
  off up to ``reconnect_ceiling`` with per-link seeded jitter, so a
  4-process cluster starting simultaneously does not stampede.  A
  peer's Hello on an inbound connection cuts the backoff short: a
  restarted peer that dials in is listening again.
* **Backpressure.**  The pump awaits ``drain()`` after every write, so
  a slow peer's TCP window throttles its queue drain instead of
  buffering unboundedly in the kernel; the bounded deque caps what a
  dead peer can pin in user space.
* **Flight-recorder wire events.**  ``wire-send``/``wire-recv`` are
  emitted with the same fields as the simulator's, so the lifecycle
  index and ``trace diff`` work identically on live traces.
* **Per-peer wall-clock metrics.**  Queue depth/high-water, frames and
  bytes in/out, oldest-drops, dial retries vs. attributable reconnects
  (``conn-lost`` → re-establishment), handshake latency, and decoder
  damage (resyncs, CRC failures) land in a
  :class:`~repro.obs.metrics.MetricsRegistry` — never in the trace, so
  enabling metrics cannot change a trace's bytes.

The event loop never leaks past this module's boundary: gossip calls
``send``/``schedule`` synchronously, and inbound frames call the
handler synchronously from the reader task — single-threaded, like
every other transport.
"""

from __future__ import annotations

import asyncio
import os
import random
from collections import deque
from typing import Callable, Mapping

from repro.errors import NetworkError
from repro.net.live.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    Hello,
    encode_frame,
    register_wire_types,
)
from repro.net.message import Envelope
from repro.net.simulator import WireMetrics, _envelope_ref
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_RECORDER
from repro.types import ServerId

#: Handler invoked on delivery: ``handler(source, envelope)``.
Handler = Callable[[ServerId, Envelope], None]

_CONNECT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)

#: Seconds a stopping transport keeps its listener open for peers that
#: are still connected to it (see :meth:`LiveTransport.stop`).
SHUTDOWN_LINGER = 5.0


class _PeerMeters:
    """Pre-resolved egress instruments for one peer (hot-path cheap)."""

    __slots__ = (
        "queue_depth",
        "queue_drops",
        "frames_out",
        "bytes_out",
        "connect_retries",
        "reconnects",
        "conn_lost",
        "handshake",
    )

    def __init__(self, registry: MetricsRegistry, peer: ServerId) -> None:
        p = str(peer)
        self.queue_depth = registry.gauge("transport.queue-depth", peer=p)
        self.queue_drops = registry.counter("transport.queue-drops", peer=p)
        self.frames_out = registry.counter("transport.frames-out", peer=p)
        self.bytes_out = registry.counter("transport.bytes-out", peer=p)
        self.connect_retries = registry.counter("transport.connect-retries", peer=p)
        self.reconnects = registry.counter("transport.reconnects", peer=p)
        self.conn_lost = registry.counter("transport.conn-lost", peer=p)
        self.handshake = registry.histogram("transport.handshake", peer=p)


class _IngressMeters:
    """Pre-resolved ingress instruments for one source (or ``unknown``)."""

    __slots__ = (
        "frames_in",
        "bytes_in",
        "resyncs",
        "crc_failures",
        "decode_failures",
        "bytes_skipped",
    )

    def __init__(self, registry: MetricsRegistry, src: str) -> None:
        self.frames_in = registry.counter("transport.frames-in", peer=src)
        self.bytes_in = registry.counter("transport.bytes-in", peer=src)
        self.resyncs = registry.counter("transport.resyncs", peer=src)
        self.crc_failures = registry.counter("transport.crc-failures", peer=src)
        self.decode_failures = registry.counter(
            "transport.decode-failures", peer=src
        )
        self.bytes_skipped = registry.counter("transport.bytes-skipped", peer=src)


def parse_address(address: str) -> tuple[str, object]:
    """Parse ``unix:/path/to.sock`` or ``tcp:host:port``.

    Returns ``("unix", path)`` or ``("tcp", (host, port))``.
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise NetworkError(f"empty UDS path in address {address!r}")
        return "unix", path
    if address.startswith("tcp:"):
        rest = address[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise NetworkError(
                f"bad TCP address {address!r} (expected tcp:host:port)"
            )
        return "tcp", (host, int(port))
    raise NetworkError(
        f"bad address {address!r} (expected unix:<path> or tcp:<host>:<port>)"
    )


class LiveTransport(Transport):
    """A server's socket endpoint: listener, per-peer dialers, queues.

    Parameters
    ----------
    self_id:
        This server's identity.
    addresses:
        Address of *every* server in the cluster, this one included
        (its entry is the listen address).
    handler:
        Ingress callback ``(src, envelope)``; may also be assigned
        after construction (the shim is built around the transport).
    tracer:
        Optional flight recorder for ``wire-send``/``wire-recv``.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`;
        one is created per transport when not given.  Metrics live
        strictly outside trace identity.
    seed:
        Seeds the per-link backoff jitter.
    max_queue:
        Bound of each per-peer outbound deque.
    """

    def __init__(
        self,
        self_id: ServerId,
        addresses: Mapping[ServerId, str],
        handler: Handler | None = None,
        tracer: object | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        seed: int = 0,
        max_queue: int = 4096,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reconnect_floor: float = 0.05,
        reconnect_ceiling: float = 1.0,
    ) -> None:
        register_wire_types()
        if self_id not in addresses:
            raise NetworkError(f"no listen address for {self_id!r}")
        self._self_id = self_id
        self.addresses: dict[ServerId, str] = dict(addresses)
        self.handler = handler
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.seed = seed
        self.max_queue = max_queue
        self.max_frame_bytes = max_frame_bytes
        self.reconnect_floor = reconnect_floor
        self.reconnect_ceiling = reconnect_ceiling
        self.metrics = WireMetrics()
        self.live_metrics = (
            metrics if metrics is not None else MetricsRegistry(server=str(self_id))
        )
        self.delivered_count = 0
        #: Set when an orderly shutdown begins: connection losses during
        #: teardown are expected and must not count as disturbances.
        self.closing = False
        #: Set by :meth:`stop`: inbound frames are read and dropped.
        self._stopped = False
        self._peer_meters: dict[ServerId, _PeerMeters] = {}
        self._ingress_meters: dict[str, _IngressMeters] = {}
        self._queues: dict[ServerId, deque[Envelope]] = {}
        self._wakeups: dict[ServerId, asyncio.Event] = {}
        #: Set when a peer's Hello arrives: it is listening again, so a
        #: pump backing off from failed dials to it may dial at once.
        self._redial: dict[ServerId, asyncio.Event] = {}
        self._writers: dict[ServerId, asyncio.StreamWriter] = {}
        #: Accepted connections: closing the listener does not close
        #: them, and a stopped transport must not keep reading frames
        #: its peers meant for whoever binds the address next.
        self._inbound: set[asyncio.StreamWriter] = set()
        self._tasks: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- Transport ABC ---------------------------------------------------------

    @property
    def self_id(self) -> ServerId:
        return self._self_id

    @property
    def now(self) -> float:
        """Monotonic loop time — CLOCK_MONOTONIC, comparable across
        processes on one machine (what the lifecycle stage joins need)."""
        if self._loop is None:
            return 0.0
        return self._loop.time()

    def send(self, dst: ServerId, envelope: Envelope) -> None:
        """Queue one envelope for ``dst``; never blocks."""
        self.metrics.record(envelope)
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "wire-send",
                block=_envelope_ref(envelope),
                peer=dst,
                envelope=type(envelope).__name__,
                bytes=envelope.wire_size(),
            )
        if dst == self._self_id:
            # Self-sends are legal on every transport; loop back
            # asynchronously to preserve "send returns before delivery".
            if self._loop is not None:
                self._loop.call_soon(self._deliver, dst, envelope)
            return
        queue = self._queues.get(dst)
        if queue is None:
            raise NetworkError(f"unknown destination: {dst!r}")
        meters = self._egress(dst)
        if len(queue) >= self.max_queue:
            queue.popleft()
            meters.queue_drops.inc()
        queue.append(envelope)
        meters.queue_depth.set(len(queue))
        self._wakeups[dst].set()

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` seconds of loop time."""
        if self._loop is None:
            raise NetworkError("transport not started")
        self._loop.call_later(delay, action)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start one pump task per peer."""
        self._loop = asyncio.get_running_loop()
        kind, target = parse_address(self.addresses[self._self_id])
        if kind == "unix":
            path = str(target)
            # A previous incarnation's socket file blocks rebinding —
            # each server owns its path, so a stale one is safe to clear.
            if os.path.exists(path):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=path
            )
        else:
            host, port = target  # type: ignore[misc]
            self._server = await asyncio.start_server(
                self._serve_connection, host=host, port=port
            )
        for peer in self.addresses:
            if peer == self._self_id:
                continue
            self._queues[peer] = deque()
            self._wakeups[peer] = asyncio.Event()
            self._redial[peer] = asyncio.Event()
            self._egress(peer)
            self._tasks.append(self._loop.create_task(self._pump(peer)))

    async def stop(self) -> None:
        """Cancel pumps, close the listener and every open connection.

        Outgoing connections close first; the listener and the inbound
        connections only once every peer still connected here has closed
        its side, or after :data:`SHUTDOWN_LINGER` seconds.  A peer lets
        go only from its own ``stop()``, after its ``closing`` is set, so
        in a fleet shutdown no peer finds this one gone while it still
        counts connection losses — however late it handles its own stop.
        Frames that arrive meanwhile are dropped, as a crash would.
        """
        self.closing = True
        self._stopped = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        if self._loop is not None:
            deadline = self._loop.time() + SHUTDOWN_LINGER
            while self._inbound and self._loop.time() < deadline:
                await asyncio.sleep(0.01)
        for writer in list(self._inbound):
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def queued(self, dst: ServerId) -> int:
        """Envelopes waiting in ``dst``'s outbound queue."""
        return len(self._queues.get(dst, ()))

    # -- metric handles --------------------------------------------------------

    def _egress(self, peer: ServerId) -> _PeerMeters:
        meters = self._peer_meters.get(peer)
        if meters is None:
            meters = self._peer_meters[peer] = _PeerMeters(
                self.live_metrics, peer
            )
        return meters

    def _ingress(self, src: str) -> _IngressMeters:
        meters = self._ingress_meters.get(src)
        if meters is None:
            meters = self._ingress_meters[src] = _IngressMeters(
                self.live_metrics, src
            )
        return meters

    # -- ingress ---------------------------------------------------------------

    def _deliver(self, src: ServerId, envelope: Envelope) -> None:
        self.delivered_count += 1
        if self.tracer.enabled:
            self.tracer.emit(  # type: ignore[attr-defined]
                "wire-recv",
                block=_envelope_ref(envelope),
                peer=src,
                envelope=type(envelope).__name__,
                bytes=envelope.wire_size(),
            )
        if self.handler is not None:
            self.handler(src, envelope)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One inbound connection: Hello first, then envelopes."""
        decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        src: ServerId | None = None
        meters = self._ingress("unknown")
        damage_seen = (0, 0, 0, 0)
        self._inbound.add(writer)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                meters.bytes_in.inc(len(chunk))
                for value in decoder.feed(chunk):
                    if isinstance(value, Hello):
                        src = ServerId(value.server)
                        meters = self._ingress(str(src))
                        redial = self._redial.get(src)
                        if redial is not None:
                            redial.set()
                    elif src is not None and isinstance(value, Envelope):
                        if self._stopped:
                            continue
                        meters.frames_in.inc()
                        self._deliver(src, value)
                    # Otherwise an envelope before Hello, or a
                    # non-envelope value: attributable to nobody, so
                    # it is dropped.
                # Decoder damage stats are cumulative per connection;
                # attribute this chunk's delta to the current source.
                stats = decoder.stats
                now_seen = (
                    stats.resyncs,
                    stats.crc_failures,
                    stats.decode_failures,
                    stats.bytes_skipped,
                )
                if now_seen != damage_seen:
                    meters.resyncs.inc(now_seen[0] - damage_seen[0])
                    meters.crc_failures.inc(now_seen[1] - damage_seen[1])
                    meters.decode_failures.inc(now_seen[2] - damage_seen[2])
                    meters.bytes_skipped.inc(now_seen[3] - damage_seen[3])
                    damage_seen = now_seen
        except asyncio.CancelledError:
            # Loop shutdown (asyncio.run cancels the handler tasks the
            # listener spawned): finish quietly so the streams machinery
            # doesn't log the cancellation as an error.
            pass
        except _CONNECT_ERRORS:
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()

    # -- egress ----------------------------------------------------------------

    async def _connect(self, peer: ServerId) -> asyncio.StreamWriter:
        kind, target = parse_address(self.addresses[peer])
        if kind == "unix":
            _, writer = await asyncio.open_unix_connection(path=str(target))
        else:
            host, port = target  # type: ignore[misc]
            _, writer = await asyncio.open_connection(host=host, port=port)
        writer.write(encode_frame(Hello(str(self._self_id))))
        await writer.drain()
        return writer

    async def _pump(self, peer: ServerId) -> None:
        """Drain ``peer``'s queue over one (re-established) connection."""
        rng = random.Random(f"{self._self_id}->{peer}#{self.seed}")
        backoff = self.reconnect_floor
        queue = self._queues[peer]
        wakeup = self._wakeups[peer]
        redial = self._redial[peer]
        meters = self._egress(peer)
        writer: asyncio.StreamWriter | None = None
        lost_established = False
        loop = asyncio.get_running_loop()
        try:
            while True:
                if writer is None:
                    dial_started = loop.time()
                    redial.clear()
                    try:
                        writer = await self._connect(peer)
                    except _CONNECT_ERRORS:
                        meters.connect_retries.inc()
                        # Back off, unless the peer dials in first.
                        try:
                            await asyncio.wait_for(
                                redial.wait(), backoff * (0.5 + rng.random())
                            )
                        except asyncio.TimeoutError:
                            pass
                        backoff = min(backoff * 2, self.reconnect_ceiling)
                        continue
                    meters.handshake.observe(loop.time() - dial_started)
                    if lost_established:
                        # Re-established after losing a live connection —
                        # the attributable "reconnect" (dial retries
                        # during the initial stampede don't count).
                        meters.reconnects.inc()
                        lost_established = False
                    self._writers[peer] = writer
                    backoff = self.reconnect_floor
                if not queue:
                    wakeup.clear()
                    if not queue:  # re-check: set() may have raced clear()
                        await wakeup.wait()
                    continue
                envelope = queue[0]
                frame = encode_frame(envelope)
                try:
                    writer.write(frame)
                    await writer.drain()
                except _CONNECT_ERRORS:
                    self._drop_writer(peer)
                    writer = None
                    if not self.closing:
                        meters.conn_lost.inc()
                        lost_established = True
                    continue
                # Popped only after a successful write: a write that
                # died mid-frame is retried on the next connection (the
                # decoder on the far side resyncs past the torn frame).
                queue.popleft()
                meters.frames_out.inc()
                meters.bytes_out.inc(len(frame))
                meters.queue_depth.set(len(queue))
        finally:
            self._drop_writer(peer)

    def _drop_writer(self, peer: ServerId) -> None:
        writer = self._writers.pop(peer, None)
        if writer is not None:
            writer.close()
