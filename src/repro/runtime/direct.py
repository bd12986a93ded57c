"""The direct-messaging baseline.

This is the "traditional protocol that materializes point-to-point
messages as direct network messages" of the paper's introduction: the
*same* :class:`~repro.protocols.base.ProcessInstance` objects run over
the simulated network, but every protocol message is

* serialized and sent as its own envelope, and
* individually signed by its sender and verified by its receiver.

``tests/integration/test_offline_and_parallel.py`` holds the embedding
against it for CLM-COMPRESS (``TestCompression``), CLM-SIG
(``TestBatchSignatures``), CLM-PARALLEL (``TestParallelInstances``) and
CLM-THROUGHPUT (``TestThroughput``); ``test_conformance.py`` compares the
*traces* of both runtimes (Theorem 5.1): the embedding must produce the
same per-server indications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import Signature
from repro.dag import codec
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Envelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.protocols.base import (
    Message,
    ProcessInstance,
    ProtocolSpec,
    StepResult,
    Trace,
)
from repro.types import Label, Request, ServerId, make_servers


@dataclass(frozen=True)
class ProtocolMessageEnvelope(Envelope):
    """One materialized protocol message with its own signature."""

    label: Label
    message: Message
    signature: Signature

    def wire_size(self) -> int:
        return len(codec.encode((str(self.label), self.message))) + 64


@dataclass
class DirectNodeMetrics:
    """Per-node counters for the baseline."""

    messages_sent: int = 0
    messages_received: int = 0
    self_deliveries: int = 0
    rejected_signatures: int = 0


class DirectNode:
    """One server running ``P`` directly over the network."""

    def __init__(
        self,
        server: ServerId,
        protocol: ProtocolSpec,
        keyring: KeyRing,
        transport: SimTransport,
        trace: Trace,
    ) -> None:
        self.server = server
        self.protocol = protocol
        self.keyring = keyring
        self.transport = transport
        self.trace = trace
        self.instances: dict[Label, ProcessInstance] = {}
        self.metrics = DirectNodeMetrics()

    def _instance(self, label: Label) -> ProcessInstance:
        instance = self.instances.get(label)
        if instance is None:
            instance = self.protocol.create(self.keyring.servers, self.server, label)
            self.instances[label] = instance
        return instance

    # -- the interface of P -----------------------------------------------------

    def request(self, label: Label, request: Request) -> None:
        """Apply ``request(ℓ, r)`` to the local process and ship the output."""
        result = self._instance(label).step_request(request)
        self._dispatch(label, result)

    def on_network(self, src: ServerId, envelope: Envelope) -> None:
        """Verify, deliver, ship responses."""
        if not isinstance(envelope, ProtocolMessageEnvelope):
            raise TypeError(f"direct node received unknown envelope {envelope!r}")
        message = envelope.message
        payload = codec.encode((str(envelope.label), message))
        if not self.keyring.verify(message.sender, payload, envelope.signature):
            self.metrics.rejected_signatures += 1
            return
        self._deliver(envelope.label, message)

    def _deliver(self, label: Label, message: Message) -> None:
        self.metrics.messages_received += 1
        result = self._instance(label).step_message(message)
        self._dispatch(label, result)

    def _dispatch(self, label: Label, result: StepResult) -> None:
        for indication in result.indications:
            self.trace.record(self.server, label, indication)
        for message in result.messages:
            if message.receiver == self.server:
                # Local loopback: no wire, no signature — scheduled (not
                # recursed) to keep delivery order event-driven.
                self.metrics.self_deliveries += 1
                self.transport.schedule(
                    0.0, lambda l=label, m=message: self._deliver(l, m)
                )
            else:
                payload = codec.encode((str(label), message))
                signature = self.keyring.sign(self.server, payload)
                self.metrics.messages_sent += 1
                self.transport.send(
                    message.receiver,
                    ProtocolMessageEnvelope(label, message, signature),
                )


class DirectRuntime:
    """N servers running ``P`` over materialized point-to-point messages.

    API mirrors :class:`~repro.runtime.cluster.Cluster` where it makes
    sense, so experiments can swap runtimes symmetrically.  There is no
    dissemination round structure — messages flow as soon as they are
    produced; :meth:`run` drains the network.
    """

    def __init__(
        self,
        protocol: ProtocolSpec,
        n: int | None = None,
        servers: Sequence[ServerId] | None = None,
        latency: LatencyModel | None = None,
        seed: int = 0,
        silent: Sequence[ServerId] = (),
    ) -> None:
        if servers is None:
            if n is None:
                raise ValueError("provide either n or servers")
            servers = make_servers(n)
        self.servers: tuple[ServerId, ...] = tuple(servers)
        self.keyring = KeyRing(self.servers)
        self.sim = NetworkSimulator(
            latency=latency if latency is not None else FixedLatency(),
            seed=seed,
        )
        self._trace = Trace()
        self.nodes: dict[ServerId, DirectNode] = {}
        silent_set = set(silent)
        for server in self.servers:
            transport = SimTransport(self.sim, server)
            if server in silent_set:
                # A silent/crashed seat: receives and discards.
                self.sim.register(server, lambda src, env: None)
            else:
                node = DirectNode(
                    server, protocol, self.keyring, transport, self._trace
                )
                self.nodes[server] = node
                self.sim.register(server, node.on_network)

    @property
    def correct_servers(self) -> list[ServerId]:
        """Servers actually running the protocol."""
        return [s for s in self.servers if s in self.nodes]

    def request(self, server: ServerId, label: Label, request: Request) -> None:
        """Submit ``request(ℓ, r)`` at ``server``."""
        self.nodes[server].request(label, request)

    def request_all(self, label: Label, request: Request) -> None:
        """Submit the same request at every running server."""
        for node in self.nodes.values():
            node.request(label, request)

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the network; returns events processed."""
        return self.sim.run_until_idle(max_events=max_events)

    def trace(self) -> Trace:
        """The observable behaviour so far."""
        return self._trace

    def total_messages_sent(self) -> int:
        """Protocol messages materialized on the wire."""
        return sum(node.metrics.messages_sent for node in self.nodes.values())
