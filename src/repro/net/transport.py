"""Per-server transport facade.

Gossip modules talk to a :class:`Transport`, never to the simulator
directly.  That keeps Algorithm 1's code shaped like the paper's
pseudocode ("send B to every s' ∈ Srvrs") and lets the same gossip
implementation run over the discrete-event simulator or over real
sockets (:mod:`repro.net.live.transport`) unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.net.message import Envelope
from repro.net.simulator import NetworkSimulator
from repro.types import ServerId


class Transport(ABC):
    """What a gossip module may do to the outside world."""

    @property
    @abstractmethod
    def self_id(self) -> ServerId:
        """The server this transport belongs to."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current (virtual) time — used only for retry pacing."""

    @abstractmethod
    def send(self, dst: ServerId, envelope: Envelope) -> None:
        """Send one envelope to ``dst``."""

    @abstractmethod
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` (timer facility for retries)."""

    def broadcast(self, servers: Sequence[ServerId], envelope: Envelope) -> None:
        """Send to every listed server except this one."""
        for server in servers:
            if server != self.self_id:
                self.send(server, envelope)


class RevocableTransport(Transport):
    """A transport that can be cut off — the egress half of a crash.

    The cluster runtime wraps every correct server's transport in one
    of these, whether or not its fault schedule holds crash events.
    Crashing a server revokes its transport: a pending timer callback of
    the dead incarnation (its gossip's FWD retry timer, armed before the
    crash) may still fire, but anything it tries to send or schedule is
    silently dropped, exactly as if the process were gone.
    """

    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self._revoked = False

    def revoke(self) -> None:
        """Cut this transport off permanently (the server crashed)."""
        self._revoked = True

    @property
    def revoked(self) -> bool:
        return self._revoked

    @property
    def self_id(self) -> ServerId:
        return self._inner.self_id

    @property
    def now(self) -> float:
        return self._inner.now

    def send(self, dst: ServerId, envelope: Envelope) -> None:
        if not self._revoked:
            self._inner.send(dst, envelope)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        if not self._revoked:
            self._inner.schedule(delay, action)

    def broadcast(self, servers: Sequence[ServerId], envelope: Envelope) -> None:
        if not self._revoked:
            self._inner.broadcast(servers, envelope)


class SimTransport(Transport):
    """Transport bound to one server on a :class:`NetworkSimulator`."""

    def __init__(self, simulator: NetworkSimulator, self_id: ServerId) -> None:
        self._sim = simulator
        self._self_id = self_id

    @property
    def self_id(self) -> ServerId:
        return self._self_id

    @property
    def now(self) -> float:
        return self._sim.now

    def send(self, dst: ServerId, envelope: Envelope) -> None:
        self._sim.send(self._self_id, dst, envelope)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        self._sim.schedule(delay, action)
