"""Simulated network substrate (paper §2, Assumption 1).

The only network assumption the block DAG layer needs is *reliable
delivery*: a block sent between two correct servers eventually arrives.
The discrete-event simulator guarantees exactly that while modelling
latency, reordering, duplication, byzantine-link loss, and healing
partitions — everything needed to exercise the gossip protocol's
forwarding machinery and the liveness arguments.

* :mod:`repro.net.message` — wire envelopes (blocks and FWD requests).
* :mod:`repro.net.latency` — pluggable latency models.
* :mod:`repro.net.faults` — link faults (loss, duplication, partitions).
* :mod:`repro.net.simulator` — the event-driven core.
* :mod:`repro.net.transport` — per-server transport facade.
"""

from repro.net.faults import LinkFaults
from repro.net.latency import FixedLatency, JitterLatency, LatencyModel, PerLinkLatency
from repro.net.message import BlockEnvelope, Envelope, FwdRequestEnvelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport, Transport

__all__ = [
    "BlockEnvelope",
    "Envelope",
    "FixedLatency",
    "FwdRequestEnvelope",
    "JitterLatency",
    "LatencyModel",
    "LinkFaults",
    "NetworkSimulator",
    "PerLinkLatency",
    "SimTransport",
    "Transport",
]
