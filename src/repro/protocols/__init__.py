"""Deterministic BFT protocols — the black boxes ``P`` the framework embeds.

Every protocol implements the interface of
:class:`repro.protocols.base.ProcessInstance`: it consumes requests and
messages, emits messages through a deterministic context, and raises
indications.  The embedding (``shim``/``interpret``) treats them as
opaque, exactly as the paper requires.

Provided protocols:

* :mod:`repro.protocols.brb` — byzantine reliable broadcast
  (authenticated double-echo, the paper's Algorithm 4).
* :mod:`repro.protocols.bcb` — byzantine consistent broadcast
  (authenticated echo broadcast, Cachin et al. Module 3.10).
* :mod:`repro.protocols.pbft` — leader-based total-order consensus in
  the style of simplified PBFT / Blockmania, with explicit TICK
  requests standing in for timers (keeping ``P`` deterministic).
* :mod:`repro.protocols.phaseking` — phase-king consensus (``n > 4f``),
  a classic deterministic synchronous protocol driven by explicit
  round-advance requests.
* :mod:`repro.protocols.counter` — a trivial instrumentation protocol
  used by unit tests.
* :mod:`repro.protocols.ledger` — a replicated append-only ledger, the
  growing-state workload.
"""

from repro.protocols.base import (
    Context,
    Message,
    Payload,
    ProcessInstance,
    ProtocolSpec,
    StepResult,
)
from repro.protocols.bcb import BcbDeliver, ConsistentBroadcast, bcb_protocol
from repro.protocols.brb import Broadcast, Deliver, ReliableBroadcast, brb_protocol
from repro.protocols.counter import CounterProtocol, counter_protocol
from repro.protocols.ledger import Append, Applied, Ledger, ledger_protocol
from repro.protocols.pbft import Decide, Pbft, Propose, Tick, pbft_protocol
from repro.protocols.phaseking import PhaseKing, PkDecide, PkPropose, phase_king_protocol

__all__ = [
    "Append",
    "Applied",
    "BcbDeliver",
    "Broadcast",
    "ConsistentBroadcast",
    "Context",
    "CounterProtocol",
    "Decide",
    "Deliver",
    "Ledger",
    "Message",
    "Payload",
    "Pbft",
    "PhaseKing",
    "PkDecide",
    "PkPropose",
    "ProcessInstance",
    "Propose",
    "ProtocolSpec",
    "ReliableBroadcast",
    "StepResult",
    "Tick",
    "bcb_protocol",
    "brb_protocol",
    "counter_protocol",
    "ledger_protocol",
    "pbft_protocol",
    "phase_king_protocol",
]
