"""Cluster runtimes: wiring servers, networks and protocols together.

* :mod:`repro.runtime.cluster` — N shims over the simulated network,
  round-driven dissemination, byzantine seats.
* :mod:`repro.runtime.adversary` — byzantine behaviours (silence,
  crashes, equivocation, garbage, withholding).
* :mod:`repro.runtime.faults` — the fault vocabulary: one schedule of
  partition, crash, byzantine, loss and duplication events.
* :mod:`repro.runtime.direct` — the baseline: the *same* protocol
  objects running over materialized, individually-signed point-to-point
  messages (what the paper's intro compares block DAGs against;
  :func:`repro.invariants.same_indications` is the comparison).
"""

from repro.runtime.adversary import (
    Adversary,
    CrashAdversary,
    EquivocatorAdversary,
    GarbageAdversary,
    SilentAdversary,
    WithholdingAdversary,
)
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime, ProtocolMessageEnvelope
from repro.runtime.faults import CrashFault, FaultSchedule
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)

__all__ = [
    "Adversary",
    "Cluster",
    "ClusterConfig",
    "CrashAdversary",
    "CrashFault",
    "DirectRuntime",
    "EquivocatorAdversary",
    "FaultSchedule",
    "GarbageAdversary",
    "InterpreterSnapshot",
    "ProtocolMessageEnvelope",
    "SilentAdversary",
    "StorageSnapshot",
    "WireSnapshot",
    "WithholdingAdversary",
]
