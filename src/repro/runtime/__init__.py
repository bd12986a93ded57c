"""Cluster runtimes: wiring servers, networks and protocols together.

* :mod:`repro.runtime.cluster` — N shims over the simulated network,
  round-driven dissemination, byzantine seats taken from the fault
  schedule.
* :mod:`repro.runtime.adversary` — the one byzantine seat and the
  table of scripts it runs (silence, crashes, equivocation, garbage,
  withholding).
* :mod:`repro.runtime.faults` — the fault vocabulary: one schedule of
  partition, crash, byzantine, loss and duplication events.
* :mod:`repro.runtime.direct` — the baseline: the *same* protocol
  objects running over materialized, individually-signed point-to-point
  messages (what the paper's intro compares block DAGs against;
  :func:`repro.invariants.same_indications` is the comparison).
"""

from repro.runtime.adversary import Adversary
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime, ProtocolMessageEnvelope
from repro.runtime.faults import ByzantineFault, CrashFault, FaultSchedule
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)

__all__ = [
    "Adversary",
    "ByzantineFault",
    "Cluster",
    "ClusterConfig",
    "CrashFault",
    "DirectRuntime",
    "FaultSchedule",
    "InterpreterSnapshot",
    "ProtocolMessageEnvelope",
    "StorageSnapshot",
    "WireSnapshot",
]
