"""The Scenario API — one declarative, replayable description of a run.

The run-facing layer over the runtime: instead of hand-writing
``cluster.request(...)`` / ``run_until`` loops, describe the whole run
as one :class:`Scenario` value — protocol, topology, workload, a
:class:`FaultSchedule` (re-exported from :mod:`repro.runtime.faults`),
stop conditions and probes — and execute it
with :class:`ScenarioRunner` (or :func:`run_scenario`), getting back a
typed :class:`ScenarioResult`.

Scenarios round-trip through JSON and replay deterministically for a
fixed seed.  A catalogue of named scenarios lives in
:mod:`repro.scenario.registry`; ``python -m repro.scenario`` lists,
runs and diffs them.

Quickstart::

    from repro.scenario import registry, run_scenario

    result = run_scenario(registry.get("fault-free"))
    print(result.latency_rounds.p50, result.throughput)
"""

from repro.scenario import registry
from repro.runtime.faults import (
    ByzantineFault,
    CrashFault,
    DuplicationFault,
    FaultEvent,
    FaultSchedule,
    LinkLossFault,
    PartitionFault,
)
from repro.scenario.probes import PROBES
from repro.obs.lifecycle import percentile
from repro.scenario.result import ScenarioResult
from repro.scenario.runner import ScenarioRunner, run_scenario
from repro.scenario.slo import SloReport, SloSpec, SloVerdict
from repro.scenario.spec import (
    PROTOCOLS,
    LatencySpec,
    ProtocolEntry,
    Scenario,
    StorageSpec,
    Topology,
)
from repro.scenario.stop import (
    AllDelivered,
    And,
    DagsConverged,
    Or,
    RoundsElapsed,
    StopCondition,
)
from repro.scenario.workload import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    Workload,
    WorkloadDriver,
)

__all__ = [
    "AllDelivered",
    "And",
    "ByzantineFault",
    "ClosedLoopWorkload",
    "CrashFault",
    "DagsConverged",
    "DuplicationFault",
    "FaultEvent",
    "FaultSchedule",
    "LatencySpec",
    "LinkLossFault",
    "OpenLoopWorkload",
    "Or",
    "PROBES",
    "PROTOCOLS",
    "PartitionFault",
    "ProtocolEntry",
    "RoundsElapsed",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SloReport",
    "SloSpec",
    "SloVerdict",
    "StopCondition",
    "StorageSpec",
    "Topology",
    "Workload",
    "WorkloadDriver",
    "percentile",
    "registry",
    "run_scenario",
]
