"""The registry of named scenarios — the runnable catalogue behind
``python -m repro.scenario``.

Each entry is a builder taking ``smoke`` (a smaller, CI-friendly
variant with the same shape) and returning a full :class:`Scenario`
value.  Because scenarios are plain data, ``show <name>`` prints the
exact JSON that ``run <name>`` executes — the catalogue doubles as the
schema's worked examples.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ScenarioError
from repro.runtime.faults import (
    ByzantineFault,
    CrashFault,
    FaultSchedule,
    PartitionFault,
)
from repro.scenario.slo import SloSpec
from repro.scenario.spec import LatencySpec, Scenario, StorageSpec, Topology
from repro.scenario.stop import AllDelivered, And, DagsConverged, RoundsElapsed
from repro.scenario.workload import ClosedLoopWorkload, OpenLoopWorkload

ScenarioBuilder = Callable[[bool], Scenario]

_DEFAULT_PROBES = ("total-blocks", "wire-bytes", "delivered")


def _fault_free(smoke: bool) -> Scenario:
    return Scenario(
        name="fault-free",
        protocol="brb",
        description="The plain case: reliable broadcast, no faults, open-loop "
        "workload until everything is delivered everywhere.",
        workload=OpenLoopWorkload(rate=1 if smoke else 2, rounds=2 if smoke else 3),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES,
        max_rounds=16,
    )


def _partition_heal(smoke: bool) -> Scenario:
    return Scenario(
        name="partition-heal",
        protocol="brb",
        description="A 2|2 partition opens mid-workload and heals; "
        "queued cross-cut traffic lands and the DAGs reconverge.",
        workload=OpenLoopWorkload(rate=1, rounds=2 if smoke else 4),
        faults=FaultSchedule(
            (
                PartitionFault(
                    start_round=1,
                    heal_round=3 if smoke else 5,
                    group_a=("s1", "s2"),
                    group_b=("s3", "s4"),
                ),
            )
        ),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES,
        max_rounds=32,
    )


def _crash_restart(smoke: bool) -> Scenario:
    return Scenario(
        name="crash-restart",
        protocol="counter",
        description="A replicated counter ledger; one server crashes, "
        "loses all volatile state, restarts from WAL + checkpoint and "
        "converges to the same ledger (Theorem 5.1 across a crash).",
        topology=Topology(
            storage=StorageSpec(checkpoint_interval=6)
        ),
        workload=OpenLoopWorkload(
            rate=1, rounds=4 if smoke else 8, shared_label="ledger"
        ),
        faults=FaultSchedule(
            (
                CrashFault(
                    server="s3",
                    crash_round=2 if smoke else 3,
                    restart_round=5 if smoke else 8,
                ),
            )
        ),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES + ("down-servers", "wal-bytes"),
        max_rounds=48,
    )


def _equivocator(smoke: bool) -> Scenario:
    return Scenario(
        name="equivocator",
        protocol="brb",
        description="A byzantine seat forks its chain (Figure 3) and "
        "tells each network half a different value; correct servers "
        "absorb both versions and still agree.  Tracing is on so "
        "``trace diff`` across two correct servers pins the fork.",
        topology=Topology(trace=True),
        faults=FaultSchedule(
            (
                ByzantineFault(
                    server="s4", behaviour="equivocator", equivocate_at=(1,)
                ),
            )
        ),
        workload=OpenLoopWorkload(rate=1, rounds=2 if smoke else 3),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES,
        max_rounds=32,
    )


def _mixed_faults(smoke: bool) -> Scenario:
    return Scenario(
        name="mixed-faults",
        protocol="brb",
        description="All three fault families in one timeline (n=7, "
        "f=2): an equivocator seat, a crash + restart-from-disk, and a "
        "partition that heals — the 'any schedule of faults' pitch.",
        # prune=True again (PR 4): the coordinated GC horizon freezes
        # during the partition, so the equivocator's delayed fork
        # sibling rehydrates its pruned inputs from the covering
        # checkpoint instead of stalling every honest descendant (the
        # PR 3 below-horizon hazard, closed).
        topology=Topology(
            n=7,
            storage=StorageSpec(checkpoint_interval=8, prune=True),
        ),
        workload=OpenLoopWorkload(rate=1 if smoke else 2, rounds=4 if smoke else 6),
        faults=FaultSchedule(
            (
                ByzantineFault(
                    server="s7", behaviour="equivocator", equivocate_at=(2,)
                ),
                CrashFault(server="s3", crash_round=3, restart_round=7),
                PartitionFault(
                    start_round=2,
                    heal_round=5,
                    group_a=("s1", "s2", "s3"),
                    group_b=("s4", "s5", "s6", "s7"),
                ),
            )
        ),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES + ("down-servers",),
        max_rounds=64,
    )


def _saturation(smoke: bool) -> Scenario:
    return Scenario(
        name="saturation",
        protocol="brb",
        description="Open-loop saturation: a fixed high injection rate "
        "regardless of completion; batching keeps wire envelopes near "
        "constant while throughput scales with the rate.",
        workload=OpenLoopWorkload(rate=4 if smoke else 16, rounds=3 if smoke else 6),
        stop=AllDelivered(),
        probes=_DEFAULT_PROBES + ("backlog", "issued"),
        max_rounds=40,
    )


def _closed_loop(smoke: bool) -> Scenario:
    return Scenario(
        name="closed-loop",
        protocol="brb",
        description="Closed-loop latency probe: a fixed number of "
        "clients, each issuing its next request only after the "
        "previous one delivered everywhere.",
        workload=ClosedLoopWorkload(clients=2, total=4 if smoke else 8),
        stop=AllDelivered(),
        probes=_DEFAULT_PROBES,
        max_rounds=64,
    )


def _pruning(smoke: bool) -> Scenario:
    return Scenario(
        name="pruning",
        protocol="counter",
        description="Long-run soak with aggressive checkpoints and "
        "pruning: WAL records are retired below the stable frontier "
        "while the ledger keeps advancing.",
        topology=Topology(
            storage=StorageSpec(
                checkpoint_interval=8, prune=True
            )
        ),
        workload=OpenLoopWorkload(
            rate=1, rounds=10 if smoke else 24, shared_label="ledger"
        ),
        stop=And((RoundsElapsed(14 if smoke else 30), AllDelivered())),
        probes=("total-blocks", "wal-bytes", "blocks-interpreted"),
        max_rounds=24 if smoke else 48,
    )


def _gc_horizon_soak(smoke: bool) -> Scenario:
    return Scenario(
        name="gc-horizon-soak",
        protocol="counter",
        description="Long-run ledger soak under an equivocator and a "
        "crash/restart with coordinated-horizon GC: resident "
        "annotations and WAL stay bounded while every honest block is "
        "interpreted everywhere (checked against prune=False by "
        "tests/integration/test_gc_pinning.py).",
        topology=Topology(
            n=7,
            storage=StorageSpec(
                checkpoint_interval=8, prune=True
            ),
        ),
        workload=OpenLoopWorkload(
            rate=1, rounds=8 if smoke else 20, shared_label="ledger"
        ),
        faults=FaultSchedule(
            (
                ByzantineFault(
                    server="s7", behaviour="equivocator",
                    equivocate_at=(2,) if smoke else (2, 9),
                ),
                CrashFault(
                    server="s3",
                    crash_round=3 if smoke else 5,
                    restart_round=6 if smoke else 10,
                ),
            )
        ),
        stop=And((RoundsElapsed(10 if smoke else 24), AllDelivered())),
        probes=(
            "total-blocks",
            "resident-states",
            "wal-bytes",
            "below-horizon",
            "rehydrated",
        ),
        max_rounds=20 if smoke else 48,
    )


def _cow_state_growth(smoke: bool) -> Scenario:
    return Scenario(
        name="cow-state-growth",
        protocol="ledger",
        description="Replicated append-only ledger under sustained "
        "load: per-instance state grows with every applied entry, the "
        "workload the structurally-shared state layer keeps cheap.",
        workload=OpenLoopWorkload(
            rate=4 if smoke else 8,
            rounds=8 if smoke else 16,
            shared_label="ledger",
        ),
        stop=And((AllDelivered(), DagsConverged())),
        probes=("total-blocks", "blocks-interpreted", "delivered"),
        max_rounds=32 if smoke else 48,
    )


def _flight_recorder(smoke: bool) -> Scenario:
    return Scenario(
        name="flight-recorder",
        protocol="brb",
        description="Eight servers with the flight recorder on and "
        "storage enabled: every seal/wire/validate/interpret/WAL/"
        "checkpoint event lands in a per-server trace, and the result "
        "carries seal→interpret latency percentiles.  Same seed ⇒ "
        "byte-identical trace files (the observability demo).",
        topology=Topology(
            n=8,
            trace=True,
            storage=StorageSpec(checkpoint_interval=8),
        ),
        workload=OpenLoopWorkload(rate=1 if smoke else 2, rounds=3 if smoke else 6),
        stop=And((AllDelivered(), DagsConverged())),
        probes=_DEFAULT_PROBES
        + (
            "commit-latency-p50",
            "commit-latency-p99",
            "condemned-below-horizon",
        ),
        max_rounds=32,
    )


def _live_smoke(smoke: bool) -> Scenario:
    return Scenario(
        name="live-smoke",
        protocol="brb",
        description="The live-transport twin scenario: fault-free BRB "
        "with tracing on and a fixed tick budget, runnable both on the "
        "simulator and (``run --live``) as four OS processes over "
        "unix-domain sockets.  Same document, same workload schedule, "
        "same per-builder chains — ``trace diff --mode chains`` "
        "between the two arms is silent.",
        topology=Topology(n=4, trace=True),
        workload=OpenLoopWorkload(rate=1 if smoke else 2, rounds=2),
        stop=RoundsElapsed(6 if smoke else 8),
        probes=("total-blocks", "delivered"),
        max_rounds=6 if smoke else 8,
        # Generous but real: four local processes over UDS commit a
        # block in well under five seconds unless the pipeline is
        # actually broken; a fault-free run drops and reconnects
        # nothing (the dial stampede at start-up is not a reconnect).
        slo=SloSpec(commit_p99_ms=5000.0, max_queue_drops=0, max_reconnects=0),
    )


def _metrics_soak(smoke: bool) -> Scenario:
    return Scenario(
        name="metrics-soak",
        protocol="counter",
        description="Telemetry attribution soak: eight servers on the "
        "counter ledger with tracing on; one seat is SIGKILLed mid-run "
        "and respawned, and the cluster MetricsReport must attribute "
        "the disturbance — peer connection losses and reconnects — to "
        "exactly the killed seat.  Runnable on both arms; the live arm "
        "(``run --live``) is the one that exercises the wall-clock "
        "telemetry.",
        topology=Topology(
            n=8,
            trace=True,
            storage=StorageSpec(checkpoint_interval=6),
        ),
        workload=OpenLoopWorkload(
            rate=1, rounds=3 if smoke else 6, shared_label="ledger"
        ),
        faults=FaultSchedule(
            (
                CrashFault(
                    server="s5",
                    crash_round=2,
                    restart_round=4 if smoke else 6,
                ),
            )
        ),
        stop=RoundsElapsed(6 if smoke else 10),
        probes=("total-blocks", "delivered", "down-servers"),
        max_rounds=6 if smoke else 10,
        # The commit p99 rides through the crash window: peers stall at
        # the tick gate (up to tick_timeout) while the victim is down,
        # so the bound covers a couple of gate timeouts plus slack.
        slo=SloSpec(commit_p99_ms=30000.0, max_queue_drops=64),
    )


def _offline_interpretation(smoke: bool) -> Scenario:
    return Scenario(
        name="offline-interpretation",
        protocol="brb",
        description="Build the DAG with interpretation off, then "
        "interpret the whole run after the fact (the paper's off-line "
        "mode): deliveries all land in the final sweep.",
        topology=Topology(auto_interpret=False),
        workload=OpenLoopWorkload(rate=1 if smoke else 2, rounds=2 if smoke else 3),
        stop=RoundsElapsed(6 if smoke else 8),
        probes=("total-blocks", "wire-bytes"),
        max_rounds=6 if smoke else 8,
    )


REGISTRY: dict[str, ScenarioBuilder] = {
    "fault-free": _fault_free,
    "partition-heal": _partition_heal,
    "crash-restart": _crash_restart,
    "equivocator": _equivocator,
    "mixed-faults": _mixed_faults,
    "saturation": _saturation,
    "closed-loop": _closed_loop,
    "pruning": _pruning,
    "gc-horizon-soak": _gc_horizon_soak,
    "cow-state-growth": _cow_state_growth,
    "flight-recorder": _flight_recorder,
    "offline-interpretation": _offline_interpretation,
    "live-smoke": _live_smoke,
    "metrics-soak": _metrics_soak,
}


def names() -> list[str]:
    """Registry scenario names, in catalogue order."""
    return list(REGISTRY)


def get(name: str, smoke: bool = False, seed: int | None = None) -> Scenario:
    """Build a registry scenario, optionally in its smoke variant and
    under a non-default seed."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r} (known: {names()})"
        ) from None
    scenario = builder(smoke)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario
