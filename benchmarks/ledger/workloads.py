"""The ledger's four workloads, as plain :class:`Scenario` values.

Every workload fixes ``n`` and its load; ``--seed`` only changes *who
receives what* (``sender="random"``), so the program under test sees
nothing but the generated schedule.  Live workloads run one OS process
per server over unix-domain sockets on one host with the lockstep gate
on and **no injected message delay** — latency there is processor time
only.  The simulated workload uses the fixed virtual delay 1.0.

All four are open loops: requests enter on the round schedule whether
or not earlier ones were delivered.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.scenario import registry
from repro.scenario.spec import Scenario, StorageSpec, Topology
from repro.scenario.stop import RoundsElapsed
from repro.scenario.workload import OpenLoopWorkload

#: Rounds after the last injection so every request is delivered at
#: every server inside the fixed live tick budget (BRB needs three).
SETTLE_ROUNDS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    arm: str  # "live" | "sim"
    why: str
    build: Callable[[int, bool], Scenario]


def _live(
    name: str,
    protocol: str,
    rate: int,
    rounds: int,
    seed: int,
    smoke: bool,
    storage: StorageSpec | None = None,
    shared_label: str | None = None,
) -> Scenario:
    if smoke:
        rounds = max(3, rounds // 10)
    total = rounds + SETTLE_ROUNDS
    return Scenario(
        name=name,
        protocol=protocol,
        seed=seed,
        topology=Topology(n=4, storage=storage),
        workload=OpenLoopWorkload(
            rate=rate, rounds=rounds, sender="random", shared_label=shared_label
        ),
        stop=RoundsElapsed(total),
        max_rounds=total,
    )


def _live_chain(seed: int, smoke: bool) -> Scenario:
    return _live("live-chain", "brb", 1, 300, seed, smoke)


def _live_fanout(seed: int, smoke: bool) -> Scenario:
    return _live("live-fanout", "brb", 8, 100, seed, smoke)


def _live_durable(seed: int, smoke: bool) -> Scenario:
    return _live(
        "live-durable",
        "ledger",
        4,
        100,
        seed,
        smoke,
        storage=StorageSpec(checkpoint_interval=32, prune=True),
        shared_label="ledger",
    )


def _sim_faults(seed: int, smoke: bool) -> Scenario:
    # The registry's ``mixed-faults`` shape (n=7, f=2: equivocator seat,
    # crash + restart-from-disk, healing partition; every fault round
    # lies inside the run), at 2 requests/round x 10 rounds; the smoke
    # variant is the registry's own.
    base = registry.get("mixed-faults", smoke=smoke, seed=seed)
    workload = dataclasses.replace(base.workload, sender="random")
    if not smoke:
        workload = dataclasses.replace(workload, rate=2, rounds=10)
    return dataclasses.replace(base, name="sim-faults", workload=workload)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "live-chain",
            "live",
            "1 request/round: many small blocks, so the tick/status cadence "
            "and the frame/socket path do the work; interpret little, storage none",
            _live_chain,
        ),
        Workload(
            "live-fanout",
            "live",
            "8 requests/round: few fat blocks with hundreds of concurrent "
            "instances, so interpret, protocols and codec sort keys dominate",
            _live_fanout,
        ),
        Workload(
            "live-durable",
            "live",
            "shared ledger label with storage on: WAL flush and growing "
            "checkpoints beside the reads, then restart-from-disk",
            _live_durable,
        ),
        Workload(
            "sim-faults",
            "sim",
            "simulator, n=7 with equivocator, crash/restart and healing "
            "partition: the bypass workload for any live-arm optimisation",
            _sim_faults,
        ),
    )
}
