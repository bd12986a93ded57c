"""Compile a :class:`~repro.scenario.spec.Scenario` into live node configs.

The same declarative document drives both arms: the simulator executes
it round by round on virtual time, and this module lowers it onto
:class:`~repro.runtime.live.node.NodeConfig` values for one-process-
per-server execution over real sockets (``run --live``).

The essential lowering step is the **workload schedule**.  The
simulator's :class:`~repro.scenario.workload.WorkloadDriver` decides,
round by round, which server injects which request — a deterministic
function of the scenario seed.  Live nodes are separate processes that
cannot share a driver, so the compiler *replays* the driver here
against a recording stub and ships each server its explicit
``(tick, label, index)`` schedule.  Both arms therefore inject
identical requests at identical chain positions, which is half of what
makes ``trace diff --mode chains`` between the arms silent (the other
half is the node's lockstep gate).

Live runs support the crash-inclusive subset of the scenario language:
partition, byzantine, link-loss and duplication faults need the
simulator's ability to schedule drops and hijacks, but a
:class:`~repro.runtime.faults.CrashFault` runs on the *real* crash
surface — :class:`~repro.runtime.live.cluster.LiveCluster` takes the
schedule's crash events as they are (SIGKILL once the victim's own
tick reaches ``crash_round``, respawn after a wall-clock downtime
standing in for the virtual crash→restart span).  The stop
condition must contain a :class:`~repro.scenario.stop.RoundsElapsed`
bound — a fixed tick budget is what makes the two arms' chain
*lengths* comparable.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.errors import ScenarioError
from repro.runtime.faults import CrashFault, FaultSchedule
from repro.runtime.live.node import NodeConfig
from repro.scenario.spec import Scenario, StorageSpec
from repro.scenario.stop import RoundsElapsed, StopCondition, _Composite
from repro.scenario.workload import ClosedLoopWorkload, WorkloadDriver
from repro.types import ServerId


def live_rounds(stop: StopCondition, max_rounds: int) -> int:
    """The fixed tick budget: the smallest ``RoundsElapsed`` bound in
    the stop condition, or ``max_rounds`` when there is none."""
    bounds = _collect_rounds(stop)
    return min(bounds) if bounds else max_rounds


def _collect_rounds(stop: StopCondition) -> list[int]:
    if isinstance(stop, RoundsElapsed):
        return [stop.rounds]
    if isinstance(stop, _Composite):
        found: list[int] = []
        for condition in stop.conditions:
            found.extend(_collect_rounds(condition))
        return found
    return []


class _RecordingStub:
    """Just enough of a ``Cluster`` for ``WorkloadDriver.before_round``:
    the scenario's crash events take servers down and back up as
    ``Cluster.round`` applies them, so the driver skips a down or dying
    sender on both arms alike."""

    class _Sim:
        now = 0.0

    def __init__(self, servers: list[ServerId], faults: FaultSchedule) -> None:
        self.servers = list(servers)
        self.faults = faults
        self.down: set[str] = set()
        self.sim = self._Sim()
        self.injected: list[tuple[ServerId, str, int]] = []

    @property
    def correct_servers(self) -> list[ServerId]:
        return [s for s in self.servers if s not in self.down]

    def apply_crash_faults(self, round_index: int) -> None:
        """What ``Cluster.round`` does first, after the driver injected."""
        self.down.difference_update(self.faults.restarts_at(round_index))
        self.down.update(self.faults.crashes_at(round_index))

    def request(self, server: ServerId, label: str, request: object) -> None:
        # ``make_request`` below is the identity on the index, so the
        # recorded "request" is the workload index itself.
        self.injected.append((server, str(label), int(request)))  # type: ignore[arg-type]


def compile_workload_schedule(
    scenario: Scenario, rounds: int
) -> tuple[dict[ServerId, list[tuple[int, str, int]]], list[tuple[str, int]]]:
    """Replay the workload driver; return per-server schedules and the
    ``(label, minimum)`` delivery expectations.

    A closed-loop workload issues as requests are delivered, which no
    schedule compiled in advance can see: it raises ``ScenarioError``.
    """
    if isinstance(scenario.workload, ClosedLoopWorkload):
        raise ScenarioError(
            f"live execution needs a workload fixed in advance; a "
            f"{scenario.workload.kind} workload issues on deliveries"
        )
    servers = scenario.topology.servers()
    stub = _RecordingStub(servers, scenario.faults)
    driver = WorkloadDriver(
        scenario.workload,
        make_request=lambda index: index,
        # The exact derivation the simulated runner uses — same seed,
        # same picks, same schedule.
        rng=random.Random(scenario.seed * 1_000_003 + 17),
    )
    schedules: dict[ServerId, list[tuple[int, str, int]]] = {
        server: [] for server in servers
    }
    for round_index in range(rounds):
        before = len(stub.injected)
        driver.before_round(stub, round_index)  # type: ignore[arg-type]
        stub.apply_crash_faults(round_index)
        for server, label, index in stub.injected[before:]:
            schedules[server].append((round_index, label, index))
    shared = scenario.workload.shared_label
    if shared is not None:
        expected = [(shared, len(stub.injected))]
    else:
        expected = [(label, 1) for _, label, _ in stub.injected]
    return schedules, expected


def compile_live_configs(
    scenario: Scenario,
    run_dir: str | Path,
    *,
    trace_dir: str | Path | None = None,
    storage_root: str | Path | None = None,
    tick_timeout: float = 10.0,
    settle_timeout: float = 30.0,
) -> dict[ServerId, NodeConfig]:
    """Lower ``scenario`` onto one :class:`NodeConfig` per server.

    Sockets (UDS), status files and storage directories all live under
    ``run_dir`` unless redirected; trace export is enabled when
    ``trace_dir`` is given (one ``<server>.jsonl`` each, the same
    layout the simulated runner exports).
    """
    if any(not isinstance(e, CrashFault) for e in scenario.faults.events):
        raise ScenarioError(
            "live execution supports fault-free and crash-fault scenarios "
            "only; partition/byzantine/link faults need the simulator's "
            "scheduled drops and hijacks"
        )
    run_dir = Path(run_dir)
    rounds = live_rounds(scenario.stop, scenario.max_rounds)
    schedules, expected = compile_workload_schedule(scenario, rounds)
    last_injection = max(
        (tick for entries in schedules.values() for tick, _, _ in entries),
        default=-1,
    )
    if last_injection >= rounds:
        raise ScenarioError(
            f"workload injects at round {last_injection} but the live tick "
            f"budget is {rounds}; raise the RoundsElapsed bound"
        )
    servers = scenario.topology.servers()
    addresses = {
        str(server): f"unix:{run_dir / (str(server) + '.sock')}"
        for server in servers
    }
    needs_storage = scenario.needs_storage()
    if needs_storage and storage_root is None:
        storage_root = run_dir / "storage"
    storage = scenario.topology.storage
    if storage is None:
        storage = StorageSpec()
    trace = trace_dir is not None or scenario.topology.trace
    if trace and trace_dir is None:
        trace_dir = run_dir / "trace"
    configs: dict[ServerId, NodeConfig] = {}
    for server in servers:
        configs[server] = NodeConfig(
            server=str(server),
            servers=tuple(str(s) for s in servers),
            protocol=scenario.protocol,
            addresses=addresses,
            seed=scenario.seed,
            max_ticks=rounds,
            tick_timeout=tick_timeout,
            settle_timeout=settle_timeout,
            workload=tuple(schedules[server]),
            expected=tuple(expected),
            storage_dir=(
                str(Path(storage_root) / str(server)) if needs_storage else None  # type: ignore[arg-type]
            ),
            storage=storage,
            trace_path=(
                str(Path(trace_dir) / f"{server}.jsonl") if trace else None  # type: ignore[arg-type]
            ),
            status_path=str(run_dir / f"{server}.status.json"),
            metrics_path=str(run_dir / f"{server}.metrics.jsonl"),
        )
    return configs

