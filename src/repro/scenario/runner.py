"""Executes a :class:`~repro.scenario.spec.Scenario` on a
:class:`~repro.runtime.cluster.Cluster`.

The runner is the only imperative piece of the scenario layer: it
builds the cluster over the scenario's fault schedule (the cluster
seats each byzantine event's behaviour), drives rounds while injecting
the workload and the byzantine equivocation cues, evaluates the stop
condition, samples probes, and folds everything into a typed
:class:`~repro.scenario.result.ScenarioResult`.

Determinism: the cluster simulation derives all randomness from the
scenario seed, and the workload RNG is derived from the same seed, so
the same scenario value replays to the same result (the CLI's ``diff``
and the determinism regression test rely on this).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import fields
from pathlib import Path

from repro.errors import ScenarioError
from repro.obs.export import read_jsonl
from repro.obs.lifecycle import LifecycleIndex, LifecycleStats, StageSummary
from repro.obs.metrics import MetricsRegistry, MetricsReport
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.faults import ByzantineFault
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.storage.blockstore import StorageConfig
from repro.scenario.probes import resolve_probe
from repro.scenario.result import ScenarioResult
from repro.scenario.spec import Scenario, resolve_protocol
from repro.scenario.workload import WorkloadDriver
from repro.types import Label, ServerId


def _sim_metrics(
    wire: WireSnapshot,
    interpreter: InterpreterSnapshot,
    storage: StorageSnapshot,
) -> MetricsReport:
    """The simulated arm's metrics view: one counter per int field of
    the three run snapshots (``<snapshot>.<field with - for _>``), so
    ``metrics report``/``diff`` work on either arm and the export is
    byte-identical per seed."""
    registry = MetricsRegistry(server="sim")
    for prefix, snapshot in (
        ("wire", wire),
        ("interpreter", interpreter),
        ("storage", storage),
    ):
        for f in fields(snapshot):
            value = getattr(snapshot, f.name)
            if type(value) is int:
                registry.counter(f"{prefix}.{f.name.replace('_', '-')}").inc(value)
    return MetricsReport.from_snapshots({"sim": registry.snapshot()})


class ScenarioRunner:
    """One scenario, one cluster, one result.

    Parameters
    ----------
    scenario:
        The declarative run description.
    storage_root:
        Directory for per-server durable state when the scenario needs
        storage (crash faults or an explicit storage spec).  ``None``
        uses a temporary directory that is removed after :meth:`run`.
    trace_dir:
        When given, tracing is forced on (regardless of
        ``topology.trace``) and every server's flight-recorder events
        are exported to ``<trace_dir>/<server>.jsonl`` at the end of
        :meth:`run`.  Same scenario + seed ⇒ byte-identical files.
    live:
        When true, :meth:`run` executes the scenario on a
        :class:`~repro.runtime.live.cluster.LiveCluster` — one OS
        process per server over unix-domain sockets — instead of the
        virtual-time simulator.  Only fault-free and crash-fault
        scenarios are supported (see
        :func:`~repro.scenario.live.compile_live_configs`), and the
        result carries wall-clock figures rather than virtual time.
        No :attr:`cluster` is built in this mode.

    After :meth:`run` the :attr:`cluster` stays accessible, so examples
    and tests can inspect DAGs, shims and recovery reports beyond what
    the result carries.  When the runner owned a temporary storage root
    it is removed at the end of :meth:`run` and the shims are detached
    from storage — the cluster remains drivable, in RAM only.
    """

    def __init__(
        self,
        scenario: Scenario,
        storage_root: str | Path | None = None,
        trace_dir: str | Path | None = None,
        live: bool = False,
    ) -> None:
        self.scenario = scenario
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.live = live
        self.entry = resolve_protocol(scenario.protocol)
        self._storage_root = Path(storage_root) if storage_root else None
        self._owns_storage = False
        self.rounds_run = 0
        self.result: ScenarioResult | None = None
        self._probe_series: dict[str, list[float]] = {
            name: [] for name in scenario.probes
        }
        #: Raw :class:`~repro.runtime.live.cluster.LiveRunResult` of the
        #: last live run (benchmarks read per-node statuses from it).
        self.live_result = None
        if live:
            # Live runs spawn subprocesses; nothing to assemble here.
            self.cluster = None  # type: ignore[assignment]
            return
        #: (round, server) pairs at which an equivocator seat forks.
        self.equivocation_cues = sorted(
            (round_index, event.server)
            for event in scenario.faults.events
            if isinstance(event, ByzantineFault)
            for round_index in event.equivocate_at
        )
        try:
            self.cluster = self._build_cluster()
        except BaseException:
            # Don't leak the temp root we just created for this run.
            if self._owns_storage and self._storage_root is not None:
                shutil.rmtree(self._storage_root, ignore_errors=True)
            raise
        self.driver = WorkloadDriver(
            scenario.workload,
            self.entry.make_request,
            # Derived from the scenario seed alone: replays identically.
            rng=random.Random(scenario.seed * 1_000_003 + 17),
        )

    # -- construction ----------------------------------------------------------

    def _build_cluster(self) -> Cluster:
        scenario = self.scenario
        topology = scenario.topology
        storage_dir: Path | None = None
        if scenario.needs_storage():
            if self._storage_root is None:
                self._storage_root = Path(
                    tempfile.mkdtemp(prefix=f"scenario-{scenario.name}-")
                )
                self._owns_storage = True
            else:
                # A scenario run is a *fresh* execution; shim
                # construction over leftover per-server state would
                # silently become a restart-from-disk of some earlier
                # run, contaminating the result and breaking the
                # same-seed determinism guarantee.
                stale = [
                    str(s)
                    for s in topology.servers()
                    if (self._storage_root / str(s)).exists()
                ]
                if stale:
                    raise ScenarioError(
                        f"storage root {self._storage_root} already holds "
                        f"server state for {stale}; a scenario run needs a "
                        f"fresh directory (in-run restarts are expressed as "
                        f"CrashFault events, not by reusing a root)"
                    )
            storage_dir = self._storage_root
        storage_spec = topology.storage
        config = ClusterConfig(
            round_duration=topology.round_duration,
            latency=topology.latency.build(),
            seed=scenario.seed,
            auto_interpret=topology.auto_interpret,
            storage_dir=storage_dir,
            storage=(
                storage_spec.build() if storage_spec is not None else StorageConfig()
            ),
            trace=topology.trace or self.trace_dir is not None,
        )
        return Cluster(
            self.entry.spec,
            servers=topology.servers(),
            config=config,
            faults=scenario.faults,
        )

    # -- byzantine cues --------------------------------------------------------

    def _inject_cues(self, round_index: int) -> None:
        """Equivocator seats submit their conflicting request pair at
        the scheduled rounds: one value to each half of the network
        (Figure 3 made to happen on demand)."""
        for cue_round, server in self.equivocation_cues:
            if cue_round != round_index:
                continue
            adversary = self.cluster.adversaries[ServerId(server)]
            label = Label(f"byz-{server}-{cue_round}")
            # Indices far above any workload index: the two values are
            # distinct from each other and from every honest request.
            base = 1_000_000 + 2 * cue_round
            adversary.request(label, self.entry.make_request(base))
            adversary.fork_request(label, self.entry.make_request(base + 1))
            if self.cluster.tracer is not None:
                self.cluster.tracer.recorder(ServerId(server)).emit(
                    "fault-injected", fault="equivocation-cue", round=cue_round
                )

    # -- driving ---------------------------------------------------------------

    def _one_round(self) -> None:
        index = self.cluster.rounds_run
        self.driver.before_round(self.cluster, index)
        self._inject_cues(index)
        self.cluster.round()
        self.driver.after_round(self.cluster, index)
        self.rounds_run = self.cluster.rounds_run
        for name, series in self._probe_series.items():
            series.append(resolve_probe(name)(self))

    def run(self) -> ScenarioResult:
        """Drive the scenario to its stop condition and build the result."""
        if self.live:
            return self._run_live()
        scenario = self.scenario
        start_wall = time.perf_counter()
        stopped_by = "stop-condition"
        try:
            while True:
                if scenario.stop.satisfied(self):
                    break
                if self.rounds_run >= scenario.max_rounds:
                    stopped_by = "max-rounds"
                    break
                self._one_round()
            if not scenario.topology.auto_interpret:
                # Off-line mode: the whole DAG is interpreted only now.
                for shim in self.cluster.shims.values():
                    shim.interpret_now()
            self.driver.final_sweep(self.cluster, max(0, self.rounds_run - 1))
            self.result = self._collect(stopped_by, time.perf_counter() - start_wall)
            if self.trace_dir is not None and self.cluster.tracer is not None:
                self.cluster.tracer.export(self.trace_dir)
            return self.result
        finally:
            # No file stays open past the run, and nothing is written
            # after the result was taken: the disk holds what it counts.
            # A WAL reopens on its next append if the cluster is driven on.
            for shim in self.cluster.shims.values():
                if shim.storage is not None:
                    shim.storage.abandon()
            if self._owns_storage and self._storage_root is not None:
                # The temp root is gone after this, so detach storage
                # from the surviving shims first: the cluster stays
                # inspectable and drivable post-run (in RAM), instead
                # of exploding on the next checkpoint or WAL append.
                for shim in self.cluster.shims.values():
                    shim.storage = None
                shutil.rmtree(self._storage_root, ignore_errors=True)

    # -- live execution --------------------------------------------------------

    def _run_live(self) -> ScenarioResult:
        """Execute the scenario on a multi-process live cluster.

        The same declarative document, lowered onto per-server
        :class:`~repro.runtime.live.node.NodeConfig` values and run as
        one OS process per server over unix-domain sockets.  The result
        mirrors the simulated shape where it can (requests, wire bytes,
        blocks, convergence); virtual-time figures stay zero and
        ``stopped_by`` reports ``live-complete`` / ``live-timeout``.
        """
        from repro.runtime.live.cluster import LiveCluster, down_seconds
        from repro.scenario.live import (
            compile_live_configs,
            compile_workload_schedule,
            live_rounds,
        )

        scenario = self.scenario
        rounds = live_rounds(scenario.stop, scenario.max_rounds)
        schedules, expected = compile_workload_schedule(scenario, rounds)
        issued = sum(len(entries) for entries in schedules.values())
        crashes = scenario.faults.crash_events()
        run_dir = Path(tempfile.mkdtemp(prefix=f"live-{scenario.name}-"))
        live_lifecycle: LifecycleStats | None = None
        try:
            configs = compile_live_configs(
                scenario,
                run_dir,
                trace_dir=self.trace_dir,
                storage_root=self._storage_root,
            )
            some = next(iter(configs.values()))
            # Worst case every tick stalls to its gate timeout, then the
            # fleet still needs the settle window; pad for process spawn
            # and for scheduled crash downtime.
            down_budget = sum(down_seconds(c) or 0.0 for c in crashes)
            timeout = (
                15.0
                + rounds * some.tick_timeout
                + some.settle_timeout
                + down_budget
            )
            self.live_result = LiveCluster(
                configs, run_dir, crashes=crashes
            ).run(timeout=timeout)
            # Default trace exports live inside run_dir: join them into
            # the cross-process lifecycle view before the cleanup below.
            live_lifecycle = self._join_live_lifecycle(
                self.live_result.trace_paths
            )
        finally:
            # Sockets, configs, status files (and, when no trace_dir
            # was given, the default trace output) are scratch; an
            # explicit trace_dir lives outside run_dir and survives.
            shutil.rmtree(run_dir, ignore_errors=True)
        live = self.live_result
        delivered_map = live.delivered_min()
        delivered = sum(
            min(delivered_map.get(label, 0), minimum)
            for label, minimum in expected
        )
        statuses = live.statuses.values()
        wire = WireSnapshot(
            messages=sum(s.wire_messages for s in statuses),
            bytes=sum(s.wire_bytes for s in statuses),
            delivered=sum(s.wire_messages for s in statuses),
        )
        slo = None
        if scenario.slo is not None:
            slo = scenario.slo.evaluate(live_lifecycle, live.metrics)
        self.rounds_run = rounds
        self.result = ScenarioResult(
            scenario=scenario.name,
            protocol=scenario.protocol,
            seed=scenario.seed,
            rounds_run=rounds,
            stopped_by="live-complete" if live.converged else "live-timeout",
            converged=live.converged,
            requests_issued=issued,
            requests_delivered=delivered,
            wire=wire,
            total_blocks=max((s.blocks for s in statuses), default=0),
            crashes=live.crashes,
            restarts=sum(s.recovered for s in statuses),
            metrics=live.metrics,
            live_lifecycle=live_lifecycle,
            slo=slo,
            wall_seconds=round(live.wall_seconds, 6),
        )
        return self.result

    @staticmethod
    def _join_live_lifecycle(
        trace_paths: dict[str, str]
    ) -> LifecycleStats | None:
        """Join every node's trace export into one wall-clock lifecycle.

        Live recorders stamp events with ``loop.time()`` —
        CLOCK_MONOTONIC, comparable across processes on one machine —
        so feeding all exports through a single
        :class:`~repro.obs.lifecycle.LifecycleIndex` matches each
        block's seal on its builder against first-receive / validate /
        interpret on every other node, by ref.
        """
        index = LifecycleIndex()
        observed = 0
        for server, path in sorted(trace_paths.items()):
            try:
                events = read_jsonl(path)
            except OSError:
                continue
            for event in events:
                index.observe(ServerId(server), event)
            observed += len(events)
        return index.stats() if observed else None

    # -- result assembly -------------------------------------------------------

    def _forks_observed(self) -> int:
        shim = next(iter(self.cluster.shims.values()), None)
        return 0 if shim is None else len(shim.dag.forks())

    def _collect(self, stopped_by: str, wall_seconds: float) -> ScenarioResult:
        cluster = self.cluster
        driver = self.driver
        virtual_time = cluster.sim.now
        delivered = driver.delivered_count
        wire = cluster.wire_snapshot()
        interpreter = cluster.interpreter_snapshot()
        storage = cluster.storage_snapshot()
        return ScenarioResult(
            scenario=self.scenario.name,
            protocol=self.scenario.protocol,
            seed=self.scenario.seed,
            rounds_run=self.rounds_run,
            virtual_time=virtual_time,
            stopped_by=stopped_by,
            # The strict quantifier: a server left down means the
            # configured correct set has NOT converged (down_at_end
            # names the culprits; live-only convergence is derivable).
            converged=cluster.dags_converged(),
            requests_issued=driver.issued,
            requests_delivered=delivered,
            throughput=(
                round(delivered / virtual_time, 6) if virtual_time else 0.0
            ),
            latency_rounds=StageSummary.from_samples(driver.latencies_rounds()),
            latency_time=StageSummary.from_samples(driver.latencies_time()),
            wire=wire,
            interpreter=interpreter,
            storage=storage,
            total_blocks=cluster.total_blocks(),
            forks_observed=self._forks_observed(),
            crashes=cluster.crashes_performed,
            restarts=cluster.restarts_performed,
            down_at_end=tuple(sorted(cluster.down)),
            probes={
                name: tuple(series)
                for name, series in self._probe_series.items()
            },
            lifecycle=(
                cluster.tracer.lifecycle.stats()
                if cluster.tracer is not None
                else None
            ),
            metrics=_sim_metrics(wire, interpreter, storage),
            wall_seconds=round(wall_seconds, 6),
        )


def run_scenario(
    scenario: Scenario,
    storage_root: str | Path | None = None,
    trace_dir: str | Path | None = None,
    live: bool = False,
) -> ScenarioResult:
    """Build a runner, run it, return the result (the one-liner API)."""
    return ScenarioRunner(
        scenario, storage_root=storage_root, trace_dir=trace_dir, live=live
    ).run()
