"""Unit tests for the declarative scenario layer: JSON round-trips,
validation errors, workload schedules, the fault schedule's views and
the typed snapshot classes."""

import json

import pytest

from repro.errors import ScenarioError
from repro.net.faults import LinkFaults
from repro.net.latency import FixedLatency, JitterLatency
from repro.obs.lifecycle import StageSummary
from repro.protocols.counter import counter_protocol
from repro.runtime.cluster import quick_cluster
from repro.runtime.snapshots import (
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    ClosedLoopWorkload,
    CrashFault,
    DagsConverged,
    DuplicationFault,
    FaultSchedule,
    LatencySpec,
    LinkLossFault,
    OpenLoopWorkload,
    Or,
    PartitionFault,
    RoundsElapsed,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    StopCondition,
    StorageSpec,
    Topology,
    Workload,
    percentile,
    registry,
)
from repro.types import make_servers


class TestScenarioJsonRoundTrip:
    def _full_scenario(self):
        return Scenario(
            name="everything",
            protocol="brb",
            description="every knob set",
            seed=42,
            topology=Topology(
                n=7,
                round_duration=5.0,
                stagger=0.25,
                latency=LatencySpec(model="jitter", low=0.2, high=1.8),
                auto_interpret=False,
                storage=StorageSpec(
                    checkpoint_interval=9, segment_max_bytes=2048, prune=False
                ),
            ),
            workload=OpenLoopWorkload(
                rate=3, rounds=4, period=2, start_round=1, sender="random",
                label_prefix="req-", shared_label=None,
            ),
            faults=FaultSchedule(
                (
                    PartitionFault(
                        start_round=1, heal_round=4,
                        group_a=("s1", "s2", "s3"),
                        group_b=("s4", "s5", "s6", "s7"),
                    ),
                    CrashFault(server="s2", crash_round=2, restart_round=6),
                    ByzantineFault(
                        server="s7", behaviour="equivocator", equivocate_at=(1, 3)
                    ),
                    LinkLossFault(server="s7", probability=0.2),
                    DuplicationFault(probability=0.1),
                )
            ),
            stop=And(
                (
                    Or((AllDelivered(), RoundsElapsed(rounds=30))),
                    DagsConverged(live_only=True),
                )
            ),
            probes=("total-blocks", "wire-bytes"),
            max_rounds=40,
            settle_rounds=2,
        )

    def test_round_trip_equality(self):
        scenario = self._full_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_is_stable_json(self):
        scenario = self._full_scenario()
        assert Scenario.from_json(scenario.to_json()).to_json() == scenario.to_json()

    def test_every_registry_scenario_round_trips(self):
        for name in registry.names():
            for smoke in (False, True):
                scenario = registry.get(name, smoke=smoke)
                assert Scenario.from_json(scenario.to_json()) == scenario

    def test_with_seed_changes_only_seed(self):
        scenario = registry.get("fault-free")
        reseeded = scenario.with_seed(99)
        assert reseeded.seed == 99
        assert {**reseeded.as_dict(), "seed": scenario.seed} == (
            scenario.as_dict()
        )


class TestScenarioValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ScenarioError, match="unknown protocol"):
            Scenario(name="x", protocol="paxos")

    def test_unknown_probe_rejected(self):
        with pytest.raises(ScenarioError, match="unknown probe"):
            Scenario(name="x", protocol="brb", probes=("cpu-temp",))

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ScenarioError, match="^kind: unknown kind 'sine-wave'"):
            Workload.from_dict({"kind": "sine-wave"})

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(
            ScenarioError, match=r"^events\[0\]\.kind: unknown kind 'meteor-strike'"
        ):
            FaultSchedule.from_dict({"events": [{"kind": "meteor-strike"}]})

    def test_unknown_stop_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown kind 'when-ready'"):
            StopCondition.from_dict({"kind": "when-ready"})

    def test_fault_naming_unknown_server_rejected(self):
        with pytest.raises(ScenarioError, match="unknown server"):
            Scenario(
                name="x",
                protocol="brb",
                faults=FaultSchedule((CrashFault(server="s9", crash_round=1),)),
            )

    def test_crash_of_byzantine_seat_rejected(self):
        with pytest.raises(ScenarioError, match="byzantine seat"):
            Scenario(
                name="x",
                protocol="brb",
                faults=FaultSchedule(
                    (
                        ByzantineFault(server="s4", behaviour="silent"),
                        CrashFault(server="s4", crash_round=1),
                    )
                ),
            )

    @pytest.mark.parametrize(
        "crash_round, restart_round, message",
        [
            (5, 3, "restart_round 3 must come after crash_round 5"),
            (-2, None, "crash_round must be ≥ 0, got -2"),
        ],
        ids=["restart-before-crash", "negative-crash-round"],
    )
    def test_malformed_crash_fault_rejected(
        self, crash_round, restart_round, message
    ):
        # Rejected where the document is read, before either arm runs it.
        document = registry.get("crash-restart").as_dict()
        document["faults"]["events"][0].update(
            crash_round=crash_round, restart_round=restart_round
        )
        with pytest.raises(ScenarioError, match=f"^faults.events\\[0\\]: {message}"):
            Scenario.from_json(json.dumps(document))
        with pytest.raises(ScenarioError, match=message):
            CrashFault(server="s3", crash_round=crash_round, restart_round=restart_round)

    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ScenarioError, match="unknown byzantine behaviour"):
            ByzantineFault(server="s4", behaviour="chaotic-good")

    def test_bad_latency_model_rejected(self):
        with pytest.raises(ScenarioError, match="unknown latency model"):
            LatencySpec(model="wormhole")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("checkpoint_interval", 0),
            ("checkpoint_interval", -3),
            ("segment_max_bytes", 0),
            ("pin_recent_checkpoints", -1),
        ],
    )
    def test_out_of_range_storage_spec_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=f"{field}={value}\\b"):
            StorageSpec(**{field: value})
        with pytest.raises(ScenarioError, match=f"{field}={value}\\b"):
            StorageSpec.from_dict({field: value})

    @pytest.mark.parametrize(
        "section, key", [("topology", "cow"), ("storage", "horizon_gc")]
    )
    def test_retired_scenario_keys_rejected(self, section, key):
        document = registry.get("crash-restart").as_dict()
        target = document["topology"]
        if section == "storage":
            target = target["storage"]
        assert key not in target
        target[key] = True
        path = "topology" if section == "topology" else "topology.storage"
        with pytest.raises(ScenarioError, match=f"^{path}.{key}: unknown key"):
            Scenario.from_json(json.dumps(document))

    def test_unknown_registry_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            registry.get("does-not-exist")

    def test_bad_json_document_rejected(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{nope")
        with pytest.raises(ScenarioError):
            Scenario.from_json(json.dumps({"name": "x"}))  # missing protocol


class TestLatencySpec:
    def test_builds_fixed(self):
        model = LatencySpec(model="fixed", delay=2.5).build()
        assert isinstance(model, FixedLatency) and model.delay == 2.5

    def test_builds_jitter(self):
        model = LatencySpec(model="jitter", low=0.1, high=0.9).build()
        assert isinstance(model, JitterLatency)
        assert (model.low, model.high) == (0.1, 0.9)


class TestWorkloadSchedules:
    def test_open_loop_due_rounds(self):
        w = OpenLoopWorkload(rate=2, rounds=3, period=2, start_round=1)
        assert w.planned_total() == 6
        due = {r: w.due_at(r, issued=0, in_flight=0) for r in range(8)}
        assert due == {0: 0, 1: 2, 2: 0, 3: 2, 4: 0, 5: 2, 6: 0, 7: 0}

    def test_open_loop_respects_planned_total(self):
        w = OpenLoopWorkload(rate=4, rounds=1)
        assert w.due_at(0, issued=3, in_flight=0) == 1

    def test_closed_loop_keeps_clients_in_flight(self):
        w = ClosedLoopWorkload(clients=3, total=5)
        assert w.due_at(0, issued=0, in_flight=0) == 3
        assert w.due_at(1, issued=3, in_flight=3) == 0
        assert w.due_at(2, issued=3, in_flight=1) == 2
        assert w.due_at(3, issued=5, in_flight=2) == 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ScenarioError):
            OpenLoopWorkload(rate=0)
        with pytest.raises(ScenarioError):
            ClosedLoopWorkload(clients=0)


class TestFaultScheduleViews:
    def test_views_cover_all_families(self, tmp_path):
        servers = make_servers(7)
        schedule = FaultSchedule(
            (
                PartitionFault(
                    start_round=2, heal_round=5,
                    group_a=("s1", "s2", "s3"),
                    group_b=("s4", "s5", "s6", "s7"),
                ),
                CrashFault(server="s3", crash_round=3, restart_round=7),
                ByzantineFault(
                    server="s7", behaviour="equivocator", equivocate_at=(2,)
                ),
            )
        )
        [partition] = schedule.link_faults(servers, round_duration=6.0).partitions
        assert partition[:2] == (12.0, 30.0)
        assert (schedule.crashes_at(3), schedule.restarts_at(7)) == (["s3"], ["s3"])
        assert schedule.crashes_at(7) == schedule.restarts_at(3) == []
        assert schedule.byzantine_servers() == {"s7"}
        assert schedule.needs_storage()
        scenario = Scenario(
            name="x", protocol="brb", topology=Topology(n=7), faults=schedule
        )
        runner = ScenarioRunner(scenario, storage_root=tmp_path)
        assert set(runner.cluster.adversaries) == {"s7"}
        assert runner.equivocation_cues == [(2, "s7")]

    def test_link_loss_declares_byzantine(self):
        servers = make_servers(4)
        schedule = FaultSchedule((LinkLossFault(server="s4", probability=0.5),))
        faults = schedule.link_faults(servers, round_duration=1.0)
        assert "s4" in faults.byzantine
        assert faults.loss[("s4", "s1")] == 0.5
        assert faults.loss[("s1", "s4")] == 0.5

    def test_empty_schedule_is_fault_free(self):
        schedule = FaultSchedule()
        assert schedule.link_faults(make_servers(4), 6.0) == LinkFaults()
        assert not schedule.crash_events()
        assert not schedule.byzantine_servers()


class TestQuickClusterExplicitKwargs:
    def test_builds_with_explicit_knobs(self):
        cluster = quick_cluster(
            counter_protocol, n=3, seed=5, round_duration=4.0, stagger=0.5
        )
        assert len(cluster.servers) == 3
        assert cluster.config.round_duration == 4.0
        assert cluster.config.stagger == 0.5

    def test_typo_fails_with_clear_type_error(self):
        """The old **config_kwargs passthrough deferred typos to a
        dataclass TypeError deep in construction; now the call site
        itself rejects them."""
        with pytest.raises(TypeError, match="staggr"):
            quick_cluster(counter_protocol, n=4, staggr=0.5)


class TestTypedSnapshots:
    def test_round_trip(self):
        wire = WireSnapshot(
            messages=3, bytes=100, delivered=3, dropped=1,
            by_kind={"BlockEnvelope": 3}, bytes_by_kind={"BlockEnvelope": 100},
        )
        assert WireSnapshot.from_dict(wire.as_dict()) == wire

    @pytest.mark.parametrize(
        "field, count", [("by_kind", 3.0), ("bytes_by_kind", "100"), ("by_kind", True)]
    )
    def test_wire_from_dict_rejects_a_kind_count_that_is_no_int(self, field, count):
        """No writer emits a per-kind counter as a float or a numeric
        string, so a document holding one is rejected, naming the
        counter, instead of being read as an int."""
        document = {"messages": 3, "bytes": 100, field: {"BlockEnvelope": count}}
        with pytest.raises(ScenarioError, match=f"^{field}.BlockEnvelope: expected int"):
            WireSnapshot.from_dict(document)

    def test_interpreter_and_storage_snapshots_round_trip(self):
        interp = InterpreterSnapshot(
            blocks_interpreted=5, messages_delivered=7,
            messages_materialized=9, request_steps=2, below_horizon=1,
        )
        assert InterpreterSnapshot.from_dict(interp.as_dict()) == interp
        storage = StorageSnapshot(wal_appends=4, wal_bytes=512)
        assert StorageSnapshot.from_dict(storage.as_dict()) == storage
        assert storage.any_activity()
        assert not StorageSnapshot().any_activity()


class TestRequestLatency:
    def test_percentiles(self):
        stats = StageSummary.from_samples([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert stats.count == 10
        assert stats.p50 == 5.0  # nearest rank over 10 samples
        assert stats.max == 10.0 and type(stats.max) is float

    def test_empty_series(self):
        assert StageSummary.from_samples([]) == StageSummary(
            count=0, p50=0.0, p90=0.0, p99=0.0, max=0.0
        )
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_one_exact_percentile_serves_requests_and_lifecycle(self):
        from repro.obs import lifecycle

        assert percentile is lifecycle.percentile
        assert ScenarioResult(scenario="x", protocol="brb", seed=1).latency_rounds == (
            lifecycle.StageSummary()
        )

    def test_result_round_trip(self):
        result = ScenarioResult(
            scenario="x", protocol="brb", seed=1, rounds_run=4,
            virtual_time=24.0, converged=True, requests_issued=3,
            requests_delivered=3, throughput=0.125,
            latency_rounds=StageSummary.from_samples([3, 3, 4]),
            probes={"total-blocks": (4.0, 8.0, 12.0, 16.0)},
            wall_seconds=0.5,
        )
        assert ScenarioResult.from_json(result.to_json()) == result
        # Wall clock is excludable for determinism comparisons.
        assert "wall_seconds" not in json.loads(
            result.to_json(include_wall_clock=False)
        )
