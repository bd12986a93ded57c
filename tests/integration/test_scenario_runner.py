"""Integration tests for the scenario runner and the registry catalogue.

Every named scenario must execute to its stop condition (smoke
variants keep this fast), produce a schema-valid JSON result, and
expose the run through the typed result fields the CLI and CI consume.
"""

import dataclasses
import json

import pytest

from repro.invariants import agreement, well_formed_chains
from repro.runtime.adversary import BEHAVIOURS
from repro.scenario import (
    AllDelivered,
    ByzantineFault,
    ClosedLoopWorkload,
    FaultSchedule,
    OpenLoopWorkload,
    RoundsElapsed,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    registry,
)
from repro.errors import ScenarioError
from repro.scenario.__main__ import main as cli_main
from repro.scenario.live import compile_live_configs, live_rounds
from repro.scenario.runner import run_scenario


class TestRegistryScenarios:
    @pytest.mark.parametrize("name", registry.names())
    def test_smoke_variant_reaches_stop_condition(self, name):
        result = run_scenario(registry.get(name, smoke=True))
        assert result.stopped_by == "stop-condition", (
            f"{name} hit max-rounds: {result.to_json(indent=2)}"
        )
        assert result.requests_delivered == result.requests_issued
        assert result.requests_issued > 0
        assert result.to_json()  # serializes
        assert ScenarioResult.from_json(result.to_json()) == result

    def test_crash_restart_performs_crash_and_restart(self, tmp_path):
        result = run_scenario(
            registry.get("crash-restart", smoke=True), storage_root=tmp_path
        )
        assert result.crashes == 1 and result.restarts == 1
        assert result.down_at_end == ()
        assert result.storage.wal_appends > 0
        assert result.storage.blocks_recovered > 0
        # Durable artefacts landed where asked.
        assert list(tmp_path.glob("s*/wal/wal-*.log"))

    def test_equivocator_scenario_forks(self):
        result = run_scenario(registry.get("equivocator", smoke=True))
        assert result.forks_observed >= 1
        assert result.converged

    @pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
    def test_every_behaviour_seats_through_the_runner(self, behaviour):
        # The equivocator smoke with its seat swapped.  The stop is
        # AllDelivered alone: a withholding seat shows its newest block
        # to one peer each round, so correct DAGs differ at every round
        # boundary.
        smoke = registry.get("equivocator", smoke=True)
        seat = ByzantineFault(
            server="s4",
            behaviour=behaviour,
            equivocate_at=(1,) if behaviour == "equivocator" else (),
        )
        runner = ScenarioRunner(
            dataclasses.replace(
                smoke, faults=FaultSchedule((seat,)), stop=AllDelivered()
            )
        )
        result = runner.run()
        assert result.stopped_by == "stop-condition"
        cluster = runner.cluster
        assert set(cluster.adversaries) == {"s4"}
        trace = cluster.trace()
        labels = {label for seq in trace.indications.values() for label, _ in seq}
        assert labels and all(agreement(trace, label) == [] for label in labels)
        for shim in cluster.shims.values():
            assert well_formed_chains(shim.dag, cluster.correct_servers) == []

    def test_pruning_scenario_prunes(self):
        result = run_scenario(registry.get("pruning", smoke=True))
        assert result.storage.states_released > 0
        assert result.storage.payloads_dropped > 0
        assert result.interpreter.below_horizon == 0

    def test_probe_series_sampled_per_round(self):
        result = run_scenario(registry.get("fault-free", smoke=True))
        for name, series in result.probes.items():
            assert len(series) == result.rounds_run, name
        blocks = result.probes["total-blocks"]
        assert all(b <= a for b, a in zip(blocks, blocks[1:]))  # monotone


class TestRunnerMechanics:
    def test_max_rounds_reported_as_stop_reason(self):
        scenario = Scenario(
            name="hopeless",
            protocol="brb",
            # One request, but stop asks for 10 rounds beyond the budget.
            workload=OpenLoopWorkload(rate=1, rounds=1),
            stop=RoundsElapsed(rounds=30),
            max_rounds=3,
        )
        result = run_scenario(scenario)
        assert result.stopped_by == "max-rounds"
        assert result.rounds_run == 3

    def test_offline_interpretation_delivers_in_final_sweep(self):
        scenario = registry.get("offline-interpretation", smoke=True)
        runner = ScenarioRunner(scenario)
        result = runner.run()
        assert result.requests_delivered == result.requests_issued
        # All deliveries were detected at the end — interpretation ran
        # after the driving loop, so the per-request delivery round is
        # the final round for every request.
        final = result.rounds_run - 1
        for record in runner.driver.records:
            assert record.delivered_round == final

    def test_cluster_stays_accessible_after_run(self):
        runner = ScenarioRunner(registry.get("fault-free", smoke=True))
        result = runner.run()
        assert len(runner.cluster.shims) == 4
        assert runner.cluster.total_blocks() == result.total_blocks

    def test_closed_loop_never_exceeds_client_budget(self):
        scenario = Scenario(
            name="closed",
            protocol="brb",
            workload=ClosedLoopWorkload(clients=2, total=6),
            stop=AllDelivered(),
            max_rounds=64,
        )
        runner = ScenarioRunner(scenario)
        result = runner.run()
        assert result.requests_delivered == 6
        # In-flight never exceeded the client budget: with 2 clients, at
        # most 2 requests can share an issue round.
        by_round = {}
        for record in runner.driver.records:
            by_round.setdefault(record.issue_round, []).append(record)
        assert all(len(records) <= 2 for records in by_round.values())


class TestScenarioCli:
    def test_list_names_every_scenario(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    def test_show_emits_the_scenario_json(self, capsys):
        assert cli_main(["show", "fault-free", "--smoke"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert Scenario.from_dict(document) == registry.get(
            "fault-free", smoke=True
        )

    def test_run_json_document_parses_back(self, capsys):
        assert cli_main(
            ["run", "fault-free", "partition-heal", "--smoke", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        results = [ScenarioResult.from_dict(d) for d in document["results"]]
        assert [r.as_dict() for r in results] == document["results"]
        assert [r.scenario for r in results] == ["fault-free", "partition-heal"]
        assert all(r.stopped_by == "stop-condition" for r in results)

    def test_diff_identical_seeds_reports_identical(self, capsys):
        assert cli_main(["diff", "fault-free", "fault-free", "--smoke"]) == 0
        assert "results identical" in capsys.readouterr().out

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert cli_main(["run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestLiveWorkloadLowering:
    """The live arm injects what the simulator injects: the schedule
    compiled for the nodes is the simulated driver's record."""

    @pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
    def test_compiled_schedule_is_the_simulated_drivers_record(self, tmp_path, smoke):
        compared = []
        for name in registry.names():
            scenario = registry.get(name, smoke=smoke)
            try:
                configs = compile_live_configs(scenario, tmp_path / name)
            except ScenarioError:
                continue  # a fault kind or a workload the live arm refuses
            runner = ScenarioRunner(scenario)
            runner.run()
            # The rounds both arms run.
            rounds = min(live_rounds(scenario.stop, scenario.max_rounds), runner.rounds_run)
            simulated = sorted(
                (r.issue_round, str(r.label), r.index, str(r.server))
                for r in runner.driver.records
                if r.issue_round < rounds
            )
            live = sorted(
                (tick, label, index, str(server))
                for server, config in configs.items()
                for tick, label, index in config.workload
                if tick < rounds
            )
            assert live == simulated, name
            compared.append(name)
        # The crash scenarios are the ones whose senders move.
        assert {"crash-restart", "metrics-soak"} <= set(compared)

    def test_a_closed_loop_workload_is_refused(self, tmp_path):
        scenario = registry.get("closed-loop", smoke=True)
        assert isinstance(scenario.workload, ClosedLoopWorkload)
        with pytest.raises(ScenarioError, match="closed-loop"):
            compile_live_configs(scenario, tmp_path)


class TestStorageRootHygiene:
    """Review findings: a reused storage root must not silently become
    a restart-from-disk of a previous run, and deferred workload
    requests must not vanish."""

    def test_reused_storage_root_rejected(self, tmp_path):
        import pytest

        from repro.errors import ScenarioError

        scenario = registry.get("crash-restart", smoke=True)
        first = run_scenario(scenario, storage_root=tmp_path)
        assert first.stopped_by == "stop-condition"
        with pytest.raises(ScenarioError, match="already holds server state"):
            ScenarioRunner(scenario, storage_root=tmp_path)

    def test_cli_storage_dir_isolates_runs(self, tmp_path, capsys):
        """Two CLI runs sharing --storage-dir each get a fresh per-run
        subdirectory (no cross-run recovery), and both runs are clean."""
        for _ in range(2):
            assert cli_main(
                ["run", "crash-restart", "--smoke", "--json",
                 "--storage-dir", str(tmp_path)]
            ) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("crash-restart-*"))) == 2

    def test_deferred_requests_survive_total_outage(self, tmp_path):
        """All correct servers down at an injection round: the due
        requests carry over instead of silently dropping, and the run
        still reaches AllDelivered."""
        from repro.scenario import (
            AllDelivered,
            And,
            CrashFault,
            DagsConverged,
            FaultSchedule,
            StorageSpec,
            Topology,
        )

        scenario = Scenario(
            name="total-outage",
            protocol="counter",
            topology=Topology(n=2, storage=StorageSpec(checkpoint_interval=4)),
            workload=OpenLoopWorkload(rate=1, rounds=4, shared_label="ledger"),
            faults=FaultSchedule(
                (
                    CrashFault(server="s1", crash_round=1, restart_round=4),
                    CrashFault(server="s2", crash_round=1, restart_round=4),
                )
            ),
            stop=And((AllDelivered(), DagsConverged())),
            max_rounds=32,
        )
        result = run_scenario(scenario, storage_root=tmp_path)
        assert result.requests_issued == 4
        assert result.requests_delivered == 4
        assert result.stopped_by == "stop-condition"


class TestReviewHardening:
    """Second-pass review findings: pinned-sender outages defer, the
    post-run cluster survives owned-storage cleanup, abstract stop
    kinds are not decodable, and `converged` keeps the strict
    quantifier."""

    def test_fixed_sender_crash_defers_instead_of_aborting(self, tmp_path):
        from repro.scenario import (
            AllDelivered,
            And,
            CrashFault,
            DagsConverged,
            FaultSchedule,
            StorageSpec,
            Topology,
        )

        scenario = Scenario(
            name="pinned-sender-outage",
            protocol="brb",
            topology=Topology(storage=StorageSpec()),
            workload=OpenLoopWorkload(rate=1, rounds=4, sender="fixed:s1"),
            faults=FaultSchedule(
                (CrashFault(server="s1", crash_round=1, restart_round=4),)
            ),
            stop=And((AllDelivered(), DagsConverged())),
            max_rounds=32,
        )
        result = run_scenario(scenario, storage_root=tmp_path)
        assert result.requests_issued == 4
        assert result.requests_delivered == 4
        assert result.stopped_by == "stop-condition"

    def test_fixed_sender_outside_topology_rejected_at_parse_time(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="outside the topology"):
            Scenario(
                name="x",
                protocol="brb",
                workload=OpenLoopWorkload(sender="fixed:s9"),
            )

    def test_cluster_drivable_after_owned_storage_cleanup(self):
        runner = ScenarioRunner(registry.get("crash-restart", smoke=True))
        result = runner.run()
        assert result.stopped_by == "stop-condition"
        # The temp root is gone; further rounds must run in RAM instead
        # of exploding on a checkpoint write into a deleted directory.
        runner.cluster.round()
        assert all(
            shim.storage is None for shim in runner.cluster.shims.values()
        )

    def test_abstract_stop_kind_not_decodable(self):
        from repro.errors import ScenarioError
        from repro.scenario import StopCondition

        with pytest.raises(ScenarioError, match="unknown kind 'stop'"):
            StopCondition.from_dict(
                {"kind": "stop", "conditions": [{"kind": "all-delivered"}]}
            )

    def test_converged_stays_strict_with_server_left_down(self, tmp_path):
        from repro.scenario import CrashFault, FaultSchedule, StorageSpec, Topology
        from repro.scenario.stop import RoundsElapsed

        scenario = Scenario(
            name="down-forever",
            protocol="brb",
            topology=Topology(storage=StorageSpec()),
            workload=OpenLoopWorkload(rate=1, rounds=1),
            faults=FaultSchedule(
                (CrashFault(server="s4", crash_round=1, restart_round=None),)
            ),
            stop=RoundsElapsed(rounds=6),
            max_rounds=6,
        )
        result = run_scenario(scenario, storage_root=tmp_path)
        assert result.down_at_end == ("s4",)
        assert result.converged is False
