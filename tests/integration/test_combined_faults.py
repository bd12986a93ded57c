"""Combined fault families under one schedule — the sharpest executable
form of the paper's pitch: ``shim(P)`` preserves ``P``'s guarantees
under *any* composition of network, crash and byzantine faults.

One :class:`FaultSchedule` carries a healing partition, a
crash + restart-from-disk, and an equivocating byzantine seat at the
same time (n = 7, f = 2).  After the partition heals and the crashed
server recovers, the correct servers' observable traces must be
equivalent to the direct-messaging baseline running the same workload
with the byzantine seat silent — Theorem 5.1 across all three fault
families at once.
"""

import pytest

from repro.invariants import (
    agreement,
    complete_interpretation,
    horizon_differences,
    same_indications,
    same_interpreted,
)
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.direct import DirectRuntime
from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    OpenLoopWorkload,
    PartitionFault,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)
from repro.types import make_servers

N = 7
BYZANTINE = "s7"
CRASHED = "s3"


def combined_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        name="combined-faults",
        protocol="brb",
        description="partition + crash/restart + equivocator in one "
        "schedule (the satellite acceptance scenario)",
        seed=seed,
        topology=Topology(
            n=N,
            # prune=True (PR 4): the coordinated GC horizon freezes
            # during the partition and the covering checkpoint
            # rehydrates pruned inputs on demand, so the equivocator's
            # delayed fork sibling no longer stalls its honest
            # descendants — the exact hazard this scenario surfaced.
            storage=StorageSpec(checkpoint_interval=8, prune=True),
        ),
        workload=OpenLoopWorkload(rate=2, rounds=6),
        faults=FaultSchedule(
            (
                ByzantineFault(
                    server=BYZANTINE, behaviour="equivocator", equivocate_at=(2,)
                ),
                CrashFault(server=CRASHED, crash_round=3, restart_round=7),
                PartitionFault(
                    start_round=2,
                    heal_round=5,
                    group_a=("s1", "s2", "s3"),
                    group_b=("s4", "s5", "s6", "s7"),
                ),
            )
        ),
        stop=And((AllDelivered(), DagsConverged())),
        max_rounds=64,
    )


@pytest.fixture(scope="module")
def combined_run(tmp_path_factory):
    """One shared execution of the combined-fault scenario: every test
    in this module only *reads* the finished runner/result, so a single
    (deterministic) run serves them all."""
    scenario = combined_scenario()
    runner = ScenarioRunner(
        scenario, storage_root=tmp_path_factory.mktemp("combined-faults")
    )
    result = runner.run()
    return runner, result


class TestCombinedFaultFamilies:
    def _run(self, combined_run):
        return combined_run

    def test_all_fault_families_actually_fired(self, combined_run):
        runner, result = self._run(combined_run)
        assert result.crashes == 1 and result.restarts == 1
        assert result.forks_observed >= 1  # the equivocation happened
        assert runner.cluster.sim.faults.partitions  # the cut existed
        assert result.stopped_by == "stop-condition"
        assert result.converged and result.down_at_end == ()

    def test_theorem51_trace_equivalence_after_heal(self, combined_run):
        """The acceptance check: after heal + recovery, the embedding's
        correct-server traces equal runtime/direct on the same workload
        (byzantine seat silent there — it sends no protocol messages)."""
        runner, result = self._run(combined_run)
        assert result.requests_delivered == result.requests_issued

        servers = make_servers(N)
        direct = DirectRuntime(
            brb_protocol, servers=servers, silent=[BYZANTINE]
        )
        # Replay the exact workload the scenario issued: same labels,
        # same request values, same entry servers.
        for record in runner.driver.records:
            direct.request(record.server, record.label, Broadcast(record.index))
        direct.run()

        # The byzantine seat's own equivocation instances exist only in
        # the embedding, so equivalence is stated over the labels both
        # runtimes executed.
        assert same_indications(
            direct.trace(),
            runner.cluster.trace(),
            servers=[s for s in servers if s != BYZANTINE],
            labels={record.label for record in runner.driver.records},
        ) == []

    def test_equivocation_instance_stays_consistent(self, combined_run):
        """BRB consistency on the byzantine seat's own instance: the
        fork offered two values; correct servers may deliver nothing
        (no totality obligation for a byzantine sender whose echoes
        split below quorum) but any that deliver must agree."""
        runner, _ = self._run(combined_run)
        cue_label = "byz-s7-2"  # the scheduled equivocation cue
        assert agreement(runner.cluster.trace(), cue_label) == []
        # The fork itself must exist in every correct DAG regardless.
        for server in runner.cluster.correct_servers:
            assert runner.cluster.shim(server).dag.forks()

    def test_recovered_server_rejoined_the_joint_dag(self, combined_run):
        runner, _ = self._run(combined_run)
        recovered = runner.cluster.shim(CRASHED)
        assert recovered.recovery is not None
        assert recovered.recovery.blocks_recovered > 0
        reference = runner.cluster.shim("s1")
        assert recovered.dag.refs == reference.dag.refs

    def test_pruning_on_no_interpretability_divergence(self, combined_run):
        """The PR 4 acceptance check: with ``prune=True`` and all three
        fault families live, interpretation must not diverge.  Every
        honest block is interpreted on every live server (the delayed
        fork sibling's inputs rehydrate from the covering checkpoint),
        pruning actually happened, and the live and disk-recovered
        servers agree on interpretability."""
        runner, result = self._run(combined_run)
        cluster = runner.cluster
        assert result.storage.states_released > 0, "pruning never fired"
        assert complete_interpretation(cluster.shims, exempt={BYZANTINE}) == []
        # Live servers and the restart-from-disk server agree on what is
        # interpretable — the divergence mixed-faults used to measure.
        assert same_interpreted(cluster.shims) == []

    def test_agreed_horizon_identical_across_correct_servers(self, combined_run):
        """The horizon is a pure function of the DAG, so once the DAGs
        converge every correct server must hold the same agreed horizon
        — and it must have actually advanced (claims flowed)."""
        runner, result = self._run(combined_run)
        cluster = runner.cluster
        assert horizon_differences(cluster.shims) == []
        horizon = cluster.shim("s1").horizon.horizon
        assert any(k >= 0 for k in horizon.values()), "horizon never advanced"
        # The per-server GC-health counters are surfaced in the result.
        by_server = result.interpreter.by_server
        assert set(by_server) == set(str(s) for s in cluster.shims)
        assert all(c["below_horizon"] == 0 for c in by_server.values())
        assert result.interpreter.rehydrated == sum(
            c["rehydrated"] for c in by_server.values()
        )
