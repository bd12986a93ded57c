"""Property test: structural sharing is observationally invisible.

For every protocol in the scenario registry, a cluster of production
shims (fork + write barrier, ready-queue scheduler, rehydration) must
be trace-equal to the reference
interpreter of ``tests/reference.py`` (rescan, ``copy.deepcopy``).
Sampled over composed fault schedules (equivocator fork x
crash/restart x healing partition), with and without pruning, every
correct server must hold

* byte-identical annotations (``annotation_fingerprint`` covers the
  ``snapshot_instance``-visible state: ``PIs``, ``Ms`` and active
  labels) for every block still resident, and
* the reference's indication trace for that server, in order.

Refs are content hashes, so an equal ref means an equal causal past and
(Lemma 4.2) an equal annotation: the reference may judge a pruned run
on any payload-complete DAG that contains the ref.

This is the check on the write-barrier discipline: a protocol that
mutates a container shared with a fork instead of going through
``_writable`` / ``_writable_entry`` writes into the parent's frozen
annotation, which the deepcopy oracle never does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    OpenLoopWorkload,
    PartitionFault,
    RoundsElapsed,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)
from repro.scenario.spec import PROTOCOLS
from repro.dag.blockdag import BlockDag
from repro.storage.state_codec import annotation_fingerprint

from reference import ReferenceInterpreter

N = 5
BYZANTINE = "s5"

#: The workload issues only ``entry.request(i)``.  PBFT decides only
#: the view-0 leader's proposal, so its requests enter at ``s1``.
#: Phase king never decides without ``PkAdvance`` requests, so its run
#: is judged on a round budget; its proposals still drive every
#: message handler the oracle compares.
SENDER = {"pbft": "fixed:s1"}
STOP = {"phaseking": RoundsElapsed(12)}


def build_scenario(
    protocol, partition_start, crash_round, equivocate_at, seed, prune
):
    faults = [
        ByzantineFault(
            server=BYZANTINE, behaviour="equivocator",
            equivocate_at=(equivocate_at,),
        ),
        PartitionFault(
            start_round=partition_start,
            heal_round=partition_start + 2,
            group_a=("s1", "s2"),
            group_b=("s3", "s4", "s5"),
        ),
        CrashFault(
            server="s3", crash_round=crash_round,
            restart_round=crash_round + 2,
        ),
    ]
    return Scenario(
        name="cow-prop",
        protocol=protocol,
        description="sampled fork x crash x partition schedule",
        seed=seed,
        topology=Topology(
            n=N,
            storage=StorageSpec(checkpoint_interval=6, prune=prune),
        ),
        workload=OpenLoopWorkload(
            rate=1, rounds=4, sender=SENDER.get(protocol, "round-robin")
        ),
        faults=FaultSchedule(tuple(faults)),
        stop=And((STOP.get(protocol, AllDelivered()), DagsConverged())),
        max_rounds=48,
    )


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("prune", [True, False])
@given(
    partition_start=st.integers(min_value=1, max_value=2),
    crash_round=st.integers(min_value=2, max_value=4),
    equivocate_at=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=4, deadline=None)
def test_cow_trace_equals_deepcopy_oracle(
    protocol, prune, partition_start, crash_round, equivocate_at, seed
):
    runner = ScenarioRunner(
        build_scenario(
            protocol, partition_start, crash_round, equivocate_at, seed, prune
        )
    )
    cluster = runner.cluster
    # Gossip admits only full blocks, and admits a block after its
    # predecessors: first sight across the fleet is a payload-complete
    # DAG in topological order, whatever the pruner destroys later.
    complete = {}
    for shim in cluster.shims.values():
        shim.dag.add_insert_listener(lambda b: complete.setdefault(b.ref, b))
    result = runner.run()
    assert result.stopped_by == "stop-condition", "cluster failed to converge"

    dag = BlockDag()
    for block in complete.values():
        dag.insert(block)
    oracle = ReferenceInterpreter(dag, runner.entry.spec, cluster.servers)
    oracle.run()

    compared = 0
    for server, shim in cluster.shims.items():
        # Identical user-visible history, in order (Algorithm 3 line 8):
        # a correct server's blocks are a chain, so every eligible
        # schedule emits its events in the same order.
        assert shim.indications == [
            (e.label, e.indication) for e in oracle.events if e.server == server
        ], f"{server}: indication trace diverges from the reference"
        interpreter = shim.interpreter
        assert interpreter.interpreted == oracle.interpreted
        # Byte-identical annotations over every block the server still
        # holds in memory (released entries have no bytes to compare).
        for ref in sorted(interpreter.interpreted - interpreter.released):
            assert annotation_fingerprint(
                interpreter, ref
            ) == annotation_fingerprint(oracle, ref), (
                f"{server}: annotation diverged at {ref[:8]}"
            )
            compared += 1
    assert compared > 0, "no resident annotations to compare; test is vacuous"
