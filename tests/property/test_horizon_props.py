"""Property test for coordinated GC: pruning never costs interpretability.

The PR 4 acceptance property, sampled over fault schedules: for any
composition of a healing partition, a crash + restart-from-disk and an
equivocator cue, running with ``prune=True`` (coordinated horizon GC)
must leave **every honest block interpreted on every live server** —
no ``below_horizon`` stalls, no interpretability divergence — and the
observable workload trace must equal the ``prune=False`` oracle run of
the same scenario.  This is exactly the property the seed pruner
violated (the `mixed-faults` hazard of PR 3).
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.invariants import (
    complete_interpretation,
    same_indications,
    same_interpreted,
)
from repro.scenario import (
    AllDelivered,
    And,
    ByzantineFault,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    OpenLoopWorkload,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)

N = 5
BYZANTINE = "s5"


def build_scenario(partition_start, partition_len, crash_round, crash_len,
                   equivocate_at, seed):
    from repro.scenario import PartitionFault

    faults = [
        ByzantineFault(
            server=BYZANTINE, behaviour="equivocator",
            equivocate_at=(equivocate_at,),
        ),
        PartitionFault(
            start_round=partition_start,
            heal_round=partition_start + partition_len,
            group_a=("s1", "s2"),
            group_b=("s3", "s4", "s5"),
        ),
        CrashFault(
            server="s3",
            crash_round=crash_round,
            restart_round=crash_round + crash_len,
        ),
    ]
    return Scenario(
        name="horizon-prop",
        protocol="brb",
        description="sampled partition x crash x equivocator schedule",
        seed=seed,
        topology=Topology(
            n=N,
            storage=StorageSpec(checkpoint_interval=6, prune=True),
        ),
        workload=OpenLoopWorkload(rate=1, rounds=4),
        faults=FaultSchedule(tuple(faults)),
        stop=And((AllDelivered(), DagsConverged())),
        max_rounds=48,
    )


@given(
    partition_start=st.integers(min_value=1, max_value=2),
    partition_len=st.integers(min_value=2, max_value=3),
    crash_round=st.integers(min_value=2, max_value=4),
    crash_len=st.integers(min_value=2, max_value=4),
    equivocate_at=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=3),
)
# Pinned regression: the fork sibling was *admitted* above the horizon,
# then a later pass destroyed its predecessor's payload (and with it
# the carried checkpoint entry) before the sibling was interpreted —
# permanent stall.  Fixed by re-checking settledness at destruction
# time in storage/gc.py; this schedule must stay green.
@example(
    partition_start=2, partition_len=3, crash_round=3, crash_len=2,
    equivocate_at=2, seed=0,
)
@settings(max_examples=6, deadline=None)
def test_every_honest_block_interpreted_with_pruning(
    partition_start, partition_len, crash_round, crash_len, equivocate_at, seed
):
    scenario = build_scenario(
        partition_start, partition_len, crash_round, crash_len,
        equivocate_at, seed,
    )
    pruned_runner = ScenarioRunner(scenario)
    pruned = pruned_runner.run()
    assert pruned.stopped_by == "stop-condition", (
        "pruned run failed to converge"
    )

    # The core property: pruning cost no interpretability anywhere.
    shims = pruned_runner.cluster.shims
    assert complete_interpretation(shims, exempt={BYZANTINE}) == []
    assert same_interpreted(shims) == []

    # Oracle: the identical schedule without state GC must observe the
    # same workload trace (Theorem 5.1 does not care about pruning).
    oracle_scenario = dataclasses.replace(
        scenario,
        topology=dataclasses.replace(
            scenario.topology,
            storage=dataclasses.replace(scenario.topology.storage, prune=False),
        ),
    )
    oracle_runner = ScenarioRunner(oracle_scenario)
    oracle = oracle_runner.run()
    assert oracle.stopped_by == "stop-condition"
    assert same_indications(
        oracle_runner.cluster.trace(),
        pruned_runner.cluster.trace(),
        servers=pruned_runner.cluster.correct_servers,
        labels={record.label for record in pruned_runner.driver.records},
    ) == []
    assert pruned.requests_delivered == oracle.requests_delivered
