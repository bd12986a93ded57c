"""Coordinated-horizon GC on the registry's ``gc-horizon-soak``.

The soak (an equivocator seat plus a crash + restart-from-disk over a
replicated ledger, smoke-sized) runs through three storage
configurations, and every check is a deterministic count:

* ``prune=False`` — resident annotations grow with the run, the memory
  problem pruning exists to solve;
* the scenario's own ``prune=True`` with the pin-recent window — claims,
  the ``n - f`` agreed horizon and checkpoint rehydration bound
  residency *and* keep every honest block interpreted everywhere;
* the same with ``pin_recent_checkpoints=0`` — the most aggressive
  release schedule, whose release→rehydrate thrash the window damps.
"""

import dataclasses

from repro.scenario import ScenarioRunner, registry


def run_soak(**storage):
    scenario = registry.get("gc-horizon-soak", smoke=True)
    scenario = dataclasses.replace(
        scenario,
        topology=dataclasses.replace(
            scenario.topology,
            storage=dataclasses.replace(scenario.topology.storage, **storage),
        ),
    )
    runner = ScenarioRunner(scenario)
    return runner.run(), runner.cluster


def honest_blocks_uninterpreted(cluster):
    """The most honest blocks any live shim holds uninterpreted."""
    byzantine = {
        s for s in cluster.servers if s not in cluster.shims and s not in cluster.down
    }
    return max(
        sum(
            1
            for block in shim.dag
            if block.n not in byzantine
            and block.ref not in shim.interpreter.interpreted
        )
        for shim in cluster.shims.values()
    )


def test_pin_recent_window_drops_rehydration_thrash():
    """The coordinated GC-horizon gate — the pinned run bounds memory
    below an unpruned one without stalling any honest block — and the
    pin window's fix, which damps an eager run's rehydration thrash."""
    unpruned, _ = run_soak(prune=False)
    eager, _ = run_soak(pin_recent_checkpoints=0)
    pinned, cluster = run_soak()

    # Same workload outcome either way: every request delivered, no
    # below-horizon stalls, run finished by stop condition.
    for result in (eager, pinned):
        assert result.stopped_by == "stop-condition"
        assert result.requests_delivered == result.requests_issued
        assert result.interpreter.below_horizon == 0

    # Coordinated GC keeps every honest block interpreted everywhere
    # while bounding resident annotations below the unpruned run, at its
    # peak and at the end.
    assert honest_blocks_uninterpreted(cluster) == 0
    resident = pinned.probes["resident-states"]
    unpruned_resident = unpruned.probes["resident-states"]
    assert max(resident) < max(unpruned_resident)
    assert resident[-1] < unpruned_resident[-1]

    # The fix: the pin window visibly damps rehydration churn...
    assert eager.interpreter.rehydrated > 0, (
        "scenario no longer exercises rehydration; the regression test "
        "lost its subject"
    )
    assert pinned.interpreter.rehydrated < eager.interpreter.rehydrated, (
        f"pin window did not reduce rehydration thrash: "
        f"{pinned.interpreter.rehydrated} >= {eager.interpreter.rehydrated}"
    )
    # ...while GC keeps doing its job (states still get released).
    assert pinned.storage.states_released > 0
