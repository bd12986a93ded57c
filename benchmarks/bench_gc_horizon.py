"""GC-HORIZON — coordinated-horizon GC vs no pruning.

The PR 4 acceptance measurement.  One fault-laden long-run scenario
(the registry's ``gc-horizon-soak``: an equivocator seat plus a
crash + restart-from-disk over a replicated ledger) is executed through
two storage configurations:

* ``unpruned``    — ``prune=False``: resident annotations grow linearly
  with the run (the memory problem pruning exists to solve);
* ``coordinated`` — ``prune=True``: claims + the ``n - f`` agreed
  horizon + checkpoint rehydration (PR 4).  Residency stays bounded
  *and* every honest block is interpreted everywhere.

``--smoke`` is the CI gate: it exits non-zero unless the coordinated
arm kept interpretation intact, released states, and stayed below the
unpruned arm's resident peak and final figure.

Because the workload is a registry scenario, the exact run is
replayable from the CLI:

    PYTHONPATH=src python -m repro.scenario run gc-horizon-soak

Run:  PYTHONPATH=src python benchmarks/bench_gc_horizon.py [--smoke]
  or: PYTHONPATH=src python -m pytest benchmarks/bench_gc_horizon.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import emit, reset

from repro.scenario import ScenarioRunner, StorageSpec, registry

EXPERIMENT = "GC_HORIZON"

ARMS = {
    "unpruned": StorageSpec(
        checkpoint_interval=8, segment_max_bytes=8192, prune=False
    ),
    "coordinated": StorageSpec(
        checkpoint_interval=8, segment_max_bytes=8192, prune=True
    ),
}


def run_arm(name: str, smoke: bool) -> dict:
    scenario = registry.get("gc-horizon-soak", smoke=smoke)
    scenario = dataclasses.replace(
        scenario,
        topology=dataclasses.replace(
            scenario.topology, storage=ARMS[name]
        ),
    )
    runner = ScenarioRunner(scenario)
    result = runner.run()
    cluster = runner.cluster
    byzantine = {
        s for s in cluster.servers if s not in cluster.shims
        and s not in cluster.down
    }
    honest_uninterpreted = max(
        (
            sum(
                1
                for block in shim.dag
                if block.n not in byzantine
                and block.ref not in shim.interpreter.interpreted
            )
            for shim in cluster.shims.values()
        ),
        default=0,
    )
    resident_series = result.probes.get("resident-states", ())
    return {
        "rounds_run": result.rounds_run,
        "stopped_by": result.stopped_by,
        "total_blocks": result.total_blocks,
        "delivered": result.requests_delivered,
        "issued": result.requests_issued,
        "resident_states_peak": max(resident_series, default=0.0),
        "resident_states_final": (
            resident_series[-1] if resident_series else 0.0
        ),
        "wal_bytes_final": result.storage.wal_bytes,
        "checkpoint_bytes": result.storage.checkpoint_bytes,
        "states_released": result.storage.states_released,
        "payloads_dropped": result.storage.payloads_dropped,
        "below_horizon": result.interpreter.below_horizon,
        "rehydrated": result.interpreter.rehydrated,
        "condemned_below_horizon": result.interpreter.condemned_below_horizon,
        "honest_blocks_uninterpreted_max": honest_uninterpreted,
    }


def run(smoke: bool = False) -> dict:
    reset(EXPERIMENT)
    arms = {name: run_arm(name, smoke) for name in ARMS}
    coordinated = arms["coordinated"]
    unpruned = arms["unpruned"]
    live_states = coordinated["total_blocks"] * 6  # 6 live correct shims
    result = {
        "experiment": EXPERIMENT,
        "scenario": "gc-horizon-soak" + (" (smoke)" if smoke else ""),
        "arms": arms,
        "summary": {
            "resident_reduction_vs_unpruned": round(
                unpruned["resident_states_peak"]
                / max(coordinated["resident_states_peak"], 1.0),
                2,
            ),
            "coordinated_resident_fraction_of_dag": round(
                coordinated["resident_states_final"] / max(live_states, 1), 4
            ),
            "interpretation_intact": (
                coordinated["below_horizon"] == 0
                and coordinated["honest_blocks_uninterpreted_max"] == 0
            ),
        },
    }
    emit(EXPERIMENT, json.dumps(result, indent=2))
    return result


def check(result: dict) -> None:
    """The acceptance gate (the test below and ``--smoke`` in CI)."""
    coordinated = result["arms"]["coordinated"]
    unpruned = result["arms"]["unpruned"]
    # The whole point: coordinated GC keeps every honest block
    # interpreted everywhere...
    assert result["summary"]["interpretation_intact"], coordinated
    assert coordinated["delivered"] == coordinated["issued"]
    # ...while actually bounding resident annotations below the
    # unpruned run (peak and final).
    assert coordinated["states_released"] > 0
    assert (
        coordinated["resident_states_peak"] < unpruned["resident_states_peak"]
    )
    assert (
        coordinated["resident_states_final"]
        < unpruned["resident_states_final"]
    )


def test_coordinated_horizon_bounds_memory_without_stalls():
    check(run(smoke=True))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    outcome = run(smoke=smoke)
    if smoke:
        check(outcome)
    print(json.dumps(outcome, indent=2))
