"""Determinism regression: the same Scenario + seed replays to a
byte-identical ScenarioResult JSON (modulo wall clock).

This guards the seed-threading through the whole stack: the simulator
RNG (latency jitter, fault coins), the workload RNG (random-sender
policy), the round-robin cursors, and every counter folded into the
result.  A regression anywhere — e.g. iteration over an unordered set
leaking into the schedule — shows up as a JSON diff here.
"""

import pytest

from repro.scenario import Scenario, ScenarioRunner, registry
from repro.scenario.runner import run_scenario

#: Scenario shapes covering all three fault families, jittered latency,
#: random senders, storage, and off-line interpretation.
CASES = [name for name in registry.names()]


def _run_json(scenario: Scenario) -> str:
    return run_scenario(scenario).to_json(include_wall_clock=False)


class TestSameSeedSameResult:
    @pytest.mark.parametrize("name", CASES)
    def test_registry_scenario_replays_byte_identically(self, name):
        scenario = registry.get(name, smoke=True)
        assert _run_json(scenario) == _run_json(scenario)

    def test_jitter_and_random_senders_replay_byte_identically(self):
        """The sharpest case: every RNG consumer active at once."""
        from repro.scenario import (
            AllDelivered,
            LatencySpec,
            OpenLoopWorkload,
            Topology,
        )

        scenario = Scenario(
            name="jittery",
            protocol="brb",
            seed=1234,
            topology=Topology(
                latency=LatencySpec(model="jitter", low=0.3, high=1.7)
            ),
            workload=OpenLoopWorkload(rate=3, rounds=3, sender="random"),
            stop=AllDelivered(),
            probes=("total-blocks", "wire-bytes", "delivered"),
            max_rounds=24,
        )
        first = _run_json(scenario)
        second = _run_json(Scenario.from_json(scenario.to_json()))
        assert first == second

    def test_round_tripped_scenario_replays_identically(self):
        """JSON → Scenario → run must equal value → run: the document
        is the scenario, with nothing hidden outside it."""
        scenario = registry.get("partition-heal", smoke=True)
        via_json = Scenario.from_json(scenario.to_json())
        assert _run_json(scenario) == _run_json(via_json)

    def test_different_seed_still_valid_result(self):
        """A different seed must still satisfy the stop condition (the
        scenario is seed-robust), though the run may differ."""
        scenario = registry.get("fault-free", smoke=True).with_seed(7)
        result = run_scenario(scenario)
        assert result.stopped_by == "stop-condition"
        assert result.seed == 7

    def test_wall_clock_is_the_only_nondeterministic_field(self):
        scenario = registry.get("fault-free", smoke=True)
        a = run_scenario(scenario).as_dict()
        b = run_scenario(scenario).as_dict()
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b
