"""Invariants that hold after every round, not only at the end.

``backward_closed`` and ``monotone_horizon`` (:mod:`repro.invariants`)
are checked on every live server after each round of the two registry
smokes that stress them most: ``mixed-faults`` (an equivocator, a crash
with restart-from-disk and a healing partition) and ``gc-horizon-soak``
(pruning to the agreed horizon, with an equivocator and a crash).  A
restart starts a new incarnation, whose horizon is sampled afresh.
"""

import pytest

from repro.invariants import backward_closed, monotone_horizon
from repro.scenario import ScenarioRunner, registry


class SteppedRunner(ScenarioRunner):
    """A scenario runner that checks both invariants after each round."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.rounds_checked = 0
        self.violations = []
        #: Per (server, shim incarnation): its horizon after each round.
        self.horizons = {}

    def _one_round(self, inject):
        super()._one_round(inject)
        self.rounds_checked += 1
        for server, shim in self.cluster.shims.items():
            self.violations += [
                f"round {self.rounds_run}, {server}: {violation}"
                for violation in backward_closed(shim.dag)
            ]
            self.horizons.setdefault((server, shim), []).append(shim.horizon.horizon)


@pytest.mark.parametrize("name", ["mixed-faults", "gc-horizon-soak"])
def test_closure_and_a_monotone_horizon_after_every_round(name):
    runner = SteppedRunner(registry.get(name, smoke=True))
    result = runner.run()
    for (server, _), samples in runner.horizons.items():
        runner.violations += [f"{server}: {v}" for v in monotone_horizon(samples)]
    assert runner.violations == []
    assert runner.rounds_checked == result.rounds_run > 0
    # Not vacuous: a restart made a second incarnation, and some
    # horizon moved off "nothing agreed".
    servers = [server for server, _ in runner.horizons]
    assert len(servers) > len(set(servers))
    assert any(k >= 0 for samples in runner.horizons.values() for k in samples[-1].values())
