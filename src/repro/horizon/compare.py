"""Cross-server horizon comparison — the executable convergence claim.

The agreed horizon is a pure function of the DAG, so any two correct
servers holding the same DAG must compute the *same* horizon vector
(and as gossip converges their DAGs, their horizon sequences converge
too).  :func:`horizon_differences` is that check, listed in the
invariant catalogue (:mod:`repro.invariants`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.horizon.claims import format_horizon
from repro.types import ServerId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shim.shim import Shim


def horizon_differences(shims: Mapping[ServerId, "Shim"]) -> list[str]:
    """Each server whose agreed horizon differs from the first
    server's, rendered side by side; empty when all agree."""
    views = {
        server: shim.horizon.frontier_key() for server, shim in shims.items()
    }
    if not views:
        return []
    reference_server, reference = next(iter(views.items()))
    problems = []
    for server, view in views.items():
        if view != reference:
            problems.append(
                f"{server}: {format_horizon(dict(view))} != "
                f"{reference_server}: {format_horizon(dict(reference))}"
            )
    return problems
