"""Coordinated garbage collection — horizon agreement embedded in the DAG.

The subsystem that makes pruning byzantine-safe (ROADMAP hazard, PR 4):

* :mod:`repro.horizon.claims`  — durable-frontier claims, stamped into
  blocks (``Block.hz``) by each server after every checkpoint;
* :mod:`repro.horizon.tracker` — the agreed horizon: the frontier that
  ``n - f`` distinct claimers cover, a deterministic, monotone function
  of the DAG alone;
* :mod:`repro.horizon.compare` — the cross-server convergence check,
  listed in the invariant catalogue (:mod:`repro.invariants`).

Consumers: :mod:`repro.storage.gc` prunes against the agreed horizon
instead of the Lemma-A.6 full-reference rule, gossip condemns arriving
blocks whose position is already below the horizon (Adelie-style
reference-below-horizon validity), and the interpreter rehydrates
locally-released-but-above-horizon predecessor states from the covering
checkpoint instead of raising ``PrunedStateError``.
"""

from repro.horizon.claims import durable_frontier, format_horizon, merge_claim
from repro.horizon.compare import horizon_differences
from repro.horizon.tracker import HorizonTracker

__all__ = [
    "HorizonTracker",
    "durable_frontier",
    "format_horizon",
    "horizon_differences",
    "merge_claim",
]
