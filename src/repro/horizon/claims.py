"""Horizon claims — durable checkpoint frontiers, stamped into blocks.

The seed pruner's full-reference rule (Lemma A.6) is exactly the rule
byzantine servers violate by construction: an equivocator references a
block once per fork branch, so a partition-delayed fork sibling can
name blocks whose annotations every correct server already released —
permanently stalling interpretation of the sibling's honest
descendants (the `mixed-faults` hazard).  Coordinated GC replaces the
per-server inference with an *agreement artifact*: each server stamps
its blocks with the frontier its latest durable checkpoint covers, and
pruning waits for ``n - f`` distinct servers to claim a frontier (see
:mod:`repro.horizon.tracker`).

A claim is a tuple of ``(server, seq)`` pairs — "every block built by
``server`` with sequence number ≤ ``seq`` in my DAG past is covered by
my latest durable checkpoint".  Claims ride inside blocks (the paper's
piggyback move: no extra protocol, agreement is a pure function of the
DAG) and are authenticated because ``ref(B)`` covers ``hz`` and the
block signature covers ``ref(B)``.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping

from repro.dag.block import HorizonClaim
from repro.dag.blockdag import BlockDag
from repro.types import BlockRef, SeqNum, ServerId


def durable_frontier(
    dag: BlockDag,
    servers: Iterable[ServerId],
    covered: AbstractSet[BlockRef],
) -> HorizonClaim:
    """The frontier a checkpoint covering ``covered`` lets us claim.

    For each server the claim is the longest contiguous chain prefix
    (from sequence 0 up) all of whose blocks — *including* every known
    equivocation sibling at each position — are in ``covered``.
    Contiguity matters: a claim of ``(s, k)`` asserts the whole prefix,
    which is what lets observers treat the agreed horizon as a
    down-closed region.
    """
    claim: list[tuple[ServerId, SeqNum]] = []
    for server in sorted(servers):
        k = -1
        while True:
            refs = dag.refs_at(server, k + 1)
            if not refs or not all(r in covered for r in refs):
                break
            k += 1
        if k >= 0:
            claim.append((server, k))
    return tuple(claim)


def merge_claim(
    vector: dict[ServerId, SeqNum], claim: HorizonClaim
) -> bool:
    """Fold one claim into a claimer's frontier vector, element-wise max.

    Element-wise max makes the fold order-independent (the tracker's
    determinism rests on this: the same DAG yields the same vectors no
    matter the insertion order) and monotone — a byzantine claimer that
    "retracts" a frontier simply has no effect.  Returns whether the
    vector changed.
    """
    changed = False
    for s, k in claim:
        server = ServerId(s)
        if k > vector.get(server, -1):
            vector[server] = k
            changed = True
    return changed


def format_horizon(horizon: Mapping[ServerId, SeqNum]) -> str:
    """Compact human-readable rendering (diagnostics, assertions)."""
    return "{" + ", ".join(
        f"{s}:{k}" for s, k in sorted(horizon.items())
    ) + "}"
