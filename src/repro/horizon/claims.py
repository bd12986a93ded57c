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

from repro.dag.block import Block, HorizonClaim
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
        k = _walk(dag, server, -1, covered)
        if k >= 0:
            claim.append((server, k))
    return tuple(claim)


def _walk(dag: BlockDag, server: ServerId, k: SeqNum, covered: AbstractSet[BlockRef]) -> SeqNum:
    """How far ``server``'s covered prefix reaches past position ``k``."""
    while True:
        refs = dag.refs_at(server, k + 1)
        if not refs or not all(r in covered for r in refs):
            return k
        k += 1


class FrontierWalk:
    """:func:`durable_frontier` at each of one server's checkpoints,
    every builder's walk resumed from its previous claim.

    ``covered`` only grows from one call to the next (a server's
    interpreted set does), so every position at or below a builder's
    previous claim is still covered — unless it gained a block since,
    an equivocation sibling, which the DAG's insert listener notes.
    Those positions are checked again, lowest first, and the walk goes
    on from the previous claim: each claim is the one a walk from
    sequence 0 gives."""

    def __init__(self, dag: BlockDag, servers: Iterable[ServerId]) -> None:
        self._dag = dag
        self._servers = sorted(servers)
        self._claim: dict[ServerId, SeqNum] = {}
        #: Positions at or below a builder's claim that gained a block
        #: since the claim was made.
        self._gained: dict[ServerId, set[SeqNum]] = {}
        dag.add_insert_listener(self._inserted)

    def _inserted(self, block: Block) -> None:
        if block.k <= self._claim.get(block.n, -1):
            self._gained.setdefault(block.n, set()).add(block.k)

    def __call__(self, covered: AbstractSet[BlockRef]) -> HorizonClaim:
        """The frontier a checkpoint covering ``covered`` lets us claim."""
        dag = self._dag
        claim: list[tuple[ServerId, SeqNum]] = []
        for server in self._servers:
            k = self._claim.get(server, -1)
            for position in sorted(self._gained.pop(server, ())):
                if not all(r in covered for r in dag.refs_at(server, position)):
                    k = position - 1
                    break
            k = self._claim[server] = _walk(dag, server, k, covered)
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
