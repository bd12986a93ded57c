"""DAG traversal: topological orders and the eligibility frontier.

Algorithm 2 interprets a block when all its predecessors have been
interpreted (the ``eligible(B)`` predicate).  Lemma 4.2 shows the choice
among eligible blocks does not matter; these helpers expose both a
deterministic canonical order (for reproducible runs and property
tests) and the raw frontier (so tests can deliberately permute choices
and check schedule-independence).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.dag.block import Block
from repro.dag.blockdag import BlockDag
from repro.types import BlockRef


def eligible_frontier(dag: BlockDag, interpreted: set[BlockRef]) -> list[Block]:
    """Blocks eligible for interpretation: not yet interpreted, and all
    predecessors interpreted (Algorithm 2 line 3).

    Returned in canonical (reference) order so callers that just take
    the first element get a deterministic schedule.

    This scans the whole DAG — O(N) per call.  The interpreter's
    incremental ready-queue scheduler replaces it on the hot path; this
    function survives as the specification-shaped oracle that property
    tests compare the scheduler against (``tests/reference.py``).
    """
    frontier = [
        block
        for block in dag
        if block.ref not in interpreted
        and all(p in interpreted for p in block.preds)
    ]
    frontier.sort(key=lambda b: b.ref)
    return frontier


def topological_order(
    dag: BlockDag,
    tie_break: Callable[[Block], object] | None = None,
) -> list[Block]:
    """A topological order of the whole DAG (Kahn's algorithm).

    ``tie_break`` orders blocks that become available simultaneously
    (ties broken by reference); the default orders by reference alone,
    making the result *canonical*: at every step the emitted block is
    the smallest-keyed block among **all** blocks whose predecessors
    have been emitted.  A heap enforces this globally — sorting each
    batch of newly available blocks before appending to a FIFO queue
    would interleave batches and break the claim across branches.
    Every result is a legal interpretation schedule, and by Lemma 4.2
    they all produce the same interpretation state.
    """
    key = tie_break if tie_break is not None else (lambda b: b.ref)
    in_degree: dict[BlockRef, int] = {}
    for block in dag:
        in_degree[block.ref] = len(set(block.preds))
    heap = [
        (key(block), block.ref)
        for block in dag
        if in_degree[block.ref] == 0
    ]
    heapq.heapify(heap)
    result: list[Block] = []
    while heap:
        _, ref = heapq.heappop(heap)
        block = dag.require(ref)
        result.append(block)
        for succ_ref in dag.graph.successors(ref):
            in_degree[succ_ref] -= 1
            if in_degree[succ_ref] == 0:
                heapq.heappush(heap, (key(dag.require(succ_ref)), succ_ref))
    return result


def causal_past(dag: BlockDag, block: Block) -> list[Block]:
    """All blocks ``B'`` with ``B' ⇀* B``, topologically ordered.

    The causal past determines everything interpretation computes at
    ``block`` (Lemma 4.2) — analysis code uses this to slice DAGs.
    """
    past_refs = dag.graph.ancestors(block.ref) | {block.ref}
    order = topological_order(dag)
    return [b for b in order if b.ref in past_refs]


def depth_map(dag: BlockDag) -> dict[BlockRef, int]:
    """Longest-path depth of every block from the genesis layer.

    Depth 0 = genesis blocks.  Used by visualization and by the
    round-structure analysis in benchmarks.
    """
    depths: dict[BlockRef, int] = {}
    for block in topological_order(dag):
        preds = set(block.preds)
        if not preds:
            depths[block.ref] = 0
        else:
            depths[block.ref] = 1 + max(depths[p] for p in preds)
    return depths


def verify_schedule(dag: BlockDag, schedule: Iterable[Block]) -> bool:
    """Whether ``schedule`` is a legal interpretation order for ``dag``:
    a permutation of its blocks where every block follows all its
    predecessors."""
    seen: set[BlockRef] = set()
    count = 0
    for block in schedule:
        if block.ref not in dag.refs or block.ref in seen:
            return False
        if any(p not in seen for p in block.preds):
            return False
        seen.add(block.ref)
        count += 1
    return count == len(dag)
