"""Pruning/GC — bounding memory below a fully-interpreted stable frontier.

Long runs accumulate three things per block: the full block (with its
request payload), the interpreter's ``BlockState`` annotation (process
instances + message buffers — by far the largest), and the WAL record.
All three are only ever needed again if some *future* block references
the pruned block directly (Algorithm 2 reads the states and ``rs`` of a
block's direct predecessors).

The pruner releases a block ``B`` only when it is provably past every
correct server's referencing window:

1. **Durable** — ``B``'s annotation is inside the latest written
   checkpoint, so recovery never needs to recompute it (and late
   references can *rehydrate* it, see below).
2. **Past the referencing window** — either of:

   * **Fully referenced** (the seed rule): every server in ``Srvrs``
     already has a block in our DAG listing ``B`` as a direct
     predecessor.  A correct server references any foreign block in
     exactly one of its own blocks (Lemma A.6) — but byzantine servers
     violate exactly this (an equivocator references once *per fork
     branch*), and a crashed server stops referencing at all, so alone
     this rule either stalls interpretation or stalls GC.
   * **Below the agreed horizon** (coordinated GC, PR 4): ``n - f``
     distinct servers claimed a durable frontier covering ``B``'s chain
     position (:mod:`repro.horizon`).  Crash-tolerant — ``f`` silent
     seats cannot stall GC — and byzantine-safe: any honest block
     arrives before the quorum of claims that would condemn its
     references (see :mod:`repro.horizon.tracker`).

3. **Settled** — every current direct successor of ``B`` is itself
   interpreted, so no in-flight interpretation still needs ``B``.
4. **Down-closed** — all of ``B``'s predecessors are already pruned (or
   prunable in the same pass), so the pruned region is a prefix of the
   DAG and its WAL records retire front-to-back.

Releasing memory and destroying data are now two different tiers.  A
released *state* stays reconstructible from the covering checkpoint
(which carries released annotations forward until the agreed horizon
passes them), so a late byzantine re-reference above the horizon
rehydrates instead of stalling its honest descendants.  Payloads — and
with them WAL records and checkpointed annotations — are destroyed
only when a block is **both** below the agreed horizon **and** fully
referenced: below the horizon, new references are condemned by the
gossip validity rule, and full reference means no *restarting* correct
server still needs the block over FWD (a server that crashed before
referencing it must be able to fetch the full block when it comes
back — data destruction waits for it, memory release does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.dag.blockdag import BlockDag
from repro.interpret.interpreter import Interpreter
from repro.types import BlockRef, SeqNum, ServerId


@dataclass
class PruneReport:
    """What one pruning pass released."""

    states_released: int = 0
    payloads_dropped: int = 0
    payload_bytes_dropped: int = 0


def prunable_refs(
    dag: BlockDag,
    interpreter: Interpreter,
    durable: frozenset[BlockRef],
    horizon: Mapping[ServerId, SeqNum],
    pinned: frozenset[BlockRef] = frozenset(),
) -> list[BlockRef]:
    """Refs safe to release, in topological (prefix-first) order.

    ``durable`` is the set of refs whose annotations the latest written
    checkpoint holds (rule 1); ``horizon`` is the agreed horizon vector
    (rule 2's coordinated arm; ``{}`` = nothing agreed yet);
    the graph rules are evaluated against the current DAG.  ``pinned``
    refs are exempt from release even when every rule holds — the
    shim pins the last few checkpoints' cone, because a block released
    the instant it is fully referenced tends to be re-read (and
    rehydrated from the checkpoint) by stragglers a round or two later:
    release→rehydrate thrash that inflates ``rehydrated`` for zero
    memory benefit.  Pinning only *delays* release, so every safety
    argument is untouched.

    Only the candidates are examined — durable, resident and unpinned
    refs, which the shim's ``durable`` (the last checkpoint's rows)
    bounds to the blocks resident then — never the whole DAG.  Rules 1–3
    are a property of each candidate alone; rule 4 (down-closure) is the
    same ``(k, ref)``-sorted fixpoint the payload sweep of :func:`prune`
    uses: a candidate is accepted once all its predecessors are released
    (not resident: they are interpreted) or accepted, so acceptance
    order is prefix-first.
    """
    servers = set(interpreter.servers)
    interpreted = interpreter.interpreted
    resident = interpreter.resident()
    candidates = []
    for ref in durable:
        if ref not in resident or ref in pinned:
            continue
        block = dag.require(ref)
        successors = dag.graph.successors(ref)
        if not all(s in interpreted for s in successors):
            continue
        if block.k > horizon.get(block.n, -1):
            referencing = {dag.require(s).n for s in successors}
            if referencing < servers:
                continue
        candidates.append(block)
    candidates.sort(key=lambda b: (b.k, b.ref))
    accepted: set[BlockRef] = set()
    result: list[BlockRef] = []
    progress = True
    while progress and candidates:
        progress = False
        remaining = []
        for block in candidates:
            if all(p not in resident or p in accepted for p in block.preds):
                accepted.add(block.ref)
                result.append(block.ref)
                progress = True
            else:
                remaining.append(block)
        candidates = remaining
    return result


def prune(
    dag: BlockDag,
    interpreter: Interpreter,
    durable: frozenset[BlockRef],
    horizon: Mapping[ServerId, SeqNum],
    allow_destruction: bool = True,
    protected: frozenset[BlockRef] = frozenset(),
    destruction_delay: int = 0,
    streaks: "dict[BlockRef, int] | None" = None,
    pinned: frozenset[BlockRef] = frozenset(),
    tracer: object | None = None,
) -> PruneReport:
    """Release interpreter states and drop block payloads below the
    stable frontier.  Retiring WAL records is the storage layer's job
    (it needs every retained checkpoint to cover the skeletons first).

    Payloads are dropped only for blocks that are below the agreed
    ``horizon`` *and* fully referenced — a released block that fails
    either test keeps its ``rs`` so a late reference can
    still be interpreted (state rehydrated from the covering
    checkpoint, payload read from the DAG) and a restarting server can
    still FWD-fetch the full block.  The payload-pruned region
    additionally stays down-closed (a checkpoint skeleton's
    predecessors must themselves be skeletons or older), so recovery
    can rebuild the DAG skeletons-first.

    Three last lines of defence guard the admission race (a block may
    arrive referencing a candidate between release and destruction):

    * ``protected`` names refs some *buffered* block already references
      (gossip knows them — destroying one would doom the buffered block
      on admission);
    * ``allow_destruction=False`` defers the payload sweep entirely
      while the server is visibly catching up (many known-missing
      predecessors, or its chain far behind its peers' tips);
    * ``destruction_delay``/``streaks`` add hysteresis: a candidate
      must stay destruction-eligible for ``destruction_delay``
      *consecutive* passes (the caller persists ``streaks`` across
      calls) before its data is destroyed.  A restarted server's first
      quiet instant mid-catch-up looks exactly like steady state to
      instantaneous signals — the block vouching for a delayed fork
      sibling may simply not have arrived yet; the delay gives it a
      checkpoint cycle or two to surface, after which the settledness
      and ``protected`` checks reset the clock.

    State release stays active either way — released states are
    rehydratable, destruction is not.

    ``pinned`` (see :func:`prunable_refs`) exempts the recent-cone
    window from memory release — the anti-thrash damper; since pinned
    blocks are never released, they can never become destruction
    candidates either.

    ``tracer`` (a :class:`~repro.obs.trace.TraceRecorder`, enabled)
    gets one aggregate ``gc-release``/``gc-destroy`` event per pass
    that did any work.
    """
    report = PruneReport()
    for ref in prunable_refs(
        dag, interpreter, durable, horizon=horizon, pinned=pinned
    ):
        interpreter.release_state(ref)
        report.states_released += 1
    if allow_destruction:
        # Payload sweep: earlier passes may have released blocks that
        # only now satisfy the destruction rule.  Candidates are exactly
        # the released-but-not-yet-destroyed refs: the durable rows
        # neither resident nor destroyed (the carried rows and this
        # pass's releases — bounded in steady state), NOT the whole
        # DAG: skeletonized history never needs re-examination.  A
        # k-sorted fixpoint loop keeps the payload-pruned region a
        # down-closed prefix without a full topological scan per
        # checkpoint.
        servers = set(interpreter.servers)
        resident = interpreter.resident()
        candidates = sorted(
            (dag.require(r) for r in durable if not (r in resident or dag.payload_pruned(r))),
            key=lambda b: (b.k, b.ref),
        )
        examined: set[BlockRef] = set()
        progress = True
        while progress and candidates:
            progress = False
            remaining = []
            for block in candidates:
                ref = block.ref
                if ref in protected:
                    if streaks is not None:
                        streaks.pop(ref, None)
                    continue  # a buffered block needs it on admission
                if block.k > horizon.get(block.n, -1):
                    continue  # permanently deferred until H advances
                successors = dag.graph.successors(ref)
                # Settledness must hold at *destruction* time, not just
                # at release time: a late (byzantine) re-reference may
                # have been admitted since the state was released, and
                # it still needs this block's payload and carried
                # checkpoint entry to interpret.  Destroying under its
                # feet would re-open the permanent below-horizon stall.
                if not all(s in interpreter.interpreted for s in successors):
                    if streaks is not None:
                        streaks.pop(ref, None)
                    remaining.append(block)
                    continue
                if {dag.require(s).n for s in successors} < servers:
                    remaining.append(block)
                    continue
                # Hysteresis matures on the *race-relevant* conditions
                # (below-horizon, settled, fully referenced) alone.
                # Down-closure is checked after: it is pure destruction
                # sequencing, not evidence about late references — with
                # the streak gated behind it, each DAG layer had to
                # re-earn the full delay after its predecessors fell,
                # capping steady-state destruction at one layer per
                # checkpoint while gossip adds several.
                if streaks is not None and ref not in examined:
                    examined.add(ref)
                    streak = streaks.get(ref, 0) + 1
                    streaks[ref] = streak
                    if streak <= destruction_delay:
                        continue  # eligible, but not for long enough yet
                if not all(dag.payload_pruned(p) for p in block.preds):
                    remaining.append(block)
                    continue
                freed = dag.drop_payload(ref)
                if freed is not None:
                    report.payloads_dropped += 1
                    report.payload_bytes_dropped += freed
                if streaks is not None:
                    streaks.pop(ref, None)
                progress = True
            candidates = remaining
    if tracer is not None and tracer.enabled:  # type: ignore[attr-defined]
        if report.states_released:
            tracer.emit("gc-release", count=report.states_released)  # type: ignore[attr-defined]
        if report.payloads_dropped:
            tracer.emit(  # type: ignore[attr-defined]
                "gc-destroy",
                count=report.payloads_dropped,
                bytes=report.payload_bytes_dropped,
            )
    return report
