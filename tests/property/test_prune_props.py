"""The candidate-only pruner releases exactly what the whole-DAG one did.

``prunable_refs`` examines only the durable, interpreted, unreleased and
unpinned refs and closes them downwards by a fixpoint.  The reference
below is the pruner it replaced, kept verbatim: one pass over the whole
DAG in topological order.  Over hand-built DAGs with equivocating forks,
references that skip servers, pins, a horizon and earlier releases, the
two must release the same refs, and the new order must be prefix-first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ManualDagBuilder, fresh_interpreter
from repro.dag.traversal import topological_order
from repro.protocols.brb import Broadcast, brb_protocol
from repro.storage.gc import prunable_refs
from repro.types import Label


def reference_prunable_refs(dag, interpreter, durable, horizon, pinned=frozenset()):
    """The whole-DAG pruner: every block, in topological order."""
    servers = set(interpreter.servers)
    result = []
    accepted = set(interpreter.released)
    for block in topological_order(dag):
        ref = block.ref
        if ref in accepted:
            continue
        if ref in pinned:
            continue
        if ref not in durable or ref not in interpreter.interpreted:
            continue
        successors = dag.graph.successors(ref)
        if not all(s in interpreter.interpreted for s in successors):
            continue
        if block.k > horizon.get(block.n, -1):
            referencing = {dag.require(s).n for s in successors}
            if referencing < servers:
                continue
        if not all(p in accepted for p in set(block.preds)):
            continue
        accepted.add(ref)
        result.append(ref)
    return result


def grow(builder, data, rounds):
    """``rounds`` layers in which each server references a drawn subset
    of the others' tips, and ``s4`` sometimes forks its tip."""
    servers = builder.servers
    for r in range(rounds):
        tips = {s: builder.dag.tip(s) for s in servers}
        forks = []
        for server in servers:
            if not data.draw(st.booleans(), label="builds") and r:
                continue
            others = [t for s, t in tips.items() if s != server and t is not None]
            refs = (
                data.draw(st.lists(st.sampled_from(others), unique=True), label="refs")
                if others
                else []
            )
            if forks and data.draw(st.booleans(), label="sees fork"):
                refs.append(forks[-1])
            rs = [(Label(f"l{r}"), Broadcast(r))] if server == servers[r % 4] else []
            builder.block(server, refs=refs, rs=rs)
            if server == servers[-1] and data.draw(st.booleans(), label="forks"):
                forks.append(
                    builder.fork(server, refs=refs[:1], rs=[(Label("fork"), Broadcast(r))])
                )


def subset(data, refs, label):
    refs = sorted(refs)
    return frozenset(
        data.draw(st.lists(st.sampled_from(refs), unique=True), label=label)
        if refs
        else ()
    )


def check(builder, interpreter, data):
    interpreted = interpreter.interpreted
    if data.draw(st.booleans(), label="all durable"):
        durable = frozenset(interpreted)
    else:
        durable = subset(data, interpreted, "durable")
    pinned = frozenset()
    if data.draw(st.booleans(), label="pins"):
        pinned = subset(data, interpreted, "pinned")
    horizon = {
        s: data.draw(st.integers(-1, 6), label=f"horizon {s}")
        for s in builder.servers
        if data.draw(st.booleans(), label=f"agreed {s}")
    }
    ours = prunable_refs(builder.dag, interpreter, durable, horizon, pinned)
    assert set(ours) == set(
        reference_prunable_refs(builder.dag, interpreter, durable, horizon, pinned)
    )
    assert len(ours) == len(set(ours))
    accepted = set(interpreter.released)
    for ref in ours:
        assert set(builder.dag.require(ref).preds) <= accepted
        accepted.add(ref)
    return ours


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_candidate_prune_releases_what_the_whole_dag_prune_released(data):
    builder = ManualDagBuilder(4)
    grow(builder, data, data.draw(st.integers(2, 6), label="rounds"))
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    for ref in check(builder, interpreter, data):
        interpreter.release_state(ref)
    # A second pass over a grown DAG starts from what the first released.
    grow(builder, data, data.draw(st.integers(1, 3), label="more rounds"))
    interpreter.run()
    check(builder, interpreter, data)
