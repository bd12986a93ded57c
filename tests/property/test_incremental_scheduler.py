"""The incremental ready-queue scheduler against the frontier-rescan oracle.

The interpreter's event-driven scheduler (pending-in-degree counts plus
a ready queue, fed by DAG insert listeners) must be observationally
identical to the scan-the-world eligibility check of the reference
interpreter (``tests/reference.py``): byte-identical per-block annotations,
identical active-label sets, identical indication multisets, identical
metrics — on any DAG, including equivocation forks and blocks stranded
below the pruning horizon.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interpret.instance import snapshot_instance
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.storage.gc import prune
from repro.storage.state_codec import annotation_fingerprint
from repro.types import Label

from helpers import ManualDagBuilder, fresh_interpreter
from reference import ReferenceInterpreter

L = Label("l")


@st.composite
def dag_scripts(draw):
    """A script of DAG-building actions over 4 servers (blocks with
    random cross-references, random request placement, equivocation)."""
    steps = draw(st.integers(min_value=2, max_value=16))
    actions = []
    for _ in range(steps):
        kind = draw(
            st.sampled_from(["block", "block", "request", "request", "fork"])
        )
        server = draw(st.integers(min_value=0, max_value=3))
        refs_mask = draw(st.integers(min_value=0, max_value=15))
        amount = draw(st.integers(min_value=1, max_value=9))
        actions.append((kind, server, refs_mask, amount))
    return actions


def apply_action(builder, action, protocol_kind):
    kind, server_index, refs_mask, amount = action
    server = builder.servers[server_index]
    refs = [
        tip
        for bit, s in enumerate(builder.servers)
        if refs_mask & (1 << bit)
        and s != server
        and (tip := builder.dag.tip(s)) is not None
    ]
    if protocol_kind == "counter":
        rs = [(L, Inc(amount))]
    else:
        rs = [(L, Broadcast(amount))]
    if kind == "request":
        builder.block(server, refs=refs, rs=rs)
    elif kind == "fork":
        if builder.dag.tip(server) is not None:
            try:
                builder.fork(server, rs=rs)
            except ValueError:
                pass
        else:
            builder.block(server, refs=refs)
    else:
        builder.block(server, refs=refs)


def assert_observationally_equal(dag, a, b):
    assert a.interpreted == b.interpreted
    assert a.below_horizon == b.below_horizon
    assert a.blocks_interpreted == b.blocks_interpreted
    assert a.messages_delivered == b.messages_delivered
    assert a.messages_materialized == b.messages_materialized
    assert a.request_steps == b.request_steps
    events_a = sorted(
        (e.label, repr(e.indication), e.server, e.block_ref) for e in a.events
    )
    events_b = sorted(
        (e.label, repr(e.indication), e.server, e.block_ref) for e in b.events
    )
    assert events_a == events_b
    for block in dag.blocks():
        if block.ref in a.released or block.ref not in a.interpreted:
            continue
        state_a = a.state_of(block.ref)
        state_b = b.state_of(block.ref)
        assert state_a.ms.snapshot() == state_b.ms.snapshot()
        assert annotation_fingerprint(a, block.ref) == annotation_fingerprint(
            b, block.ref
        )
        assert set(state_a.pis) == set(state_b.pis)
        for label in state_a.pis:
            assert snapshot_instance(state_a.pis[label]) == snapshot_instance(
                state_b.pis[label]
            )


class TestIncrementalMatchesRescan:
    @given(dag_scripts())
    @settings(max_examples=40, deadline=None)
    def test_live_driven_counter(self, actions):
        """Incremental interpreter attached *before* the DAG exists and
        run after every insertion — the steady-state gossip shape —
        against one rescan pass over the final DAG."""
        builder = ManualDagBuilder(4)
        live = fresh_interpreter(builder, counter_protocol)
        for action in actions:
            apply_action(builder, action, "counter")
            live.run()
        oracle = ReferenceInterpreter(
            builder.dag, counter_protocol, builder.servers
        )
        oracle.run()
        assert_observationally_equal(builder.dag, live, oracle)

    @given(dag_scripts())
    @settings(max_examples=25, deadline=None)
    def test_live_driven_brb(self, actions):
        builder = ManualDagBuilder(4)
        live = fresh_interpreter(builder, brb_protocol)
        for action in actions:
            apply_action(builder, action, "brb")
            live.run()
        oracle = ReferenceInterpreter(
            builder.dag, brb_protocol, builder.servers
        )
        oracle.run()
        assert_observationally_equal(builder.dag, live, oracle)

    @given(dag_scripts(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_batch_with_random_schedules(self, actions, seed):
        """Both modes driven through run(choose=...) with the same
        random schedule must agree — eligible() is the same frontier."""
        import random

        builder = ManualDagBuilder(4)
        for action in actions:
            apply_action(builder, action, "counter")

        def scheduled(interp, seed):
            rng = random.Random(seed)
            interp.run(
                choose=lambda frontier: frontier[rng.randrange(len(frontier))]
            )
            return interp

        incremental = scheduled(
            fresh_interpreter(builder, counter_protocol), seed
        )
        rescan = scheduled(
            ReferenceInterpreter(
                builder.dag, counter_protocol, builder.servers
            ),
            seed,
        )
        assert_observationally_equal(builder.dag, incremental, rescan)


class TestPrunedPredecessorHorizon:
    def _layered(self, rounds=4):
        builder = ManualDagBuilder(4)
        builder.round_all(rs_for={builder.servers[0]: [(L, Broadcast("v"))]})
        for _ in range(rounds - 1):
            builder.round_all()
        return builder

    @given(st.integers(min_value=0, max_value=3), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_horizon_counts_agree_after_pruning(self, victim_index, seed):
        import random

        builder = self._layered()
        live = fresh_interpreter(builder, brb_protocol)
        live.run()
        oracle = ReferenceInterpreter(
            builder.dag, brb_protocol, builder.servers
        )
        oracle.run()

        # Prune below the stable frontier in both interpreters: with
        # nothing agreed yet (``{}``) that releases the fully referenced
        # states on each side and destroys no payload.
        report = prune(builder.dag, live, frozenset(live.interpreted), {})
        assert report.states_released > 0
        for ref in sorted(live.released):
            oracle.release_state(ref)

        # Byzantine-style blocks referencing pruned predecessors, mixed
        # with honest extensions.
        rng = random.Random(seed)
        pruned_refs = sorted(live.released)
        victim = pruned_refs[victim_index % len(pruned_refs)]
        builder.block(builder.servers[1], refs=[victim])
        builder.round_all()
        if rng.random() < 0.5:
            builder.block(
                builder.servers[2], refs=[pruned_refs[rng.randrange(len(pruned_refs))]]
            )
        live.run()
        oracle.run()

        assert live.below_horizon == oracle.below_horizon >= 1
        assert {b.ref for b in live.eligible()} == {
            b.ref for b in oracle.eligible()
        } == set()
        assert live.interpreted == oracle.interpreted
