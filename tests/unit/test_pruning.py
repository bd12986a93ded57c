"""Unit tests for pruning/GC below the stable frontier."""

import pytest

from helpers import ManualDagBuilder, fresh_interpreter
from reference import ReferenceInterpreter
from repro.errors import PrunedStateError
from repro.protocols.brb import Broadcast, brb_protocol
from repro.storage.gc import prunable_refs, prune
from repro.types import Label

L = Label("l")


def layered_dag(rounds=4):
    """A fully-connected DAG: after round r, every block of rounds
    < r-0 is referenced by all four servers."""
    builder = ManualDagBuilder(4)
    layers = [builder.round_all(rs_for={builder.servers[0]: [(L, Broadcast("v"))]})]
    for _ in range(rounds - 1):
        layers.append(builder.round_all())
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    return builder, interpreter, layers


def prefix_horizon(builder, layers):
    """An agreed horizon covering exactly the fully referenced prefix
    (every layer but the tips), so both tiers of ``storage/gc.py`` act
    on the same blocks: released because fully referenced, destroyed
    because also below the horizon.  The tip layer is neither."""
    return dict.fromkeys(builder.servers, len(layers) - 2)


class TestStableFrontier:
    def test_nothing_prunable_without_durability(self):
        builder, interpreter, _ = layered_dag()
        assert prunable_refs(builder.dag, interpreter, frozenset(), {}) == []

    def test_old_layers_prunable_new_layers_not(self):
        builder, interpreter, layers = layered_dag(rounds=4)
        durable = frozenset(interpreter.interpreted)
        prunable = set(prunable_refs(builder.dag, interpreter, durable, {}))
        # Genesis and middle layers: every server references them.
        for block in layers[0] + layers[1] + layers[2]:
            assert block.ref in prunable
        # The newest layer has no successors at all — not prunable.
        for block in layers[-1]:
            assert block.ref not in prunable

    def test_prunable_order_is_prefix_first(self):
        builder, interpreter, _ = layered_dag()
        durable = frozenset(interpreter.interpreted)
        order = prunable_refs(builder.dag, interpreter, durable, {})
        seen = set(interpreter.released)
        for ref in order:
            block = builder.dag.require(ref)
            assert all(p in seen for p in block.preds)
            seen.add(ref)

    def test_missing_referencer_blocks_pruning(self):
        # s4 never builds: its references are missing, nothing prunes.
        builder = ManualDagBuilder(4)
        active = builder.servers[:3]
        for _ in range(4):
            tips = {}
            for server in active:
                refs = [t for s, t in tips.items() if s != server]
                tips[server] = builder.block(server, refs=refs)
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        durable = frozenset(interpreter.interpreted)
        assert prunable_refs(builder.dag, interpreter, durable, {}) == []


class TestPruneEffects:
    def test_states_released_and_payloads_dropped(self):
        builder, interpreter, layers = layered_dag()
        durable = frozenset(interpreter.interpreted)
        report = prune(
            builder.dag, interpreter, durable, prefix_horizon(builder, layers)
        )
        assert report.states_released > 0
        assert report.payloads_dropped == report.states_released
        genesis_ref = layers[0][0].ref
        assert builder.dag.payload_pruned(genesis_ref)
        assert genesis_ref in interpreter.released
        # The stub kept structure but lost the request payload.
        stub = builder.dag.require(genesis_ref)
        assert stub.ref == genesis_ref
        assert stub.rs == ()
        with pytest.raises(PrunedStateError):
            interpreter.state_of(genesis_ref)

    def test_prune_is_idempotent(self):
        builder, interpreter, _ = layered_dag()
        durable = frozenset(interpreter.interpreted)
        first = prune(builder.dag, interpreter, durable, {})
        second = prune(builder.dag, interpreter, durable, {})
        assert first.states_released > 0
        assert second.states_released == 0

    def test_stub_signature_still_verifies(self):
        builder, interpreter, layers = layered_dag()
        prune(
            builder.dag, interpreter, frozenset(interpreter.interpreted),
            prefix_horizon(builder, layers),
        )
        stub = builder.dag.require(layers[0][0].ref)
        assert builder.keyring.verify(
            stub.n, stub.signing_payload(), stub.sigma
        )

    def test_interpretation_continues_above_the_frontier(self):
        builder, interpreter, layers = layered_dag()
        prune(
            builder.dag, interpreter, frozenset(interpreter.interpreted),
            prefix_horizon(builder, layers),
        )
        builder.round_all()  # new layer references only the latest tips
        events_before = len(interpreter.events)
        interpreter.run()
        assert interpreter.eligible() == []
        assert len(interpreter.events) >= events_before

    def test_block_referencing_pruned_ref_is_below_horizon(self):
        builder, interpreter, layers = layered_dag()
        prune(
            builder.dag, interpreter, frozenset(interpreter.interpreted),
            prefix_horizon(builder, layers),
        )
        # A (byzantine-style) block naming a pruned block as predecessor.
        ancient = layers[0][1]  # pruned, not the builder's own parent
        block = builder.block(builder.servers[1], refs=[ancient])
        assert all(b.ref != block.ref for b in interpreter.eligible())
        with pytest.raises(PrunedStateError):
            interpreter.interpret_block(block)
        assert interpreter.below_horizon >= 1

    def test_below_horizon_metric_is_stable(self):
        builder, interpreter, layers = layered_dag()
        prune(
            builder.dag, interpreter, frozenset(interpreter.interpreted),
            prefix_horizon(builder, layers),
        )
        ancient = layers[0][1]
        builder.block(builder.servers[1], refs=[ancient])
        interpreter.run()
        assert interpreter.below_horizon == 1
        # Repeated eligibility queries must not decay or inflate the
        # count (the old code overwrote it per call and skipped the
        # update entirely when nothing was released).
        for _ in range(3):
            interpreter.eligible()
            assert interpreter.below_horizon == 1
        # A second stranded block is tracked, not overwritten.
        builder.block(builder.servers[2], refs=[layers[0][2]])
        interpreter.run()
        assert interpreter.below_horizon == 2
        interpreter.eligible()
        assert interpreter.below_horizon == 2

    def test_below_horizon_matches_rescan_mode(self):
        builder, interpreter, layers = layered_dag()
        rescan = ReferenceInterpreter(builder.dag, brb_protocol, builder.servers)
        rescan.run()
        prune(
            builder.dag, interpreter, frozenset(interpreter.interpreted),
            prefix_horizon(builder, layers),
        )
        for ref in list(interpreter.released):
            rescan.release_state(ref)
        builder.block(builder.servers[1], refs=[layers[0][1]])
        interpreter.run()
        rescan.run()
        assert interpreter.below_horizon == rescan.below_horizon == 1

    def test_fwd_requests_for_pruned_blocks_unanswerable(self):
        from repro.crypto.keys import KeyRing
        from repro.gossip.module import Gossip
        from repro.net.simulator import NetworkSimulator
        from repro.net.transport import SimTransport
        from repro.requests import RequestBuffer
        from repro.types import make_servers

        servers = make_servers(2)
        ring = KeyRing(servers)
        sim = NetworkSimulator()
        gossip = Gossip(
            servers[0], ring, SimTransport(sim, servers[0]), RequestBuffer()
        )
        sim.register(servers[0], gossip.on_receive)
        sim.register(servers[1], lambda src, env: None)
        block = gossip.disseminate_to([])
        gossip.dag.drop_payload(block.ref)
        gossip._on_fwd_request(servers[1], block.ref)
        assert gossip.metrics.fwd_requests_unanswerable == 1
        assert gossip.metrics.fwd_requests_answered == 0
