"""Unit tests for the coordinated-GC horizon subsystem (PR 4).

Covers the pipeline bottom-up: claims from checkpoints, the ``n - f``
agreed horizon (determinism, monotonicity), the gossip condemnation
rule, horizon-aware pruning (crash-tolerant state release, conservative
payload destruction), delta-encoded checkpoints with own-label sets,
and on-demand rehydration of released predecessor states.
"""

from helpers import ManualDagBuilder, fresh_interpreter
from repro.dag.block import Block
from repro.horizon import HorizonTracker, durable_frontier, merge_claim
from repro.invariants import horizon_differences
from repro.protocols.brb import Broadcast, brb_protocol
from repro.storage.checkpoint import (
    capture_checkpoint,
    install_checkpoint,
    restore_block_state,
)
from repro.storage.gc import prunable_refs, prune
from repro.storage.state_codec import annotation_fingerprint
from repro.types import Label, ServerId

L = Label("l")


class TestClaims:
    def test_claim_is_hashed_and_signed(self):
        a = Block(n=ServerId("s1"), k=0, preds=(), rs=())
        b = Block(n=ServerId("s1"), k=0, preds=(), rs=(), hz=((ServerId("s2"), 3),))
        assert a.ref != b.ref  # hz is covered by ref(B), hence by sigma

    def test_durable_frontier_is_contiguous_prefix(self):
        builder = ManualDagBuilder(3)
        layers = [builder.round_all() for _ in range(3)]
        covered = frozenset(
            b.ref for b in layers[0] + layers[1] if b.n != builder.servers[2]
        ) | frozenset(b.ref for b in layers[0] if b.n == builder.servers[2])
        claim = dict(durable_frontier(builder.dag, builder.servers, covered))
        assert claim[builder.servers[0]] == 1
        assert claim[builder.servers[1]] == 1
        assert claim[builder.servers[2]] == 0

    def test_frontier_requires_every_fork_sibling(self):
        builder = ManualDagBuilder(3)
        builder.round_all()
        forked = builder.fork(builder.servers[0], rs=[(L, Broadcast("x"))])
        covered = frozenset(b.ref for b in builder.dag) - {forked.ref}
        claim = dict(durable_frontier(builder.dag, builder.servers, covered))
        # The uncovered sibling at (s1, 0) blocks the whole chain claim.
        assert builder.servers[0] not in claim
        assert claim[builder.servers[1]] == 0

    def test_merge_claim_is_elementwise_max(self):
        vector = {}
        assert merge_claim(vector, ((ServerId("a"), 2), (ServerId("b"), 1)))
        assert not merge_claim(vector, ((ServerId("a"), 1),))  # no regress
        assert merge_claim(vector, ((ServerId("b"), 4),))
        assert vector == {ServerId("a"): 2, ServerId("b"): 4}


class TestHorizonTracker:
    def servers(self, n=4):
        from repro.types import make_servers

        return make_servers(n)

    def test_needs_n_minus_f_claimers(self):
        servers = self.servers(4)  # f=1 -> threshold 3
        tracker = HorizonTracker(servers)
        s1, s2, s3, _ = servers
        claim = ((s1, 5),)
        tracker.observe(Block(n=s1, k=0, preds=(), rs=(), hz=claim))
        tracker.observe(Block(n=s2, k=0, preds=(), rs=(), hz=claim))
        assert tracker.value(s1) == -1  # two claimers < threshold
        tracker.observe(Block(n=s3, k=0, preds=(), rs=(), hz=claim))
        assert tracker.value(s1) == 5
        assert tracker.covers(s1, 5) and not tracker.covers(s1, 6)

    def test_horizon_is_quantile_not_max(self):
        servers = self.servers(4)
        tracker = HorizonTracker(servers)
        for claimer, depth in zip(servers, (9, 4, 2, 0)):
            tracker.observe(
                Block(n=claimer, k=0, preds=(), rs=(), hz=((servers[0], depth),))
            )
        # threshold 3 -> the 3rd largest claim (2) is agreed.
        assert tracker.value(servers[0]) == 2

    def test_order_independence(self):
        servers = self.servers(4)
        blocks = [
            Block(n=claimer, k=0, preds=(), rs=(), hz=((servers[0], d),))
            for claimer, d in zip(servers, (3, 1, 4, 2))
        ]
        forward, backward = HorizonTracker(servers), HorizonTracker(servers)
        for block in blocks:
            forward.observe(block)
        for block in reversed(blocks):
            backward.observe(block)
        assert forward.frontier_key() == backward.frontier_key()

    def test_monotone_and_counts_advances(self):
        servers = self.servers(4)
        tracker = HorizonTracker(servers)
        for claimer in servers[:3]:
            tracker.observe(
                Block(n=claimer, k=0, preds=(), rs=(), hz=((servers[0], 1),))
            )
        assert tracker.value(servers[0]) == 1
        advances = tracker.advances
        for claimer in servers[:3]:
            tracker.observe(
                Block(n=claimer, k=1, preds=(), rs=(), hz=((servers[0], 3),))
            )
        assert tracker.value(servers[0]) == 3
        assert tracker.advances > advances

    def test_condemns_late_positions_only(self):
        servers = self.servers(4)
        tracker = HorizonTracker(servers)
        for claimer in servers[:3]:
            tracker.observe(
                Block(n=claimer, k=0, preds=(), rs=(), hz=((servers[3], 2),))
            )
        late = Block(n=servers[3], k=2, preds=(), rs=())
        fresh = Block(n=servers[3], k=3, preds=(), rs=())
        assert tracker.condemns(late)
        assert not tracker.condemns(fresh)


class TestHorizonPruning:
    def stalled_dag(self, rounds=4):
        """A DAG where s4 stopped building after round 0 (a crash): the
        full-reference rule can never release anything newer."""
        builder = ManualDagBuilder(4)
        active = builder.servers[:3]
        layers = [builder.round_all(
            rs_for={builder.servers[0]: [(L, Broadcast("v"))]}
        )]
        for _ in range(rounds - 1):
            tips = [builder.dag.tip(s) for s in builder.servers]
            layer = []
            for server in active:
                refs = [t for t in tips if t is not None and t.n != server]
                layer.append(builder.block(server, refs=refs))
            layers.append(layer)
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        return builder, interpreter, layers

    def test_horizon_releases_where_full_reference_stalls(self):
        builder, interpreter, layers = self.stalled_dag()
        durable = frozenset(interpreter.interpreted)
        assert prunable_refs(builder.dag, interpreter, durable, {}) == []
        horizon = {s: 1 for s in builder.servers}
        released = set(
            prunable_refs(builder.dag, interpreter, durable, horizon=horizon)
        )
        covered = {
            b.ref for b in builder.dag
            if b.k <= 1 and all(
                s in interpreter.interpreted
                for s in builder.dag.graph.successors(b.ref)
            )
        }
        assert released == covered and released

    def test_payload_destruction_needs_full_reference_too(self):
        builder, interpreter, layers = self.stalled_dag()
        durable = frozenset(interpreter.interpreted)
        horizon = {s: 1 for s in builder.servers}
        report = prune(builder.dag, interpreter, durable, horizon=horizon)
        assert report.states_released > 0
        # s4 never referenced anything after round 0, so no payload may
        # be destroyed — a restarted s4 must be able to FWD-fetch them.
        assert report.payloads_dropped == 0
        assert builder.dag.pruned_payloads == frozenset()

    def test_payload_region_is_down_closed(self):
        builder = ManualDagBuilder(4)
        layers = [builder.round_all(
            rs_for={builder.servers[0]: [(L, Broadcast("v"))]}
        )]
        for _ in range(3):
            layers.append(builder.round_all())
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        durable = frozenset(interpreter.interpreted)
        # Horizon covers layer 1 for everyone but skips s1's chain: s1's
        # layer-0 block must keep its payload, and *so must every block
        # whose predecessor closure contains it* — i.e. nothing above it
        # may be skeletonized past it.
        horizon = {s: (1 if s != builder.servers[0] else -1)
                   for s in builder.servers}
        prune(builder.dag, interpreter, durable, horizon=horizon)
        pruned = builder.dag.pruned_payloads
        for ref in pruned:
            block = builder.dag.require(ref)
            assert all(
                p in pruned for p in block.preds
            ), "payload-pruned region not down-closed"


class TestDeltaCheckpoints:
    def build(self, rounds=3):
        builder = ManualDagBuilder(3)
        for i in range(rounds):
            builder.round_all(
                rs_for={builder.servers[i % 3]: [
                    (Label(f"l{i}"), Broadcast(i))
                ]}
            )
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        return builder, interpreter

    def test_entries_delta_encode_along_chains(self):
        builder, interpreter = self.build()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        chain = builder.dag.by_server(builder.servers[0])
        genesis, later = chain[0], chain[1]
        assert checkpoint.states[genesis.ref]["base"] is None
        assert checkpoint.states[later.ref]["base"] == genesis.ref
        entry = checkpoint.states[later.ref]
        # Delta entries hold exactly the instances the block stepped:
        # the labels of its Ms[out] (lines 6 and 11).
        assert entry["pis"] and set(entry["pis"]) == set(entry["out"])

    def test_install_reconstructs_byte_identical_annotations(self):
        builder, interpreter = self.build()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        fresh = fresh_interpreter(builder, brb_protocol)
        install_checkpoint(checkpoint, fresh, brb_protocol)
        for block in builder.dag:
            assert annotation_fingerprint(
                fresh, block.ref
            ) == annotation_fingerprint(interpreter, block.ref)

    def test_carry_forward_keeps_released_states_rehydratable(self):
        builder, interpreter = self.build()
        previous = capture_checkpoint(1, interpreter, builder.dag)
        durable = frozenset(previous.states)
        report = prune(builder.dag, interpreter, durable,
                       horizon={s: 0 for s in builder.servers})
        assert report.states_released > 0
        released = set(interpreter.released)
        checkpoint = capture_checkpoint(
            2, interpreter, builder.dag, previous=previous
        )
        for ref in released:
            if builder.dag.payload_pruned(ref):
                continue
            assert ref in checkpoint.states  # carried forward
            restored = restore_block_state(
                checkpoint, brb_protocol, interpreter.servers, ref
            )
            assert restored is not None

    def test_materializes_when_base_leaves_the_checkpoint(self):
        builder, interpreter = self.build(rounds=4)
        previous = capture_checkpoint(1, interpreter, builder.dag)
        durable = frozenset(previous.states)
        # Horizon covers everything prunable; settled rule keeps tips.
        horizon = {s: 10 for s in builder.servers}
        prune(builder.dag, interpreter, durable, horizon=horizon)
        checkpoint = capture_checkpoint(
            2, interpreter, builder.dag, previous=previous
        )
        for ref, entry in checkpoint.states.items():
            base = entry.get("base")
            assert base is None or base in checkpoint.states, (
                "delta base escaped the checkpoint without materialization"
            )


class TestRehydration:
    def interpreted_pair(self):
        builder = ManualDagBuilder(4)
        for i in range(3):
            builder.round_all(
                rs_for={builder.servers[0]: [(Label(f"l{i}"), Broadcast(i))]}
            )
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        return builder, interpreter

    def rehydrator_for(self, checkpoint, interpreter):
        return lambda ref: restore_block_state(
            checkpoint, brb_protocol, interpreter.servers, ref
        )

    def test_late_reference_to_released_state_rehydrates(self):
        builder, interpreter = self.interpreted_pair()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        oracle = {
            b.ref: annotation_fingerprint(interpreter, b.ref)
            for b in builder.dag
        }
        durable = frozenset(checkpoint.states)
        prune(builder.dag, interpreter, durable,
              horizon={s: 0 for s in builder.servers})
        assert interpreter.released
        interpreter.rehydrator = self.rehydrator_for(checkpoint, interpreter)
        # A late block referencing a released layer-0 block (a byzantine
        # re-reference in the wild; built honestly here for control).
        target = next(iter(sorted(interpreter.released)))
        late = builder.block(builder.servers[1], refs=[target])
        interpreter.run()
        assert late.ref in interpreter.interpreted
        assert interpreter.rehydrated >= 1
        assert interpreter.below_horizon == 0
        assert annotation_fingerprint(interpreter, target) == oracle[target]

    def test_without_rehydrator_still_diverts(self):
        builder, interpreter = self.interpreted_pair()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        durable = frozenset(checkpoint.states)
        prune(builder.dag, interpreter, durable,
              horizon={s: 0 for s in builder.servers})
        target = next(iter(sorted(interpreter.released)))
        builder.block(builder.servers[1], refs=[target])
        interpreter.run()
        assert interpreter.below_horizon == 1

    def test_failed_rehydration_diverts_below_horizon(self):
        builder, interpreter = self.interpreted_pair()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        durable = frozenset(checkpoint.states)
        prune(builder.dag, interpreter, durable,
              horizon={s: 0 for s in builder.servers})
        interpreter.rehydrator = lambda ref: None  # checkpoint retired
        target = next(iter(sorted(interpreter.released)))
        late = builder.block(builder.servers[1], refs=[target])
        interpreter.run()
        assert late.ref not in interpreter.interpreted
        assert interpreter.below_horizon == 1

    def test_rehydrated_state_can_be_repruned(self):
        builder, interpreter = self.interpreted_pair()
        checkpoint = capture_checkpoint(1, interpreter, builder.dag)
        durable = frozenset(checkpoint.states)
        prune(builder.dag, interpreter, durable,
              horizon={s: 0 for s in builder.servers})
        interpreter.rehydrator = self.rehydrator_for(checkpoint, interpreter)
        target = next(iter(sorted(interpreter.released)))
        builder.block(builder.servers[1], refs=[target])
        interpreter.run()
        assert target not in interpreter.released  # resident again
        # Re-capture (carries the rest forward) and prune again: the
        # rehydrated block is an ordinary resident annotation.
        second = capture_checkpoint(
            2, interpreter, builder.dag, previous=checkpoint
        )
        prune(builder.dag, interpreter, frozenset(second.states),
              horizon={s: 10 for s in builder.servers})
        assert target in interpreter.released


class TestGossipCondemnation:
    def test_below_horizon_arrival_condemned_with_cause(self):
        from repro.crypto.keys import KeyRing
        from repro.gossip.module import Gossip
        from repro.net.message import BlockEnvelope
        from repro.requests import RequestBuffer
        from repro.types import make_servers

        servers = make_servers(4)
        keyring = KeyRing(servers)

        class NullTransport:
            now = 0.0

            def send(self, *a, **k):
                pass

            def broadcast(self, *a, **k):
                pass

            def schedule(self, *a, **k):
                pass

        tracker = HorizonTracker(servers)
        for claimer in servers[:3]:
            tracker.observe(
                Block(n=claimer, k=0, preds=(), rs=(), hz=((servers[3], 1),))
            )
        gossip = Gossip(
            servers[0], keyring, NullTransport(), RequestBuffer(),
            horizon=tracker,
        )
        # A withheld fork block at (s4, 1) arrives after the horizon
        # passed it; a buffered descendant waits on it.
        late_unsigned = Block(n=servers[3], k=1, preds=(), rs=())
        late = Block(
            n=late_unsigned.n, k=late_unsigned.k, preds=(), rs=(),
            sigma=keyring.sign(servers[3], late_unsigned.signing_payload()),
        )
        child_unsigned = Block(
            n=servers[3], k=2, preds=(late.ref,), rs=()
        )
        child = Block(
            n=child_unsigned.n, k=child_unsigned.k,
            preds=child_unsigned.preds, rs=(),
            sigma=keyring.sign(servers[3], child_unsigned.signing_payload()),
        )
        gossip.on_receive(servers[3], BlockEnvelope(child))
        assert child.ref in gossip.blks  # buffered, waiting on its parent
        gossip.on_receive(servers[3], BlockEnvelope(late))
        assert gossip.metrics.condemned_below_horizon == 1
        # The cascade discarded the waiting descendant too — with cause.
        assert child.ref not in gossip.blks
        assert late.ref not in gossip.dag
        assert child.ref not in gossip.dag

    def test_fresh_blocks_unaffected(self):
        from repro.crypto.keys import KeyRing
        from repro.gossip.module import Gossip
        from repro.net.message import BlockEnvelope
        from repro.requests import RequestBuffer
        from repro.types import make_servers

        servers = make_servers(4)
        keyring = KeyRing(servers)

        class NullTransport:
            now = 0.0

            def send(self, *a, **k):
                pass

            def broadcast(self, *a, **k):
                pass

            def schedule(self, *a, **k):
                pass

        tracker = HorizonTracker(servers)
        gossip = Gossip(
            servers[0], keyring, NullTransport(), RequestBuffer(),
            horizon=tracker,
        )
        unsigned = Block(n=servers[1], k=0, preds=(), rs=())
        block = Block(
            n=unsigned.n, k=unsigned.k, preds=(), rs=(),
            sigma=keyring.sign(servers[1], unsigned.signing_payload()),
        )
        gossip.on_receive(servers[1], BlockEnvelope(block))
        assert block.ref in gossip.dag
        assert gossip.metrics.condemned_below_horizon == 0


class TestRecoveryRehydration:
    class StubTransport:
        now = 0.0

        def send(self, *a, **k):
            pass

        def broadcast(self, *a, **k):
            pass

        def schedule(self, *a, **k):
            pass

    def claim_block(self, builder, server, claim):
        """A signed next-chain block carrying an explicit claim."""
        parent = builder.dag.tip(server)
        unsigned = Block(
            n=server, k=parent.k + 1, preds=(parent.ref,), rs=(),
            hz=tuple(claim),
        )
        block = Block(
            n=unsigned.n, k=unsigned.k, preds=unsigned.preds, rs=(),
            sigma=builder.keyring.sign(server, unsigned.signing_payload()),
            hz=unsigned.hz,
        )
        builder.dag.insert(block)
        builder._tip[server] = block
        builder._next_seq[server] = block.k + 1
        return block

    def test_wal_suffix_referencing_released_state_survives_restart(
        self, tmp_path
    ):
        """Regression: the suffix replay during restart-from-disk must
        be able to rehydrate released predecessor states — the
        recovered checkpoint has to be wired as the rehydration source
        *before* replay runs, not after construction returns."""
        from repro.net.message import BlockEnvelope
        from repro.shim.shim import Shim
        from repro.storage.blockstore import ServerStorage, StorageConfig

        builder = ManualDagBuilder(4)
        observers = builder.servers[3]
        active = builder.servers[:3]

        def build_shim():
            return Shim(
                observers,
                brb_protocol,
                builder.keyring,
                self.StubTransport(),
                storage=ServerStorage(
                    tmp_path,
                    # pin_recent_checkpoints=0: this test *wants* the
                    # most aggressive release schedule — it exercises
                    # the rehydration path the pin window exists to damp.
                    StorageConfig(
                        checkpoint_interval=10_000, prune=True,
                        pin_recent_checkpoints=0,
                    ),
                ),
            )

        shim = build_shim()

        def feed(block):
            shim.gossip.on_receive(block.n, BlockEnvelope(block))

        # Two fully-connected layers among s1..s3 (s4 only observes).
        layers = []
        for i in range(2):
            tips = {s: builder.dag.tip(s) for s in active}
            layer = []
            for server in active:
                refs = [t for s, t in tips.items() if s != server and t]
                rs = [(L, Broadcast("v"))] if i == 0 and server == active[0] else ()
                layer.append(builder.block(server, refs=refs, rs=rs))
            layers.append(layer)
            for block in layer:
                feed(block)
        shim.checkpoint_now()  # durable baseline

        # n - f = 3 claimers agree layer 0 is durable: the horizon
        # advances, and the next checkpoint releases layer-0 states.
        claim = tuple((s, 0) for s in active)
        for server in active:
            feed(self.claim_block(builder, server, claim))
        shim.checkpoint_now()
        released = set(shim.interpreter.released)
        assert released, "setup failed: nothing was released"

        # A late (Lemma A.6-violating) re-reference to a released block
        # lands in the WAL *after* the covering checkpoint.
        target = sorted(released)[0]
        late = builder.block(active[1], refs=[target])
        feed(late)
        assert late.ref in shim.interpreter.interpreted  # live rehydration

        # Crash (abandon the shim) and restart from disk: the replay of
        # the WAL suffix needs the same rehydration.
        recovered = build_shim()
        assert recovered.recovery is not None
        assert late.ref in recovered.interpreter.interpreted
        assert recovered.interpreter.below_horizon == 0
        assert annotation_fingerprint(
            recovered.interpreter, late.ref
        ) == annotation_fingerprint(shim.interpreter, late.ref)


class TestShimIntegration:
    def test_claims_flow_and_horizons_converge(self, tmp_path):
        from repro.runtime.cluster import Cluster, ClusterConfig
        from repro.storage.blockstore import StorageConfig

        config = ClusterConfig(
            storage_dir=tmp_path,
            storage=StorageConfig(checkpoint_interval=4, prune=True),
        )
        cluster = Cluster(brb_protocol, n=4, config=config)
        cluster.request(cluster.servers[0], L, Broadcast(1))
        cluster.run_rounds(8)
        shim = cluster.shim(cluster.servers[0])
        assert shim.gossip.builder.claim  # claims are being stamped
        assert any(k >= 0 for k in shim.horizon.horizon.values())
        assert horizon_differences(cluster.shims) == []
