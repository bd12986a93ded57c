"""Unit tests for Algorithm 1 — gossip over a real simulator, small scale."""

import pytest

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import Signature
from repro.dag.block import Block
from repro.gossip.module import MAX_REQUESTS_PER_BLOCK, Gossip
from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.protocols.brb import Broadcast
from repro.requests import RequestBuffer
from repro.types import Label, ServerId, make_servers

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))
L = Label("l")


@pytest.fixture
def net():
    """Four gossip instances over one simulator."""
    servers = make_servers(4)
    ring = KeyRing(servers)
    sim = NetworkSimulator()
    nodes = {}
    for server in servers:
        transport = SimTransport(sim, server)
        gossip = Gossip(server, ring, transport, RequestBuffer())
        nodes[server] = gossip
        sim.register(server, gossip.on_receive)
    return sim, nodes, ring


class TestDissemination:
    def test_disseminate_builds_and_sends(self, net):
        sim, nodes, _ = net
        block = nodes[S1].disseminate()
        assert block.is_genesis
        assert block in nodes[S1].dag
        sim.run_until_idle()
        for server in (S2, S3, S4):
            assert block in nodes[server].dag

    def test_requests_stamped_into_block(self, net):
        sim, nodes, _ = net
        nodes[S1].rqsts.put(L, Broadcast(1))
        block = nodes[S1].disseminate()
        assert block.rs == ((L, Broadcast(1)),)
        assert len(nodes[S1].rqsts) == 0

    def test_request_batch_limit(self, net):
        _, nodes, _ = net
        gossip = nodes[S1]
        for i in range(MAX_REQUESTS_PER_BLOCK + 1):
            gossip.rqsts.put(L, Broadcast(i))
        assert len(gossip.disseminate().rs) == 256
        assert len(gossip.disseminate().rs) == 1
        assert len(gossip.rqsts) == 0

    def test_chain_advances(self, net):
        sim, nodes, _ = net
        first = nodes[S1].disseminate()
        second = nodes[S1].disseminate()
        assert second.k == first.k + 1
        assert second.preds[0] == first.ref

    def test_line8_foreign_blocks_referenced_once(self, net):
        sim, nodes, _ = net
        foreign = nodes[S2].disseminate()
        sim.run_until_idle()
        own = nodes[S1].disseminate()
        assert foreign.ref in own.preds
        next_own = nodes[S1].disseminate()
        assert foreign.ref not in next_own.preds  # Lemma A.6

    def test_disseminate_to_subset(self, net):
        sim, nodes, _ = net
        block = nodes[S1].disseminate_to([S2])
        sim.run_until_idle()
        assert block in nodes[S2].dag
        assert block not in nodes[S3].dag


def signed_by(ring, n, k, preds, signer=None):
    """A block of ``n`` at position ``k`` signed by ``signer`` (``n``
    itself when omitted), whatever its content says."""
    unsigned = Block(n=n, k=k, preds=tuple(preds), rs=())
    return Block(
        n=n, k=k, preds=tuple(preds), rs=(),
        sigma=ring.sign(signer or n, unsigned.signing_payload()),
    )


class TestIngressSignature:
    """Check (i) of Definition 3.3 belongs to the received copy, and
    ingress is the one place it is made."""

    def test_a_bad_signature_copy_does_not_poison_the_honest_one(self, net):
        _, nodes, _ = net
        honest = nodes[S1].disseminate_to([])
        mangled = Block(
            n=honest.n, k=honest.k, preds=honest.preds, rs=honest.rs,
            sigma=Signature(b"junk"),
        )
        assert mangled.ref == honest.ref  # ref(B) excludes the signature
        nodes[S2].on_receive(S1, BlockEnvelope(mangled))
        assert nodes[S2].metrics.invalid_blocks == 1
        assert honest.ref not in nodes[S2].blks
        assert honest.ref not in nodes[S2].dag
        nodes[S2].on_receive(S1, BlockEnvelope(honest))
        assert honest.ref in nodes[S2].dag
        assert nodes[S2].metrics.invalid_blocks == 1
        assert nodes[S2].metrics.duplicate_blocks == 0

    def test_a_signature_by_another_server_is_dropped(self, net):
        _, nodes, ring = net
        forged = signed_by(ring, S1, 0, (), signer=S3)
        nodes[S2].on_receive(S1, BlockEnvelope(forged))
        assert nodes[S2].metrics.invalid_blocks == 1
        assert nodes[S2].blks == {}
        assert forged.ref not in nodes[S2].dag


class TestValidationPipeline:
    def test_bad_signature_dropped_at_ingress(self, net):
        sim, nodes, _ = net
        bad = Block(n=S1, k=0, preds=(), rs=(), sigma=Signature(b"junk"))
        nodes[S2].on_receive(S1, BlockEnvelope(bad))
        assert bad.ref not in nodes[S2].dag
        assert len(nodes[S2].blks) == 0
        assert nodes[S2].metrics.invalid_blocks == 1

    def test_duplicates_counted(self, net):
        sim, nodes, _ = net
        block = nodes[S1].disseminate()
        sim.run_until_idle()
        nodes[S2].on_receive(S1, BlockEnvelope(block))
        assert nodes[S2].metrics.duplicate_blocks == 1

    def test_out_of_order_arrival_buffers_then_inserts(self, net):
        sim, nodes, ring = net
        first = nodes[S1].disseminate()
        second = nodes[S1].disseminate()
        # Deliver child before parent, directly.
        nodes[S2].on_receive(S1, BlockEnvelope(second))
        assert second.ref in nodes[S2].blks
        assert second.ref not in nodes[S2].dag
        nodes[S2].on_receive(S1, BlockEnvelope(first))
        assert first.ref in nodes[S2].dag
        assert second.ref in nodes[S2].dag
        assert len(nodes[S2].blks) == 0

    def test_arrival_unblocks_chain_of_descendants(self, net):
        _, nodes, _ = net
        blocks = [nodes[S1].disseminate_to([]) for _ in range(5)]
        for block in reversed(blocks[1:]):
            nodes[S2].on_receive(S1, BlockEnvelope(block))
        assert len(nodes[S2].dag) == 0
        nodes[S2].on_receive(S1, BlockEnvelope(blocks[0]))
        assert len(nodes[S2].dag) == 5

    def test_long_buffered_chain_drains_without_recursion_limit(self, net):
        # The worklist pump must handle chains far deeper than Python's
        # recursion limit would allow a recursive cascade to.
        import sys

        _, nodes, _ = net
        depth = sys.getrecursionlimit() + 200
        blocks = [nodes[S1].disseminate_to([]) for _ in range(depth)]
        for block in reversed(blocks[1:]):
            nodes[S2].on_receive(S1, BlockEnvelope(block))
        nodes[S2].on_receive(S1, BlockEnvelope(blocks[0]))
        assert len(nodes[S2].dag) == depth
        assert len(nodes[S2].blks) == 0
        assert nodes[S2]._waiting == {}

    def test_missing_pred_index_tracks_and_clears(self, net):
        _, nodes, _ = net
        parent = nodes[S1].disseminate_to([])
        child = nodes[S1].disseminate_to([])
        nodes[S2].on_receive(S1, BlockEnvelope(child))
        assert nodes[S2]._waiting == {parent.ref: [child.ref]}
        nodes[S2].on_receive(S1, BlockEnvelope(parent))
        assert nodes[S2]._waiting == {}
        assert child.ref in nodes[S2].dag

    def test_invalid_predecessor_condemns_buffered_descendants(self, net):
        sim, nodes, ring = net
        genesis = nodes[S1].disseminate()
        sim.run_until_idle()
        # Properly signed but content-invalid: k=2 with no k=1 parent.
        def signed(n, k, preds):
            unsigned = Block(n=n, k=k, preds=preds, rs=())
            return Block(
                n=n, k=k, preds=preds, rs=(),
                sigma=ring.sign(n, unsigned.signing_payload()),
            )

        bad = signed(S1, 2, (genesis.ref,))
        worse = signed(S1, 3, (bad.ref,))
        # Child arrives first and waits on its (invalid) predecessor.
        nodes[S2].on_receive(S1, BlockEnvelope(worse))
        assert worse.ref in nodes[S2].blks
        invalid_before = nodes[S2].metrics.invalid_blocks
        nodes[S2].on_receive(S1, BlockEnvelope(bad))
        # Both discarded by the same cascade; nothing lingers.
        assert nodes[S2].metrics.invalid_blocks == invalid_before + 2
        assert nodes[S2].blks == {}
        assert bad.ref not in nodes[S2].dag
        assert worse.ref not in nodes[S2].dag

    def test_a_parent_rule_break_over_buffered_preds_is_discarded_at_arrival(
        self, net
    ):
        _, nodes, ring = net
        b0, b1 = (nodes[S1].disseminate_to([]) for _ in range(2))
        nodes[S2].on_receive(S1, BlockEnvelope(b1))  # waits on b0
        skip = signed_by(ring, S1, 3, (b1.ref,))  # k=3 over k=1: no parent
        nodes[S2].on_receive(S1, BlockEnvelope(skip))
        assert nodes[S2].metrics.invalid_blocks == 1
        assert skip.ref not in nodes[S2].blks
        assert set(nodes[S2].blks) == {b1.ref}

    def test_a_break_whose_preds_are_unknown_waits_with_its_descendants(
        self, net
    ):
        # Verdicts do not recurse through buffered ancestors: a block Y
        # judged PENDING before its predecessors could be resolved is
        # asked again only when one of them reaches G, and a descendant
        # waits on Y until then.
        _, nodes, ring = net
        b0, b1 = (nodes[S1].disseminate_to([]) for _ in range(2))
        breaker = signed_by(ring, S1, 3, (b1.ref,))
        child = signed_by(ring, S1, 4, (breaker.ref,))
        gossip = nodes[S2]
        gossip.on_receive(S1, BlockEnvelope(breaker))  # b1 unknown
        gossip.on_receive(S1, BlockEnvelope(b1))  # buffered: b0 unknown
        gossip.on_receive(S1, BlockEnvelope(child))
        assert set(gossip.blks) == {breaker.ref, b1.ref, child.ref}
        assert gossip.metrics.invalid_blocks == 0
        gossip.on_receive(S1, BlockEnvelope(b0))
        assert gossip.blks == {}
        assert gossip.metrics.invalid_blocks == 2
        assert {b0.ref, b1.ref} <= gossip.dag.refs
        assert breaker.ref not in gossip.dag and child.ref not in gossip.dag

    def test_on_insert_fires_in_topological_order(self, net):
        # Out-of-order arrival must still report insertions
        # predecessors-first: the shim appends blocks to its WAL from
        # this callback, and recovery replays the WAL in append order.
        _, nodes, _ = net
        chain = [nodes[S1].disseminate_to([]) for _ in range(4)]
        seen = []
        nodes[S2].on_insert = lambda block: seen.append(block.ref)
        for block in reversed(chain[1:]):
            nodes[S2].on_receive(S1, BlockEnvelope(block))
        assert seen == []
        nodes[S2].on_receive(S1, BlockEnvelope(chain[0]))
        assert seen == [b.ref for b in chain]

    def test_direct_dag_insert_unblocks_waiters(self, net):
        # The drain is driven by the DAG's insert listener, so even an
        # insertion that bypasses on_receive (e.g. recovery replay into
        # a shared DAG) admits the buffered blocks waiting on it.
        _, nodes, _ = net
        parent = nodes[S1].disseminate_to([])
        child = nodes[S1].disseminate_to([])
        nodes[S2].on_receive(S1, BlockEnvelope(child))
        assert child.ref in nodes[S2].blks
        nodes[S2].dag.insert(parent)
        assert child.ref in nodes[S2].dag
        assert nodes[S2].blks == {}


class TestForwardingMechanism:
    def test_fwd_requested_for_missing_pred(self, net):
        sim, nodes, _ = net
        hidden = nodes[S1].disseminate_to([])  # withheld from everyone
        referencing = nodes[S1].disseminate_to([S2])
        sim.run_until_idle()
        # S2 received `referencing`, misses `hidden`, FWDs to S1 (the
        # builder of the *referencing* block), which answers.
        assert hidden.ref in nodes[S2].dag
        assert referencing.ref in nodes[S2].dag
        assert nodes[S2].metrics.fwd_requests_sent >= 1
        assert nodes[S1].metrics.fwd_requests_answered >= 1

    def test_unanswerable_fwd_ignored(self, net):
        _, nodes, _ = net
        nodes[S1].on_receive(S2, FwdRequestEnvelope(ref="0" * 64))
        assert nodes[S1].metrics.fwd_requests_unanswerable == 1

    def test_retry_janitor_drops_orphaned_chases(self, net):
        # A chased ref whose waiters were all condemned (INVALID
        # cascade) must stop being FWD-requested: the retry timer drops
        # the dead index bucket and the ref's pacing record.
        sim, nodes, ring = net
        genesis = nodes[S1].disseminate()
        sim.run_until_idle()

        def signed(n, k, preds):
            unsigned = Block(n=n, k=k, preds=preds, rs=())
            return Block(
                n=n, k=k, preds=preds, rs=(),
                sigma=ring.sign(n, unsigned.signing_payload()),
            )

        bad = signed(S1, 2, (genesis.ref,))  # invalid: no k=1 parent
        fake = "f" * 64  # fabricated ref that will never arrive
        worse = signed(S1, 3, (bad.ref, fake))
        nodes[S2].on_receive(S1, BlockEnvelope(worse))
        assert fake in nodes[S2]._waiting
        nodes[S2].on_receive(S1, BlockEnvelope(bad))
        assert nodes[S2].blks == {}  # cascade condemned both
        assert nodes[S2]._waiting.get(fake) == [worse.ref]  # dead entry
        sim.run_until_idle()  # the retry timer fires
        assert fake not in nodes[S2]._waiting
        assert fake not in nodes[S2]._chases


def record_fwds(gossip, sim):
    """Wrap ``gossip._send_fwd``: the list it returns fills with one
    ``(time, ref, target)`` per FWD sent."""
    sent = []
    send_fwd = gossip._send_fwd

    def recording(ref, target):
        sent.append((sim.now, ref, target))
        send_fwd(ref, target)

    gossip._send_fwd = recording
    return sent


def retry_timers(sim, gossip):
    """Pending simulator events that are ``gossip``'s FWD retry timer."""
    return sum(1 for event in sim._heap if event.action == gossip._retry_forwarding)


class TestFwdPacing:
    """The FWD retry discipline of §3 (Δ_B' = 3.0 here), driven through
    one ``Gossip`` on the simulator.  Every ref below is fabricated, so
    no FWD is ever answered and only the pacing decides what is sent."""

    def deliver_at(self, sim, gossip, at, block):
        sim.schedule(at, lambda: gossip.on_receive(block.n, BlockEnvelope(block)))

    def test_a_second_waiter_asks_again_only_once_the_interval_passed(self, net):
        sim, nodes, ring = net
        fake = "f" * 64
        sent = record_fwds(nodes[S2], sim)
        # Scheduled before the first FWD, so the t = 3.0 arrival runs
        # ahead of the retry timer due at the same instant.
        self.deliver_at(sim, nodes[S2], 1.0, signed_by(ring, S3, 0, (fake,)))
        self.deliver_at(sim, nodes[S2], 3.0, signed_by(ring, S4, 0, (fake,)))
        nodes[S2].on_receive(S1, BlockEnvelope(signed_by(ring, S1, 0, (fake,))))
        sim.run(until=2.9)
        assert sent == [(0.0, fake, S1)]
        sim.run(until=3.0)
        # The due sighting sends, and the timer then finds nothing due.
        assert sent == [(0.0, fake, S1), (3.0, fake, S4)]

    def test_fwd_retries_are_unbounded(self, net):
        # Lemma 4.3 needs FWD re-issued until the builder answers.
        sim, nodes, ring = net
        fake = "f" * 64
        sent = record_fwds(nodes[S2], sim)
        nodes[S2].on_receive(S1, BlockEnvelope(signed_by(ring, S1, 0, (fake,))))
        sim.run(until=60.0)
        assert [at for at, _, _ in sent] == [3.0 * i for i in range(21)]
        assert fake in nodes[S2]._chases
        assert retry_timers(sim, nodes[S2]) == 1

    def test_fwd_retry_asks_the_latest_due_builder(self, net):
        # A retry goes to whichever builder last referenced the block
        # when a FWD was due; a premature sighting does not move it.
        sim, nodes, ring = net
        fake = "f" * 64
        sent = record_fwds(nodes[S2], sim)
        self.deliver_at(sim, nodes[S2], 1.0, signed_by(ring, S3, 0, (fake,)))
        self.deliver_at(sim, nodes[S2], 6.0, signed_by(ring, S4, 0, (fake,)))
        nodes[S2].on_receive(S1, BlockEnvelope(signed_by(ring, S1, 0, (fake,))))
        sim.run(until=9.0)
        assert [(at, target) for at, _, target in sent] == [
            (0.0, S1), (3.0, S1), (6.0, S4), (9.0, S4)
        ]

    def test_an_arrival_clears_the_chase(self, net):
        sim, nodes, _ = net
        hidden = nodes[S1].disseminate_to([])
        child = nodes[S1].disseminate_to([])
        nodes[S2].on_receive(S1, BlockEnvelope(child))
        assert hidden.ref in nodes[S2]._chases
        nodes[S2].on_receive(S1, BlockEnvelope(hidden))
        assert hidden.ref not in nodes[S2]._chases
        assert child.ref in nodes[S2].dag
        sim.run_until_idle()
        assert nodes[S2].metrics.fwd_requests_sent == 1

    def test_only_expired_refs_are_resent(self, net):
        sim, nodes, ring = net
        first, second = "e" * 64, "f" * 64
        sent = record_fwds(nodes[S2], sim)
        self.deliver_at(sim, nodes[S2], 1.0, signed_by(ring, S3, 0, (second,)))
        nodes[S2].on_receive(S1, BlockEnvelope(signed_by(ring, S1, 0, (first,))))
        sim.run(until=3.5)
        assert sent == [(0.0, first, S1), (1.0, second, S3), (3.0, first, S1)]


class TestOrphanFlood:
    """ROADMAP 16's probe: one seat sends signed blocks whose parent
    never existed, one per 0.01 time units.  Gossip must buffer and
    chase each of them, and its retry timers must not grow with them."""

    @pytest.mark.parametrize("orphans", [500, 1000])
    def test_one_retry_timer_one_fwd_per_orphan_per_interval(self, net, orphans):
        sim, nodes, ring = net
        target = nodes[S1]
        for i in range(orphans):
            orphan = signed_by(ring, S4, i + 1, (f"{i:064x}",))
            sim.schedule(
                i * 0.01,
                lambda b=orphan: target.on_receive(S4, BlockEnvelope(b)),
            )
        settled = orphans * 0.01 + 0.005  # every orphan arrived, off the grid
        sim.run(until=settled)
        before = target.metrics.fwd_requests_sent
        sim.run(until=settled + target.config.fwd_retry_interval)
        assert target.metrics.fwd_requests_sent - before == orphans
        assert len(target.blks) == orphans
        assert retry_timers(sim, target) == 1


class TestBlocksBehind:
    def test_counts_height_gap(self, net):
        sim, nodes, _ = net
        for _ in range(3):
            nodes[S1].disseminate()
        sim.run_until_idle()
        assert nodes[S2].blocks_behind() == 3
        nodes[S2].disseminate()
        assert nodes[S2].blocks_behind() == 2


class TestRequestBuffer:
    def test_fifo(self):
        buffer = RequestBuffer()
        buffer.put(L, Broadcast(1))
        buffer.put(L, Broadcast(2))
        assert buffer.get() == [(L, Broadcast(1)), (L, Broadcast(2))]
        assert len(buffer) == 0

    def test_get_with_limit(self):
        buffer = RequestBuffer()
        for i in range(5):
            buffer.put(L, Broadcast(i))
        assert len(buffer.get(2)) == 2
        assert len(buffer) == 3

    def test_counters(self):
        buffer = RequestBuffer()
        buffer.put(L, Broadcast(1))
        buffer.get()
        assert buffer.total_put == 1
        assert buffer.total_taken == 1
        assert buffer.peek_backlog() == 0
