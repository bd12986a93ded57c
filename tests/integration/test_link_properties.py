"""Lemma 4.3 — the interpreted block DAG is an authenticated perfect
point-to-point link: reliable delivery, no duplication, authenticity.

The counter protocol makes the link observable: every Add message a
process receives bumps its total exactly once, so totals count
deliveries."""

import pytest

from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Add, Inc, counter_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.net.latency import JitterLatency
from repro.types import Label, ServerId

from helpers import ManualDagBuilder, fresh_interpreter

L = Label("l")
S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))


class TestReliableDelivery:
    def test_every_sent_message_eventually_received(self):
        """Lemma 4.3 (1): all four servers' counter processes converge to
        the same total — every Add reached every process exactly once."""
        cluster = Cluster(counter_protocol, n=4)
        cluster.request(cluster.servers[0], L, Inc(5))
        cluster.request(cluster.servers[1], L, Inc(7))
        cluster.run_rounds(5)
        # Final totals at each server's own simulated process:
        finals = []
        for server in cluster.correct_servers:
            shim = cluster.shim(server)
            tip = shim.dag.tip(server)
            state = shim.interpreter.state_of(tip.ref)
            finals.append(state.pis[L].total)
        assert finals == [12, 12, 12, 12]

    @pytest.mark.parametrize("seed", range(12))
    def test_delivery_survives_network_jitter(self, seed):
        """Exactly-once delivery over randomized gossip schedules."""
        config = ClusterConfig(latency=JitterLatency(0.2, 3.0), seed=seed)
        cluster = Cluster(counter_protocol, n=4, config=config)
        cluster.request(cluster.servers[2], L, Inc(3))
        cluster.run_rounds(6)
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=10)
        cluster.run_rounds(1)
        for server in cluster.correct_servers:
            shim = cluster.shim(server)
            tip = shim.dag.tip(server)
            assert shim.interpreter.state_of(tip.ref).pis[L].total == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_brb_delivers_within_eight_rounds_under_jitter(self, seed):
        """The 'eventually' of reliable delivery made quantitative: one
        BRB broadcast reaches every server within eight rounds on every
        jittered schedule."""
        config = ClusterConfig(latency=JitterLatency(0.2, 2.0), seed=seed)
        cluster = Cluster(brb_protocol, n=4, config=config)
        cluster.request(cluster.servers[0], L, Broadcast("x"))
        rounds = cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        assert rounds <= 8, rounds


class TestNoDuplication:
    def test_lemma_43_2_no_message_received_twice(self):
        """Counter totals equal the sum of all Incs — a duplicated
        delivery would overshoot."""
        cluster = Cluster(counter_protocol, n=4)
        amounts = [1, 10, 100, 1000]
        for server, amount in zip(cluster.servers, amounts):
            cluster.request(server, L, Inc(amount))
        cluster.run_rounds(6)
        expected = sum(amounts)
        for server in cluster.correct_servers:
            shim = cluster.shim(server)
            tip = shim.dag.tip(server)
            assert shim.interpreter.state_of(tip.ref).pis[L].total == expected

    def test_byzantine_double_reference_delivers_twice_to_itself_only(self):
        """A byzantine server CAN reference a block twice (across two of
        its own blocks) — then *its own simulated process* receives the
        message twice; correct servers' processes are unaffected.  P
        must tolerate it (BFT), and the correct servers' link stays
        duplicate-free."""
        builder = ManualDagBuilder(4)
        source = builder.block(S1, rs=[(L, Inc(5))])
        # ˇs2 references `source` in two consecutive blocks.
        builder.block(S2, refs=[source])
        builder.block(S2, refs=[source])
        # Correct s3 references it once.
        builder.block(S3, refs=[source])
        interp = fresh_interpreter(builder, counter_protocol)
        interp.run()
        tip_s2 = builder.dag.by_server(S2)[-1]
        tip_s3 = builder.dag.by_server(S3)[-1]
        assert interp.state_of(tip_s2.ref).pis[L].total == 10  # double count
        assert interp.state_of(tip_s3.ref).pis[L].total == 5  # exactly once


class TestAuthenticity:
    def test_lemma_43_3_sender_attribution(self):
        """Every received message's sender equals the builder of the
        block that materialized it — authenticity via block signatures."""
        cluster = Cluster(counter_protocol, n=4)
        cluster.request(cluster.servers[0], L, Inc(1))
        cluster.run_rounds(4)
        shim = cluster.shim(cluster.servers[1])
        for block in shim.dag.blocks():
            state = shim.interpreter.state_of(block.ref)
            for message in state.ms.outgoing(L):
                assert message.sender == block.n  # Lemma A.14

    def test_messages_only_from_requesting_past(self):
        """Lemma 4.1: every message traces back to a block whose rs
        contains the instance's request (the ⇀* witness chain)."""
        cluster = Cluster(counter_protocol, n=4)
        cluster.request(cluster.servers[0], L, Inc(1))
        cluster.run_rounds(4)
        shim = cluster.shim(cluster.servers[0])
        dag = shim.dag
        request_blocks = [
            b.ref for b in dag.blocks() if any(lbl == L for (lbl, _) in b.rs)
        ]
        assert len(request_blocks) == 1
        origin = request_blocks[0]
        for block in dag.blocks():
            state = shim.interpreter.state_of(block.ref)
            if state.ms.outgoing(L) or state.ms.incoming(L):
                assert dag.graph.reachable(origin, block.ref)
