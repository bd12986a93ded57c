"""Gossip convergence — Lemma 3.6, Lemma 3.7 and the FWD machinery
under adverse network schedules."""

import pytest

from repro.gossip.module import GossipConfig
from repro.net.latency import JitterLatency
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import counter_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.faults import (
    ByzantineFault,
    DuplicationFault,
    FaultSchedule,
    PartitionFault,
)
from repro.types import Label, make_servers

L = Label("l")


class TestLemma37JointDag:
    def test_fault_free_convergence(self):
        cluster = Cluster(counter_protocol, n=4)
        cluster.run_rounds(3)
        assert cluster.dags_converged()

    def test_convergence_under_jitter_reordering(self):
        config = ClusterConfig(latency=JitterLatency(0.2, 4.0), seed=11)
        cluster = Cluster(counter_protocol, n=4, config=config)
        cluster.run_rounds(4)
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=16)

    def test_convergence_with_seven_servers(self):
        cluster = Cluster(counter_protocol, n=7)
        cluster.run_rounds(3)
        assert cluster.dags_converged()

    def test_joint_dag_is_superset_of_both_views(self):
        # G' ⩾ G_s ∪ G_s' — after convergence every server's DAG *is*
        # the joint DAG.
        cluster = Cluster(counter_protocol, n=4)
        cluster.run_rounds(2)
        views = [shim.dag for shim in cluster.shims.values()]
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=8)
        final = next(iter(cluster.shims.values())).dag
        for view in views:
            assert view.refs <= final.refs

    def test_every_correct_block_gets_direct_edge_lemma_a8(self):
        # Lemma A.8: each block a correct server inserts is referenced
        # directly by one of that server's own later blocks.
        cluster = Cluster(counter_protocol, n=4)
        cluster.run_rounds(4)
        server = cluster.servers[0]
        dag = cluster.shim(server).dag
        own_chain = dag.by_server(server)
        directly_referenced = set()
        for block in own_chain:
            directly_referenced.update(block.preds)
        # Every foreign block except those inserted after our last
        # disseminate must appear in some own block's preds.
        last_own = own_chain[-1]
        for block in dag.blocks():
            if block.n == server:
                continue
            if dag.graph.strictly_reachable(block.ref, last_own.ref):
                assert block.ref in directly_referenced


class TestHealingPartition:
    def test_convergence_after_partition_heals(self):
        servers = make_servers(4)
        # Heals at round 5 (t = 30 with the default 6.0 round duration).
        partition = PartitionFault(
            start_round=0, heal_round=5, group_a=servers[:2], group_b=servers[2:]
        )
        config = ClusterConfig(seed=5)
        cluster = Cluster(
            counter_protocol,
            servers=servers,
            config=config,
            faults=FaultSchedule((partition,)),
        )
        from repro.protocols.counter import Inc

        cluster.request(servers[0], L, Inc(1))
        cluster.run_rounds(3)  # t reaches 18 — still partitioned
        assert not cluster.dags_converged()
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=16)

    def test_delivery_across_healed_partition(self):
        servers = make_servers(4)
        partition = PartitionFault(
            start_round=0, heal_round=4, group_a=servers[:2], group_b=servers[2:]
        )
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((partition,)),
        )
        cluster.request(servers[0], L, brb_req())
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=24)


def brb_req():
    return Broadcast("payload")


class TestForwardingRecovery:
    @pytest.mark.parametrize(
        "retry", [GossipConfig().fwd_retry_interval, 1.5, 9.0]
    )
    def test_withheld_blocks_recovered_via_fwd(self, retry):
        """A withholding adversary shows blocks to one peer only; the
        FWD mechanism (asking the *referencing* block's builder) spreads
        them to everyone — at the default Δ_B' (FWD retry interval) and
        at half and three times it."""
        servers = make_servers(4)
        byz = servers[3]
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=ClusterConfig(gossip=GossipConfig(fwd_retry_interval=retry)),
            faults=FaultSchedule((ByzantineFault(byz, "withholding"),)),
        )
        adversary = cluster.adversaries[byz]
        adversary.request(L, Broadcast("hidden"))
        cluster.run_rounds(6)
        # The adversary's blocks reached every correct server even
        # though it sent them to a single peer and ignores FWDs.
        # (The adversary's very last block may not have been referenced
        # by an honest block yet, so allow a one-block frontier gap.)
        byz_blocks_seen = [
            len(cluster.shim(s).dag.by_server(byz)) for s in cluster.correct_servers
        ]
        assert min(byz_blocks_seen) >= 4
        assert max(byz_blocks_seen) - min(byz_blocks_seen) <= 1
        # And the embedded broadcast delivered.
        assert all(
            cluster.shim(s).indications_for(L) for s in cluster.correct_servers
        )

    def test_fwd_traffic_actually_flowed(self):
        servers = make_servers(4)
        byz = servers[3]
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(byz, "withholding"),)),
        )
        cluster.adversaries[byz].request(L, Broadcast("hidden"))
        cluster.run_rounds(6)
        fwd_sent = sum(
            cluster.shim(s).gossip.metrics.fwd_requests_sent
            for s in cluster.correct_servers
        )
        fwd_answered = sum(
            cluster.shim(s).gossip.metrics.fwd_requests_answered
            for s in cluster.correct_servers
        )
        assert fwd_sent >= 1
        assert fwd_answered >= 1


class TestDuplicateSuppression:
    def test_duplicated_links_do_not_duplicate_state(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=ClusterConfig(seed=3),
            faults=FaultSchedule((DuplicationFault(probability=0.5),)),
        )
        cluster.request(servers[0], L, Broadcast(1))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=12)
        for server in cluster.correct_servers:
            assert len(cluster.shim(server).indications_for(L)) == 1
        assert cluster.run_until(lambda c: c.dags_converged(), max_rounds=8) >= 0
