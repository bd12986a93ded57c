"""Byzantine scenarios — §4's enumeration of what ˇs can do, end to end."""

from repro.invariants import agreement
from repro.protocols.brb import Broadcast, Deliver, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.runtime.adversary import SILENT
from repro.runtime.cluster import Cluster
from repro.runtime.faults import ByzantineFault, FaultSchedule
from repro.types import Label, make_servers

L = Label("l")


class TestSilentServer:
    def test_progress_without_one_server(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "silent"),)),
        )
        cluster.request(servers[0], L, Broadcast("v"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        for server in cluster.correct_servers:
            assert cluster.shim(server).indications_for(L) == [Deliver("v")]

    def test_no_progress_beyond_f_silent(self):
        # With 2 of 4 silent (f=1 budget exceeded) BRB cannot reach its
        # 2f+1 = 3 READY quorum: nobody delivers.  Safety intact.
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule(
                (
                    ByzantineFault(servers[2], "silent"),
                    ByzantineFault(servers[3], "silent"),
                )
            ),
        )
        cluster.request(servers[0], L, Broadcast("v"))
        cluster.run_rounds(8)
        for server in cluster.correct_servers:
            assert cluster.shim(server).indications_for(L) == []


class TestCrash:
    def test_crash_mid_protocol(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "crash"),)),
        )
        cluster.request(servers[0], L, Broadcast("v"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        adversary = cluster.adversaries[servers[3]]
        assert adversary.step == SILENT

    def test_pre_crash_requests_still_deliver(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "crash"),)),
        )
        adversary = cluster.adversaries[servers[3]]
        adversary.request(L, Broadcast("from-crasher"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        values = {
            i.value
            for s in cluster.correct_servers
            for i in cluster.shim(s).indications_for(L)
        }
        assert values == {"from-crasher"}


class TestGarbage:
    def test_garbage_blocks_discarded_by_everyone(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "garbage"),)),
        )
        cluster.request(servers[0], L, Broadcast("v"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        adversary = cluster.adversaries[servers[3]]
        assert adversary.invalid_sent > 0
        for server in cluster.correct_servers:
            dag = cluster.shim(server).dag
            # No adversary block survived validation: the bad-signature
            # ones die at ingress, the orphans stay pending forever.
            assert dag.by_server(servers[3]) == []

    def test_garbage_does_not_stall_interpretation(self):
        servers = make_servers(4)
        cluster = Cluster(
            counter_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "garbage"),)),
        )
        cluster.request(servers[0], L, Inc(5))
        cluster.run_rounds(6)
        for server in cluster.correct_servers:
            shim = cluster.shim(server)
            assert shim.interpreter.blocks_interpreted == len(shim.dag)


class TestEquivocator:
    def _run(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(servers[3], "equivocator"),)),
        )
        adversary = cluster.adversaries[servers[3]]
        adversary.request(L, Broadcast("left"))
        adversary.fork_request(L, Broadcast("right"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        return cluster, servers[3]

    def test_forks_are_visible_to_correct_servers(self):
        cluster, byz = self._run()
        for server in cluster.correct_servers:
            forks = cluster.shim(server).dag.forks()
            assert any(owner == byz for (owner, _) in forks)

    def test_brb_consistency_survives(self):
        cluster, _ = self._run()
        assert agreement(cluster.trace(), L) == []

    def test_split_state_versions_exist(self):
        cluster, byz = self._run()
        shim = cluster.shim(cluster.correct_servers[0])
        forks = [
            blocks
            for (owner, _), blocks in shim.dag.forks().items()
            if owner == byz
        ]
        assert forks
        pair = forks[0]
        state_a = shim.interpreter.state_of(pair[0].ref)
        state_b = shim.interpreter.state_of(pair[1].ref)
        # Two 'versions' of ˇs's process state (§4) — distinct objects,
        # and (for the forked request block) different emitted messages.
        assert state_a.pis.get(L) is not state_b.pis.get(L)

    def test_dags_still_converge(self):
        cluster, _ = self._run()
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=12)


class TestMixedAdversaries:
    def test_brb_with_equivocator_and_heavy_workload(self):
        servers = make_servers(7)  # f = 2: one equivocator + one silent
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule(
                (
                    ByzantineFault(servers[5], "equivocator"),
                    ByzantineFault(servers[6], "silent"),
                )
            ),
        )
        labels = [Label(f"tx-{i}") for i in range(6)]
        for i, lbl in enumerate(labels):
            cluster.request(servers[i % 5], lbl, Broadcast(f"v{i}"))
        cluster.run_until(
            lambda c: all(c.all_delivered(lbl) for lbl in labels), max_rounds=24
        )
        for lbl in labels:
            assert agreement(cluster.trace(), lbl) == []
