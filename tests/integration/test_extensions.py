"""Extension feature from §6: accountability for equivocation.

Crash recovery (§7) is covered by ``test_crash_recovery.py``; the
report's signature re-check by ``tests/unit/test_invariants.py``.
"""

from repro.invariants import equivocations
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.cluster import Cluster
from repro.runtime.faults import ByzantineFault, FaultSchedule
from repro.types import Label, make_servers

L = Label("l")


class TestAccountability:
    def _equivocating_run(self):
        servers = make_servers(4)
        byz = servers[3]
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            faults=FaultSchedule((ByzantineFault(byz, "equivocator"),)),
        )
        adversary = cluster.adversaries[byz]
        adversary.request(L, Broadcast("a"))
        adversary.fork_request(L, Broadcast("b"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        return cluster, byz

    def test_evidence_collected_from_live_run(self):
        cluster, byz = self._equivocating_run()
        dag = cluster.shim(cluster.servers[0]).dag
        report = equivocations(dag, cluster.keyring)
        assert set(report) == {byz}

    def test_evidence_verifies_standalone(self):
        # Each reported slot is a transferable certificate: its blocks
        # alone, checked against the public keys, prove the fork.
        cluster, byz = self._equivocating_run()
        dag = cluster.shim(cluster.servers[0]).dag
        for k, blocks in equivocations(dag, cluster.keyring)[byz].items():
            assert len({block.ref for block in blocks}) == len(blocks) > 1
            for block in blocks:
                assert (block.n, block.k) == (byz, k)
                assert cluster.keyring.verify(byz, block.signing_payload(), block.sigma)

    def test_correct_servers_never_accused(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast("x"))
        cluster.run_until(lambda c: c.all_delivered(L))
        dag = cluster.shim(cluster.servers[0]).dag
        assert equivocations(dag, cluster.keyring) == {}
