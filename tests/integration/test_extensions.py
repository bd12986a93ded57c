"""Extension feature from §6: accountability for equivocation.

Crash recovery (§7) is covered by ``test_crash_recovery.py``.
"""

import pytest

from repro.accountability import (
    EquivocationEvidence,
    audit,
    collect_evidence,
    verify_evidence,
)
from repro.dag.block import Block
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.adversary import EquivocatorAdversary
from repro.runtime.cluster import Cluster
from repro.types import Label, ServerId, make_servers

from helpers import ManualDagBuilder

L = Label("l")
S1 = ServerId("s1")


class TestAccountability:
    def _equivocating_run(self):
        servers = make_servers(4)
        byz = servers[3]
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            adversaries={byz: EquivocatorAdversary},
        )
        adversary = cluster.adversaries[byz]
        adversary.request(L, Broadcast("a"))
        adversary.fork_request(L, Broadcast("b"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        return cluster, byz

    def test_evidence_collected_from_live_run(self):
        cluster, byz = self._equivocating_run()
        dag = cluster.shim(cluster.servers[0]).dag
        evidence = collect_evidence(dag)
        assert evidence
        assert all(e.culprit == byz for e in evidence)

    def test_evidence_verifies_standalone(self):
        cluster, byz = self._equivocating_run()
        dag = cluster.shim(cluster.servers[0]).dag
        for evidence in collect_evidence(dag):
            assert verify_evidence(evidence, cluster.keyring)

    def test_audit_groups_by_culprit(self):
        cluster, byz = self._equivocating_run()
        dag = cluster.shim(cluster.servers[0]).dag
        verdicts = audit(dag, cluster.keyring)
        assert set(verdicts) == {byz}

    def test_correct_servers_never_accused(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast("x"))
        cluster.run_until(lambda c: c.all_delivered(L))
        dag = cluster.shim(cluster.servers[0]).dag
        assert collect_evidence(dag) == []

    def test_forged_evidence_rejected(self):
        # A certificate whose blocks are not actually signed by the
        # culprit must fail verification — you cannot frame.
        builder = ManualDagBuilder(4)
        real = builder.block(S1)
        fake = Block(n=S1, k=0, preds=(), rs=((L, Broadcast("forged")),))
        # fake carries no valid signature.
        evidence = EquivocationEvidence(
            culprit=S1, seq=0, block_a=real, block_b=fake
        )
        assert not verify_evidence(evidence, builder.keyring)

    def test_mismatched_fields_rejected(self):
        builder = ManualDagBuilder(4)
        a = builder.block(S1)
        b = builder.fork(S1, rs=[(L, Broadcast(1))])
        wrong_culprit = EquivocationEvidence(
            culprit=ServerId("s2"), seq=0, block_a=a, block_b=b
        )
        assert not verify_evidence(wrong_culprit, builder.keyring)
        wrong_seq = EquivocationEvidence(culprit=S1, seq=5, block_a=a, block_b=b)
        assert not verify_evidence(wrong_seq, builder.keyring)

    def test_identical_blocks_not_evidence(self):
        builder = ManualDagBuilder(4)
        a = builder.block(S1)
        with pytest.raises(ValueError):
            EquivocationEvidence(culprit=S1, seq=0, block_a=a, block_b=a)

