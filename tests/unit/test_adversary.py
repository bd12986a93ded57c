"""Unit tests for the byzantine seat and its table of scripts."""

import pytest

from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.adversary import BEHAVIOURS, SILENT
from repro.runtime.cluster import Cluster
from repro.runtime.faults import ByzantineFault, FaultSchedule
from repro.types import Label, make_servers

L = Label("l")


def seat(behaviour, n=4):
    servers = make_servers(n)
    byz = servers[-1]
    cluster = Cluster(
        brb_protocol,
        servers=servers,
        faults=FaultSchedule((ByzantineFault(byz, behaviour),)),
    )
    return cluster, cluster.adversaries[byz], servers


class TestTable:
    @pytest.mark.parametrize("name", sorted(BEHAVIOURS))
    def test_every_script_starts_at_round_zero_in_order(self, name):
        # ``Adversary.step`` looks back for the step in force, so a
        # script must have one from the first round on.
        starts = [start for start, _ in BEHAVIOURS[name]]
        assert starts[0] == 0 and starts == sorted(set(starts))


class TestSilent:
    def test_sends_nothing(self):
        cluster, adversary, servers = seat("silent")
        cluster.run_rounds(3)
        for server in cluster.correct_servers:
            assert cluster.shim(server).dag.by_server(servers[-1]) == []


class TestCrash:
    def test_behaves_until_crash(self):
        cluster, adversary, servers = seat("crash")
        assert adversary.step != SILENT
        cluster.run_rounds(2)
        seen_before = len(
            cluster.shim(servers[0]).dag.by_server(servers[-1])
        )
        assert seen_before >= 1
        assert adversary.step == SILENT
        cluster.run_rounds(3)
        seen_after = len(cluster.shim(servers[0]).dag.by_server(servers[-1]))
        assert seen_after == seen_before  # nothing new after the crash

    def test_receives_nothing_after_crash(self):
        cluster, adversary, servers = seat("crash")
        cluster.run_rounds(5)
        # Its own DAG froze at crash time.
        assert len(adversary.gossip.dag) < cluster.total_blocks()


class TestEquivocator:
    def test_fork_blocks_share_k_and_preds(self):
        cluster, adversary, servers = seat("equivocator")
        adversary.request(L, Broadcast("a"))
        adversary.fork_request(L, Broadcast("b"))
        cluster.run_rounds(2)
        assert adversary.forks_made >= 1
        forks = adversary.gossip.dag.forks()
        assert forks
        for (owner, _), blocks in forks.items():
            assert owner == servers[-1]
            assert blocks[0].k == blocks[1].k
            assert set(blocks[0].preds) == set(blocks[1].preds)

    def test_identical_branches_not_double_inserted(self):
        # With no fork payload difference and same preds, branch B may
        # equal branch A; the adversary must not crash on that.
        cluster, adversary, servers = seat("equivocator")
        cluster.run_rounds(2)
        assert adversary.gossip.dag is not None


class TestGarbage:
    def test_emits_invalid_blocks_only(self):
        cluster, adversary, servers = seat("garbage")
        cluster.run_rounds(2)
        assert adversary.invalid_sent > 0
        for server in cluster.correct_servers:
            assert cluster.shim(server).dag.by_server(servers[-1]) == []

    def test_forged_signature_is_rejected_on_content(self):
        cluster, adversary, servers = seat("garbage")
        sent = []
        adversary.transport.send = lambda dst, envelope: sent.append(envelope)
        adversary.on_round()
        forged = [
            e.block for e in sent if isinstance(e, BlockEnvelope) and e.block.k == 0
        ]
        assert forged
        honest = cluster.keyring.sign(servers[0], b"payload")
        for block in forged:
            # As long as a real tag, so only its content can fail it.
            assert len(block.sigma) == len(honest)
            assert not cluster.keyring.verify(
                block.n, block.signing_payload(), block.sigma
            )

    def test_orphan_blocks_stay_pending_bounded(self):
        cluster, adversary, servers = seat("garbage")
        cluster.run_rounds(3)
        for server in cluster.correct_servers:
            gossip = cluster.shim(server).gossip
            # The orphan variants wait in blks (their 'parents' never
            # arrive); bad-signature variants died at ingress.
            assert gossip.metrics.invalid_blocks > 0


class TestWithholding:
    def test_sends_to_single_peer(self):
        cluster, adversary, servers = seat("withholding")
        cluster.run_rounds(1)
        counts = [
            len(cluster.shim(s).dag.by_server(servers[-1]))
            for s in cluster.correct_servers
        ]
        # Immediately after round 1, only the favoured peer has it.
        assert sorted(counts) == [0, 0, 1]

    def test_ignores_fwd_requests(self):
        cluster, adversary, servers = seat("withholding")
        adversary.on_network(servers[0], FwdRequestEnvelope(ref="0" * 64))
        # No crash, no response — and the gossip metrics confirm it
        # never answered.
        assert adversary.gossip.metrics.fwd_requests_answered == 0

    def test_still_receives_blocks(self):
        cluster, adversary, servers = seat("withholding")
        cluster.run_rounds(2)
        assert len(adversary.gossip.dag) > 0
