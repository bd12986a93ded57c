"""THM51 — Theorem 5.1: ``shim(P)`` behaves exactly like ``P`` over
reliable point-to-point links.

For each embedded protocol we run the same workload through (a) the
block DAG embedding and (b) the direct-messaging baseline, and compare
the observable traces (per-server, per-instance indications).  Fault
scenarios compare the correct servers only.
"""

from dataclasses import replace

from repro.invariants import agreement, same_indications
from repro.protocols.base import Trace
from repro.protocols.bcb import BcbBroadcast, bcb_protocol
from repro.protocols.brb import Broadcast, Deliver, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.protocols.ledger import Append, ledger_protocol
from repro.protocols.pbft import Decide, Propose, Tick, pbft_protocol
from repro.protocols.phaseking import (
    PkAdvance,
    PkDecide,
    PkPropose,
    phase_king_protocol,
)
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime
from repro.runtime.adversary import SilentAdversary
from repro.net.latency import JitterLatency
from repro.types import Label, make_servers

L = Label("l")


class TestBrbEquivalence:
    def test_single_broadcast(self):
        servers = make_servers(4)
        direct = DirectRuntime(brb_protocol, servers=servers)
        direct.request(servers[0], L, Broadcast(42))
        direct.run()

        cluster = Cluster(brb_protocol, servers=servers)
        cluster.request(servers[0], L, Broadcast(42))
        cluster.run_until(lambda c: c.all_delivered(L))

        assert same_indications(direct.trace(), cluster.trace()) == []

    def test_many_instances_many_senders(self):
        servers = make_servers(4)
        workload = [
            (servers[i % 4], Label(f"tx-{i}"), Broadcast(f"value-{i}"))
            for i in range(12)
        ]
        direct = DirectRuntime(brb_protocol, servers=servers)
        cluster = Cluster(brb_protocol, servers=servers)
        for server, lbl, request in workload:
            direct.request(server, lbl, request)
            cluster.request(server, lbl, request)
        direct.run()
        cluster.run_until(
            lambda c: all(c.all_delivered(lbl) for (_, lbl, _) in workload),
            max_rounds=24,
        )
        assert same_indications(direct.trace(), cluster.trace()) == []

    def test_with_silent_byzantine(self):
        servers = make_servers(4)
        byz = servers[3]
        correct = servers[:3]
        direct = DirectRuntime(brb_protocol, servers=servers, silent=[byz])
        direct.request(servers[0], L, Broadcast("x"))
        direct.run()

        cluster = Cluster(
            brb_protocol, servers=servers, adversaries={byz: SilentAdversary}
        )
        cluster.request(servers[0], L, Broadcast("x"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)

        assert same_indications(direct.trace(), cluster.trace(), servers=correct) == []

    def test_equivalence_under_network_jitter(self):
        servers = make_servers(4)
        direct = DirectRuntime(
            brb_protocol, servers=servers, latency=JitterLatency(0.2, 2.0), seed=17
        )
        direct.request(servers[1], L, Broadcast("jitter"))
        direct.run()

        config = ClusterConfig(latency=JitterLatency(0.2, 2.0), seed=23)
        cluster = Cluster(brb_protocol, servers=servers, config=config)
        cluster.request(servers[1], L, Broadcast("jitter"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)

        assert same_indications(direct.trace(), cluster.trace()) == []

    def test_seven_servers(self):
        servers = make_servers(7)
        direct = DirectRuntime(brb_protocol, servers=servers)
        direct.request(servers[2], L, Broadcast("seven"))
        direct.run()
        cluster = Cluster(brb_protocol, servers=servers)
        cluster.request(servers[2], L, Broadcast("seven"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        assert same_indications(direct.trace(), cluster.trace()) == []


class TestBcbEquivalence:
    def test_single_consistent_broadcast(self):
        servers = make_servers(4)
        direct = DirectRuntime(bcb_protocol, servers=servers)
        direct.request(servers[0], L, BcbBroadcast("pay"))
        direct.run()

        cluster = Cluster(bcb_protocol, servers=servers)
        cluster.request(servers[0], L, BcbBroadcast("pay"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)

        assert same_indications(direct.trace(), cluster.trace()) == []

    def test_with_silent_byzantine(self):
        servers = make_servers(4)
        byz = servers[3]
        direct = DirectRuntime(bcb_protocol, servers=servers, silent=[byz])
        direct.request(servers[0], L, BcbBroadcast("pay"))
        direct.run()

        cluster = Cluster(
            bcb_protocol, servers=servers, adversaries={byz: SilentAdversary}
        )
        cluster.request(servers[0], L, BcbBroadcast("pay"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)

        assert same_indications(direct.trace(), cluster.trace(), servers=servers[:3]) == []
        # Delivered, not vacuously equal on two empty traces.
        assert all(cluster.trace().per_label(s, L) for s in servers[:3])

    def test_multiple_senders_different_instances(self):
        servers = make_servers(4)
        direct = DirectRuntime(bcb_protocol, servers=servers)
        cluster = Cluster(bcb_protocol, servers=servers)
        for i, server in enumerate(servers):
            lbl = Label(f"pay-{i}")
            direct.request(server, lbl, BcbBroadcast(i))
            cluster.request(server, lbl, BcbBroadcast(i))
        direct.run()
        cluster.run_until(
            lambda c: all(c.all_delivered(Label(f"pay-{i}")) for i in range(4)),
            max_rounds=16,
        )
        assert same_indications(direct.trace(), cluster.trace()) == []


class TestCounterEquivalence:
    def test_totals_match(self):
        servers = make_servers(4)
        direct = DirectRuntime(counter_protocol, servers=servers)
        cluster = Cluster(counter_protocol, servers=servers)
        for amount, server in zip((1, 2, 3), servers):
            direct.request(server, L, Inc(amount))
            cluster.request(server, L, Inc(amount))
        direct.run()
        cluster.run_rounds(6)
        # Counter indicates a Total per received Add: compare the
        # *final* totals per server rather than the (timing-dependent)
        # intermediate sequences.
        direct_finals = {
            s: direct.trace().per_label(s, L)[-1].value for s in servers
        }
        cluster_finals = {
            s: cluster.trace().per_label(s, L)[-1].value
            for s in cluster.correct_servers
        }
        assert direct_finals == cluster_finals == {s: 6 for s in servers}


class TestPbftEquivalence:
    def test_happy_path_decision(self):
        servers = make_servers(4)
        direct = DirectRuntime(pbft_protocol, servers=servers)
        direct.request(servers[0], L, Propose("block-A"))
        direct.run()

        cluster = Cluster(pbft_protocol, servers=servers)
        cluster.request(servers[0], L, Propose("block-A"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)

        assert same_indications(direct.trace(), cluster.trace()) == []
        assert agreement(cluster.trace(), L) == []

    def test_view_change_with_silent_leader(self):
        """Leader s1 silent: everyone else proposes and ticks; view
        change elects s2; all correct decide the same value in both
        runtimes."""
        servers = make_servers(4)
        byz = servers[0]  # the view-0 leader
        correct = servers[1:]

        direct = DirectRuntime(pbft_protocol, servers=servers, silent=[byz])
        for server in correct:
            direct.request(server, L, Propose("B"))
        for _ in range(3):
            for server in correct:
                direct.request(server, L, Tick())
            direct.run()

        cluster = Cluster(
            pbft_protocol, servers=servers, adversaries={byz: SilentAdversary}
        )
        for server in correct:
            cluster.request(server, L, Propose("B"))
        for _ in range(6):
            if cluster.all_delivered(L):
                break
            cluster.request_all(L, Tick())
            cluster.run_rounds(2)

        direct_decisions = {
            s: direct.trace().per_label(s, L) for s in correct
        }
        cluster_decisions = {
            s: cluster.shim(s).indications_for(L) for s in correct
        }
        assert all(d == [Decide("B")] for d in direct_decisions.values())
        assert cluster_decisions == direct_decisions


def interpreted_past(cluster, batch) -> bool:
    """Whether every correct server has interpreted an own block that
    follows every block in ``batch``.  A server's next block refers to
    every block it admitted, so by then it has received each message
    those blocks sent."""
    for server in cluster.correct_servers:
        shim = cluster.shim(server)
        tip = shim.dag.tip(server)
        if tip.ref not in shim.interpreter.interpreted:
            return False
        if not batch <= shim.dag.graph.ancestors(tip.ref):
            return False
    return True


class TestPhaseKingEquivalence:
    """Phase king is synchronous: each ``PkAdvance`` is issued only once
    every correct server holds the round's messages.  In the direct run
    that is after the network drained; in the embedding, once every
    correct server interpreted a block past the round's blocks."""

    def _run(self, proposals, silent=()):
        servers = make_servers(5)
        correct = [s for s in servers if s not in silent]
        direct = DirectRuntime(phase_king_protocol, servers=servers, silent=silent)
        cluster = Cluster(
            phase_king_protocol,
            servers=servers,
            adversaries=dict.fromkeys(silent, SilentAdversary),
        )
        # n = 5 tolerates f = 1: two phases of two rounds each.
        batches = [dict(zip(correct, map(PkPropose, proposals)))]
        batches += [dict.fromkeys(correct, PkAdvance())] * 4
        for batch in batches:
            for server, request in batch.items():
                direct.request(server, L, request)
                cluster.request(server, L, request)
            direct.run()
            cluster.run_rounds(1)  # seals the batch, one block per server
            sealed = {cluster.shim(s).dag.tip(s).ref for s in correct}
            cluster.run_until(lambda c: interpreted_past(c, sealed), max_rounds=8)
        return direct, cluster, correct

    def test_unanimous_start(self):
        direct, cluster, correct = self._run(["v"] * 5)
        assert same_indications(direct.trace(), cluster.trace(), servers=correct) == []
        assert all(cluster.trace().per_label(s, L) == [PkDecide("v")] for s in correct)

    def test_mixed_start_with_a_silent_seat(self):
        direct, cluster, correct = self._run([0, 1, 1, 0], silent=["s5"])
        assert same_indications(direct.trace(), cluster.trace(), servers=correct) == []
        assert all(len(cluster.trace().per_label(s, L)) == 1 for s in correct)
        assert agreement(cluster.trace(), L) == []


def applied_values(trace: Trace) -> Trace:
    """``trace`` with each ``Applied``'s ledger position dropped."""
    values = Trace()
    for server, events in trace.indications.items():
        for label, applied in events:
            values.record(server, label, replace(applied, seq=None))
    return values


class TestLedgerEquivalence:
    def test_one_append_per_label(self):
        servers = make_servers(4)
        labels = [Label(f"entry-{i}") for i in range(8)]
        direct = DirectRuntime(ledger_protocol, servers=servers)
        cluster = Cluster(ledger_protocol, servers=servers)
        for i, lbl in enumerate(labels):
            direct.request(servers[i % 4], lbl, Append(i))
            cluster.request(servers[i % 4], lbl, Append(i))
        direct.run()
        cluster.run_until(
            lambda c: all(c.all_delivered(lbl) for lbl in labels), max_rounds=16
        )
        assert same_indications(direct.trace(), cluster.trace()) == []

    def test_a_shared_label_applies_the_same_values(self):
        """Every server appends to one label.  Direct delivery applies
        entries in arrival order and the embedding in ``<_M`` order, so
        the position a value lands at legitimately differs; the set of
        values each server applied may not."""
        servers = make_servers(4)
        direct = DirectRuntime(ledger_protocol, servers=servers)
        cluster = Cluster(ledger_protocol, servers=servers)
        for i, server in enumerate(servers):
            direct.request(server, L, Append(f"from-{i}"))
            cluster.request(server, L, Append(f"from-{i}"))
        direct.run()
        cluster.run_until(lambda c: c.all_delivered(L, minimum=4), max_rounds=16)
        assert same_indications(
            applied_values(direct.trace()), applied_values(cluster.trace())
        ) == []


class TestSafetyPredicates:
    """The BRB properties of §5, asserted on the embedding directly."""

    def _delivered(self, cluster):
        return {
            s: cluster.shim(s).indications_for(L)
            for s in cluster.correct_servers
        }

    def test_validity(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast("v"))
        cluster.run_until(lambda c: c.all_delivered(L))
        for indications in self._delivered(cluster).values():
            assert indications == [Deliver("v")]

    def test_no_duplication(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast("v"))
        cluster.run_until(lambda c: c.all_delivered(L))
        cluster.run_rounds(3)  # extra rounds must not re-deliver
        for indications in self._delivered(cluster).values():
            assert len(indications) == 1

    def test_consistency_and_totality_under_equivocation(self):
        from repro.runtime.adversary import EquivocatorAdversary

        servers = make_servers(4)
        byz = servers[3]
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            adversaries={byz: EquivocatorAdversary},
        )
        adversary = cluster.adversaries[byz]
        adversary.request(L, Broadcast("left"))
        adversary.fork_request(L, Broadcast("right"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        assert agreement(cluster.trace(), L) == []  # consistency
        delivered = self._delivered(cluster)
        assert all(len(i) == 1 for i in delivered.values())  # totality + no dup
