"""The paper's efficiency claims as correctness tests.

Every check counts on the deterministic simulator — envelopes, bytes,
signature operations, rounds, blocks — never wall-clock time.

* CLM-OFFLINE: building the DAG and interpreting it are fully decoupled
  (§1: 'only applying the higher-level protocol logic off-line possibly
  later').
* CLM-PARALLEL: many labels ride the same blocks 'for free' (§1, §4).
* CLM-COMPRESS: interpretation compresses protocol messages 'up to
  omission' (§1, §4) — the messages it materializes never touch the wire.
* CLM-SIG: 'it suffices, that every server signs their blocks' (§5) —
  one signature per block, however many instances ride it.
* CLM-O2: references to all other parties' blocks cost O(n²) per round
  'with a small constant' (§7).
* CLM-THROUGHPUT: batching requests into blocks does not stretch
  delivery latency (§3).
"""

from contextlib import contextmanager

from repro.crypto.keys import KeyRing
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, Deliver, brb_protocol
from repro.protocols.bcb import BcbBroadcast, bcb_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime
from repro.types import Label, make_servers

L = Label("l")


def run_brb(num_labels):
    """``num_labels`` BRB instances spread round-robin over four
    servers, run for six rounds."""
    cluster = Cluster(brb_protocol, n=4)
    for i in range(num_labels):
        cluster.request(cluster.servers[i % 4], Label(f"t{i}"), Broadcast(i))
    cluster.run_rounds(6)
    return cluster


class TestOfflineInterpretation:
    """CLM-OFFLINE."""

    def test_interpret_after_the_fact_matches_online(self):
        servers = make_servers(4)
        online = Cluster(brb_protocol, servers=servers)
        online.request(servers[0], L, Broadcast("v"))
        online.run_until(lambda c: c.all_delivered(L))

        offline = Cluster(
            brb_protocol,
            servers=servers,
            config=ClusterConfig(auto_interpret=False),
        )
        offline.request(servers[0], L, Broadcast("v"))
        offline.run_rounds(online.rounds_run)
        # Nothing interpreted yet:
        for server in offline.correct_servers:
            assert offline.shim(server).indications == []
        # Interpret now, after the whole run:
        for server in offline.correct_servers:
            offline.shim(server).interpret_now()
        for server in offline.correct_servers:
            assert offline.shim(server).indications_for(L) == [Deliver("v")]

    def test_third_party_auditor_reaches_same_conclusions(self):
        """A fresh interpreter over a *copy* of some server's DAG — an
        auditor who was never part of the network — sees the exact same
        indications for every server (the PeerReview lineage of §6)."""
        servers = make_servers(4)
        cluster = Cluster(brb_protocol, servers=servers)
        cluster.request(servers[1], L, Broadcast("audit-me"))
        cluster.run_until(lambda c: c.all_delivered(L))

        dag_copy = cluster.shim(servers[0]).dag.copy()
        auditor = Interpreter(dag_copy, brb_protocol, servers)
        auditor.run()
        delivered = {
            e.server for e in auditor.events if isinstance(e.indication, Deliver)
        }
        assert delivered == set(servers)

    def test_interpretation_cost_is_separate_from_wire_cost(self):
        servers = make_servers(4)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=ClusterConfig(auto_interpret=False),
        )
        cluster.request(servers[0], L, Broadcast("v"))
        cluster.run_rounds(5)
        wire_before = cluster.sim.metrics.messages
        for server in cluster.correct_servers:
            cluster.shim(server).interpret_now()
        # Interpreting moved zero bytes.
        assert cluster.sim.metrics.messages == wire_before


class TestParallelInstances:
    """CLM-PARALLEL."""

    def test_many_labels_one_dag(self):
        servers = make_servers(4)
        cluster = Cluster(brb_protocol, servers=servers)
        labels = [Label(f"tx-{i}") for i in range(20)]
        for i, lbl in enumerate(labels):
            cluster.request(servers[i % 4], lbl, Broadcast(i))
        cluster.run_until(
            lambda c: all(c.all_delivered(lbl) for lbl in labels), max_rounds=20
        )
        for i, lbl in enumerate(labels):
            for server in cluster.correct_servers:
                assert cluster.shim(server).indications_for(lbl) == [Deliver(i)]

    def test_block_count_independent_of_label_count(self):
        """The 'for free' claim, as a correctness property: the number
        of blocks depends on rounds, not on how many instances ride —
        and every one of 200 instances still delivers everywhere in
        those same rounds."""
        one, many = run_brb(1), run_brb(200)
        assert one.total_blocks() == many.total_blocks()
        for i in range(200):
            for server in many.correct_servers:
                assert many.shim(server).indications_for(Label(f"t{i}")) == [
                    Deliver(i)
                ], (i, server)

    def test_mixed_protocols_would_need_separate_shims(self):
        """One shim = one P; different protocols use different labels
        within their own shim stacks.  Two clusters over the same server
        names don't interfere (sanity of the parametricity)."""
        servers = make_servers(4)
        brb_cluster = Cluster(brb_protocol, servers=servers)
        bcb_cluster = Cluster(bcb_protocol, servers=servers)
        brb_cluster.request(servers[0], L, Broadcast("a"))
        bcb_cluster.request(servers[0], L, BcbBroadcast("b"))
        brb_cluster.run_until(lambda c: c.all_delivered(L))
        bcb_cluster.run_until(lambda c: c.all_delivered(L))
        assert brb_cluster.shim(servers[1]).indications_for(L) == [Deliver("a")]
        bcb_inds = bcb_cluster.shim(servers[1]).indications_for(L)
        assert len(bcb_inds) == 1 and bcb_inds[0].value == "b"


def materialized_per_envelope(cluster):
    """Protocol messages one server's interpretation computed, per wire
    envelope the whole cluster sent (every correct server computes the
    same set — Lemma 4.2 — so one server's count is the cluster's)."""
    first = next(iter(cluster.shims.values()))
    return first.interpreter.messages_materialized / cluster.sim.metrics.messages


class TestCompression:
    """CLM-COMPRESS."""

    def test_messages_per_envelope_grow_with_instances(self):
        ratios = [materialized_per_envelope(run_brb(k)) for k in (1, 5, 25, 100)]
        assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] > 10 * ratios[0], ratios

    def test_omitted_fraction_approaches_one(self):
        """'Up to omission': with 200 instances nearly every protocol
        message the interpretation computed never crossed the wire."""
        omitted = 1.0 - 1.0 / materialized_per_envelope(run_brb(200))
        assert omitted > 0.95, omitted


@contextmanager
def counted_signatures():
    """Count every ``KeyRing.sign``/``verify`` call made inside the
    block, by method name."""
    counts = {"sign": 0, "verify": 0}
    originals = KeyRing.sign, KeyRing.verify

    def counted(method, name):
        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)

        return wrapper

    KeyRing.sign = counted(KeyRing.sign, "sign")
    KeyRing.verify = counted(KeyRing.verify, "verify")
    try:
        yield counts
    finally:
        KeyRing.sign, KeyRing.verify = originals


def signature_ops(num_labels):
    """((sign + verify count, deliveries, verify count, block copies the
    correct servers received and had not seen) for the embedding,
    (sign + verify count, deliveries) for the direct baseline) on one
    BRB workload."""
    with counted_signatures() as dag_ops:
        cluster = run_brb(num_labels)
    with counted_signatures() as direct_ops:
        direct = DirectRuntime(brb_protocol, servers=make_servers(4))
        for i in range(num_labels):
            direct.request(direct.servers[i % 4], Label(f"t{i}"), Broadcast(i))
        direct.run()
    gossips = [cluster.shim(s).gossip.metrics for s in cluster.correct_servers]
    return (
        (
            dag_ops["sign"] + dag_ops["verify"],
            sum(len(shim.indications) for shim in cluster.shims.values()),
            dag_ops["verify"],
            sum(g.blocks_received - g.duplicate_blocks for g in gossips),
        ),
        (
            direct_ops["sign"] + direct_ops["verify"],
            sum(len(seq) for seq in direct.trace().indications.values()),
        ),
    )


class TestBatchSignatures:
    """CLM-SIG."""

    def test_embedding_flat_while_direct_grows(self):
        (dag_one, _, verifies_one, copies_one), (direct_one, _) = signature_ops(1)
        many, (direct_many, direct_delivered) = signature_ops(100)
        dag_many, dag_delivered, verifies_many, copies_many = many
        # One verification per received copy not seen before: ingress
        # checks each copy's signature and nothing checks it again.
        assert verifies_one == copies_one, (verifies_one, copies_one)
        assert verifies_many == copies_many, (verifies_many, copies_many)
        assert dag_many <= 1.25 * dag_one, (dag_one, dag_many)
        assert direct_many > 30 * direct_one, (direct_one, direct_many)
        # Both runtimes deliver every broadcast at every server, so the
        # embedding's >10x lead holds per delivered broadcast too.
        assert dag_delivered == direct_delivered == 100 * 4
        assert direct_many > 10 * dag_many, (dag_many, direct_many)


def reference_overhead(n, labels_per_round):
    """(refs per non-genesis block, reference-byte fraction of all block
    bytes) at one server after six rounds of BRB load."""
    cluster = Cluster(brb_protocol, n=n)
    tx = 0
    for _ in range(6):
        for _ in range(labels_per_round):
            cluster.request(
                cluster.servers[tx % n], Label(f"t{tx}"), Broadcast(f"v{tx}" * 8)
            )
            tx += 1
        cluster.round()
    blocks = cluster.shim(cluster.servers[0]).dag.blocks()
    non_genesis = [b for b in blocks if not b.is_genesis]
    refs_per_block = sum(len(b.preds) for b in non_genesis) / len(non_genesis)
    ref_bytes = sum(32 * len(b.preds) for b in blocks)
    return refs_per_block, ref_bytes / sum(b.wire_size() for b in blocks)


class TestReferenceOverhead:
    """CLM-O2."""

    def test_refs_per_block_linear_in_n(self):
        for n in (4, 7, 10):
            refs, _ = reference_overhead(n, labels_per_round=8)
            assert abs(refs - n) / n < 0.25, (n, refs)

    def test_reference_fraction_small_at_realistic_batches(self):
        fractions = [
            reference_overhead(4, labels_per_round=batch)[1]
            for batch in (16, 32, 64)
        ]
        assert all(a > b for a, b in zip(fractions, fractions[1:])), fractions
        assert fractions[-1] < 0.10, fractions


class TestThroughput:
    """CLM-THROUGHPUT."""

    def test_probe_latency_flat_under_background_batches(self):
        """A probe broadcast delivers in the same number of rounds
        however many background instances share its blocks."""
        latencies = []
        for background in (1, 16, 64):
            cluster = Cluster(brb_protocol, n=4)
            probe = Label("probe")
            cluster.request(cluster.servers[0], probe, Broadcast("x"))
            for i in range(background):
                cluster.request(cluster.servers[i % 4], Label(f"bg{i}"), Broadcast(i))
            latencies.append(
                cluster.run_until(lambda c: c.all_delivered(probe), max_rounds=12)
            )
        assert len(set(latencies)) == 1, latencies
