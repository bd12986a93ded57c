"""End-to-end robustness properties: random byzantine seats × random
network schedules, asserted against BRB's safety contract and the
framework's structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.invariants import (
    complete_interpretation,
    equivocations,
    well_formed_chains,
)
from repro.net.latency import JitterLatency
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.adversary import BEHAVIOURS
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.faults import ByzantineFault, FaultSchedule
from repro.types import Label, make_servers

L = Label("l")


@st.composite
def byzantine_scenarios(draw):
    behaviour = draw(st.sampled_from(sorted(BEHAVIOURS)))
    seed = draw(st.integers(0, 5000))
    sender_index = draw(st.integers(0, 2))  # a correct sender
    value = draw(st.integers(0, 10**6))
    return behaviour, seed, sender_index, value


class TestByzantineRobustness:
    @given(byzantine_scenarios())
    @settings(max_examples=20, deadline=None)
    def test_brb_contract_under_any_single_adversary(self, scenario):
        behaviour, seed, sender_index, value = scenario
        servers = make_servers(4)
        config = ClusterConfig(latency=JitterLatency(0.3, 2.0), seed=seed)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=config,
            faults=FaultSchedule((ByzantineFault(servers[3], behaviour),)),
        )
        cluster.request(servers[sender_index], L, Broadcast(value))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=30)
        cluster.run_rounds(2)  # extra rounds: no duplication afterwards
        delivered = {
            s: cluster.shim(s).indications_for(L)
            for s in cluster.correct_servers
        }
        # Validity + totality: everyone delivered the sender's value...
        assert all(inds for inds in delivered.values())
        # ... consistency: the same value...
        values = {i.value for inds in delivered.values() for i in inds}
        assert values == {value}
        # ... no duplication: exactly once.
        assert all(len(inds) == 1 for inds in delivered.values())

    @given(byzantine_scenarios())
    @settings(max_examples=12, deadline=None)
    def test_structural_invariants_under_any_adversary(self, scenario):
        behaviour, seed, sender_index, value = scenario
        servers = make_servers(4)
        config = ClusterConfig(latency=JitterLatency(0.3, 2.0), seed=seed)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=config,
            faults=FaultSchedule((ByzantineFault(servers[3], behaviour),)),
        )
        cluster.request(servers[sender_index], L, Broadcast(value))
        cluster.run_rounds(6)
        # Acyclic, and correct chains consecutive and fork-free on every
        # correct server; interpretation kept pace with every block.
        for server in cluster.correct_servers:
            dag = cluster.shim(server).dag
            assert well_formed_chains(dag, cluster.correct_servers) == []
        assert complete_interpretation(cluster.shims) == []

    @given(st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_audit_never_accuses_correct_servers(self, seed):
        servers = make_servers(4)
        config = ClusterConfig(latency=JitterLatency(0.3, 2.0), seed=seed)
        cluster = Cluster(
            brb_protocol,
            servers=servers,
            config=config,
            faults=FaultSchedule((ByzantineFault(servers[3], "equivocator"),)),
        )
        adversary = cluster.adversaries[servers[3]]
        adversary.request(L, Broadcast("a"))
        adversary.fork_request(L, Broadcast("b"))
        cluster.run_rounds(6)
        for server in cluster.correct_servers:
            report = equivocations(cluster.shim(server).dag, cluster.keyring)
            assert set(report) <= {servers[3]}
