"""Property tests for gossip — convergence under random schedules.

Random latency seeds and random workload placement: correct servers always converge to a joint DAG (Lemma 3.7),
and the embedded broadcast always delivers everywhere (liveness).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import JitterLatency
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import Label


class TestConvergenceProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_jitter_always_converges(self, seed):
        config = ClusterConfig(latency=JitterLatency(0.2, 3.5), seed=seed)
        cluster = Cluster(counter_protocol, n=4, config=config)
        cluster.run_rounds(4)
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=16)

    @given(
        seed=st.integers(0, 10_000),
        sender=st.integers(0, 3),
        value=st.integers(),
    )
    @settings(max_examples=15, deadline=None)
    def test_brb_always_delivers_everywhere(self, seed, sender, value):
        config = ClusterConfig(latency=JitterLatency(0.2, 2.5), seed=seed)
        cluster = Cluster(brb_protocol, n=4, config=config)
        label = Label("tx")
        cluster.request(cluster.servers[sender], label, Broadcast(value))
        cluster.run_until(lambda c: c.all_delivered(label), max_rounds=24)
        values = {
            i.value
            for s in cluster.correct_servers
            for i in cluster.shim(s).indications_for(label)
        }
        assert values == {value}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_interpretation_keeps_pace_with_gossip(self, seed):
        config = ClusterConfig(latency=JitterLatency(0.2, 2.0), seed=seed)
        cluster = Cluster(counter_protocol, n=4, config=config)
        cluster.request(cluster.servers[0], Label("l"), Inc(1))
        cluster.run_rounds(4)
        for server in cluster.correct_servers:
            shim = cluster.shim(server)
            assert shim.interpreter.blocks_interpreted == len(shim.dag)

    @given(n=st.sampled_from([4, 5, 7]), seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_chain_structure_per_correct_server(self, n, seed):
        """Every correct server's own blocks form a single chain with
        consecutive sequence numbers — no self-forks, ever."""
        config = ClusterConfig(seed=seed)
        cluster = Cluster(counter_protocol, n=n, config=config)
        cluster.run_rounds(4)
        view = cluster.shim(cluster.servers[0]).dag
        for server in cluster.correct_servers:
            chain = view.by_server(server)
            sequences = [b.k for b in chain]
            assert sequences == list(range(len(chain)))
