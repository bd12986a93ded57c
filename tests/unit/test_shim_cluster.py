"""Unit tests for Shim (Algorithm 3), Cluster and DirectRuntime wiring."""

import pytest

from repro.crypto.keys import KeyRing
from repro.net.simulator import NetworkSimulator
from repro.net.transport import SimTransport
from repro.protocols.brb import Broadcast, Deliver, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.direct import DirectRuntime
from repro.shim.shim import Shim, connect_shims
from repro.types import Label, make_servers

L = Label("l")


def wire_shims(n=4, protocol=brb_protocol, **shim_kwargs):
    servers = make_servers(n)
    sim = NetworkSimulator()
    ring = KeyRing(servers)
    transports = {s: SimTransport(sim, s) for s in servers}
    shims = connect_shims(servers, protocol, ring, transports, **shim_kwargs)
    for server, shim in shims.items():
        sim.register(server, shim.on_network)
    return sim, shims, servers


class TestShim:
    def test_request_lands_in_buffer(self):
        _, shims, servers = wire_shims()
        shims[servers[0]].request(L, Broadcast(1))
        assert shims[servers[0]].backlog() == 1

    def test_disseminate_drains_buffer(self):
        _, shims, servers = wire_shims()
        shim = shims[servers[0]]
        shim.request(L, Broadcast(1))
        block = shim.disseminate()
        assert shim.backlog() == 0
        assert block.rs == ((L, Broadcast(1)),)

    def test_indications_filtered_to_self(self):
        # Algorithm 3 line 8: indicate only when s' = s.
        sim, shims, servers = wire_shims()
        shims[servers[0]].request(L, Broadcast("x"))
        for _ in range(5):
            for shim in shims.values():
                shim.disseminate()
            sim.run(until=sim.now + 6.0)
        shim = shims[servers[1]]
        assert shim.indications_for(L) == [Deliver("x")]
        # The interpreter saw all four servers deliver; the shim
        # surfaced only its own.
        own_events = [e for e in shim.interpreter.events if e.server == servers[1]]
        all_events = shim.interpreter.events
        assert len(all_events) > len(own_events)
        assert len(shim.indications) == len(
            [e for e in own_events if isinstance(e.indication, Deliver)]
        )

    def test_user_callback_fires(self):
        seen = []
        sim, shims, servers = wire_shims(
            on_indication=lambda lbl, ind: seen.append((lbl, ind))
        )
        shims[servers[0]].request(L, Broadcast("x"))
        for _ in range(5):
            for shim in shims.values():
                shim.disseminate()
            sim.run(until=sim.now + 6.0)
        # Each shim got the same callback object; 4 deliveries total.
        assert seen.count((L, Deliver("x"))) == 4

    def test_auto_interpret_off(self):
        sim, shims, servers = wire_shims(auto_interpret=False)
        shims[servers[0]].request(L, Broadcast("x"))
        for _ in range(5):
            for shim in shims.values():
                shim.disseminate()
            sim.run(until=sim.now + 6.0)
        assert shims[servers[1]].indications == []
        shims[servers[1]].interpret_now()
        assert shims[servers[1]].indications_for(L) == [Deliver("x")]


class TestCluster:
    def test_requires_n_or_servers(self):
        with pytest.raises(ValueError):
            Cluster(brb_protocol)

    def test_request_all(self):
        cluster = Cluster(counter_protocol, n=4)
        cluster.request_all(L, Inc(1))
        assert all(shim.backlog() == 1 for shim in cluster.shims.values())

    def test_run_until_raises_on_timeout(self):
        cluster = Cluster(counter_protocol, n=4)
        with pytest.raises(TimeoutError):
            cluster.run_until(lambda c: False, max_rounds=2)

    def test_run_until_returns_rounds_used(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast(1))
        used = cluster.run_until(lambda c: c.all_delivered(L), max_rounds=16)
        assert 0 < used <= 16

    def test_interpreter_metrics_aggregate(self):
        cluster = Cluster(counter_protocol, n=4)
        cluster.request(cluster.servers[0], L, Inc(1))
        cluster.run_rounds(3)
        metrics = cluster.interpreter_snapshot()
        assert metrics.blocks_interpreted == 4 * cluster.total_blocks()
        assert metrics.request_steps == 4  # one request seen by 4 shims

    def test_trace_collects_all_indications(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast("t"))
        cluster.run_until(lambda c: c.all_delivered(L))
        trace = cluster.trace()
        assert len(trace.indications) == 4
        for server in cluster.correct_servers:
            assert trace.per_label(server, L) == [Deliver("t")]


class TestObservationsWithAllCorrectServersDown:
    """Mid-schedule a cluster can momentarily have zero live correct
    servers; the observation helpers must stay total (they used to
    raise IndexError / StopIteration)."""

    def _downed_cluster(self, tmp_path):
        config = ClusterConfig(storage_dir=tmp_path)
        cluster = Cluster(counter_protocol, n=2, config=config)
        cluster.request_all(L, Inc(1))
        cluster.run_rounds(2)
        for server in list(cluster.correct_servers):
            cluster.crash(server)
        return cluster

    def test_dags_converged_vacuous_only_for_live_only(self, tmp_path):
        cluster = self._downed_cluster(tmp_path)
        assert cluster.correct_servers == []
        # Default quantifies over the configured correct set: crashed
        # servers have demonstrably not converged.
        assert cluster.dags_converged() is False
        # The live-only view keeps the vacuous-truth reading.
        assert cluster.dags_converged(live_only=True) is True

    def test_all_delivered_not_vacuous_with_everyone_down(self, tmp_path):
        """Regression: with every correct server crashed, the default
        all_delivered used to return True, terminating
        run_until(all_delivered) spuriously mid-schedule."""
        cluster = self._downed_cluster(tmp_path)
        assert cluster.all_delivered(L) is False
        assert cluster.all_delivered(L, live_only=True) is True

    def test_all_delivered_false_with_one_correct_server_down(self, tmp_path):
        config = ClusterConfig(storage_dir=tmp_path)
        cluster = Cluster(counter_protocol, n=2, config=config)
        cluster.request_all(L, Inc(1))
        cluster.run_rounds(3)
        assert cluster.all_delivered(L) is True
        cluster.crash(cluster.servers[0])
        assert cluster.all_delivered(L) is False
        assert cluster.all_delivered(L, live_only=True) is True

    def test_total_blocks_zero(self, tmp_path):
        cluster = self._downed_cluster(tmp_path)
        assert cluster.total_blocks() == 0

    def test_single_live_server_converged(self, tmp_path):
        config = ClusterConfig(storage_dir=tmp_path)
        cluster = Cluster(counter_protocol, n=2, config=config)
        cluster.run_rounds(1)
        cluster.crash(cluster.servers[0])
        assert cluster.dags_converged() is False
        assert cluster.dags_converged(live_only=True) is True
        assert cluster.total_blocks() >= 1


class TestDirectRuntime:
    def test_requires_n_or_servers(self):
        with pytest.raises(ValueError):
            DirectRuntime(brb_protocol)

    def test_basic_delivery(self):
        direct = DirectRuntime(brb_protocol, n=4)
        direct.request(direct.servers[0], L, Broadcast("d"))
        direct.run()
        for server in direct.servers:
            assert direct.trace().per_label(server, L) == [Deliver("d")]

    def test_messages_sent_counted(self):
        direct = DirectRuntime(brb_protocol, n=4)
        direct.request(direct.servers[0], L, Broadcast("d"))
        direct.run()
        # Echo round: 4 senders × 3 peers; Ready round: same → 24 wire
        # messages (self-deliveries are local).
        assert direct.total_messages_sent() == 24

    def test_signature_rejection_counted(self):
        from repro.protocols.base import Message
        from repro.protocols.brb import Echo
        from repro.runtime.direct import ProtocolMessageEnvelope

        direct = DirectRuntime(brb_protocol, n=4)
        victim = direct.nodes[direct.servers[1]]
        forged = ProtocolMessageEnvelope(
            L,
            Message(direct.servers[0], direct.servers[1], Echo(1)),
            b"forged",
        )
        victim.on_network(direct.servers[0], forged)
        assert victim.metrics.rejected_signatures == 1

    def test_silent_seats_receive_nothing(self):
        servers = make_servers(4)
        direct = DirectRuntime(brb_protocol, servers=servers, silent=[servers[3]])
        direct.request(servers[0], L, Broadcast("d"))
        direct.run()
        assert servers[3] not in direct.nodes
        assert set(direct.correct_servers) == set(servers[:3])
        for server in servers[:3]:
            assert direct.trace().per_label(server, L) == [Deliver("d")]
