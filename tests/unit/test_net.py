"""Unit tests for the network substrate: simulator, latency, faults."""

import random

import pytest

from repro.errors import NetworkError, ScenarioError
from repro.net.faults import LinkFaults
from repro.net.latency import FixedLatency, JitterLatency, PerLinkLatency
from repro.net.message import FwdRequestEnvelope
from repro.net.simulator import NetworkSimulator
from repro.net.transport import RevocableTransport, SimTransport
from repro.runtime.faults import (
    DuplicationFault,
    FaultSchedule,
    LinkLossFault,
    PartitionFault,
)
from repro.types import ServerId

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))


def envelope():
    return FwdRequestEnvelope(ref="r" * 64)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(2.5)
        assert model.sample(S1, S2, random.Random(0)) == 2.5

    def test_fixed_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedLatency(0)

    def test_jitter_within_bounds(self):
        model = JitterLatency(0.5, 1.5)
        rng = random.Random(1)
        for _ in range(100):
            assert 0.5 <= model.sample(S1, S2, rng) <= 1.5

    def test_jitter_rejects_bad_range(self):
        with pytest.raises(ValueError):
            JitterLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            JitterLatency(0.0, 1.0)

    def test_per_link(self):
        model = PerLinkLatency({(S1, S2): 5.0}, default=1.0)
        rng = random.Random(0)
        assert model.sample(S1, S2, rng) == 5.0
        assert model.sample(S2, S1, rng) == 1.0


def link_faults(*events, servers=(S1, S2, S3, S4), round_duration=1.0):
    return FaultSchedule(events).link_faults(servers, round_duration)


def partition(start_round, heal_round, group_a, group_b):
    return PartitionFault(
        start_round=start_round,
        heal_round=heal_round,
        group_a=group_a,
        group_b=group_b,
    )


class TestLinkFaults:
    def test_default_is_faultless(self):
        rng = random.Random(0)
        assert LinkFaults().disposition(S1, S2, 0.0, rng) == (1, 0.0)
        assert link_faults().disposition(S1, S2, 0.0, rng) == (1, 0.0)

    def test_loss_on_correct_link_rejected(self):
        # Assumption 1 enforcement: loss requires a byzantine endpoint.
        with pytest.raises(ValueError):
            LinkFaults(loss={(S1, S2): 0.5})

    def test_loss_event_drops_every_link_of_its_server(self):
        faults = link_faults(LinkLossFault(server="s1", probability=1.0))
        assert faults.byzantine == {S1}
        assert faults.disposition(S1, S2, 0.0, random.Random(0))[0] == 0
        assert faults.disposition(S3, S1, 0.0, random.Random(0))[0] == 0
        assert faults.disposition(S2, S3, 0.0, random.Random(0))[0] == 1

    def test_duplication(self):
        faults = link_faults(DuplicationFault(probability=1.0))
        copies, _ = faults.disposition(S1, S2, 0.0, random.Random(0))
        assert copies > 1
        # Self-sends are never duplicated.
        assert faults.disposition(S1, S1, 0.0, random.Random(0)) == (1, 0.0)

    def test_probability_bounds_validated(self):
        with pytest.raises(ScenarioError):
            LinkLossFault(server="s1", probability=1.5)
        with pytest.raises(ScenarioError):
            DuplicationFault(probability=-0.1)

    def test_partition_delays_cross_cut_messages(self):
        faults = link_faults(partition(0, 10, ("s1",), ("s2",)))
        copies, extra = faults.disposition(S1, S2, 3.0, random.Random(0))
        assert extra == pytest.approx(7.0)
        assert copies == 1

    def test_partition_window_is_in_rounds(self):
        faults = link_faults(partition(1, 3, ("s1",), ("s2",)), round_duration=6.0)
        assert faults.partitions == ((6.0, 18.0, {S1}, {S2}),)
        assert faults.disposition(S2, S1, 5.0, random.Random(0)) == (1, 0.0)
        assert faults.disposition(S2, S1, 6.0, random.Random(0)) == (1, 12.0)

    def test_partition_does_not_affect_same_side(self):
        faults = link_faults(partition(0, 10, ("s1", "s3"), ("s2",)))
        assert faults.disposition(S1, S3, 5.0, random.Random(0))[1] == 0.0

    def test_partition_over_after_heal(self):
        faults = link_faults(partition(0, 10, ("s1",), ("s2",)))
        assert faults.disposition(S1, S2, 10.0, random.Random(0))[1] == 0.0

    def test_partition_validation(self):
        with pytest.raises(ScenarioError):
            partition(0, 1, ("s1",), ("s1",))
        with pytest.raises(ScenarioError):
            partition(5, 5, ("s1",), ("s2",))


class TestSimulator:
    def _pair(self, **kwargs):
        sim = NetworkSimulator(**kwargs)
        inbox = {S1: [], S2: []}
        sim.register(S1, lambda src, env: inbox[S1].append((src, env)))
        sim.register(S2, lambda src, env: inbox[S2].append((src, env)))
        return sim, inbox

    def test_delivery(self):
        sim, inbox = self._pair()
        sim.send(S1, S2, envelope())
        sim.run_until_idle()
        assert len(inbox[S2]) == 1
        assert inbox[S2][0][0] == S1

    def test_clock_advances_by_latency(self):
        sim, _ = self._pair(latency=FixedLatency(2.0))
        sim.send(S1, S2, envelope())
        sim.run_until_idle()
        assert sim.now == pytest.approx(2.0)

    def test_unknown_destination_raises(self):
        sim, _ = self._pair()
        with pytest.raises(NetworkError):
            sim.send(S1, ServerId("ghost"), envelope())

    def test_double_registration_rejected(self):
        sim, _ = self._pair()
        with pytest.raises(NetworkError):
            sim.register(S1, lambda s, e: None)

    def test_metrics_count_messages_and_bytes(self):
        sim, _ = self._pair()
        sim.send(S1, S2, envelope())
        sim.send(S1, S2, envelope())
        assert sim.metrics.messages == 2
        assert sim.metrics.bytes == 64
        assert sim.metrics.by_kind["FwdRequestEnvelope"] == 2

    def test_dropped_messages_counted(self):
        faults = link_faults(
            LinkLossFault(server="s1", probability=1.0), servers=(S1, S2)
        )
        sim, inbox = self._pair(faults=faults)
        sim.send(S1, S2, envelope())
        sim.run_until_idle()
        assert inbox[S2] == []
        assert sim.dropped_count == 1

    def test_timers_fire_in_order(self):
        sim, _ = self._pair()
        fired = []
        sim.schedule(3.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run_until_idle()
        assert fired == ["early", "late"]

    def test_negative_delay_rejected(self):
        sim, _ = self._pair()
        with pytest.raises(NetworkError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_leaves_future_events(self):
        sim, inbox = self._pair(latency=FixedLatency(5.0))
        sim.send(S1, S2, envelope())
        sim.run(until=2.0)
        assert inbox[S2] == []
        assert sim.now == pytest.approx(2.0)
        sim.run_until_idle()
        assert len(inbox[S2]) == 1

    def test_run_until_idle_detects_storms(self):
        sim, _ = self._pair()

        def storm():
            sim.schedule(0.1, storm)

        storm()
        with pytest.raises(NetworkError):
            sim.run_until_idle(max_events=100)

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = NetworkSimulator(latency=JitterLatency(0.5, 1.5), seed=seed)
            arrivals = []
            sim.register(S1, lambda s, e: None)
            sim.register(S2, lambda s, e: arrivals.append(sim.now))
            for _ in range(10):
                sim.send(S1, S2, envelope())
            sim.run_until_idle()
            return arrivals

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_reordering_under_jitter(self):
        sim = NetworkSimulator(latency=JitterLatency(0.5, 5.0), seed=3)
        order = []
        sim.register(S1, lambda s, e: None)
        sim.register(S2, lambda s, e: order.append(e.ref))
        for i in range(20):
            sim.send(S1, S2, FwdRequestEnvelope(ref=f"ref-{i:02d}"))
        sim.run_until_idle()
        assert sorted(order) != order  # some reordering happened


class TestSimTransport:
    def test_send_and_now(self):
        sim = NetworkSimulator(latency=FixedLatency(1.0))
        received = []
        sim.register(S1, lambda s, e: None)
        sim.register(S2, lambda s, e: received.append(s))
        transport = SimTransport(sim, S1)
        assert transport.self_id == S1
        transport.send(S2, envelope())
        sim.run_until_idle()
        assert received == [S1]
        assert transport.now == pytest.approx(1.0)

    def test_broadcast_excludes_self(self):
        sim = NetworkSimulator()
        counts = {S1: 0, S2: 0, S3: 0}
        for server in counts:
            sim.register(server, lambda s, e, srv=server: counts.__setitem__(srv, counts[srv] + 1))
        transport = SimTransport(sim, S1)
        transport.broadcast([S1, S2, S3], envelope())
        sim.run_until_idle()
        assert counts == {S1: 0, S2: 1, S3: 1}

    def test_schedule_delegates(self):
        sim = NetworkSimulator()
        sim.register(S1, lambda s, e: None)
        transport = SimTransport(sim, S1)
        fired = []
        transport.schedule(1.0, lambda: fired.append(True))
        sim.run_until_idle()
        assert fired == [True]


class TestRevocableTransport:
    def _wrapped(self):
        sim = NetworkSimulator(latency=FixedLatency(1.0))
        received = []
        sim.register(S1, lambda s, e: None)
        sim.register(S2, lambda s, e: received.append(s))
        sim.register(S3, lambda s, e: received.append(s))
        return sim, received, RevocableTransport(SimTransport(sim, S1))

    def test_passes_everything_through_until_revoked(self):
        sim, received, transport = self._wrapped()
        fired = []
        transport.send(S2, envelope())
        transport.broadcast([S1, S2, S3], envelope())
        transport.schedule(0.5, lambda: fired.append(transport.now))
        sim.run_until_idle()
        assert transport.self_id == S1 and not transport.revoked
        assert sorted(received) == [S1, S1, S1]
        assert fired == [pytest.approx(0.5)]
        assert sim.metrics.messages == 3

    def test_revoked_sends_nothing_and_schedules_nothing(self):
        # A crashed incarnation's FWD retry timers may still fire; what
        # they try to send or schedule goes nowhere.
        sim, received, transport = self._wrapped()
        fired = []
        transport.schedule(1.0, lambda: transport.send(S2, envelope()))
        transport.revoke()
        transport.send(S2, envelope())
        transport.broadcast([S2, S3], envelope())
        transport.schedule(0.5, lambda: fired.append(True))
        sim.run_until_idle()
        assert transport.revoked
        assert received == [] and fired == []
        assert sim.metrics.messages == 0

    def test_every_correct_server_is_wrapped(self):
        from repro.protocols.brb import brb_protocol
        from repro.runtime.cluster import Cluster

        cluster = Cluster(brb_protocol, n=4)
        assert not cluster.faults
        for server in cluster.servers:
            assert isinstance(cluster.shim(server).gossip.transport, RevocableTransport)
