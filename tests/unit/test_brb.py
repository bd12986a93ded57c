"""Unit tests for byzantine reliable broadcast (Algorithm 4), stepped directly."""

import pytest

from repro.invariants import agreement
from repro.protocols.base import Message
from repro.protocols.brb import Broadcast, Deliver, Echo, Ready, brb_protocol
from repro.runtime.cluster import Cluster
from repro.runtime.faults import ByzantineFault, FaultSchedule
from repro.types import Label, make_servers

SERVERS = make_servers(4)
S1, S2, S3, S4 = SERVERS
L = Label("l")


def instance(self_id=S1):
    return brb_protocol.create(SERVERS, self_id, L)


def payloads(result):
    return [m.payload for m in result.messages]


class TestBroadcastRequest:
    def test_broadcast_sends_echo_to_all(self):
        result = instance().step_request(Broadcast(42))
        assert payloads(result) == [Echo(42)] * 4
        assert {m.receiver for m in result.messages} == set(SERVERS)

    def test_broadcast_only_once(self):
        process = instance()
        process.step_request(Broadcast(42))
        again = process.step_request(Broadcast(43))
        assert again.messages == ()

    @pytest.mark.parametrize("request_", [object(), "junk", Broadcast([1, 2])])
    def test_a_request_no_correct_user_makes_is_ignored(self, request_):
        process = instance()
        ignored = process.step_request(request_)
        assert ignored.messages == ignored.indications == ()
        assert payloads(process.step_request(Broadcast(42))) == [Echo(42)] * 4


class TestEchoPhase:
    def test_first_echo_amplifies(self):
        process = instance(S2)
        result = process.step_message(Message(S1, S2, Echo(42)))
        assert payloads(result) == [Echo(42)] * 4

    def test_echo_amplifies_at_most_once(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, Echo(42)))
        result = process.step_message(Message(S3, S2, Echo(42)))
        assert Echo(42) not in payloads(result)

    def test_quorum_echoes_trigger_ready(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, Echo(42)))
        process.step_message(Message(S3, S2, Echo(42)))
        result = process.step_message(Message(S4, S2, Echo(42)))
        assert Ready(42) in payloads(result)

    def test_echoes_counted_per_value(self):
        # 2 echoes for 42 and 1 for 43 must not make a quorum.
        process = instance(S2)
        process.step_message(Message(S1, S2, Echo(42)))
        process.step_message(Message(S3, S2, Echo(42)))
        result = process.step_message(Message(S4, S2, Echo(43)))
        assert Ready(42) not in payloads(result)
        assert Ready(43) not in payloads(result)

    def test_duplicate_echo_senders_not_double_counted(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, Echo(42)))
        process.step_message(Message(S1, S2, Echo(42)))
        result = process.step_message(Message(S1, S2, Echo(42)))
        assert Ready(42) not in payloads(result)

    def test_foreign_payload_rejected(self):
        process = instance(S2)
        with pytest.raises(TypeError):
            process.step_message(Message(S1, S2, object()))


class TestReadyPhaseAndDelivery:
    def _ready(self, process, senders, value=42):
        last = None
        for sender in senders:
            last = process.step_message(Message(sender, process.ctx.self_id, Ready(value)))
        return last

    def test_f_plus_1_readies_amplify(self):
        process = instance(S2)
        result = self._ready(process, [S1, S3])  # f+1 = 2
        assert Ready(42) in payloads(result)

    def test_single_ready_does_not_amplify(self):
        process = instance(S2)
        result = self._ready(process, [S1])
        assert result.messages == ()

    def test_quorum_readies_deliver(self):
        process = instance(S2)
        result = self._ready(process, [S1, S3, S4])  # 2f+1 = 3
        assert result.indications == (Deliver(42),)

    def test_no_duplicate_delivery(self):
        process = instance(S2)
        self._ready(process, [S1, S3, S4])
        result = self._ready(process, [S1, S3, S4])
        assert result.indications == ()

    def test_ready_amplification_only_once(self):
        process = instance(S2)
        self._ready(process, [S1, S3], value=42)
        result = self._ready(process, [S1, S3], value=43)
        assert Ready(43) not in payloads(result)


class TestFullProtocolRun:
    def test_four_correct_processes_deliver(self):
        """Hand-run the full message exchange among 4 processes."""
        processes = {s: instance(s) for s in SERVERS}
        in_flight = list(processes[S1].step_request(Broadcast("v")).messages)
        delivered = {}
        steps = 0
        while in_flight and steps < 1000:
            message = in_flight.pop(0)
            result = processes[message.receiver].step_message(message)
            in_flight.extend(result.messages)
            for indication in result.indications:
                delivered[message.receiver] = indication
            steps += 1
        assert delivered == {s: Deliver("v") for s in SERVERS}

    def test_delivery_without_sender_participation(self):
        """The sender crashes right after echoing — others still deliver
        (totality with n - 1 = 3 ⩾ 2f+1 live processes)."""
        live = {s: instance(s) for s in (S2, S3, S4)}
        initial = instance(S1).step_request(Broadcast("v")).messages
        in_flight = [m for m in initial if m.receiver != S1]
        delivered = set()
        steps = 0
        while in_flight and steps < 1000:
            message = in_flight.pop(0)
            if message.receiver == S1:
                steps += 1
                continue  # crashed
            result = live[message.receiver].step_message(message)
            in_flight.extend(result.messages)
            delivered.update(
                message.receiver for i in result.indications if isinstance(i, Deliver)
            )
            steps += 1
        assert delivered == {S2, S3, S4}


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
        cluster = Cluster(
            brb_protocol,
            servers=SERVERS,
            faults=FaultSchedule((ByzantineFault(S4, "equivocator"),)),
        )
        adversary = cluster.adversaries[S4]
        adversary.request(L, Broadcast("left"))
        adversary.fork_request(L, Broadcast("right"))
        cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)
        assert agreement(cluster.trace(), L) == []  # consistency
        delivered = self._delivered(cluster)
        assert all(len(i) == 1 for i in delivered.values())  # totality + no dup
