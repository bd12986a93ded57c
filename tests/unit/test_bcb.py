"""Unit tests for byzantine consistent broadcast (authenticated echo)."""

import pytest

from repro.protocols.base import Message
from repro.protocols.bcb import (
    BcbBroadcast,
    BcbDeliver,
    BcbEcho,
    Send,
    bcb_protocol,
)
from repro.types import Label, make_servers

SERVERS = make_servers(4)
S1, S2, S3, S4 = SERVERS
L = Label("l")


def instance(self_id=S1):
    return bcb_protocol.create(SERVERS, self_id, L)


def payloads(result):
    return [m.payload for m in result.messages]


class TestSendPhase:
    def test_broadcast_sends_send_to_all(self):
        result = instance().step_request(BcbBroadcast("v"))
        assert payloads(result) == [Send("v")] * 4

    def test_broadcast_only_once(self):
        process = instance()
        process.step_request(BcbBroadcast("v"))
        assert process.step_request(BcbBroadcast("w")).messages == ()

    @pytest.mark.parametrize("request_", [object(), BcbBroadcast([1])])
    def test_a_request_no_correct_user_makes_is_ignored(self, request_):
        process = instance()
        ignored = process.step_request(request_)
        assert ignored.messages == ignored.indications == ()
        assert payloads(process.step_request(BcbBroadcast("v"))) == [Send("v")] * 4


class TestEchoPhase:
    def test_send_triggers_echo_naming_origin(self):
        process = instance(S2)
        result = process.step_message(Message(S1, S2, Send("v")))
        assert payloads(result) == [BcbEcho(S1, "v")] * 4

    def test_echo_at_most_once_per_origin(self):
        # An equivocating origin gets one echo only — the consistency core.
        process = instance(S2)
        process.step_message(Message(S1, S2, Send("v")))
        result = process.step_message(Message(S1, S2, Send("w")))
        assert result.messages == ()

    def test_different_origins_echoed_independently(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, Send("v")))
        result = process.step_message(Message(S3, S2, Send("u")))
        assert BcbEcho(S3, "u") in payloads(result)


class TestDelivery:
    def _echo(self, process, senders, origin=S1, value="v"):
        last = None
        for sender in senders:
            last = process.step_message(
                Message(sender, process.ctx.self_id, BcbEcho(origin, value))
            )
        return last

    def test_quorum_echoes_deliver(self):
        process = instance(S2)
        result = self._echo(process, [S1, S3, S4])
        assert result.indications == (BcbDeliver(S1, "v"),)

    def test_sub_quorum_does_not_deliver(self):
        process = instance(S2)
        result = self._echo(process, [S1, S3])
        assert result.indications == ()

    def test_no_duplicate_delivery(self):
        process = instance(S2)
        self._echo(process, [S1, S3, S4])
        result = self._echo(process, [S1, S3, S4])
        assert result.indications == ()

    def test_echoes_counted_per_origin_value_pair(self):
        process = instance(S2)
        self._echo(process, [S1, S3], value="v")
        result = self._echo(process, [S4], value="w")
        assert result.indications == ()

    def test_foreign_payload_rejected(self):
        with pytest.raises(TypeError):
            instance(S2).step_message(Message(S1, S2, object()))


class TestConsistencyScenario:
    def test_equivocating_sender_cannot_split_delivery(self):
        """ˇS1 sends 'v' to half and 'w' to the other half: no value can
        reach a 2f+1 echo quorum, so nobody delivers anything — which is
        consistent (BCB forfeits totality, never consistency)."""
        processes = {s: instance(s) for s in (S2, S3, S4)}
        # ˇS1 equivocates: S2 gets v, S3 gets w, S4 gets v.
        sends = {S2: "v", S3: "w", S4: "v"}
        in_flight = []
        for receiver, value in sends.items():
            result = processes[receiver].step_message(
                Message(S1, receiver, Send(value))
            )
            in_flight.extend(m for m in result.messages if m.receiver != S1)
        delivered = []
        steps = 0
        while in_flight and steps < 1000:
            message = in_flight.pop(0)
            result = processes[message.receiver].step_message(message)
            in_flight.extend(m for m in result.messages if m.receiver != S1)
            delivered.extend(result.indications)
            steps += 1
        # 2 echoes for (S1, v) and 1 for (S1, w): quorum is 3, so no
        # correct process delivers — and certainly no two deliver
        # different values.
        values = {d.value for d in delivered}
        assert len(values) <= 1
