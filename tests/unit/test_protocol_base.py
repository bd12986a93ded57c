"""Unit tests for the deterministic protocol interface."""

import copy

import pytest

from repro.protocols.base import Context, Message, ProtocolSpec, StepResult, Trace
from repro.protocols.counter import Add, CounterProtocol, Inc, Total, counter_protocol
from repro.types import Label, make_servers, max_faults, quorum_size

SERVERS = make_servers(4)
S1, S2 = SERVERS[0], SERVERS[1]
L = Label("l")


class TestContext:
    def _ctx(self, n=4):
        return Context(make_servers(n), S1, L)

    def test_system_constants(self):
        ctx = self._ctx(4)
        assert ctx.n == 4
        assert ctx.f == 1
        assert ctx.quorum == 3

    @pytest.mark.parametrize("n", range(1, 14))
    def test_constants_fixed_at_construction(self, n):
        ctx = self._ctx(n)
        assert ctx.n == n
        assert ctx.f == max_faults(n)
        assert ctx.quorum == quorum_size(n)

    def test_send_records_message(self):
        ctx = self._ctx()
        ctx.send(S2, Add(1, 0))
        result = ctx._drain()
        assert result.messages == (Message(S1, S2, Add(1, 0)),)

    def test_broadcast_includes_self(self):
        ctx = self._ctx()
        ctx.broadcast(Add(1, 0))
        result = ctx._drain()
        assert len(result.messages) == 4
        assert {m.receiver for m in result.messages} == set(SERVERS)
        assert all(m.sender == S1 for m in result.messages)

    def test_indicate_records(self):
        ctx = self._ctx()
        ctx.indicate(Total(5))
        result = ctx._drain()
        assert result.indications == (Total(5),)

    def test_drain_resets(self):
        ctx = self._ctx()
        ctx.send(S2, Add(1, 0))
        ctx._drain()
        assert ctx._drain() == StepResult()

    def test_silent_step_then_emitting_step(self):
        ctx = self._ctx()
        assert ctx._drain() == StepResult()
        ctx.send(S2, Add(1, 0))
        ctx.indicate(Total(1))
        assert ctx._drain() == StepResult(
            (Message(S1, S2, Add(1, 0)),), (Total(1),)
        )
        assert ctx._drain() == StepResult()
        ctx.send(S2, Add(2, 0))
        assert ctx._drain() == StepResult((Message(S1, S2, Add(2, 0)),))

    def test_no_clock_no_randomness_surface(self):
        # The determinism contract: the context exposes nothing ambient.
        ctx = self._ctx()
        exposed = [a for a in dir(ctx) if not a.startswith("_")]
        assert set(exposed) == {
            "broadcast",
            "f",
            "indicate",
            "label",
            "n",
            "quorum",
            "self_id",
            "send",
            "servers",
        }


class TestProcessInstance:
    def test_step_request_returns_triggered_messages(self):
        spec = counter_protocol
        instance = spec.create(SERVERS, S1, L)
        result = instance.step_request(Inc(5))
        assert len(result.messages) == 4
        assert result.indications == ()

    def test_step_message_checks_receiver(self):
        instance = counter_protocol.create(SERVERS, S1, L)
        wrong = Message(S2, S2, Add(1, 0))
        with pytest.raises(ValueError):
            instance.step_message(wrong)

    def test_instances_are_deepcopyable(self):
        instance = counter_protocol.create(SERVERS, S1, L)
        instance.step_message(Message(S2, S1, Add(3, 0)))
        clone = copy.deepcopy(instance)
        clone.step_message(Message(S2, S1, Add(4, 0)))
        assert instance.total == 3
        assert clone.total == 7

    def test_determinism_same_inputs_same_outputs(self):
        a = counter_protocol.create(SERVERS, S1, L)
        b = counter_protocol.create(SERVERS, S1, L)
        inputs = [Message(S2, S1, Add(i, 0)) for i in (5, 3, 8)]
        outs_a = [a.step_message(m) for m in inputs]
        outs_b = [b.step_message(m) for m in inputs]
        assert outs_a == outs_b
        assert a.total == b.total


class TestProtocolSpec:
    def test_create_binds_identity(self):
        instance = counter_protocol.create(SERVERS, S2, L)
        assert instance.ctx.self_id == S2
        assert instance.ctx.label == L
        assert instance.ctx.servers == tuple(SERVERS)

    def test_custom_factory(self):
        spec = ProtocolSpec(name="custom", factory=CounterProtocol)
        assert spec.create(SERVERS, S1, L).total == 0


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record(S1, L, Total(1))
        trace.record(S1, Label("other"), Total(2))
        assert trace.at(S1) == [(L, Total(1)), (Label("other"), Total(2))]
        assert trace.per_label(S1, L) == [Total(1)]
        assert trace.at(S2) == []
