"""The replicated append-only ledger protocol (growing-state workload)."""

import pytest

from repro.interpret.interpreter import Interpreter
from repro.protocols.base import Context, Message
from repro.protocols.ledger import (
    _BUCKET_SIZE,
    Append,
    Applied,
    Entry,
    Ledger,
    ledger_protocol,
)
from repro.types import Label, ServerId, make_servers

from helpers import ManualDagBuilder

SERVERS = make_servers(4)
L = Label("ledger")


def instance(self_id="s1") -> Ledger:
    return Ledger(Context(SERVERS, ServerId(self_id), L))


def entry(value, sender="s2", receiver="s1") -> Message:
    return Message(ServerId(sender), ServerId(receiver), Entry(value, 0))


class TestLedger:
    def test_append_broadcasts_entry(self):
        led = instance()
        result = led.step_request(Append(7))
        assert len(result.messages) == len(SERVERS)
        assert all(m.payload == Entry(7, 0) for m in result.messages)

    def test_apply_indicates_sequence(self):
        led = instance()
        for i, value in enumerate((5, 6, 7)):
            result = led.step_message(entry(value))
            assert result.indications == (Applied(i, value),)
        assert led.count == 3
        assert led.entries() == [5, 6, 7]

    def test_bucketing_boundaries(self):
        led = instance()
        total = 2 * _BUCKET_SIZE + 3
        for i in range(total):
            led.step_message(entry(i))
        assert sorted(led._buckets) == [0, 1, 2]
        assert [len(led._buckets[i]) for i in sorted(led._buckets)] == [
            _BUCKET_SIZE, _BUCKET_SIZE, 3,
        ]
        assert led.entries() == list(range(total))

    def test_ignores_foreign_requests_and_rejects_foreign_messages(self):
        led = instance()
        ignored = led.step_request(object())
        assert ignored.messages == ignored.indications == ()
        with pytest.raises(TypeError):
            led.step_message(
                Message(ServerId("s2"), ServerId("s1"), Append(1))
            )

    def test_fork_shares_untouched_buckets(self):
        led = instance()
        for i in range(_BUCKET_SIZE + 1):  # buckets 0 (full) and 1
            led.step_message(entry(i))
        clone = led.fork()
        clone.step_message(entry(99))
        # Bucket 1 copied for the clone; bucket 0 still shared.
        assert clone._buckets[0] is led._buckets[0]
        assert clone._buckets[1] is not led._buckets[1]
        assert led.count == _BUCKET_SIZE + 1
        assert clone.count == _BUCKET_SIZE + 2


class TestEmbedded:
    def test_all_replicas_converge(self):
        builder = ManualDagBuilder(4)
        for r in range(3):
            rs_for = {
                s: [(L, Append(r * 4 + i))]
                for i, s in enumerate(builder.servers)
            }
            builder.round_all(rs_for=rs_for)
        builder.round_all()  # flush the last layer's entries
        interp = Interpreter(builder.dag, ledger_protocol, builder.servers)
        interp.run()
        # Lemma 4.2 specialization: every server's tip annotation holds
        # the same applied sequence for the shared instance.
        sequences = set()
        for server in builder.servers:
            tip = builder.dag.tip(server)
            ledger = interp.state_of(tip.ref).pis[L]
            sequences.add(tuple(ledger.entries()))
        assert len(sequences) == 1
        (sequence,) = sequences
        assert len(sequence) == 12
