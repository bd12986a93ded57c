"""Unit tests for phase-king consensus, stepped directly.

The round discipline is driven by explicit PkAdvance requests; these
tests play the synchronous scheduler by delivering all round messages
before advancing every process.
"""

import pytest

from repro.protocols.base import Message
from repro.protocols.phaseking import (
    PkAdvance,
    PkDecide,
    PkPropose,
    PkValue,
    phase_king_protocol,
)
from repro.types import Label, make_servers

L = Label("c")


def make_processes(n):
    servers = make_servers(n)
    return servers, {s: phase_king_protocol.create(servers, s, L) for s in servers}


def run_synchronous(processes, proposals, byzantine=None, max_phases=None):
    """Lock-step scheduler: propose, then alternate deliver-all /
    advance-all until every correct process decides.

    ``byzantine`` maps a server to a function(receiver, phase, round) →
    value, replacing its honest messages."""
    byzantine = byzantine or {}
    servers = list(processes)
    correct = [s for s in servers if s not in byzantine]
    in_flight = []
    for server, value in proposals.items():
        if server in byzantine:
            continue
        result = processes[server].step_request(PkPropose(value))
        in_flight.extend(result.messages)
    decisions = {}
    f = processes[correct[0]].f
    rounds_total = 2 * (f + 1)
    for _ in range(rounds_total):
        # Deliver all in-flight round messages (correct senders), and
        # synthesize byzantine messages.
        for message in in_flight:
            if message.receiver in byzantine:
                continue
            processes[message.receiver].step_message(message)
        current_phase = max(p.phase for s, p in processes.items() if s in correct)
        current_round = max(p.round for s, p in processes.items() if s in correct)
        for bad, strategy in byzantine.items():
            for receiver in correct:
                value = strategy(receiver, current_phase, current_round)
                if value is None:
                    continue
                processes[receiver].step_message(
                    Message(bad, receiver, PkValue(current_phase, current_round, value))
                )
        in_flight = []
        # Advance every correct process.
        for server in correct:
            result = processes[server].step_request(PkAdvance())
            in_flight.extend(result.messages)
            for indication in result.indications:
                decisions[server] = indication
    return decisions


class TestBasics:
    def test_fault_budget_quarter(self):
        servers, processes = make_processes(5)
        assert processes[servers[0]].f == 1
        servers, processes = make_processes(9)
        assert processes[servers[0]].f == 2

    def test_king_rotates(self):
        servers, processes = make_processes(5)
        process = processes[servers[0]]
        assert process.king_of(1) == servers[0]
        assert process.king_of(2) == servers[1]

    def test_propose_broadcasts_round1(self):
        servers, processes = make_processes(5)
        result = processes[servers[0]].step_request(PkPropose(1))
        assert [m.payload for m in result.messages] == [PkValue(1, 1, 1)] * 5

    def test_propose_only_once(self):
        servers, processes = make_processes(5)
        process = processes[servers[0]]
        process.step_request(PkPropose(1))
        assert process.step_request(PkPropose(0)).messages == ()

    def test_advance_before_propose_is_noop(self):
        servers, processes = make_processes(5)
        result = processes[servers[0]].step_request(PkAdvance())
        assert result.messages == ()

    def test_a_request_no_correct_user_makes_is_ignored(self):
        servers, processes = make_processes(5)
        process = processes[servers[0]]
        ignored = process.step_request(object())
        assert ignored.messages == ignored.indications == ()
        assert len(process.step_request(PkPropose(1)).messages) == 5

    def test_foreign_payload_rejected(self):
        servers, processes = make_processes(5)
        with pytest.raises(TypeError):
            processes[servers[0]].step_message(
                Message(servers[1], servers[0], object())
            )

    def test_first_value_per_sender_counts(self):
        servers, processes = make_processes(5)
        process = processes[servers[0]]
        process.step_request(PkPropose(0))
        process.step_message(Message(servers[1], servers[0], PkValue(1, 1, 1)))
        process.step_message(Message(servers[1], servers[0], PkValue(1, 1, 0)))
        assert process._received[(1, 1)][servers[1]] == 1


class TestAgreementAndValidity:
    def test_unanimous_start_decides_that_value(self):
        servers, processes = make_processes(5)
        decisions = run_synchronous(processes, {s: 1 for s in servers})
        assert set(decisions) == set(servers)
        assert all(d == PkDecide(1) for d in decisions.values())

    def test_mixed_start_reaches_agreement(self):
        servers, processes = make_processes(5)
        proposals = {s: (1 if i % 2 == 0 else 0) for i, s in enumerate(servers)}
        decisions = run_synchronous(processes, proposals)
        values = {d.value for d in decisions.values()}
        assert len(values) == 1

    def test_agreement_with_byzantine_flipflopper(self):
        # n=9, f=2: two byzantine servers send value 1 to odd receivers
        # and 0 to even receivers, every round.
        servers, processes = make_processes(9)
        bad = {servers[-1], servers[-2]}

        def flipflop(receiver, phase, round):
            return 1 if int(receiver[1:]) % 2 else 0

        proposals = {s: (1 if i < 4 else 0) for i, s in enumerate(servers)}
        decisions = run_synchronous(
            processes,
            proposals,
            byzantine={b: flipflop for b in bad},
        )
        correct = [s for s in servers if s not in bad]
        assert set(decisions) == set(correct)
        values = {decisions[s].value for s in correct}
        assert len(values) == 1

    def test_validity_with_byzantine_dissent(self):
        # All correct start with 1; byzantine pushes 0; decision must be 1.
        servers, processes = make_processes(5)
        bad = servers[-1]
        proposals = {s: 1 for s in servers}
        decisions = run_synchronous(
            processes,
            proposals,
            byzantine={bad: lambda r, p, rnd: 0},
        )
        correct = [s for s in servers if s != bad]
        assert all(decisions[s] == PkDecide(1) for s in correct)

    def test_silent_byzantine_king(self):
        # The phase-1 king (servers[0]) stays silent; agreement still
        # holds because a later phase has a correct king.
        servers, processes = make_processes(5)
        bad = servers[0]
        proposals = {s: (1 if i % 2 else 0) for i, s in enumerate(servers)}
        decisions = run_synchronous(
            processes,
            proposals,
            byzantine={bad: lambda r, p, rnd: None},  # never sends
        )
        correct = [s for s in servers if s != bad]
        values = {decisions[s].value for s in correct}
        assert len(values) == 1

    def test_decides_exactly_once(self):
        servers, processes = make_processes(5)
        decisions = run_synchronous(processes, {s: 1 for s in servers})
        process = processes[servers[0]]
        assert process.decided
        # Further advances do nothing.
        assert process.step_request(PkAdvance()).indications == ()
