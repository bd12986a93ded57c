"""Unit tests for the simplified PBFT black box, stepped directly."""

import pytest

from repro.protocols.base import Message
from repro.protocols.pbft import (
    Commit,
    Decide,
    NewView,
    PrePrepare,
    Prepare,
    Propose,
    Tick,
    ViewChange,
    pbft_protocol_with_timeout,
)
from repro.types import Label, make_servers

SERVERS = make_servers(4)
S1, S2, S3, S4 = SERVERS
L = Label("slot")


def instance(self_id=S1, timeout=3):
    return pbft_protocol_with_timeout(timeout).create(SERVERS, self_id, L)


def payloads(result):
    return [m.payload for m in result.messages]


def run_exchange(processes, initial_messages, max_steps=5000):
    """Deliver messages among processes until quiescence; returns the
    indications per server."""
    in_flight = list(initial_messages)
    indications = {s: [] for s in processes}
    steps = 0
    while in_flight and steps < max_steps:
        message = in_flight.pop(0)
        target = processes.get(message.receiver)
        steps += 1
        if target is None:
            continue
        result = target.step_message(message)
        in_flight.extend(result.messages)
        indications[message.receiver].extend(result.indications)
    assert steps < max_steps, "message exchange did not quiesce"
    return indications


class TestLeaderPath:
    def test_leader_of_view_rotates(self):
        process = instance()
        assert process.leader_of(0) == S1
        assert process.leader_of(1) == S2
        assert process.leader_of(4) == S1

    def test_leader_proposes_on_request(self):
        result = instance(S1).step_request(Propose("A"))
        assert PrePrepare(0, "A") in payloads(result)

    def test_non_leader_stores_but_does_not_propose(self):
        result = instance(S2).step_request(Propose("B"))
        assert result.messages == ()

    def test_leader_proposes_once_per_view(self):
        process = instance(S1)
        process.step_request(Propose("A"))
        assert process.step_request(Propose("B")).messages == ()

    def test_preprepare_triggers_prepare(self):
        process = instance(S2)
        result = process.step_message(Message(S1, S2, PrePrepare(0, "A")))
        assert Prepare(0, "A") in payloads(result)

    def test_preprepare_from_non_leader_ignored(self):
        process = instance(S2)
        result = process.step_message(Message(S3, S2, PrePrepare(0, "A")))
        assert result.messages == ()

    def test_second_preprepare_in_view_ignored(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, PrePrepare(0, "A")))
        result = process.step_message(Message(S1, S2, PrePrepare(0, "B")))
        assert result.messages == ()

    def test_prepare_quorum_triggers_commit(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, PrePrepare(0, "A")))
        process.step_message(Message(S1, S2, Prepare(0, "A")))
        process.step_message(Message(S3, S2, Prepare(0, "A")))
        # Own prepare (self-delivered) completes the quorum of 3.
        result = process.step_message(Message(S2, S2, Prepare(0, "A")))
        assert Commit(0, "A") in payloads(result)
        assert process.prepared_view == 0
        assert process.prepared_value == "A"

    def test_commit_quorum_decides(self):
        process = instance(S2)
        process.step_message(Message(S1, S2, Commit(0, "A")))
        process.step_message(Message(S3, S2, Commit(0, "A")))
        result = process.step_message(Message(S4, S2, Commit(0, "A")))
        assert result.indications == (Decide("A"),)
        assert process.done

    def test_decide_only_once(self):
        process = instance(S2)
        for sender in (S1, S3, S4):
            process.step_message(Message(sender, S2, Commit(0, "A")))
        result = process.step_message(Message(S2, S2, Commit(0, "A")))
        assert result.indications == ()


class TestHappyPathExchange:
    def test_all_decide_leaders_value(self):
        processes = {s: instance(s) for s in SERVERS}
        initial = processes[S1].step_request(Propose("A")).messages
        indications = run_exchange(processes, initial)
        for server in SERVERS:
            assert indications[server] == [Decide("A")]

    def test_agreement_with_competing_proposals(self):
        processes = {s: instance(s) for s in SERVERS}
        initial = list(processes[S1].step_request(Propose("A")).messages)
        initial += processes[S2].step_request(Propose("B")).messages
        indications = run_exchange(processes, initial)
        decided = {i.value for ind in indications.values() for i in ind}
        assert decided == {"A"}  # leader of view 0 wins


class TestViewChange:
    def test_ticks_below_timeout_do_nothing(self):
        process = instance(S2, timeout=3)
        process.step_request(Tick())
        result = process.step_request(Tick())
        assert result.messages == ()

    def test_timeout_votes_view_change(self):
        process = instance(S2, timeout=2)
        process.step_request(Tick())
        result = process.step_request(Tick())
        assert any(isinstance(p, ViewChange) for p in payloads(result))
        assert process.view == 1

    def test_viewchange_carries_prepared_certificate(self):
        process = instance(S2, timeout=1)
        process.step_message(Message(S1, S2, PrePrepare(0, "A")))
        for sender in (S1, S3, S2):
            process.step_message(Message(sender, S2, Prepare(0, "A")))
        result = process.step_request(Tick())
        vcs = [p for p in payloads(result) if isinstance(p, ViewChange)]
        assert vcs and vcs[0].prepared_view == 0 and vcs[0].prepared_value == "A"

    def test_join_on_f_plus_1_viewchanges(self):
        process = instance(S3, timeout=100)  # own timer won't fire
        process.step_message(Message(S1, S3, ViewChange(1, -1, None)))
        result = process.step_message(Message(S2, S3, ViewChange(1, -1, None)))
        assert process.view == 1
        assert any(isinstance(p, ViewChange) for p in payloads(result))

    def test_new_leader_reproposes_prepared_value(self):
        # View 1's leader is S2; it must adopt the highest prepared cert.
        process = instance(S2, timeout=1)
        process.pending = "OWN"
        process.step_request(Propose("OWN"))
        process.step_request(Tick())  # moves to view 1, votes
        process.step_message(Message(S1, S2, ViewChange(1, 0, "PREP")))
        result = process.step_message(Message(S3, S2, ViewChange(1, -1, None)))
        newviews = {p for p in payloads(result) if isinstance(p, NewView)}
        assert newviews == {NewView(1, "PREP")}

    def test_new_leader_falls_back_to_pending(self):
        process = instance(S2, timeout=1)
        process.step_request(Propose("MINE"))
        process.step_request(Tick())
        process.step_message(Message(S1, S2, ViewChange(1, -1, None)))
        result = process.step_message(Message(S3, S2, ViewChange(1, -1, None)))
        newviews = {p for p in payloads(result) if isinstance(p, NewView)}
        assert newviews == {NewView(1, "MINE")}

    def test_newview_acts_as_preprepare(self):
        process = instance(S3)
        result = process.step_message(Message(S2, S3, NewView(1, "X")))
        assert Prepare(1, "X") in payloads(result)
        assert process.view == 1

    def test_newview_from_wrong_leader_ignored(self):
        process = instance(S3)
        result = process.step_message(Message(S4, S3, NewView(1, "X")))
        assert result.messages == ()

    def test_silent_leader_recovery_end_to_end(self):
        """Leader S1 is silent; ticks drive everyone into view 1 whose
        leader S2 proposes its pending value; all correct decide."""
        live = {s: instance(s, timeout=2) for s in (S2, S3, S4)}
        for process in live.values():
            process.step_request(Propose("B"))
        in_flight = []
        for process in live.values():
            for _ in range(2):
                result = process.step_request(Tick())
                in_flight.extend(m for m in result.messages if m.receiver != S1)
        indications = {s: [] for s in live}
        steps = 0
        while in_flight and steps < 5000:
            message = in_flight.pop(0)
            steps += 1
            if message.receiver not in live:
                continue
            result = live[message.receiver].step_message(message)
            in_flight.extend(m for m in result.messages if m.receiver != S1)
            indications[message.receiver].extend(result.indications)
        for server, inds in indications.items():
            assert inds == [Decide("B")], f"{server} decided {inds}"


class TestSafetyAcrossViews:
    def test_prepared_value_survives_view_change(self):
        """If a value prepared in view 0, the view-1 leader must re-propose
        it, not its own — the PBFT safety core."""
        leader1 = instance(S2, timeout=1)
        leader1.step_request(Propose("LEADER1-OWN"))
        # S2 prepared "A" in view 0:
        leader1.step_message(Message(S1, S2, PrePrepare(0, "A")))
        for sender in (S1, S2, S3):
            leader1.step_message(Message(sender, S2, Prepare(0, "A")))
        assert leader1.prepared_value == "A"
        # Timeout, then quorum of view changes (S2's own + two others).
        leader1.step_request(Tick())
        leader1.step_message(Message(S3, S2, ViewChange(1, -1, None)))
        result = leader1.step_message(Message(S4, S2, ViewChange(1, -1, None)))
        newviews = {p for p in payloads(result) if isinstance(p, NewView)}
        assert newviews == {NewView(1, "A")}

    def test_a_request_no_correct_user_makes_is_ignored(self):
        process = instance()
        ignored = process.step_request(object())
        assert ignored.messages == ignored.indications == ()
        assert payloads(process.step_request(Propose("A"))) == [PrePrepare(0, "A")] * 4

    def test_foreign_payload_rejected(self):
        with pytest.raises(TypeError):
            instance(S2).step_message(Message(S1, S2, object()))
