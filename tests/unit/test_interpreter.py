"""Unit tests for Algorithm 2 — the interpreter's exact semantics.

These drive the interpreter over hand-built DAGs (no network) and
assert on the per-block annotations ``Ms``/``PIs`` the paper defines.
"""

import heapq
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.dag import codec
from repro.dag.blockdag import BlockDag
from repro.dag.digraph import Digraph
from repro.errors import SimulationError
from repro.interpret import order
from repro.interpret.instance import snapshot_instance
from repro.interpret import interpreter as interpreter_module
from repro.interpret.interpreter import Interpreter
from repro.protocols.base import Message, ProcessInstance
from repro.protocols.brb import Broadcast, Deliver, Echo, brb_protocol
from repro.protocols.counter import Add, Inc, Total, counter_protocol
from repro.protocols.ledger import Append, Entry, ledger_protocol
from repro.storage.state_codec import annotation_fingerprint
from repro.types import Label, ServerId

from helpers import ManualDagBuilder, fresh_interpreter
from reference import ReferenceInterpreter

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))
L = Label("l")


class TestRequestProcessing:
    """Algorithm 2 lines 5–6."""

    def test_request_produces_out_messages(self, dag_builder):
        block = dag_builder.block(S1, rs=[(L, Inc(5))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        out = interp.state_of(block.ref).ms.outgoing(L)
        # Broadcast ⇒ one Add(5) per server, sender is the builder.
        assert len(out) == 4
        assert all(m.payload == Add(5, 0) for m in out)
        assert all(m.sender == S1 for m in out)
        assert {m.receiver for m in out} == set(dag_builder.servers)

    def test_lemma_a14_sender_is_builder(self, dag_builder):
        block = dag_builder.block(S2, rs=[(L, Inc(1))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        for message in interp.state_of(block.ref).ms.outgoing(L):
            assert message.sender == S2

    def test_multiple_requests_in_one_block(self, dag_builder):
        block = dag_builder.block(S1, rs=[(L, Inc(1)), (L, Inc(2))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        out = interp.state_of(block.ref).ms.outgoing(L)
        assert len(out) == 8  # two broadcasts of 4

    def test_requests_for_different_labels(self, dag_builder):
        other = Label("other")
        block = dag_builder.block(S1, rs=[(L, Inc(1)), (other, Inc(2))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        state = interp.state_of(block.ref)
        assert len(state.ms.outgoing(L)) == 4
        assert len(state.ms.outgoing(other)) == 4


class TestMessageDelivery:
    """Algorithm 2 lines 7–11."""

    def test_delivery_over_direct_edge(self, dag_builder):
        source = dag_builder.block(S1, rs=[(L, Inc(5))])
        sink = dag_builder.block(S2, refs=[source])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        incoming = interp.state_of(sink.ref).ms.incoming(L)
        assert len(incoming) == 1
        assert incoming[0].payload == Add(5, 0)
        assert incoming[0].receiver == S2

    def test_no_delivery_without_direct_edge(self, dag_builder):
        # Messages travel along *direct* predecessor edges only; a
        # transitive reference does not deliver (the correct builder
        # will reference the block directly in some own block instead —
        # Lemma A.8 keeps this complete).
        source = dag_builder.block(S1, rs=[(L, Inc(5))])
        middle = dag_builder.block(S3, refs=[source])
        sink = dag_builder.block(S2, refs=[middle])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        incoming = interp.state_of(sink.ref).ms.incoming(L)
        # Only s3's relayed Add (s3's process received and re-emitted
        # nothing for counter; incoming at sink is what middle *sent*).
        assert all(m.sender == S3 for m in incoming)

    def test_self_delivery_at_next_own_block(self, dag_builder):
        first = dag_builder.block(S1, rs=[(L, Inc(5))])
        second = dag_builder.block(S1)  # parent edge only
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        incoming = interp.state_of(second.ref).ms.incoming(L)
        assert len(incoming) == 1
        assert incoming[0].sender == S1
        assert incoming[0].receiver == S1
        # And the process state advanced: total = 5 at the second block.
        assert interp.state_of(second.ref).pis[L].total == 5

    def test_receiver_filter(self, dag_builder):
        source = dag_builder.block(S1, rs=[(L, Inc(5))])
        sink = dag_builder.block(S2, refs=[source])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        for message in interp.state_of(sink.ref).ms.incoming(L):
            assert message.receiver == S2

    def test_parent_state_copied_line4(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(5))])
        middle = dag_builder.block(S1, rs=[(L, Inc(3))])
        last = dag_builder.block(S1)
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        # Totals accumulate along the parent chain via self-deliveries.
        assert interp.state_of(middle.ref).pis[L].total == 5
        assert interp.state_of(last.ref).pis[L].total == 8

    def test_line7_labels_from_strict_past_only(self, dag_builder):
        source = dag_builder.block(S1, rs=[(L, Inc(1))])
        sink = dag_builder.block(S2, refs=[source])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        oracle = ReferenceInterpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        oracle.run()
        # The reference's literal set, and what the sink received: the
        # labels that arrive are line 7's.
        assert oracle._active[source.ref] == frozenset()
        assert oracle._active[sink.ref] == {L}
        assert set(interp.state_of(sink.ref).ms.labels_in()) == {L}
        assert set(interp.state_of(source.ref).ms.labels_in()) == set()

    def test_in_buffer_messages_processed_in_order(self, dag_builder):
        # Two sources send different amounts; the sink's indications
        # reflect <_M processing order deterministically.
        a = dag_builder.block(S1, rs=[(L, Inc(1))])
        b = dag_builder.block(S3, rs=[(L, Inc(2))])
        sink = dag_builder.block(S2, refs=[a, b])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        totals = [
            e.indication.value
            for e in interp.events
            if e.block_ref == sink.ref and isinstance(e.indication, Total)
        ]
        assert totals in ([1, 3], [2, 3])
        # Re-running an identical DAG gives the identical sequence.
        builder2 = ManualDagBuilder(4)
        builder2.block(S1, rs=[(L, Inc(1))])
        builder2.block(S3, rs=[(L, Inc(2))])
        builder2.block(S2, refs=[builder2.dag.by_server(S1)[0], builder2.dag.by_server(S3)[0]])
        interp2 = fresh_interpreter(builder2, counter_protocol)
        interp2.run()
        totals2 = [
            e.indication.value
            for e in interp2.events
            if isinstance(e.indication, Total) and e.server == S2
        ]
        assert totals == totals2


class _CountingLabel(str):
    """A label that counts how often it is compared for order — what a
    sort over labels costs, whatever sorts them."""

    comparisons = 0

    def __lt__(self, other):
        _CountingLabel.comparisons += 1
        return str.__lt__(self, other)


class _CountingIndex(dict):
    """A receiver index that counts the lookups made in it."""

    probes = 0

    def get(self, key, default=None):
        _CountingIndex.probes += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        _CountingIndex.probes += 1
        return dict.__getitem__(self, key)


class TestCostFollowsWhatArrives:
    """Lines 7–9 per block cost what the block receives: one index
    probe per direct predecessor, and an order over the labels that
    have incoming messages — not over every label ever requested."""

    @pytest.mark.parametrize("live", [1, 2])
    def test_dormant_labels_cost_nothing(self, dag_builder, live):
        dormant = [_CountingLabel(f"dormant-{i:03d}") for i in range(500)]
        dag_builder.block(S1, rs=[(label, Inc(1)) for label in dormant])
        for server in (S2, S3, S4):
            dag_builder.block(server)
        # Everyone takes delivery, then the 500 instances fall silent.
        for _ in range(3):
            dag_builder.round_all()
        woken = dormant[100 : 100 + live]
        dag_builder.round_all({S1: [(label, Inc(2)) for label in woken]})
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()

        late = dag_builder.block(
            S2, refs=[dag_builder.dag.tip(s) for s in (S1, S3, S4)]
        )
        preds = dag_builder.dag.predecessors(late)
        assert len(preds) == 4
        for pred in preds:
            buffers = interp.state_of(pred.ref).ms
            buffers._out = _CountingIndex(buffers._out)
        _CountingIndex.probes = _CountingLabel.comparisons = 0
        delivered = interp.messages_delivered
        interp.run()

        assert interp.is_interpreted(late.ref)
        assert set(interp.state_of(late.ref).ms.labels_in()) == set(woken)
        assert interp.messages_delivered - delivered == live
        assert _CountingIndex.probes == len(preds)
        # Sorting k labels takes k - 1 comparisons at k <= 2; sorting
        # the 500 requested in the block's past would take at least 499.
        assert _CountingLabel.comparisons == live - 1


class TestOneStepPerMessage:
    """Lines 10–11 step a label's whole inbox on one private instance,
    but still through one ``ProcessInstance.step_message`` call per
    message: that call is the unit the ``protocols:step_message`` span
    and ``messages_delivered`` both count."""

    def test_step_message_calls_equal_messages_delivered(
        self, dag_builder, monkeypatch
    ):
        labels = [Label(f"brb-{i}") for i in range(3)]
        dag_builder.round_all(
            {
                S1: [(labels[0], Broadcast(1)), (labels[1], Broadcast(2))],
                S3: [(labels[2], Broadcast(3))],
            }
        )
        for _ in range(3):
            dag_builder.round_all()
        oracle = ReferenceInterpreter(
            dag_builder.dag, brb_protocol, dag_builder.servers
        )
        oracle.run()

        step_message = ProcessInstance.step_message
        calls = []

        def counting(instance, message):
            calls.append((instance.ctx.label, message))
            return step_message(instance, message)

        monkeypatch.setattr(ProcessInstance, "step_message", counting)
        interp = fresh_interpreter(dag_builder, brb_protocol)
        interp.run()

        assert len(calls) == interp.messages_delivered
        assert interp.messages_delivered == oracle.messages_delivered
        assert {label for label, _ in calls} == set(labels)
        # Every label's inbox held several messages at some block, so
        # the per-label batching path is what was counted.
        for label in labels:
            assert max(
                len(interp.state_of(b.ref).ms.incoming(label))
                for b in dag_builder.dag.blocks()
            ) >= 2


class TestRunsAreOrderedWhereEmitted:
    """``Ms`` holds runs in ``<_M`` order: a block sorts a run once,
    when it emits it, and a successor joins its predecessors' runs
    without sorting or hashing them again."""

    def test_one_builder_twice_delivers_an_identical_message_once(
        self, dag_builder
    ):
        # Two equivocating blocks of s1 each send s2 the same
        # Entry("v", 0); s2's block references both, and the set union
        # of line 9 holds that message once.
        third = dag_builder.block(S3)
        first = dag_builder.block(S1, rs=[(L, Append("v"))])
        second = dag_builder.fork(S1, refs=[third], rs=[(L, Append("v"))])
        interp = fresh_interpreter(dag_builder, ledger_protocol)
        interp.run()
        before = interp.messages_delivered
        sink = dag_builder.block(S2, refs=[first, second])
        interp.run()
        oracle = ReferenceInterpreter(
            dag_builder.dag, ledger_protocol, dag_builder.servers
        )
        oracle.run()

        entry = Message(S1, S2, Entry("v", 0))
        assert interp.state_of(sink.ref).ms.incoming(L) == [entry]
        assert interp.messages_delivered - before == 1
        assert interp.messages_delivered == oracle.messages_delivered
        assert interp.events == oracle.events
        for block in dag_builder.dag.blocks():
            assert annotation_fingerprint(interp, block.ref) == (
                annotation_fingerprint(oracle, block.ref)
            )

    def test_every_inbox_is_in_message_order_when_ids_sort_otherwise_as_text(
        self,
    ):
        # "s10" < "s2" < "s9" as text; by encoding the shorter ids come
        # first.  Every inbox must be the reference's set in <_M order.
        builder = ManualDagBuilder(
            servers=[ServerId(s) for s in ("s10", "s2", "s9", "σ7")]
        )
        labels = [Label(f"brb-{i}") for i in range(2)]
        builder.round_all(
            {
                builder.servers[0]: [(labels[0], Broadcast(1))],
                builder.servers[3]: [(labels[1], Broadcast(2))],
            }
        )
        for _ in range(3):
            builder.round_all()
        interp = fresh_interpreter(builder, brb_protocol)
        interp.run()
        oracle = ReferenceInterpreter(builder.dag, brb_protocol, builder.servers)
        oracle.run()
        checked = 0
        for block in builder.dag.blocks():
            expected = oracle.state_of(block.ref).ms.snapshot()["in"]
            state = interp.state_of(block.ref)
            assert set(state.ms.labels_in()) == set(expected)
            for label, messages in expected.items():
                assert state.ms.incoming(label) == sorted(messages, key=codec.encode)
                checked += len(messages) > 1
        assert checked

    def test_ordered_runs_per_emitted_run_never_per_delivery(
        self, dag_builder, monkeypatch
    ):
        # s4 is late: its first block takes three Echos at once, so it
        # both echoes and readies, and sends every server a run of two.
        # Every block's predecessors have distinct builders.
        genesis = dag_builder.block(S1, rs=[(L, Broadcast(1))])
        echoes = [dag_builder.block(s, refs=[genesis]) for s in (S2, S3)]
        dag_builder.block(S4, refs=[genesis, *echoes])
        for _ in range(3):
            dag_builder.round_all()
        for block in dag_builder.dag.blocks():
            builders = [p.n for p in dag_builder.dag.predecessors(block)]
            assert len(set(builders)) == len(builders)

        real_ordered = order.ordered
        real_hash = Message.__hash__
        sorted_runs = []
        inside = []
        hashed_outside = []

        def ordered(messages, *args):
            inside.append(True)
            try:
                result = real_ordered(messages, *args)
            finally:
                inside.pop()
            sorted_runs.append(len(result))
            return result

        def hash_message(message):
            if not inside:
                hashed_outside.append(message)
            return real_hash(message)

        for module in list(sys.modules.values()):
            if getattr(module, "ordered", None) is real_ordered:
                monkeypatch.setattr(module, "ordered", ordered)
        monkeypatch.setattr(Message, "__hash__", hash_message)
        interp = fresh_interpreter(dag_builder, brb_protocol)
        interp.run()
        monkeypatch.undo()

        emitted_runs = [
            len(run)
            for block in dag_builder.dag.blocks()
            if (buffers := interp.state_of(block.ref)._ms) is not None
            for by_label in buffers._out.values()
            for run in by_label.values()
        ]
        assert sorted(sorted_runs) == sorted(n for n in emitted_runs if n >= 2)
        assert sorted_runs, "no block emitted a run of two"
        assert interp.messages_delivered > len(sorted_runs)
        assert hashed_outside == []


class TestEligibilityAndErrors:
    def test_interpret_requires_eligibility(self, dag_builder):
        dag_builder.block(S1)
        child = dag_builder.block(S1)
        interp = fresh_interpreter(dag_builder, counter_protocol)
        with pytest.raises(SimulationError):
            interp.interpret_block(child)

    def test_double_interpretation_rejected(self, dag_builder):
        block = dag_builder.block(S1)
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.interpret_block(block)
        with pytest.raises(SimulationError):
            interp.interpret_block(block)

    def test_foreign_block_rejected(self, dag_builder):
        other = ManualDagBuilder(4)
        foreign = other.block(S1, rs=[(L, Inc(1))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        with pytest.raises(SimulationError):
            interp.interpret_block(foreign)

    def test_state_of_uninterpreted_raises(self, dag_builder):
        block = dag_builder.block(S1)
        interp = fresh_interpreter(dag_builder, counter_protocol)
        with pytest.raises(SimulationError):
            interp.state_of(block.ref)

    def test_run_is_incremental(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(1))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        first_count = interp.blocks_interpreted
        dag_builder.round_all()
        interp.run()
        assert interp.blocks_interpreted == len(dag_builder.dag) > first_count


class TestEquivocationSplitsState:
    def test_fork_produces_two_state_versions(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(1))])
        branch_a = dag_builder.block(S1, rs=[(L, Inc(10))])
        branch_b = dag_builder.fork(S1, rs=[(L, Inc(20))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        # Both versions advanced identically to total=1 (self-delivery
        # of the genesis Add(1)); the divergence shows in what each
        # branch *emitted* — two conflicting message sets for ℓ.
        state_a = interp.state_of(branch_a.ref)
        state_b = interp.state_of(branch_b.ref)
        assert state_a.pis[L].total == state_b.pis[L].total == 1
        out_a = {m.payload.amount for m in state_a.ms.outgoing(L)}
        out_b = {m.payload.amount for m in state_b.ms.outgoing(L)}
        assert out_a == {10}
        assert out_b == {20}
        # An observer referencing both branches receives both versions'
        # messages — the 'two versions of PIs[ℓ]' of §4 made concrete.
        observer = dag_builder.block(S2, refs=[branch_a, branch_b])
        interp.run()
        received = {
            m.payload.amount
            for m in interp.state_of(observer.ref).ms.incoming(L)
        }
        assert {10, 20} <= received

    def test_sibling_blocks_do_not_share_mutable_state(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(1))])
        branch_a = dag_builder.block(S1, rs=[(L, Inc(10))])
        branch_b = dag_builder.fork(S1, rs=[(L, Inc(20))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        pi_a = interp.state_of(branch_a.ref).pis[L]
        pi_b = interp.state_of(branch_b.ref).pis[L]
        assert pi_a is not pi_b

    def test_conflicting_messages_reach_referencers(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Broadcast("x"))])
        branch_b = dag_builder.fork(S1, rs=[(L, Broadcast("y"))])
        observer = dag_builder.block(
            S2, refs=[dag_builder.dag.by_server(S1)[0], branch_b]
        )
        interp = fresh_interpreter(dag_builder, brb_protocol)
        interp.run()
        incoming = interp.state_of(observer.ref).ms.incoming(L)
        values = {m.payload.value for m in incoming if isinstance(m.payload, Echo)}
        assert values == {"x", "y"}


class TestIndications:
    def test_events_attributed_to_builder(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(5))])
        sink = dag_builder.block(S2, refs=[dag_builder.dag.by_server(S1)[0]])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        events_at_sink = [e for e in interp.events if e.block_ref == sink.ref]
        assert events_at_sink
        assert all(e.server == S2 for e in events_at_sink)
        assert all(e.label == L for e in events_at_sink)

    def test_callback_fires_in_order(self, dag_builder):
        seen = []
        dag_builder.block(S1, rs=[(L, Inc(5))])
        dag_builder.block(S2, refs=[dag_builder.dag.by_server(S1)[0]])
        interp = Interpreter(
            dag_builder.dag,
            counter_protocol,
            dag_builder.servers,
            on_indication=seen.append,
        )
        interp.run()
        assert seen == interp.events

    def test_brb_delivery_end_to_end(self, dag_builder):
        # Full BRB cascade on a manual DAG: request, echo, ready, deliver.
        dag_builder.block(S1, rs=[(L, Broadcast(42))])
        for _ in range(3):
            dag_builder.round_all()
        interp = fresh_interpreter(dag_builder, brb_protocol)
        interp.run()
        delivered = {
            e.server for e in interp.events if isinstance(e.indication, Deliver)
        }
        assert delivered == set(dag_builder.servers)


def layered_blocks(n_servers: int, size: int) -> tuple[tuple[ServerId, ...], list]:
    """``size`` blocks of a fully connected layered DAG, a counter
    request every sixth round, in insertion (topological) order."""
    builder = ManualDagBuilder(n_servers)
    rounds = 0
    while len(builder.dag) < size:
        seat = builder.servers[rounds // 6 % n_servers]
        builder.round_all(rs_for={seat: [(L, Inc(1))]} if rounds % 6 == 0 else {})
        rounds += 1
    return builder.servers, builder.dag.blocks()[:size]


@contextmanager
def counted_work(monkeypatch):
    """Count, from outside, the ready-heap operations of
    ``repro.interpret.interpreter``, the DAG lookups and successor edges
    it asks for, and every block a whole-DAG iteration visits."""
    work = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)

        return call

    def successors_view(graph, vertex, original=Digraph.successors_view):
        view = original(graph, vertex)
        work["successor edges"] += len(view)
        return view

    def whole_dag(dag, original=BlockDag.__iter__):
        for block in original(dag):
            work["whole-DAG visits"] += 1
            yield block

    with monkeypatch.context() as patch:
        patch.setattr(
            interpreter_module,
            "heapq",
            SimpleNamespace(
                heappush=counted("heap", heapq.heappush),
                heappop=counted("heap", heapq.heappop),
            ),
        )
        patch.setattr(BlockDag, "require", counted("lookups", BlockDag.require))
        patch.setattr(BlockDag, "predecessors", counted("lookups", BlockDag.predecessors))
        patch.setattr(BlockDag, "__iter__", whole_dag)
        patch.setattr(BlockDag, "blocks", lambda dag: list(whole_dag(dag)))
        patch.setattr(Digraph, "successors_view", successors_view)
        yield work


def scheduler_work(monkeypatch, make, servers, blocks) -> Counter:
    """Insert one block into a fresh DAG, run the interpreter ``make``
    builds, repeat (the steady-state gossip shape), and count its work
    (:func:`counted_work`)."""
    with counted_work(monkeypatch) as work:
        dag = BlockDag()
        interp = make(dag, counter_protocol, servers)
        for block in blocks:
            dag.insert(block)
            interp.run()
    assert interp.blocks_interpreted == len(blocks)
    return work


class TestIncrementalScheduler:
    """The event-driven ready queue vs the frontier-rescan oracle."""

    def test_scheduler_work_per_block_is_flat_while_the_rescan_grows(self, monkeypatch):
        servers, blocks = layered_blocks(4, 240)
        per_block = {}
        for make in (Interpreter, ReferenceInterpreter):
            for size in (60, 240):
                work = scheduler_work(monkeypatch, make, servers, blocks[:size])
                per_block[make, size] = {
                    name: Fraction(count, size) for name, count in work.items()
                }
        small, large = per_block[Interpreter, 60], per_block[Interpreter, 240]
        # The same work per block at both sizes, and none of it a scan.
        assert small == large and sum(large.values()) > 0
        assert "whole-DAG visits" not in large
        # The reference rescans the DAG before every step.
        rescans = [per_block[ReferenceInterpreter, size]["whole-DAG visits"] for size in (60, 240)]
        assert rescans[1] > 3 * rescans[0]

    def test_a_chain_admitted_at_once_drains_without_the_heap(self, monkeypatch):
        # Gossip admits a buffered chain in one batch once its missing
        # link arrives: each block readies only its successor, so the
        # ready set stays a singleton and the heap is never touched.
        builder = ManualDagBuilder(4)
        builder.round_all()
        genesis = builder.dag.blocks()
        chain = [builder.block(builder.servers[0], rs=[(L, Inc(1))]) for _ in range(20)]
        dag = BlockDag()
        interp = Interpreter(dag, counter_protocol, builder.servers)
        for block in genesis:
            dag.insert(block)
        interp.run()
        with counted_work(monkeypatch) as work:
            for block in chain:
                dag.insert(block)
            interp.run()
        assert interp.blocks_interpreted == len(genesis) + 20
        assert work["heap"] == 0 and work["lookups"] > 0

    def test_modes_agree_on_prebuilt_dag(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(1))])
        dag_builder.round_all()
        dag_builder.fork(S2, rs=[(L, Inc(7))])
        dag_builder.round_all()
        incremental = Interpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        rescan = ReferenceInterpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        incremental.run()
        rescan.run()
        assert incremental.interpreted == rescan.interpreted
        for block in dag_builder.dag.blocks():
            assert (
                incremental.state_of(block.ref).ms.snapshot()
                == rescan.state_of(block.ref).ms.snapshot()
            )

    def test_insert_listener_keeps_queue_fresh(self, dag_builder):
        interp = fresh_interpreter(dag_builder, counter_protocol)
        assert interp.eligible() == []
        genesis = dag_builder.block(S1, rs=[(L, Inc(1))])
        # No run() in between: the DAG insert alone must queue it.
        assert [b.ref for b in interp.eligible()] == [genesis.ref]
        child = dag_builder.block(S2, refs=[genesis])
        assert child.ref not in {b.ref for b in interp.eligible()}
        interp.run()
        assert interp.eligible() == []
        assert interp.interpreted == {genesis.ref, child.ref}

    def test_default_schedule_matches_rescan_exactly(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(2))])
        dag_builder.round_all()
        dag_builder.round_all()
        incremental = Interpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        rescan = ReferenceInterpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        order_inc, order_res = [], []
        incremental.on_indication = None
        while True:
            frontier = incremental.eligible()
            if not frontier:
                break
            order_inc.append(frontier[0].ref)
            incremental.interpret_block(frontier[0])
        while True:
            frontier = rescan.eligible()
            if not frontier:
                break
            order_res.append(frontier[0].ref)
            rescan.interpret_block(frontier[0])
        assert order_inc == order_res

    def test_choose_callback_works_incrementally(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(1))])
        dag_builder.round_all()
        interp = fresh_interpreter(dag_builder, counter_protocol)
        picked = []
        interp.run(choose=lambda frontier: picked.append(frontier[-1]) or frontier[-1])
        assert interp.interpreted == set(dag_builder.dag.refs)
        assert len(picked) == len(dag_builder.dag)

    def test_direct_interpret_block_updates_queue(self, dag_builder):
        a = dag_builder.block(S1)
        b = dag_builder.block(S2)
        child = dag_builder.block(S1, refs=[b])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.interpret_block(b)
        assert b.ref not in {x.ref for x in interp.eligible()}
        interp.interpret_block(a)
        assert [x.ref for x in interp.eligible()] == [child.ref]
        interp.run()
        assert interp.interpreted == {a.ref, b.ref, child.ref}

    def test_run_is_incremental_across_extensions(self, dag_builder):
        dag_builder.block(S1, rs=[(L, Inc(3))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        dag_builder.round_all()
        dag_builder.round_all()
        interp.run()
        fresh = ReferenceInterpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        fresh.run()
        for block in dag_builder.dag.blocks():
            assert (
                interp.state_of(block.ref).ms.snapshot()
                == fresh.state_of(block.ref).ms.snapshot()
            )

    def test_resync_schedule_after_external_interpreted_growth(self, dag_builder):
        # Simulates what install_checkpoint does: mark a prefix
        # interpreted behind the scheduler's back, then resync.
        a = dag_builder.block(S1, rs=[(L, Inc(1))])
        child = dag_builder.block(S2, refs=[a])
        donor = ReferenceInterpreter(
            dag_builder.dag, counter_protocol, dag_builder.servers
        )
        donor.interpret_block(a)
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.interpreted.add(a.ref)
        interp._states[a.ref] = donor.state_of(a.ref)
        interp.resync_schedule()
        assert [b.ref for b in interp.eligible()] == [child.ref]
        interp.run()
        assert interp.is_interpreted(child.ref)


class TestSnapshotInstance:
    def test_snapshot_excludes_context_internals(self, dag_builder):
        block = dag_builder.block(S1, rs=[(L, Inc(5))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        snap = snapshot_instance(interp.state_of(block.ref).pis[L])
        assert snap["__class__"] == "CounterProtocol"
        assert snap["total"] == 0  # own broadcast not yet self-delivered
        assert snap["__ctx__"]["self_id"] == S1

    def test_snapshot_is_deep(self, dag_builder):
        block = dag_builder.block(S1, rs=[(L, Inc(5))])
        interp = fresh_interpreter(dag_builder, counter_protocol)
        interp.run()
        instance = interp.state_of(block.ref).pis[L]
        snap = snapshot_instance(instance)
        instance.total = 999
        assert snap["total"] == 0
