"""Unit tests for the invariant catalogue: one holding and one violated
input per invariant, and what each message names."""

from types import SimpleNamespace

from helpers import ManualDagBuilder, fresh_interpreter
from repro.dag.block import Block
from repro.invariants import (
    agreement,
    complete_interpretation,
    equivocations,
    horizon_differences,
    same_indications,
    same_interpreted,
    well_formed_chains,
)
from repro.protocols.base import Trace
from repro.protocols.brb import Broadcast, Deliver, brb_protocol
from repro.protocols.counter import Total
from repro.types import Label, ServerId

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))
L, M = Label("l"), Label("m")


def trace_of(*events):
    trace = Trace()
    for server, label, indication in events:
        trace.record(server, label, indication)
    return trace


def shim_of(dag, interpreter):
    return SimpleNamespace(dag=dag, interpreter=interpreter)


class TestSameIndications:
    def test_same_multisets_in_any_order_hold(self):
        a = trace_of((S1, L, Deliver(1)), (S1, L, Deliver(2)), (S2, L, Deliver(1)))
        b = trace_of((S2, L, Deliver(1)), (S1, L, Deliver(2)), (S1, L, Deliver(1)))
        assert same_indications(a, b) == []
        assert same_indications(Trace(), Trace()) == []

    def test_each_differing_instance_is_named(self):
        a = trace_of((S1, L, Deliver("x")))
        b = trace_of((S1, L, Deliver("y")), (S2, L, Deliver("y")))
        assert same_indications(a, b) == [
            "s1/l: expected 1 indications, got 1 with different contents",
            "s2/l: expected 0 indications, got 1",
        ]

    def test_indication_type_matters(self):
        a = trace_of((S1, L, Deliver(1)))
        b = trace_of((S1, L, Total(1)))
        assert same_indications(a, b)

    def test_a_difference_only_on_an_excluded_server_is_not_reported(self):
        a = trace_of((S1, L, Deliver("x")), (S4, L, Deliver("DIFFERENT")))
        b = trace_of((S1, L, Deliver("x")))
        assert same_indications(a, b, servers=[S1]) == []
        assert same_indications(a, b) == ["s4/l: expected 1 indications, got 0"]

    def test_a_difference_only_on_an_excluded_label_is_not_reported(self):
        a = trace_of((S1, L, Deliver("x")), (S1, M, Deliver("byzantine")))
        b = trace_of((S1, L, Deliver("x")))
        assert same_indications(a, b, labels={L}) == []
        assert same_indications(a, b, labels={L, M}) == [
            "s1/m: expected 1 indications, got 0"
        ]


class TestAgreement:
    def test_the_same_contents_everywhere_hold(self):
        trace = trace_of((S1, L, Deliver("x")), (S2, L, Deliver("x")), (S3, M, Deliver("z")))
        assert agreement(trace, L) == []

    def test_a_split_names_both_groups(self):
        trace = trace_of(
            (S1, L, Deliver("x")), (S2, L, Deliver("y")), (S3, L, Deliver("x"))
        )
        assert agreement(trace, L) == [
            "l: servers disagree, grouped by what they indicated: {s1, s3} vs {s2}"
        ]


class TestEquivocations:
    def test_a_fork_free_dag_reports_nothing(self):
        builder = ManualDagBuilder(4)
        builder.round_all()
        builder.round_all()
        assert equivocations(builder.dag, builder.keyring) == {}

    def test_a_signed_fork_is_reported_per_builder_and_slot(self):
        builder = ManualDagBuilder(4)
        a = builder.block(S1)
        b = builder.fork(S1, rs=[(L, Broadcast(1))])
        assert equivocations(builder.dag, builder.keyring) == {S1: {0: [a, b]}}

    def test_a_sibling_whose_signature_fails_is_ignored(self):
        # A corrupted store cannot frame a correct server: the second
        # block at (s1, 0) carries no signature of s1.
        builder = ManualDagBuilder(4)
        builder.block(S1)
        fake = Block(n=S1, k=0, preds=(), rs=((L, Broadcast("forged")),))
        builder.dag.insert(fake)
        assert builder.dag.forks()
        assert equivocations(builder.dag, builder.keyring) == {}


class TestWellFormedChains:
    def test_consecutive_single_block_chains_hold(self):
        builder = ManualDagBuilder(4)
        builder.round_all()
        builder.round_all()
        assert well_formed_chains(builder.dag, builder.servers) == []

    def test_a_fork_and_a_gap_are_named_by_slot(self):
        builder = ManualDagBuilder(4)
        builder.block(S1)
        builder.fork(S1, rs=[(L, Broadcast(1))])
        builder.dag.insert(Block(n=S2, k=1, preds=(), rs=()))  # no (s2, 0)
        assert well_formed_chains(builder.dag, [S1, S2, S3]) == [
            "(s1, 0): 2 blocks in one slot",
            "s2: chain slots [1] have a gap",
        ]
        # Only the listed (correct) builders are held to it.
        assert well_formed_chains(builder.dag, [S3]) == []


class TestCompleteInterpretation:
    def test_an_interpreted_dag_holds(self):
        builder = ManualDagBuilder(4)
        builder.round_all()
        interpreter = fresh_interpreter(builder, brb_protocol)
        interpreter.run()
        assert complete_interpretation({S1: shim_of(builder.dag, interpreter)}) == []

    def test_uninterpreted_blocks_and_stalls_are_named(self):
        builder = ManualDagBuilder(4)
        block = builder.block(S2)
        stalled = SimpleNamespace(interpreted=set(), below_horizon=1)
        assert complete_interpretation({S1: shim_of(builder.dag, stalled)}) == [
            "s1: 1 blocks stalled below the horizon",
            f"s1: uninterpreted blocks (s2, 0) {block.ref[:8]}",
        ]
        # An exempt (byzantine) builder's blocks are not owed.
        idle = SimpleNamespace(interpreted=set(), below_horizon=0)
        assert complete_interpretation({S1: shim_of(builder.dag, idle)}, exempt={S2}) == []


class TestSameInterpreted:
    def test_equal_sets_hold(self):
        view = SimpleNamespace(interpreted={"a", "b"})
        assert same_interpreted({S1: shim_of(None, view), S2: shim_of(None, view)}) == []

    def test_a_divergent_server_is_named(self):
        shims = {
            S1: shim_of(None, SimpleNamespace(interpreted={"a", "b"})),
            S2: shim_of(None, SimpleNamespace(interpreted={"a", "c", "d"})),
        }
        assert same_interpreted(shims) == [
            "s2: interpreted 2 blocks s1 did not and missed 1 it did"
        ]


class TestHorizonDifferences:
    @staticmethod
    def shim_at(*frontier):
        return SimpleNamespace(horizon=SimpleNamespace(frontier_key=lambda: frontier))

    def test_identical_horizons_hold(self):
        shims = {S1: self.shim_at((S1, 3), (S2, 2)), S2: self.shim_at((S1, 3), (S2, 2))}
        assert horizon_differences(shims) == []

    def test_a_divergent_horizon_names_both_servers(self):
        shims = {S1: self.shim_at((S1, 3)), S2: self.shim_at((S1, 2))}
        (problem,) = horizon_differences(shims)
        assert problem.startswith("s2: ") and " != s1: " in problem
