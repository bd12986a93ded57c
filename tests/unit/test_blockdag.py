"""Unit tests for validity (Definition 3.3) and BlockDag (Definition 3.4)."""

import pytest

from repro.crypto.keys import KeyRing
from repro.dag.block import Block
from repro.dag.blockdag import BlockDag, Validator, Validity
from repro.errors import MissingPredecessorError
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.cluster import Cluster
from repro.types import Label, ServerId, make_servers

from helpers import ManualDagBuilder

S1, S2, S3, S4 = (ServerId(f"s{i}") for i in range(1, 5))


def signed(ring: KeyRing, server, k, preds=(), rs=()):
    unsigned = Block(n=server, k=k, preds=tuple(preds), rs=tuple(rs))
    return Block(
        n=unsigned.n,
        k=unsigned.k,
        preds=unsigned.preds,
        rs=unsigned.rs,
        sigma=ring.sign(server, unsigned.signing_payload()),
    )


@pytest.fixture
def ring():
    return KeyRing(make_servers(4))


@pytest.fixture
def dag():
    return BlockDag()


@pytest.fixture
def buffered():
    return {}


@pytest.fixture
def validator(dag, buffered):
    return Validator(dag, buffered)


class TestDefinition33Validity:
    """Checks (ii) and (iii) for a block whose signature gossip already
    checked at ingress (``test_gossip.py::TestIngressSignature``)."""

    def test_valid_genesis(self, ring, validator):
        block = signed(ring, S1, 0)
        assert validator.validity(block) is Validity.VALID

    def test_check_ii_nongenesis_needs_parent(self, ring, validator, dag):
        other = signed(ring, S2, 0)
        dag.insert(other)
        orphan = signed(ring, S1, 1, preds=(other.ref,))
        assert validator.validity(orphan) is Validity.INVALID

    def test_check_ii_exactly_one_parent_ok(self, ring, validator, dag):
        parent = signed(ring, S1, 0)
        dag.insert(parent)
        child = signed(ring, S1, 1, preds=(parent.ref,))
        assert validator.validity(child) is Validity.VALID

    def test_check_ii_two_parents_invalid(self, ring, validator, dag):
        # An equivocating pair both claimed as parents ⇒ invalid.
        parent_a = signed(ring, S1, 0)
        parent_b = signed(ring, S1, 0, rs=((Label("l"), Broadcast(1)),))
        dag.insert(parent_a)
        dag.insert(parent_b)
        child = signed(ring, S1, 1, preds=(parent_a.ref, parent_b.ref))
        assert validator.validity(child) is Validity.INVALID

    def test_missing_predecessor_is_pending(self, ring, validator, dag):
        parent = signed(ring, S1, 0)
        missing = signed(ring, S2, 0)  # never stored
        dag.insert(parent)
        child = signed(ring, S1, 1, preds=(parent.ref, missing.ref))
        assert validator.validity(child) is Validity.PENDING

    def test_pending_becomes_valid_when_pred_arrives(self, ring, validator, dag):
        parent = signed(ring, S1, 0)
        other = signed(ring, S2, 0)
        dag.insert(parent)
        child = signed(ring, S1, 1, preds=(parent.ref, other.ref))
        assert validator.validity(child) is Validity.PENDING
        dag.insert(other)
        assert validator.validity(child) is Validity.VALID

    def test_genesis_may_reference_other_genesis(self, ring, validator, dag):
        # Figure 2's B3 pattern at k=0: references permitted as long as
        # none is a parent (k = -1 is impossible).
        other = signed(ring, S2, 0)
        dag.insert(other)
        block = signed(ring, S1, 0, preds=(other.ref,))
        assert validator.validity(block) is Validity.VALID

    def test_long_buffered_chain_is_judged_without_a_walk(
        self, ring, validator, dag, buffered
    ):
        # Check (iii) is "every predecessor is in G": the tip of a deep
        # buffered chain waits on its parent alone, whatever lies below.
        chain = [signed(ring, S1, 0)]
        for k in range(1, 2001):
            chain.append(signed(ring, S1, k, preds=(chain[-1].ref,)))
        buffered.update((block.ref, block) for block in chain)
        assert validator.validity(chain[-1]) is Validity.PENDING
        for block in chain:
            assert validator.validity(block) is Validity.VALID
            dag.insert(block)


class TestValidatorRules:
    """The verdict rules, in the order :meth:`Validator.validity`
    applies them; only INVALID is remembered."""

    def test_a_condemned_block_stays_invalid(self, ring, validator, dag):
        parent = signed(ring, S1, 0)
        dag.insert(parent)
        child = signed(ring, S1, 1, preds=(parent.ref,))
        validator.condemn(child.ref)
        assert validator.validity(child) is Validity.INVALID

    def test_a_condemned_predecessor_condemns_without_a_copy(
        self, ring, validator, dag
    ):
        parent = signed(ring, S1, 0)
        gone = signed(ring, S2, 0)  # held nowhere
        dag.insert(parent)
        validator.condemn(gone.ref)
        child = signed(ring, S1, 1, preds=(parent.ref, gone.ref))
        assert validator.validity(child) is Validity.INVALID
        grandchild = signed(ring, S1, 2, preds=(child.ref,))
        assert validator.validity(grandchild) is Validity.INVALID

    def test_an_unknown_predecessor_defers_the_parent_rule(self, ring, validator):
        # The one listed predecessor may well be the parent: no verdict
        # on (ii) until its content is held.
        parent = signed(ring, S1, 0)
        child = signed(ring, S1, 1, preds=(parent.ref,))
        assert validator.validity(child) is Validity.PENDING

    def test_the_parent_rule_is_judged_over_buffered_predecessors(
        self, ring, validator, buffered
    ):
        other = signed(ring, S2, 0)
        buffered[other.ref] = other
        orphan = signed(ring, S1, 1, preds=(other.ref,))
        assert validator.validity(orphan) is Validity.INVALID

    def test_a_buffered_predecessor_keeps_the_block_pending(
        self, ring, validator, dag, buffered
    ):
        parent = signed(ring, S1, 0)
        buffered[parent.ref] = parent
        child = signed(ring, S1, 1, preds=(parent.ref,))
        assert validator.validity(child) is Validity.PENDING
        dag.insert(parent)
        assert validator.validity(child) is Validity.VALID

    def test_an_invalid_verdict_is_kept_once_given(self, ring, validator, buffered):
        # The condemned set, not the views, answers a second query: the
        # predecessor that made the block INVALID has left the buffer,
        # which alone would read PENDING.
        other = signed(ring, S2, 0)
        buffered[other.ref] = other
        orphan = signed(ring, S1, 1, preds=(other.ref,))
        assert validator.validity(orphan) is Validity.INVALID
        del buffered[other.ref]
        assert validator.validity(orphan) is Validity.INVALID


    def test_a_fault_free_run_leaves_no_verdict_behind(self):
        # VALID is read off G, so admitted blocks cost the validator
        # nothing for the rest of the server's life.
        cluster = Cluster(brb_protocol, n=4)
        for i, server in enumerate(cluster.servers):
            cluster.request(server, Label(f"tx-{i}"), Broadcast(i))
        cluster.run_rounds(30)
        for server, shim in cluster.shims.items():
            assert len(shim.dag) > 100
            held = {
                name: len(value)
                for name, value in vars(shim.gossip.validator).items()
                if name not in ("_dag", "_buffered")
            }
            assert not any(held.values()), (server, held)


class TestBlockDagDefinition34:
    def test_insert_and_lookup(self, ring):
        dag = BlockDag()
        block = signed(ring, S1, 0)
        assert dag.insert(block)
        assert block in dag
        assert dag.get(block.ref) == block
        assert len(dag) == 1

    def test_insert_is_idempotent_lemma_a2(self, ring):
        dag = BlockDag()
        block = signed(ring, S1, 0)
        assert dag.insert(block)
        assert not dag.insert(block)
        assert len(dag) == 1

    def test_insert_requires_predecessors_present(self, ring):
        dag = BlockDag()
        parent = signed(ring, S1, 0)
        child = signed(ring, S1, 1, preds=(parent.ref,))
        with pytest.raises(MissingPredecessorError):
            dag.insert(child)

    def test_edges_follow_preds(self, ring):
        dag = BlockDag()
        a = signed(ring, S1, 0)
        b = signed(ring, S2, 0)
        dag.insert(a)
        dag.insert(b)
        c = signed(ring, S1, 1, preds=(a.ref, b.ref))
        dag.insert(c)
        assert dag.graph.has_edge(a.ref, c.ref)
        assert dag.graph.has_edge(b.ref, c.ref)

    def test_duplicate_pred_entries_deduped(self, ring):
        dag = BlockDag()
        a = signed(ring, S1, 0)
        dag.insert(a)
        weird = signed(ring, S2, 0, preds=(a.ref, a.ref))
        dag.insert(weird)
        assert dag.graph.predecessors(weird.ref) == {a.ref}

    def test_by_server_ordering(self, dag_builder):
        blocks = [dag_builder.block(S1) for _ in range(3)]
        assert dag_builder.dag.by_server(S1) == blocks

    def test_tip(self, dag_builder):
        dag_builder.block(S1)
        latest = dag_builder.block(S1)
        assert dag_builder.dag.tip(S1) == latest
        assert dag_builder.dag.tip(S4) is None

    def test_require_raises_for_missing(self):
        dag = BlockDag()
        with pytest.raises(MissingPredecessorError):
            dag.require("nope")


class TestForksExample35:
    def test_fork_detected(self, dag_builder):
        dag_builder.block(S1)
        dag_builder.block(S1)
        dag_builder.fork(S1, rs=((Label("l"), Broadcast(9)),))
        forks = dag_builder.dag.forks()
        assert (S1, 1) in forks
        assert len(forks[(S1, 1)]) == 2

    def test_no_false_fork_reports(self, dag_builder):
        dag_builder.round_all()
        dag_builder.round_all()
        assert dag_builder.dag.forks() == {}

    def test_forked_blocks_are_both_valid(self, dag_builder):
        # Figure 3: both B3 and B4 are valid — equivocation is not a
        # validity violation, it's a behaviour the interpretation splits.
        first = dag_builder.block(S1)
        second = dag_builder.block(S1)
        forked = dag_builder.fork(S1, rs=((Label("l"), Broadcast(1)),))
        for block in (first, second, forked):
            assert dag_builder.validator.validity(block) is Validity.VALID


class TestDagRelations:
    def test_union_joint_dag_lemma_a7(self):
        left = ManualDagBuilder(4)
        right = ManualDagBuilder(4)
        # Same genesis layer (deterministic contents ⇒ same refs).
        left_genesis = left.block(S1)
        right_genesis = right.block(S1)
        assert left_genesis.ref == right_genesis.ref
        left.block(S2, refs=[left_genesis])
        right.block(S3, refs=[right_genesis])
        joint = left.dag.union(right.dag)
        assert left.dag.refs <= joint.refs
        assert right.dag.refs <= joint.refs
        assert joint.graph.is_acyclic()

    def test_prefix_relation(self, dag_builder):
        dag_builder.round_all()
        snapshot = dag_builder.dag.copy()
        dag_builder.round_all()
        assert snapshot.is_prefix_of(dag_builder.dag)
        assert not dag_builder.dag.is_prefix_of(snapshot)

    def test_copy_is_independent(self, dag_builder):
        dag_builder.block(S1)
        snapshot = dag_builder.dag.copy()
        dag_builder.block(S1)
        assert len(snapshot) == 1
        assert len(dag_builder.dag) == 2

    def test_predecessors_resolved(self, dag_builder):
        a = dag_builder.block(S1)
        b = dag_builder.block(S2, refs=[a])
        preds = dag_builder.dag.predecessors(b)
        assert preds == [a]
