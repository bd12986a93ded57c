"""The structurally-shared instance-state layer (copy-on-write).

``ProcessInstance.fork()`` must be O(fields) — sharing unmutated
containers with the original — while the write barrier keeps every
observable behaviour byte-identical to the ``copy.deepcopy`` oracle:
same snapshots, same fingerprints, same annotations, same traces.
"""

import copy

import pytest

from repro.dag.blockdag import BlockDag
from repro.interpret.instance import snapshot_instance
from repro.interpret.interpreter import Interpreter
from repro.protocols.base import Context, Message, ProcessInstance, ProtocolSpec
from repro.protocols.brb import Broadcast, Echo, ReliableBroadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.protocols.ledger import Append, ledger_protocol
from repro.protocols.pbft import Prepare, pbft_protocol
from repro.storage.state_codec import annotation_fingerprint, instance_fingerprint
from repro.types import Indication, Label, Request, ServerId, make_servers

from helpers import ManualDagBuilder, stored_instance
from reference import ReferenceInterpreter

SERVERS = make_servers(4)
L = Label("l")


def brb_instance(self_id="s1") -> ReliableBroadcast:
    return ReliableBroadcast(Context(SERVERS, ServerId(self_id), L))


def echo(sender, value=7) -> Message:
    return Message(ServerId(sender), ServerId("s1"), Echo(value))


class TestFork:
    def test_fork_shares_unmutated_containers(self):
        instance = brb_instance()
        instance.step_message(echo("s2"))
        clone = instance.fork()
        # O(fields): the containers are the same objects until a write.
        assert clone._echo_senders is instance._echo_senders
        assert clone._ready_senders is instance._ready_senders
        assert clone.ctx is instance.ctx

    def test_fork_write_barrier_isolates_the_fork(self):
        instance = brb_instance()
        instance.step_message(echo("s2"))
        before = instance_fingerprint(instance)
        clone = instance.fork()
        clone.step_message(echo("s3"))
        # The clone diverged; the original is bit-for-bit untouched.
        assert instance_fingerprint(instance) == before
        assert instance._echo_senders[7] == {"s2"}
        assert clone._echo_senders[7] == {"s2", "s3"}

    def test_sibling_forks_are_isolated(self):
        parent = brb_instance()
        parent.step_message(echo("s2"))
        a, b = parent.fork(), parent.fork()
        a.step_message(echo("s3"))
        b.step_message(echo("s4"))
        assert a._echo_senders[7] == {"s2", "s3"}
        assert b._echo_senders[7] == {"s2", "s4"}
        assert parent._echo_senders[7] == {"s2"}

    def test_fork_of_fork_copies_again(self):
        root = brb_instance()
        root.step_message(echo("s2"))
        child = root.fork()
        child.step_message(echo("s3"))
        grandchild = child.fork()
        grandchild.step_message(echo("s4"))
        assert root._echo_senders[7] == {"s2"}
        assert child._echo_senders[7] == {"s2", "s3"}
        assert grandchild._echo_senders[7] == {"s2", "s3", "s4"}

    def test_fork_behaves_like_deepcopy(self):
        base = brb_instance()
        base.step_request(Broadcast(1))
        base.step_message(echo("s2", 1))
        oracle = copy.deepcopy(base)
        fast = base.fork()
        for sender in ("s3", "s4"):
            oracle_result = oracle.step_message(echo(sender, 1))
            fast_result = fast.step_message(echo(sender, 1))
            assert oracle_result == fast_result
        assert instance_fingerprint(oracle) == instance_fingerprint(fast)
        assert snapshot_instance(oracle) == snapshot_instance(fast)

    def test_writable_entry_privatizes_only_touched_bucket(self):
        instance = brb_instance()
        instance.step_message(echo("s2", 1))
        instance.step_message(echo("s2", 2))
        clone = instance.fork()
        clone.step_message(echo("s3", 1))
        # Bucket 1 was copied for the clone; bucket 2 is still the
        # parent's very object (structural sharing below the top map).
        assert clone._echo_senders[1] is not instance._echo_senders[1]
        assert clone._echo_senders[2] is instance._echo_senders[2]


class TestFlatCost:
    def test_privatisations_per_block_stay_flat_while_the_ledger_grows(self, monkeypatch):
        """Every server appends to one ledger every round, so each
        instance's state grows by a layer's entries per block; the
        write barrier still copies the same containers per block."""
        servers = make_servers(8)
        builder = ManualDagBuilder(servers=servers)
        ledger = Label("ledger")
        while len(builder.dag) < 320:
            base = len(builder.dag)
            builder.round_all(
                {s: [(ledger, Append(base + i))] for i, s in enumerate(servers)}
            )
        copies = [0]

        def writable(self, name, original=ProcessInstance._writable):
            before = getattr(self, name)
            value = original(self, name)
            copies[0] += value is not before
            return value

        def writable_entry(self, name, key, factory, original=ProcessInstance._writable_entry):
            outer = getattr(self, name)
            entries = dict(outer)
            value = original(self, name, key, factory)
            after = getattr(self, name)
            # The map itself, and every entry that is a new object now.
            copies[0] += (after is not outer) + sum(
                entry is not entries.get(k) for k, entry in after.items()
            )
            return value

        monkeypatch.setattr(ProcessInstance, "_writable", writable)
        monkeypatch.setattr(ProcessInstance, "_writable_entry", writable_entry)
        dag = BlockDag()
        interp = Interpreter(dag, ledger_protocol, servers)
        per_block, length = [], []
        for block in builder.dag.blocks():
            before = copies[0]
            dag.insert(block)
            interp.run()
            per_block.append(copies[0] - before)
            length.append(interp.state_of(block.ref).pis[ledger].count)
        # Genesis blocks receive nothing; the rest splits into quarters.
        per_block, length = per_block[len(servers):], length[len(servers):]
        quarter = len(per_block) // 4
        first, last = slice(0, quarter), slice(len(per_block) - quarter, None)
        assert sum(length[last]) >= 4 * sum(length[first])
        assert sum(per_block[first]) == sum(per_block[last]) > 0


class TestBookkeepingStaysInvisible:
    def test_snapshot_excludes_generation_stamps(self):
        instance = brb_instance()
        snapshot = snapshot_instance(instance)
        assert "_gen" not in snapshot and "_cells" not in snapshot
        _, _, _, names, _ = stored_instance(instance)[0]
        assert "_gen" not in names and "_cells" not in names

    def test_fingerprint_ignores_generation_stamps(self):
        a, b = brb_instance(), brb_instance()
        a.step_message(echo("s2"))
        b.fork()  # bump b's bookkeeping without touching state
        b.step_message(echo("s2"))
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_deepcopy_still_valid(self):
        # The reference interpreter deep-copies instances; the clone owns
        # its (private) containers and keeps mutating correctly.
        instance = brb_instance()
        instance.step_message(echo("s2"))
        clone = copy.deepcopy(instance)
        clone.step_message(echo("s3"))
        assert instance._echo_senders[7] == {"s2"}
        assert clone._echo_senders[7] == {"s2", "s3"}


class TestInterpreterCowOracle:
    def _dag_with_fork(self):
        builder = ManualDagBuilder(4)
        builder.round_all(rs_for={builder.servers[0]: [(L, Broadcast(9))]})
        builder.round_all()
        # Equivocating sibling with different content.
        builder.fork(builder.servers[3], rs=[(L, Broadcast(5))])
        builder.round_all()
        return builder

    def test_cow_annotations_equal_deepcopy_oracle(self):
        builder = self._dag_with_fork()
        fast = Interpreter(BlockDag(), brb_protocol, builder.servers)
        oracle = ReferenceInterpreter(
            BlockDag(), brb_protocol, builder.servers
        )
        for interp in (fast, oracle):
            for block in builder.dag.blocks():
                interp.dag.insert(block)
            interp.run()
        assert fast.interpreted == oracle.interpreted
        for ref in sorted(fast.interpreted):
            assert annotation_fingerprint(fast, ref) == annotation_fingerprint(
                oracle, ref
            ), f"annotation diverged at {ref[:8]}"
        assert fast.events == oracle.events

    def test_counter_cow_equals_deepcopy_oracle(self):
        # The COW-audit exemption for counter (ISSUE 7): scalar-only
        # state needs no write barrier because rebinds are fork-private.
        # Prove it end to end — fork and the deepcopy reference must agree
        # byte-for-byte on annotations and on the indication trace,
        # including across an equivocation fork.
        builder = ManualDagBuilder(4)
        builder.round_all(rs_for={builder.servers[0]: [(L, Inc(3))]})
        builder.round_all(rs_for={builder.servers[1]: [(L, Inc(5))]})
        builder.fork(builder.servers[3], rs=[(L, Inc(11))])
        builder.round_all()
        fast = Interpreter(BlockDag(), counter_protocol, builder.servers)
        oracle = ReferenceInterpreter(
            BlockDag(), counter_protocol, builder.servers
        )
        for interp in (fast, oracle):
            for block in builder.dag.blocks():
                interp.dag.insert(block)
            interp.run()
        assert fast.interpreted == oracle.interpreted
        for ref in sorted(fast.interpreted):
            assert annotation_fingerprint(fast, ref) == annotation_fingerprint(
                oracle, ref
            ), f"counter annotation diverged at {ref[:8]}"
        assert fast.events == oracle.events

    def test_phaseking_cow_equals_deepcopy_oracle(self):
        # Phase king mixes one barriered container (_received) with
        # scalar rebinds; the audited discipline must hold trace-equal
        # to the oracle through a full propose/advance schedule.
        from repro.protocols.phaseking import PkAdvance, PkPropose, phase_king_protocol

        builder = ManualDagBuilder(5)
        proposals = {
            server: [(L, PkPropose(index % 2))]
            for index, server in enumerate(builder.servers)
        }
        builder.round_all(rs_for=proposals)
        for _ in range(4):
            builder.round_all(
                rs_for={s: [(L, PkAdvance())] for s in builder.servers}
            )
        fast = Interpreter(BlockDag(), phase_king_protocol, builder.servers)
        oracle = ReferenceInterpreter(
            BlockDag(), phase_king_protocol, builder.servers
        )
        for interp in (fast, oracle):
            for block in builder.dag.blocks():
                interp.dag.insert(block)
            interp.run()
        assert fast.interpreted == oracle.interpreted
        for ref in sorted(fast.interpreted):
            assert annotation_fingerprint(fast, ref) == annotation_fingerprint(
                oracle, ref
            ), f"phase-king annotation diverged at {ref[:8]}"
        assert fast.events == oracle.events

    def test_equivocation_fork_splits_state_under_cow(self):
        builder = ManualDagBuilder(4)
        s1 = builder.servers[0]
        builder.round_all(rs_for={s1: [(L, Broadcast(1))]})
        tip = builder._tip[s1]
        sibling = builder.fork(s1, rs=[(L, Broadcast(2))])
        interp = Interpreter(builder.dag, brb_protocol, builder.servers)
        interp.run()
        # The two versions of s1's chain position hold *different*
        # states for the same label — the paper's §4 split.
        a = interp.state_of(tip.ref).pis[L]
        b = interp.state_of(sibling.ref).pis[L]
        assert a is not b


class PoisonPill(Request):
    pass


class FaultyInc(Request):
    pass


class _Poisoned(ProcessInstance):
    """Counts requests; raises on the poison pill *after* emitting."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.count = 0

    def on_request(self, request: Request) -> None:
        self.count += 1
        self.ctx.broadcast(Echo(self.count))
        if isinstance(request, PoisonPill):
            raise RuntimeError("poisoned step")

    def on_message(self, message: Message) -> None:
        self.ctx.indicate(Indication())


poisoned_protocol = ProtocolSpec(name="poisoned", factory=_Poisoned)


class _IndicatesThenPoisoned(ProcessInstance):
    """Indicates on every request; raises on the poison pill *after*
    indicating."""

    def on_request(self, request: Request) -> None:
        self.ctx.indicate(Indication())
        if isinstance(request, PoisonPill):
            raise RuntimeError("poisoned step")

    def on_message(self, message: Message) -> None:
        pass


indicating_poisoned_protocol = ProtocolSpec(
    name="indicating-poisoned", factory=_IndicatesThenPoisoned
)


class TestMetricAtomicity:
    def test_mid_block_exception_leaves_counters_untouched(self):
        builder = ManualDagBuilder(4)
        good = builder.round_all(rs_for={builder.servers[0]: [(L, Broadcast(0))]})
        interp = Interpreter(builder.dag, poisoned_protocol, builder.servers)
        interp.run()
        snapshot = (
            interp.blocks_interpreted,
            interp.request_steps,
            interp.messages_delivered,
            interp.messages_materialized,
        )
        assert snapshot[0] == 4
        bad = builder.block(
            builder.servers[1],
            refs=[b for b in good if b.n != builder.servers[1]],
            rs=[(L, PoisonPill())],
        )
        with pytest.raises(RuntimeError, match="poisoned step"):
            interp.run()
        # The raising block was not marked interpreted and none of its
        # partial work leaked into the counters.
        assert bad.ref not in interp.interpreted
        assert snapshot == (
            interp.blocks_interpreted,
            interp.request_steps,
            interp.messages_delivered,
            interp.messages_materialized,
        )
        # The block is still scheduled: a later run() retries it.
        with pytest.raises(RuntimeError, match="poisoned step"):
            interp.run()

    def test_mid_block_exception_leaks_no_indications(self):
        builder = ManualDagBuilder(4)
        s1 = builder.servers[0]
        seen = []
        interp = Interpreter(
            builder.dag,
            indicating_poisoned_protocol,
            builder.servers,
            on_indication=seen.append,
        )
        bad = builder.block(s1, rs=[(L, FaultyInc()), (L, PoisonPill())])
        for _ in range(2):
            with pytest.raises(RuntimeError, match="poisoned step"):
                interp.run()
        # The first request indicated before the second raised; neither
        # the event log nor the hook may see a block that was never
        # marked interpreted, and the retry must not add a copy.
        assert bad.ref not in interp.interpreted
        assert interp.events == []
        assert seen == []

    def test_counters_drift_free_across_modes(self):
        builder = ManualDagBuilder(4)
        for r in range(4):
            rs_for = {builder.servers[r % 4]: [(L, Inc(r + 1))]}
            builder.round_all(rs_for=rs_for)
        a = Interpreter(BlockDag(), counter_protocol, builder.servers)
        b = ReferenceInterpreter(
            BlockDag(), counter_protocol, builder.servers
        )
        for interp in (a, b):
            for block in builder.dag.blocks():
                interp.dag.insert(block)
            interp.run()
        for name in (
            "blocks_interpreted",
            "request_steps",
            "messages_delivered",
            "messages_materialized",
        ):
            assert getattr(a, name) == getattr(b, name), name
