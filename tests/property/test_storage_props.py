"""Property tests for the storage subsystem.

The core property is the one the whole design rests on: *persisting is
lossless*.  Any DAG, round-tripped through WAL write → close → reopen →
rebuild, yields an identical ``BlockDag``, and (Lemma 4.2) an
interpreter over the rebuilt DAG computes byte-identical annotations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ManualDagBuilder, fresh_interpreter, frozen
from repro.dag import codec
from repro.dag.blockdag import BlockDag
from repro.interpret.interpreter import Interpreter
from repro.protocols.brb import Broadcast, brb_protocol
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.dag.block import Block
from repro.interpret.interpreter import IndicationEvent
from repro.storage.checkpoint import (
    Checkpoint,
    _chains,
    _event_wire,
    _skeleton_wire,
    _walk,
)
from repro.storage.state_codec import (
    ObjectWriter,
    annotation_fingerprint,
    object_name,
    object_value,
    thaw,
)
from repro.storage.wal import WriteAheadLog
from repro.types import BlockRef, Label, ServerId


def build_random_dag(draw_rounds, requests, fork_round):
    """A valid shared DAG with a random layered shape, random request
    placement, and optionally one equivocation fork."""
    builder = ManualDagBuilder(4)
    for round_index in range(draw_rounds):
        rs_for = {}
        for server_index, value in requests.get(round_index, []):
            server = builder.servers[server_index]
            rs_for.setdefault(server, []).append(
                (Label(f"l{server_index}-{round_index}"), Broadcast(value))
            )
        builder.round_all(rs_for=rs_for)
        if fork_round == round_index:
            builder.fork(
                builder.servers[3], rs=[(Label("forked"), Broadcast("fork"))]
            )
    return builder


rounds_strategy = st.integers(min_value=1, max_value=4)
requests_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers()),
        max_size=2,
    ),
    max_size=3,
)
fork_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=2))


class TestWalRoundTrip:
    @given(rounds_strategy, requests_strategy, fork_strategy)
    @settings(max_examples=20, deadline=None)
    def test_rebuilt_dag_and_annotations_identical(
        self, tmp_path_factory, rounds, requests, fork_round
    ):
        tmp_path = tmp_path_factory.mktemp("wal-prop")
        builder = build_random_dag(rounds, requests, fork_round)
        original = fresh_interpreter(builder, brb_protocol)
        original.run()

        # Write every block in insertion order, crash-close, reopen.
        storage = ServerStorage(tmp_path, StorageConfig())
        for block in builder.dag.blocks():
            storage.append_block(block)
        storage.close()

        reopened = ServerStorage(tmp_path)
        rebuilt = BlockDag()
        for block in reopened.load_blocks():
            rebuilt.insert(block)

        assert rebuilt.refs == builder.dag.refs
        assert rebuilt.graph.edges == builder.dag.graph.edges
        assert {b.ref: b.rs for b in rebuilt} == {
            b.ref: b.rs for b in builder.dag
        }

        replayed = Interpreter(rebuilt, brb_protocol, builder.servers)
        replayed.run()
        assert replayed.interpreted == original.interpreted
        for block in builder.dag:
            assert annotation_fingerprint(
                replayed, block.ref
            ) == annotation_fingerprint(original, block.ref)

    @given(st.lists(st.binary(min_size=0, max_size=200), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_wal_preserves_arbitrary_payloads_in_order(
        self, tmp_path_factory, records
    ):
        tmp_path = tmp_path_factory.mktemp("wal-bytes")
        log = WriteAheadLog(tmp_path)
        for record in records:
            log.append(record)
        log.close()
        assert [p for _, p in WriteAheadLog(tmp_path).replay()] == records

    @given(
        st.lists(st.binary(min_size=0, max_size=80), max_size=30),
        st.lists(st.sets(st.integers(min_value=0, max_value=29)), max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_retiring_keeps_the_live_records_in_order(
        self, tmp_path_factory, raw, batches
    ):
        """Whatever is retired in whatever batches, the log replays the
        rest in append order and a compaction leaves at most twice the
        live bytes on disk.  Retirement is held in memory until a
        compaction drops the bytes, so a reopened log replays every live
        record in order, and perhaps retired ones not yet dropped."""
        tmp_path = tmp_path_factory.mktemp("wal-retire")
        records = [bytes([i]) + record for i, record in enumerate(raw)]
        log = WriteAheadLog(tmp_path)
        numbers = [log.append(record) for record in records]
        live = dict(zip(numbers, records))
        for batch in batches:
            gone = [n for n in sorted(batch) if n in live]
            log.retire(gone)
            for number in gone:
                del live[number]
            assert list(log.replay()) == list(live.items())
            assert log.size_bytes() <= 2 * log.live_bytes()
        log.close()
        reopened = [p for _, p in WriteAheadLog(tmp_path).replay()]
        assert [p for p in reopened if p in live.values()] == list(live.values())
        assert reopened == [p for p in records if p in reopened]

    @given(
        st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_torn_tail_loses_at_most_the_last_record(
        self, tmp_path_factory, records, torn
    ):
        tmp_path = tmp_path_factory.mktemp("wal-torn")
        log = WriteAheadLog(tmp_path)
        for record in records:
            log.append(record)
        log.close()
        (path,) = list(tmp_path.glob("wal-*.log"))
        data = path.read_bytes()
        # A crash tears at most the record being appended: bound the cut
        # to the final record's frame.
        cut = min(torn, 8 + len(records[-1]))
        path.write_bytes(data[: len(data) - cut])
        recovered = [p for _, p in WriteAheadLog(tmp_path).replay()]
        assert recovered in (records, records[:-1])


# Encodable value trees for the freeze/thaw property (mirrors
# test_codec_props.trees, plus the mutable containers freeze exists for).
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=20),
    st.binary(max_size=20),
)


def mutable_trees(depth=3):
    if depth == 0:
        return scalars
    sub = mutable_trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), sub, max_size=3),
        st.sets(st.integers(), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
    )


class TestFreezeThaw:
    @given(mutable_trees())
    @settings(max_examples=150)
    def test_roundtrip_value_and_types(self, value):
        wire, load = frozen(value)
        codec.decode(codec.encode(wire))  # wire form must be encodable
        thawed = thaw(wire, load)
        assert thawed == value
        assert type(thawed) is type(value)

    @given(mutable_trees())
    @settings(max_examples=100)
    def test_roundtrip_through_codec(self, value):
        wire, load = frozen(value)
        thawed = thaw(codec.decode(codec.encode(wire)), load)
        assert thawed == value
        assert type(thawed) is type(value)


@st.composite
def trees_sharing_containers(draw):
    """Successive values to freeze, in which the *same* ``list``/``dict``/
    ``set`` objects turn up under several parents and in several of the
    values — the sharing copy-on-write forks leave between annotations."""
    pool = draw(
        st.lists(
            st.one_of(
                st.lists(mutable_trees(1), max_size=3),
                st.dictionaries(st.text(max_size=4), mutable_trees(1), max_size=3),
                st.sets(st.integers(), max_size=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    tree = st.recursive(
        st.one_of(scalars, st.sampled_from(pool)),
        lambda sub: st.one_of(
            st.lists(sub, max_size=3),
            st.lists(sub, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=4), sub, max_size=3),
        ),
        max_leaves=8,
    )
    return draw(st.lists(tree, min_size=2, max_size=4))


def assert_same_containers(thawed, value):
    """Equal, and of the same container type at every level (``==``
    alone lets a ``frozenset`` pass for a ``set``)."""
    assert type(thawed) is type(value) and thawed == value
    if isinstance(value, (list, tuple)):
        for ours, theirs in zip(thawed, value):
            assert_same_containers(ours, theirs)
    elif isinstance(value, dict):
        for key in value:
            assert_same_containers(thawed[key], value[key])


class TestObjectsPerContainer:
    @given(trees_sharing_containers())
    @settings(max_examples=150)
    def test_objects_thaw_to_the_value_and_each_is_built_once(self, values):
        writer = ObjectWriter()
        wires = []
        for value in values:
            out = bytearray()
            writer._write(value, out)
            wires.append(codec.decode(bytes(out)))
        built = dict(writer.built)
        for wire, value in zip(wires, values):
            assert_same_containers(thaw(wire, lambda name: object_value(built[name])), value)
        # A name is its content's hash.
        assert all(object_name(data) == name for name, data in built.items())
        # A writer that knows what this one reached encodes nothing.
        again = ObjectWriter(writer.reached)
        for value in values:
            again._write(value, bytearray())
        assert not again.built


class TestHistoryChains:
    """A chain holds exactly its section, whatever the sections a run
    goes through: skeletons growing, or losing members and starting
    over; events growing, with or without being told which are new."""

    @given(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 3)), st.integers(0, 2), st.booleans()
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_a_chain_walks_to_its_section(self, steps):
        refs = [BlockRef(f"r{i}") for i in range(4)]
        stubs = [Block.stub(ref, ServerId("s1"), i, (), b"sig", ()) for i, ref in enumerate(refs)]
        writer = ObjectWriter()
        previous = None
        events: tuple[IndicationEvent, ...] = ()
        for seq, (members, new_events, told) in enumerate(steps):
            fresh = tuple(
                IndicationEvent(Label("l"), len(events) + i, ServerId("s1"), refs[0])
                for i in range(new_events)
            )
            events += fresh
            checkpoint = Checkpoint(
                seq=seq, states={}, skeletons={refs[i]: stubs[i] for i in members},
                events=events,
            )
            checkpoint.chains = _chains(writer, checkpoint, previous, fresh if told else None)
            objects = {name: object_value(data) for name, data in writer.built.items()}
            walked = _walk(objects, checkpoint.chains["skeletons"])
            assert codec.encode(sorted(walked)) == codec.encode(
                [_skeleton_wire(refs[i], stubs[i]) for i in sorted(members)]
            )
            assert codec.encode(_walk(objects, checkpoint.chains["events"])) == codec.encode(
                [_event_wire(e) for e in events]
            )
            previous = checkpoint
