"""Checkpoints cost what changed — and fold from disk exactly as before.

``capture_checkpoint`` takes unchanged entries over from the previous
checkpoint, ``CheckpointManager.write`` splices their memoised bytes and
appends only a delta to the log; none of it may change a byte of the
checkpoint.  The oracle here is the capture it replaced, kept in this
module: after *every* checkpoint of a scenario run it re-snapshots the
shim from scratch — every live entry re-frozen, every entry re-encoded
through the plain dict path — and demands that the log on disk fold to
exactly that full frame.
"""

import dataclasses

import zlib
from typing import Any

import pytest

from helpers import ManualDagBuilder, fresh_interpreter
from repro.dag import codec
from repro.protocols.brb import Broadcast, brb_protocol
from repro.scenario import (
    CrashFault,
    FaultSchedule,
    OpenLoopWorkload,
    RoundsElapsed,
    Scenario,
    registry,
)
from repro.scenario.runner import run_scenario
from repro.scenario.spec import StorageSpec, Topology
from repro.shim.shim import Shim
from repro.storage.blockstore import ServerStorage
from repro.storage.checkpoint import (
    _FRAME,
    BlockSkeleton,
    Checkpoint,
    _materialize_entry,
    _parent_ref,
    _to_wire,
    capture_checkpoint,
    restore_block_state,
)
from repro.storage.gc import prune
from repro.storage.state_codec import snapshot_process
from repro.types import Label


def reference_capture(seq, interpreter, dag, owner, previous) -> Checkpoint:
    """The from-scratch snapshot: nothing of a live block is taken from
    ``previous``; released blocks (whose state is gone from memory) are
    carried from it, materialized when their base just left."""
    live = [r for r in interpreter.interpreted if r not in interpreter.released]
    carried = []
    if previous is not None:
        carried = [
            r for r in interpreter.released
            if r in previous.states and not dag.payload_pruned(r)
        ]
    planned = set(live) | set(carried)
    states: dict[Any, dict[str, Any]] = {}
    active = {}
    for ref in live:
        state = interpreter.state_of(ref)
        own = interpreter.own_labels(ref)
        parent = _parent_ref(dag, ref)
        base = parent if (parent is not None and parent in planned) else None
        labels = own if base is not None else state.pis.keys()
        buffers = (
            state._ms.snapshot() if state._ms is not None else {"in": {}, "out": {}}
        )
        states[ref] = {
            "pis": {str(l): snapshot_process(state.pis[l]) for l in sorted(labels)},
            "in": {str(l): tuple(sorted(m, key=codec.encode))
                   for l, m in buffers["in"].items()},
            "out": {str(l): tuple(sorted(m, key=codec.encode))
                    for l, m in buffers["out"].items()},
            "own": tuple(sorted(str(l) for l in own)),
            "base": base,
        }
        active[ref] = tuple(sorted(interpreter.active_labels(ref)))
    for ref in carried:
        entry = previous.states[ref]
        if entry.get("base") is not None and entry["base"] not in planned:
            entry = _materialize_entry(previous.states, ref)
        states[ref] = entry
        active[ref] = previous.active[ref]
    return Checkpoint(
        seq=seq,
        refs=frozenset(interpreter.interpreted),
        states=states,
        active=active,
        released=frozenset(interpreter.released),
        skeletons={
            ref: BlockSkeleton(
                n=b.n, k=b.k, preds=b.preds, sigma=bytes(b.sigma), hz=b.hz
            )
            for ref in dag.pruned_payloads
            for b in (dag.require(ref),)
        },
        events=tuple(
            (e.label, e.indication, e.server, e.block_ref)
            for e in interpreter.events
            if e.block_ref not in interpreter.released or e.server == owner
        ),
        counters={
            name: getattr(interpreter, name)
            for name in (
                "blocks_interpreted", "messages_delivered",
                "messages_materialized", "request_steps", "rehydrated",
            )
        },
    )


def framed(wire: dict[str, Any]) -> bytes:
    payload = codec.encode(wire)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def reference_frame(checkpoint: Checkpoint) -> bytes:
    wire = _to_wire(checkpoint)
    # Plain entries through the ordinary dict path, not the splice.
    wire["states"] = {str(ref): entry for ref, entry in checkpoint.states.items()}
    return framed(wire)


class CheckpointOracle:
    """Checks every checkpoint any shim takes while installed."""

    def __init__(self, monkeypatch) -> None:
        #: The oracle's own previous snapshot per shim object.
        self.previous: dict[Shim, Checkpoint] = {}
        self.checked = 0
        self.after_restart = 0
        self.kept_without_memo = 0
        self.decodes_in_write = 0
        #: Bytes of every checkpoint as one full frame, and the bytes
        #: the log actually wrote for them.
        self.full_bytes = 0
        self.written_bytes = 0
        #: Per shim, ``(full frame, bytes appended)`` of each write that
        #: appended a delta instead of starting a new generation.
        self.appends: dict[Shim, list[tuple[int, int]]] = {}
        self._in_write = False
        real_now = Shim.checkpoint_now
        real_write = ServerStorage.write_checkpoint
        real_decode = codec.decode
        oracle = self

        def checkpoint_now(shim: Shim) -> None:
            if shim.storage is None:
                return real_now(shim)
            previous = oracle.previous.get(shim)
            # First checkpoint of a recovered shim: its ``previous`` came
            # off the disk and has no memo.  Load our own copy of it.
            loaded = None if shim in oracle.previous else shim._last_checkpoint
            if loaded is not None:
                assert not loaded.encoded
                previous = shim.storage.checkpoints.load(loaded.seq)
                oracle.after_restart += 1
            before = shim.storage.checkpoints.bytes_written
            real_now(shim)
            written = shim._last_checkpoint
            if loaded is not None:
                oracle.kept_without_memo += sum(
                    1 for ref, entry in written.states.items()
                    if loaded.states.get(ref) is entry
                )
            reference = reference_capture(
                written.seq, shim.interpreter, shim.dag, shim.server, previous
            )
            oracle.previous[shim] = reference
            checkpoints = shim.storage.checkpoints
            full = reference_frame(reference)
            folded = checkpoints.latest()
            assert folded.seq == written.seq
            assert framed(_to_wire(folded)) == full, (
                f"{shim.server} checkpoint {written.seq} folds to something "
                f"else than the from-scratch snapshot"
            )
            oracle.checked += 1
            oracle.full_bytes += len(full)
            written_bytes = checkpoints.bytes_written - before
            oracle.written_bytes += written_bytes
            if checkpoints.sequences()[-1] != written.seq:
                oracle.appends.setdefault(shim, []).append((len(full), written_bytes))

        def write_checkpoint(storage: ServerStorage, checkpoint: Checkpoint) -> None:
            oracle._in_write = True
            try:
                real_write(storage, checkpoint)
            finally:
                oracle._in_write = False

        def decode(data: bytes) -> Any:
            oracle.decodes_in_write += oracle._in_write
            return real_decode(data)

        monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
        monkeypatch.setattr(ServerStorage, "write_checkpoint", write_checkpoint)
        monkeypatch.setattr(codec, "decode", decode)


def durable_ledger() -> Scenario:
    """The ``live-durable`` shape on the simulator: one shared ledger
    label, four requests a round, pruning checkpoints — plus a crash
    and restart-from-disk so a loaded ``previous`` is exercised."""
    rounds = 14
    return Scenario(
        name="durable-ledger",
        protocol="ledger",
        seed=3,
        topology=Topology(
            n=4, storage=StorageSpec(checkpoint_interval=8, prune=True)
        ),
        workload=OpenLoopWorkload(
            rate=4, rounds=rounds, sender="random", shared_label="ledger"
        ),
        faults=FaultSchedule(
            (CrashFault(server="s2", crash_round=6, restart_round=9),)
        ),
        stop=RoundsElapsed(rounds + 6),
        max_rounds=rounds + 6,
    )


def long_durable_ledger() -> Scenario:
    """The same shape over 40 rounds and without the crash: enough
    checkpoints for a trend."""
    base = durable_ledger()
    rounds = 40
    return dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload, rounds=rounds),
        faults=FaultSchedule(()),
        stop=RoundsElapsed(rounds + 6),
        max_rounds=rounds + 6,
    )


SCENARIOS = {
    "mixed-faults": lambda: registry.get("mixed-faults"),
    "durable-ledger": durable_ledger,
}


#: Bytes the log writes, as a share of writing every checkpoint as one
#: full frame.  ``mixed-faults`` is a short run whose full frame grows
#: from 8 to 426 KiB in six checkpoints, so the deltas outgrow each new
#: full frame within two writes and it compacts every second write
#: (0.66; 0.47 with no compaction at all).  ``durable-ledger`` writes
#: 0.51.
WRITE_SHARE = {"durable-ledger": 0.6, "mixed-faults": 0.7}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_checkpoint_fold_equals_the_from_scratch_snapshot(
    name, monkeypatch, tmp_path
):
    oracle = CheckpointOracle(monkeypatch)
    result = run_scenario(SCENARIOS[name](), storage_root=tmp_path)
    assert result.requests_delivered == result.requests_issued
    assert oracle.checked >= 8
    assert result.restarts == 1
    # (d) the restarted server checkpointed again from a ``previous``
    # that was loaded (no memo), kept entries of it, and still matched.
    assert oracle.after_restart >= 1
    assert oracle.kept_without_memo > 0
    # (c) nothing is decoded to verify a write.
    assert oracle.decodes_in_write == 0
    assert 0 < result.storage.checkpoint_entries_reused
    assert (
        result.storage.checkpoint_entries_reused
        <= result.storage.checkpoint_entries_written
    )
    # The bytes actually written, counted, against the full frames.
    assert sum(len(rows) for rows in oracle.appends.values()) >= oracle.checked / 3
    assert oracle.written_bytes < WRITE_SHARE[name] * oracle.full_bytes


def test_appended_bytes_outside_new_entries_stay_flat_while_the_fold_grows(
    monkeypatch, tmp_path
):
    """A delta holds the state entries new in its interval — which
    snapshot a ledger that grows with the run — and what the interval
    added to the unbounded sections (refs, released, skeletons,
    events).  Past the entries, what each delta appends stays flat
    while the same sections of the full frame grow with history."""
    rows: list[tuple[int, int]] = []
    real_now = Shim.checkpoint_now

    def checkpoint_now(shim: Shim) -> None:
        previous = shim._last_checkpoint
        checkpoints = shim.storage.checkpoints
        before = checkpoints.bytes_written
        real_now(shim)
        written = shim._last_checkpoint
        if shim.server != "s1" or checkpoints.sequences()[-1] == written.seq:
            return
        new = [r for r, e in written.states.items() if previous.states.get(r) is not e]

        def entry_bytes(refs) -> int:
            return sum(len(written.state_bytes(ref)) for ref in refs)

        rows.append(
            (
                len(framed(_to_wire(written))) - entry_bytes(written.states),
                checkpoints.bytes_written - before - entry_bytes(new),
            )
        )

    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(long_durable_ledger(), storage_root=tmp_path)
    assert len(rows) >= 10
    half = len(rows) // 2
    assert max(a for _, a in rows[half:]) <= 1.1 * max(a for _, a in rows[:half])
    assert rows[-1][0] >= 4 * rows[0][0]


def test_work_outside_new_entries_stays_flat_while_the_fold_grows(
    monkeypatch, tmp_path
):
    """The checkpoint pass costs what changed: per checkpoint on s1, the
    blocks ``prunable_refs`` examines, the skeletons built and the
    ``codec.encode`` calls outside new entries (their containers and
    first-seen messages) stay flat while the history a full frame folds
    grows at least fourfold."""
    import repro.storage.checkpoint as checkpoint_module
    import repro.storage.gc as gc_module
    from repro.dag.blockdag import BlockDag
    from repro.protocols.base import Message

    rows: list[dict[str, int]] = []
    folds: list[int] = []
    counts = {"examined": 0, "skeletons": 0, "encodes": 0}
    inside: set[str] = set()
    seen_messages: set[Message] = set()

    def counted_within(name, real):
        def wrapper(*args, **kwargs):
            inside.add(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.discard(name)

        return wrapper

    real_require = BlockDag.require
    real_skeleton = BlockSkeleton.__init__
    real_encode = codec.encode
    real_now = Shim.checkpoint_now

    def require(dag, ref):
        counts["examined"] += "prunable_refs" in inside
        return real_require(dag, ref)

    def skeleton(self, *args, **kwargs):
        counts["skeletons"] += "pass" in inside
        real_skeleton(self, *args, **kwargs)

    def encode(value):
        if "pass" in inside and not inside & {"snapshot_process", "state_bytes"}:
            first_seen = type(value) is Message and value not in seen_messages
            counts["encodes"] += not first_seen
            if first_seen:
                seen_messages.add(value)
        return real_encode(value)

    def checkpoint_now(shim: Shim) -> None:
        if shim.server != "s1":
            return real_now(shim)
        for name in counts:
            counts[name] = 0
        inside.add("pass")
        try:
            real_now(shim)
        finally:
            inside.discard("pass")
        rows.append(dict(counts))
        written = shim._last_checkpoint
        folds.append(
            len(framed(_to_wire(written)))
            - sum(len(written.state_bytes(ref)) for ref in written.states)
        )

    monkeypatch.setattr(
        gc_module, "prunable_refs",
        counted_within("prunable_refs", gc_module.prunable_refs),
    )
    monkeypatch.setattr(
        checkpoint_module, "snapshot_process",
        counted_within("snapshot_process", checkpoint_module.snapshot_process),
    )
    monkeypatch.setattr(
        Checkpoint, "state_bytes",
        counted_within("state_bytes", Checkpoint.state_bytes),
    )
    monkeypatch.setattr(BlockDag, "require", require)
    monkeypatch.setattr(BlockSkeleton, "__init__", skeleton)
    monkeypatch.setattr(codec, "encode", encode)
    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(long_durable_ledger(), storage_root=tmp_path)
    assert len(rows) >= 10
    work = [sum(row.values()) for row in rows]
    half = len(rows) // 2
    assert max(work[half:]) <= 1.1 * max(work[:half]), rows
    assert folds[-1] >= 4 * folds[0]


def test_a_checkpoint_pass_never_calls_the_interpreters_message_order(
    monkeypatch, tmp_path
):
    """Capture takes the runs the buffers keep, already in ``<_M``
    order, so the order is never computed on the checkpoint path — its
    cost stays where the runs are emitted."""
    import sys

    from repro.interpret import order

    real_ordered = order.ordered
    calls = {"pass": 0, "passes": 0}
    in_pass = []

    def ordered(messages):
        calls["pass"] += bool(in_pass)
        return real_ordered(messages)

    for module in list(sys.modules.values()):
        if getattr(module, "ordered", None) is real_ordered:
            monkeypatch.setattr(module, "ordered", ordered)
    real_now = Shim.checkpoint_now

    def checkpoint_now(shim: Shim) -> None:
        calls["passes"] += 1
        in_pass.append(shim)
        try:
            real_now(shim)
        finally:
            in_pass.pop()

    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(durable_ledger(), storage_root=tmp_path)
    assert calls["passes"] >= 8
    assert calls["pass"] == 0


def test_mixed_faults_smoke_reuses_at_least_half_its_entries(monkeypatch):
    oracle = CheckpointOracle(monkeypatch)
    result = run_scenario(registry.get("mixed-faults", smoke=True))
    assert oracle.checked > 0 and oracle.decodes_in_write == 0
    storage = result.storage
    assert storage.checkpoint_entries_written > 0
    assert storage.checkpoint_entries_reused / storage.checkpoint_entries_written >= 0.5


def test_new_entries_hold_each_label_in_message_order(monkeypatch):
    """Capture takes an entry's ``in`` and ``out`` as the runs the
    buffers keep and sorts nothing, so every entry a capture builds must
    already hold each label's messages once, in ``<_M`` order."""
    from repro.shim import shim as shim_module

    real_capture = shim_module.capture_checkpoint
    seen = {"captures": 0, "entries": 0, "longer_runs": 0}

    def capture(seq, interpreter, dag, owner=None, previous=None):
        checkpoint = real_capture(seq, interpreter, dag, owner=owner, previous=previous)
        seen["captures"] += 1
        for ref, entry in checkpoint.states.items():
            if ref in interpreter.released:
                continue  # carried from the previous checkpoint as it was
            if previous is not None and previous.states.get(ref) is entry:
                continue
            seen["entries"] += 1
            state = interpreter.state_of(ref)
            sets = (
                state._ms.snapshot() if state._ms is not None else {"in": {}, "out": {}}
            )
            for side in ("in", "out"):
                assert entry[side] == {
                    str(label): tuple(sorted(messages, key=codec.encode))
                    for label, messages in sets[side].items()
                }
                seen["longer_runs"] += sum(len(run) > 1 for run in entry[side].values())
        return checkpoint

    monkeypatch.setattr(shim_module, "capture_checkpoint", capture)
    run_scenario(registry.get("mixed-faults", smoke=True))
    assert seen["captures"] > 0 and seen["entries"] > 0 and seen["longer_runs"] > 0


def test_a_capture_after_a_rehydration_puts_the_dropped_events_back():
    """Events of a released block on behalf of others are dropped; when
    a late reference rehydrates the block they return in place, and the
    next capture puts them back."""
    builder = ManualDagBuilder(3)
    for i in range(6):
        builder.round_all(
            rs_for={builder.servers[i % 3]: [(Label(f"l{i}"), Broadcast(i))]}
        )
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    owner = builder.servers[0]
    first = capture_checkpoint(1, interpreter, builder.dag, owner=owner)
    prune(
        builder.dag, interpreter, frozenset(first.states), horizon={},
        allow_destruction=False,
    )
    second = capture_checkpoint(
        2, interpreter, builder.dag, owner=owner, previous=first
    )
    late = next(
        ref for ref in sorted(interpreter.released)
        if any(e.block_ref == ref and e.server != owner for e in interpreter.events)
    )
    interpreter.rehydrator = lambda ref: restore_block_state(
        second, brb_protocol, builder.servers, ref
    )
    builder.fork(builder.servers[1], refs=[late], rs=[(Label("late"), Broadcast(9))])
    interpreter.run()
    assert late not in interpreter.released
    third = capture_checkpoint(
        3, interpreter, builder.dag, owner=owner, previous=second
    )
    reference = reference_capture(3, interpreter, builder.dag, owner, second)
    assert framed(_to_wire(third)) == reference_frame(reference)
    assert len(third.events) > len(second.events)


@pytest.mark.parametrize("horizon", [3, 10, 1])
def test_entries_whose_base_left_are_rebuilt_not_kept(horizon):
    """The three ways an entry meets its second checkpoint: kept as is
    (same base), carried but materialized (released, base retired) and
    — with a horizon covering the live tips' parents, which lose their
    payloads at once — re-frozen in full because the base left."""
    builder = ManualDagBuilder(3)
    for i in range(5):
        builder.round_all(
            rs_for={builder.servers[i % 3]: [(Label(f"l{i}"), Broadcast(i))]}
        )
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    previous = capture_checkpoint(1, interpreter, builder.dag)
    _to_wire(previous)  # as after a write: every entry has its bytes
    assert previous.encoded.keys() == previous.states.keys()
    prune(
        builder.dag, interpreter, frozenset(previous.states),
        horizon=dict.fromkeys(builder.servers, horizon),
    )
    checkpoint = capture_checkpoint(2, interpreter, builder.dag, previous=previous)
    reference = reference_capture(2, interpreter, builder.dag, None, previous)
    rebased = [
        ref for ref, entry in checkpoint.states.items()
        if entry["base"] != previous.states[ref]["base"]
    ]
    assert rebased and not any(ref in checkpoint.encoded for ref in rebased)
    if horizon == 3:
        assert any(ref not in interpreter.released for ref in rebased)
    assert framed(_to_wire(checkpoint)) == reference_frame(reference)
