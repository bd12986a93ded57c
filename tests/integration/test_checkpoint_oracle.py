"""Checkpoints cost what changed — and load from disk exactly as before.

``capture_checkpoint`` takes unchanged rows over from the previous
checkpoint and names every object it met before without encoding it;
``CheckpointManager.write`` appends only the objects the store lacks and
a root.  None of it may change what a checkpoint says.  The oracle here
is a capture from scratch, kept in this module: after *every*
checkpoint of a scenario run it re-snapshots the shim with a writer that
knows nothing — every live row and every object rebuilt, by the
reflective writer ``tests/reference_writer.py`` keeps — and demands
that the root on disk load to exactly that snapshot.  Objects are named
by their bytes, so equal names are equal state.
"""

import dataclasses
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
    COUNTERS,
    Checkpoint,
    CheckpointManager,
    _merged_pis,
    _parent_ref,
    capture_checkpoint,
    restore_block_state,
)
from repro.storage.gc import prune
from repro.storage import state_codec
from repro.storage.state_codec import ObjectWriter
from repro.types import Label
from reference_writer import ReferenceWriter


def reference_capture(seq, interpreter, dag, previous) -> Checkpoint:
    """The from-scratch snapshot: nothing of a live block is taken from
    ``previous``; released blocks (whose state is gone from memory) are
    carried from it, every label named when their base just left."""
    writer = ReferenceWriter()
    released = interpreter.released
    live = [r for r in interpreter.interpreted if r not in released]
    carried = []
    if previous is not None:
        carried = [
            r for r in released
            if r in previous.states and not dag.payload_pruned(r)
        ]
    planned = set(live) | set(carried)
    states: dict[Any, dict[str, Any]] = {}
    for ref in live:
        state = interpreter.state_of(ref)
        parent = _parent_ref(dag, ref)
        base = parent if (parent is not None and parent in planned) else None
        runs = state._ms.runs() if state._ms is not None else {"in": {}, "out": {}}
        # A block stepped exactly the labels of its Ms[out] (lines 6, 11).
        labels = runs["out"].keys() if base is not None else state.pis.keys()
        states[ref] = {
            "pis": {str(l): writer.instance(state.pis[l]) for l in labels},
            "in": {str(l): r for l, r in runs["in"].items()},
            "out": {str(l): r for l, r in runs["out"].items()},
            "base": base,
        }
    for ref in carried:
        entry = previous.states[ref]
        if entry.get("base") is not None and entry["base"] not in planned:
            entry = {**entry, "pis": _merged_pis(previous.states, ref), "base": None}
        states[ref] = entry
    return Checkpoint(
        seq=seq,
        states=states,
        carried=frozenset(carried),
        skeletons={ref: dag.require(ref) for ref in dag.pruned_payloads},
        events=tuple(interpreter.events),
        counters={name: getattr(interpreter, name) for name in COUNTERS},
    )


def contents(checkpoint: Checkpoint) -> bytes:
    """Everything a checkpoint says, canonically encoded."""
    return codec.encode(
        {
            "seq": checkpoint.seq,
            "refs": sorted(checkpoint.refs),
            "states": {
                str(ref): (e["base"], e["pis"], e["in"], e["out"])
                for ref, e in checkpoint.states.items()
            },
            "released": sorted(checkpoint.released),
            "skeletons": {
                str(r): (s.n, s.k, s.preds, s.sigma, s.hz)
                for r, s in checkpoint.skeletons.items()
            },
            "events": tuple(
                (str(e.label), e.indication, str(e.server), str(e.block_ref))
                for e in checkpoint.events
            ),
            "counters": checkpoint.counters,
        }
    )


def stored_bytes(manager, checkpoint: Checkpoint) -> int:
    """What a store holding only ``checkpoint`` would hold: every frame
    its root reaches (a loaded checkpoint has read them all)."""
    objects = sum(manager._objects[name][2] for name in checkpoint.objects)
    return manager._roots[checkpoint.seq][2] + objects


class CheckpointOracle:
    """Checks every checkpoint any shim takes while installed."""

    def __init__(self, monkeypatch) -> None:
        #: The oracle's own previous snapshot per shim object.
        self.previous: dict[Shim, Checkpoint] = {}
        self.checked = 0
        self.after_restart = 0
        self.kept_without_memo = 0
        #: Bytes a store holding each checkpoint alone would hold, and
        #: the bytes the log actually appended for them.
        self.full_bytes = 0
        self.written_bytes = 0
        #: Objects decoded while a checkpoint is written, outside the
        #: store GC's mark (which reads each object once for its links).
        self.decodes_in_write = 0
        self._in = {"write": False, "collect": False}
        real_now = Shim.checkpoint_now
        real_write = ServerStorage.write_checkpoint
        real_collect = CheckpointManager._collect
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
                assert loaded.memo is None
                previous = shim.storage.checkpoints.load(loaded.seq)
                oracle.after_restart += 1
            checkpoints = shim.storage.checkpoints
            before = checkpoints.bytes_written
            real_now(shim)
            written = shim._last_checkpoint
            if loaded is not None:
                oracle.kept_without_memo += sum(
                    1 for ref, entry in written.states.items()
                    if loaded.states.get(ref) is entry
                )
            reference = reference_capture(
                written.seq, shim.interpreter, shim.dag, previous
            )
            oracle.previous[shim] = reference
            folded = checkpoints.latest()
            assert folded.seq == written.seq
            assert contents(folded) == contents(reference), (
                f"{shim.server} checkpoint {written.seq} loads to something "
                f"else than the from-scratch snapshot"
            )
            oracle.checked += 1
            oracle.full_bytes += stored_bytes(checkpoints, folded)
            oracle.written_bytes += checkpoints.bytes_written - before

        def within(step, real):
            def wrapper(*args):
                oracle._in[step] = True
                try:
                    return real(*args)
                finally:
                    oracle._in[step] = False

            return wrapper

        def decode(data: bytes) -> Any:
            oracle.decodes_in_write += oracle._in["write"] and not oracle._in["collect"]
            return real_decode(data)

        monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
        monkeypatch.setattr(ServerStorage, "write_checkpoint", within("write", real_write))
        monkeypatch.setattr(CheckpointManager, "_collect", within("collect", real_collect))
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


#: Bytes the log appends, as a share of storing every checkpoint alone
#: (every object its root reaches).  A checkpoint shares most of its
#: objects with the one before it, so each appends a small share.
WRITE_SHARE = {"durable-ledger": 0.3, "mixed-faults": 0.5}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_checkpoint_fold_equals_the_from_scratch_snapshot(
    name, monkeypatch, tmp_path
):
    """Every root loads to what a capture from scratch makes."""
    oracle = CheckpointOracle(monkeypatch)
    result = run_scenario(SCENARIOS[name](), storage_root=tmp_path)
    assert result.requests_delivered == result.requests_issued
    assert oracle.checked >= 8
    assert result.restarts == 1
    # The restarted server checkpointed again from a ``previous`` that
    # was loaded (no memo), kept rows of it, and still matched.
    assert oracle.after_restart >= 1
    assert oracle.kept_without_memo > 0
    assert 0 < result.storage.checkpoint_objects_stored
    assert 0 < result.storage.checkpoint_objects_appended
    assert oracle.written_bytes < WRITE_SHARE[name] * oracle.full_bytes
    assert oracle.decodes_in_write == 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_object_a_capture_builds_is_the_reference_writers(name, monkeypatch):
    """Each object a capture builds — every instance and container of
    its new rows, and every row it writes — has the name and the bytes
    the reference writer gives the same value from scratch.  A resident
    block's row is rebuilt from its annotation: its instances and its
    runs as the interpreter holds them; a released one's from its entry."""
    from repro.protocols.base import ProcessInstance
    from repro.shim import shim as shim_module

    real_capture = shim_module.capture_checkpoint
    seen = {"captures": 0, "objects": 0, "rows": 0, "annotated": 0}

    def capture(seq, interpreter, dag, previous=None):
        checkpoint = real_capture(seq, interpreter, dag, previous=previous)
        built = checkpoint.objects.built
        reference = ReferenceWriter()
        for value_name, value in checkpoint.values.items():
            assert isinstance(value, ProcessInstance)
            if value_name in built:
                assert reference.instance(value) == value_name
        resident = interpreter.resident()
        for ref, row_name in checkpoint.rows.items():
            if row_name not in built:
                continue
            entry = checkpoint.states[ref]
            if ref in resident:
                state = interpreter.state_of(ref)
                runs = state._ms.runs() if state._ms is not None else {"in": {}, "out": {}}
                entry = {
                    "pis": {l: reference.instance(state.pis[Label(l)]) for l in entry["pis"]},
                    "in": {str(l): r for l, r in runs["in"].items()},
                    "out": {str(l): r for l, r in runs["out"].items()},
                    "base": entry["base"],
                }
                seen["annotated"] += 1
            assert reference.row(ref, entry) == row_name
            seen["rows"] += 1
        skip = set(checkpoint.chains.values())
        for object_name, data in built.items():
            if object_name not in skip:
                assert reference.built.get(object_name) == data
                seen["objects"] += 1
        seen["captures"] += 1
        return checkpoint

    monkeypatch.setattr(shim_module, "capture_checkpoint", capture)
    scenario = SCENARIOS[name]()
    if name == "mixed-faults":
        scenario = registry.get("mixed-faults", smoke=True)
    run_scenario(scenario)
    assert seen["captures"] >= 8 and seen["objects"] > 100
    assert seen["annotated"] > 0 and seen["rows"] > seen["annotated"] // 2


def test_a_capture_hashes_each_object_and_a_server_encodes_each_message_once(
    monkeypatch,
):
    """Within one capture no object's bytes are hashed twice, and over
    the run each server encodes each message object once: while a
    retained row's run holds it, its bytes are kept."""
    hashed: list[bytes] = []
    encoded: dict[tuple[str, int], int] = {}
    alive = []
    server = []
    real_name = state_codec.object_name
    real_encode = ObjectWriter._encode_message
    real_now = Shim.checkpoint_now
    seen = {"captures": 0, "messages": 0}

    def object_name(blob: bytes) -> bytes:
        hashed.append(blob)
        return real_name(blob)

    def encode_message(writer, message):
        key = (server[-1], id(message))
        encoded[key] = encoded.get(key, 0) + 1
        alive.append(message)  # its id stays its own
        return real_encode(writer, message)

    def checkpoint_now(shim: Shim) -> None:
        hashed.clear()
        server.append(shim.server)
        try:
            real_now(shim)
        finally:
            server.pop()
        assert len(set(hashed)) == len(hashed), f"{shim.server} hashed an object twice"
        seen["captures"] += 1

    monkeypatch.setattr(state_codec, "object_name", object_name)
    monkeypatch.setattr(ObjectWriter, "_encode_message", encode_message)
    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(registry.get("mixed-faults", smoke=True))
    assert seen["captures"] >= 8 and len(encoded) > 100
    assert max(encoded.values()) == 1, [k for k, v in encoded.items() if v > 1][:5]


def test_appended_bytes_outside_new_rows_stay_flat_while_the_history_grows(
    monkeypatch, tmp_path
):
    """A checkpoint appends the objects of the rows new in its interval
    — which snapshot a ledger that grows with the run — and, past them,
    its root and one chunk per history section that grew.  That stays
    flat while the history the chains hold grows with the run."""
    rows: list[tuple[int, int]] = []
    real_now = Shim.checkpoint_now

    def checkpoint_now(shim: Shim) -> None:
        previous = shim._last_checkpoint
        checkpoints = shim.storage.checkpoints
        real_now(shim)
        written = shim._last_checkpoint
        if shim.server != "s1" or previous is None:
            return
        heads = previous.chains
        new_chunks = [h for s, h in written.chains.items() if h is not None and h != heads.get(s)]
        outside = checkpoints._roots[written.seq][2] + sum(
            checkpoints._objects[h][2] for h in new_chunks
        )
        view = checkpoints.load(written.seq).objects
        history = 0
        for head in written.chains.values():
            while head is not None:
                history += checkpoints._objects[head][2]
                head = view[head][0]
        rows.append((history, outside))

    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(long_durable_ledger(), storage_root=tmp_path)
    assert len(rows) >= 10
    half = len(rows) // 2
    assert max(a for _, a in rows[half:]) <= 1.1 * max(a for _, a in rows[:half])
    assert rows[-1][0] >= 4 * rows[0][0]


def test_work_outside_new_rows_stays_flat_while_the_history_grows(
    monkeypatch, tmp_path
):
    """The checkpoint pass costs what changed: per checkpoint on s1, the
    blocks ``prunable_refs`` examines, the stubs the chain pass takes
    and the ``codec.encode`` calls outside the objects of new rows stay
    flat while the history grows at least fourfold."""
    import repro.storage.checkpoint as checkpoint_module
    import repro.storage.gc as gc_module
    from repro.dag.blockdag import BlockDag

    rows: list[dict[str, int]] = []
    histories: list[int] = []
    counts = {"examined": 0, "skeletons": 0, "encodes": 0}
    inside: set[str] = set()

    def counted_within(name, real):
        def wrapper(*args, **kwargs):
            inside.add(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.discard(name)

        return wrapper

    real_require = BlockDag.require
    real_encode = codec.encode
    real_now = Shim.checkpoint_now

    def require(dag, ref):
        counts["examined"] += "prunable_refs" in inside
        # The chain pass takes each newly pruned block's stub.
        counts["skeletons"] += "_chains" in inside
        return real_require(dag, ref)

    def encode(value):
        if "pass" in inside and not inside & {"_named", "_row"}:
            counts["encodes"] += 1
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
        histories.append(len(written.refs) + len(written.events))

    monkeypatch.setattr(
        gc_module, "prunable_refs",
        counted_within("prunable_refs", gc_module.prunable_refs),
    )
    monkeypatch.setattr(
        ObjectWriter, "_named", counted_within("_named", ObjectWriter._named)
    )
    monkeypatch.setattr(
        checkpoint_module, "_row", counted_within("_row", checkpoint_module._row)
    )
    monkeypatch.setattr(
        checkpoint_module, "_chains",
        counted_within("_chains", checkpoint_module._chains),
    )
    monkeypatch.setattr(BlockDag, "require", require)
    monkeypatch.setattr(codec, "encode", encode)
    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    run_scenario(long_durable_ledger(), storage_root=tmp_path)
    assert len(rows) >= 10
    work = [sum(row.values()) for row in rows]
    half = len(rows) // 2
    assert max(work[half:]) <= 1.1 * max(work[:half]), rows
    assert histories[-1] >= 4 * histories[0]


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

    def ordered(messages, *args):
        calls["pass"] += bool(in_pass)
        return real_ordered(messages, *args)

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


def test_mixed_faults_smoke_finds_at_least_half_its_objects_stored(monkeypatch):
    """Of the object bytes each checkpoint's root reaches, the store
    already holds at least half when it is written: it appends the
    rest."""
    oracle = CheckpointOracle(monkeypatch)
    result = run_scenario(registry.get("mixed-faults", smoke=True))
    assert oracle.checked > 0 and oracle.decodes_in_write == 0
    storage = result.storage
    assert storage.checkpoint_objects_appended > 0
    assert storage.checkpoint_objects_stored > 0
    assert oracle.written_bytes <= 0.5 * oracle.full_bytes


def test_new_rows_hold_each_label_in_message_order(monkeypatch):
    """Capture takes a row's ``in`` and ``out`` as the runs the buffers
    keep and sorts nothing, so every run a capture writes must already
    hold each label's messages once, in ``<_M`` order."""
    from repro.shim import shim as shim_module

    real_capture = shim_module.capture_checkpoint
    seen = {"captures": 0, "entries": 0, "longer_runs": 0}

    def capture(seq, interpreter, dag, previous=None):
        checkpoint = real_capture(seq, interpreter, dag, previous=previous)
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
                runs = dict(entry[side])
                assert runs == {
                    str(label): tuple(sorted(messages, key=codec.encode))
                    for label, messages in sets[side].items()
                }
                seen["longer_runs"] += sum(len(run) > 1 for run in runs.values())
        return checkpoint

    monkeypatch.setattr(shim_module, "capture_checkpoint", capture)
    run_scenario(registry.get("mixed-faults", smoke=True))
    assert seen["captures"] > 0 and seen["entries"] > 0 and seen["longer_runs"] > 0


def test_a_capture_after_a_rehydration_equals_the_from_scratch_snapshot():
    """A released block a late reference rehydrates comes back resident;
    the next capture snapshots it as a capture from scratch does."""
    builder = ManualDagBuilder(3)
    for i in range(6):
        builder.round_all(
            rs_for={builder.servers[i % 3]: [(Label(f"l{i}"), Broadcast(i))]}
        )
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    first = capture_checkpoint(1, interpreter, builder.dag)
    prune(
        builder.dag, interpreter, frozenset(first.states), horizon={},
        allow_destruction=False,
    )
    second = capture_checkpoint(2, interpreter, builder.dag, previous=first)
    late = sorted(interpreter.released)[0]
    interpreter.rehydrator = lambda ref: restore_block_state(
        second, brb_protocol, builder.servers, ref
    )
    builder.fork(builder.servers[1], refs=[late], rs=[(Label("late"), Broadcast(9))])
    interpreter.run()
    assert late not in interpreter.released
    third = capture_checkpoint(3, interpreter, builder.dag, previous=second)
    reference = reference_capture(3, interpreter, builder.dag, second)
    assert contents(third) == contents(reference)
    # It came back as the very annotation ``second`` holds a row for,
    # and its row is live again.
    assert third.rows[late] == second.rows[late]
    assert late in second.carried and late not in third.carried
    assert third.released == interpreter.released


@pytest.mark.parametrize("horizon", [3, 10, 1])
def test_rows_whose_base_left_name_every_label(horizon):
    """The three ways a row meets its second checkpoint: kept as is
    (same base), carried but naming every label (released, base
    retired) and — with a horizon covering the live tips' parents,
    which lose their payloads at once — rebuilt for every label because
    the base left."""
    builder = ManualDagBuilder(3)
    for i in range(5):
        builder.round_all(
            rs_for={builder.servers[i % 3]: [(Label(f"l{i}"), Broadcast(i))]}
        )
    interpreter = fresh_interpreter(builder, brb_protocol)
    interpreter.run()
    previous = capture_checkpoint(1, interpreter, builder.dag)
    prune(
        builder.dag, interpreter, frozenset(previous.states),
        horizon=dict.fromkeys(builder.servers, horizon),
    )
    checkpoint = capture_checkpoint(2, interpreter, builder.dag, previous=previous)
    reference = reference_capture(2, interpreter, builder.dag, previous)
    rebased = [
        ref for ref, entry in checkpoint.states.items()
        if entry["base"] != previous.states[ref]["base"]
    ]
    assert rebased
    assert all(checkpoint.rows[ref] != previous.rows[ref] for ref in rebased)
    if horizon == 3:
        assert any(ref not in interpreter.released for ref in rebased)
    assert contents(checkpoint) == contents(reference)


@pytest.mark.parametrize(
    "name, smoke",
    [
        ("crash-restart", True),
        ("gc-horizon-soak", True),
        ("mixed-faults", True),
        ("pruning", True),
        # Its restart installs carried rows.
        ("gc-horizon-soak", False),
    ],
)
def test_a_loaded_checkpoint_names_what_the_interpreter_held_at_capture(
    name, smoke, monkeypatch
):
    """A root records no interpreted or released refs; they are read
    off its rows and skeletons.  Reloaded from disk at every capture,
    its ``refs`` are the interpreter's ``interpreted`` and its
    ``released`` the interpreted refs with no resident annotation; and
    a restarted interpreter, once the checkpoint is installed, holds
    exactly the loaded checkpoint's ``released``."""
    from repro.storage import recover

    real_now = Shim.checkpoint_now
    real_install = recover.install_checkpoint
    seen = {"captures": 0, "released": 0, "installs": 0, "installed_released": 0}

    def checkpoint_now(shim: Shim) -> None:
        real_now(shim)
        if shim.storage is None:
            return
        interpreter = shim.interpreter
        loaded = shim.storage.checkpoints.load(shim._last_checkpoint.seq)
        assert loaded.refs == interpreter.interpreted
        resident = interpreter.resident()
        released = {ref for ref in interpreter.interpreted if ref not in resident}
        assert loaded.released == released
        seen["captures"] += 1
        seen["released"] += len(released)

    def install_checkpoint(checkpoint, interpreter, protocol):
        restored = real_install(checkpoint, interpreter, protocol)
        assert interpreter.released == checkpoint.released
        seen["installs"] += 1
        seen["installed_released"] += len(checkpoint.released)
        return restored

    monkeypatch.setattr(Shim, "checkpoint_now", checkpoint_now)
    monkeypatch.setattr(recover, "install_checkpoint", install_checkpoint)
    result = run_scenario(registry.get(name, smoke=smoke))
    assert seen["captures"] >= 8 and seen["released"] > 0
    assert seen["installs"] == result.restarts
    if not smoke:
        assert seen["installed_released"] > 0


def r_to_2r_probe(tmp_path, window=None, rounds=40):
    """ROADMAP 20(e)'s probe: an n = 4 BRB cluster with one request a
    round and a checkpoint every 8 blocks, run for two windows of
    ``rounds`` rounds.  ``window()`` is read before and after each, and
    the probe returns each window's difference, with the checkpoint
    bytes and objects its stores appended in front."""
    from repro.runtime.cluster import Cluster, ClusterConfig
    from repro.storage.blockstore import StorageConfig

    cluster = Cluster(
        brb_protocol, n=4,
        config=ClusterConfig(
            storage_dir=tmp_path, storage=StorageConfig(checkpoint_interval=8)
        ),
    )
    stores = [shim.storage.checkpoints for shim in cluster.shims.values()]

    def read():
        extra = () if window is None else tuple(window())
        return (
            sum(s.bytes_written for s in stores),
            sum(s.objects_appended for s in stores),
            *extra,
        )

    windows = []
    sent = 0
    try:
        for _ in range(2):
            before = read()
            for _ in range(rounds):
                server = cluster.servers[sent % len(cluster.servers)]
                cluster.request(server, Label(f"tx-{sent}"), Broadcast(sent))
                sent += 1
                cluster.run_rounds(1)
            windows.append(tuple(b - a for a, b in zip(before, read())))
    finally:
        for shim in cluster.shims.values():
            shim.storage.abandon()
    return windows


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 20(b): rows that name every label still grow with the labels requested",
)
def test_checkpoint_appends_stay_flat_from_r_to_2r_rounds(tmp_path):
    """ROADMAP 20(e)'s judge: an n = 4 BRB cluster with one request a
    round and a checkpoint every 8 blocks appends, over its second R
    rounds, checkpoint bytes and objects within 1.1x of its first R."""
    (first_bytes, first_objects), (second_bytes, second_objects) = r_to_2r_probe(tmp_path)
    assert first_bytes > 0 and first_objects > 0
    assert second_objects <= 1.1 * first_objects
    assert second_bytes <= 1.1 * first_bytes, (first_bytes, second_bytes)


def test_history_walks_stay_flat_from_r_to_2r_rounds(tmp_path, monkeypatch):
    """ROADMAP 20(e)'s counts on the same probe, each held within 1.1x
    from the first R rounds to the second while the history doubles:
    the chain positions the claim walk examines (``BlockDag.refs_at``)
    per checkpoint, and the skeleton entries captures touch — the pruned
    refs they read off ``BlockDag.pruned_payloads`` and the stubs their
    skeleton and chain passes take (``BlockDag.require``) — per block
    pruned.  Pruning starts a few rounds into the run, so the first
    window prunes fewer blocks than the second."""
    import repro.storage.checkpoint as checkpoint_module
    from repro.dag.blockdag import BlockDag

    counts = {"checkpoints": 0, "positions": 0, "skeletons": 0}
    inside: set[str] = set()

    def within(name, real):
        def wrapper(*args, **kwargs):
            inside.add(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.discard(name)

        return wrapper

    class Read(frozenset):
        """A pruned-ref set that counts the refs read from it."""

        def __contains__(self, ref):
            counts["skeletons"] += 1
            return super().__contains__(ref)

        def __iter__(self):
            for ref in super().__iter__():
                counts["skeletons"] += 1
                yield ref

    real_refs_at, real_require = BlockDag.refs_at, BlockDag.require
    real_pruned = BlockDag.pruned_payloads.fget
    real_now = Shim.checkpoint_now

    def refs_at(dag, server, k):
        counts["positions"] += "pass" in inside
        return real_refs_at(dag, server, k)

    def require(dag, ref):
        counts["skeletons"] += bool(inside & {"_capture_skeletons", "_chains"})
        return real_require(dag, ref)

    def pruned_payloads(dag):
        pruned = real_pruned(dag)
        return Read(pruned) if "pass" in inside else pruned

    def checkpoint_now(shim):
        counts["checkpoints"] += 1
        return real_now(shim)

    monkeypatch.setattr(BlockDag, "refs_at", refs_at)
    monkeypatch.setattr(BlockDag, "require", require)
    monkeypatch.setattr(BlockDag, "pruned_payloads", property(pruned_payloads))
    monkeypatch.setattr(Shim, "checkpoint_now", within("pass", checkpoint_now))
    for name in ("_capture_skeletons", "_chains"):
        real = getattr(checkpoint_module, name, None)
        if real is not None:
            monkeypatch.setattr(checkpoint_module, name, within(name, real))
    shims = []
    real_init = Shim.__init__

    def init(shim, *args, **kwargs):
        real_init(shim, *args, **kwargs)
        shims.append(shim)

    monkeypatch.setattr(Shim, "__init__", init)
    windows = r_to_2r_probe(
        tmp_path,
        lambda: (
            counts["checkpoints"], counts["positions"], counts["skeletons"],
            sum(len(real_pruned(shim.dag)) for shim in shims),
        ),
    )
    (_, _, *first), (_, _, *second) = windows
    checkpoints, positions, skeletons, pruned = first
    assert checkpoints > 0 and positions > 0 and skeletons > 0 and pruned > 0
    assert second[0] == checkpoints
    assert second[1] <= 1.1 * positions, windows
    assert second[2] / second[3] <= 1.1 * skeletons / pruned, windows
