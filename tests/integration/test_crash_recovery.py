"""CRASH — Theorem 5.1 across a crash fault.

The paper's §7 observes that crash-recovery is "a great match for the
block DAG approach": the DAG is the durable log, so a recovering party
re-synchronizes it and continues.  With the storage subsystem the
repro makes that executable: a :class:`CrashFault` kills a correct
server mid-run (all volatile state gone), restarts it from its WAL +
checkpoint, and the run must converge to

* byte-identical block annotations between the recovered server and an
  uninterrupted peer (Lemma 4.2 across the restart), and
* the same observable trace as an uninterrupted run of the same
  workload (Theorem 5.1 across the crash).
"""

from pathlib import Path

import pytest

from helpers import scan_indications
from repro.errors import SimulationError
from repro.interpret.interpreter import Interpreter
from repro.invariants import same_indications
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.counter import Inc, counter_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.faults import CrashFault, FaultSchedule
from repro.shim.shim import Shim
from repro.scenario import registry, run_scenario
from repro.scenario.spec import PROTOCOLS
from repro.storage.blockstore import StorageConfig
from repro.storage.checkpoint import CheckpointManager
from repro.storage.state_codec import annotation_fingerprint
from repro.types import Label, make_servers

L = Label("l")


def crash(server, crash_round, restart_round=None):
    return CrashFault(
        server=server, crash_round=crash_round, restart_round=restart_round
    )


def crash_cluster(
    tmp_path, *crashes, protocol=brb_protocol, n=4, interval=8, prune=True
):
    config = ClusterConfig(
        storage_dir=tmp_path,
        storage=StorageConfig(checkpoint_interval=interval, prune=prune),
    )
    return Cluster(protocol, n=n, config=config, faults=FaultSchedule(crashes))


def workload(cluster, count=6):
    labels = []
    for i in range(count):
        lbl = Label(f"tx-{i}")
        labels.append(lbl)
        cluster.request(cluster.servers[i % len(cluster.servers)], lbl, Broadcast(i))
    return labels


def run_to_convergence(cluster, labels, max_rounds=48):
    return cluster.run_until(
        lambda c: not c.down
        and c.restarts_performed
        == len([e for e in c.faults.crash_events() if e.restart_round is not None])
        and all(c.all_delivered(lbl) for lbl in labels)
        and c.dags_converged(),
        max_rounds=max_rounds,
    )


def shared_fingerprints(cluster, reference, other):
    """Annotation fingerprints over all blocks both servers can still
    serve (pruned prefixes excluded on either side)."""
    ref_interp = cluster.shim(reference).interpreter
    oth_interp = cluster.shim(other).interpreter
    checked = 0
    for block in cluster.shim(reference).dag:
        ref = block.ref
        if ref in ref_interp.released or ref in oth_interp.released:
            continue
        if ref not in oth_interp.interpreted:
            continue
        yield ref, annotation_fingerprint(ref_interp, ref), annotation_fingerprint(
            oth_interp, ref
        )
        checked += 1
    assert checked > 0, "no comparable blocks — test would be vacuous"


class TestCrashRestartConvergence:
    def test_restarted_server_annotations_byte_identical(self, tmp_path):
        """The acceptance-criteria scenario: crash + restart-from-disk
        of a correct server; annotations converge byte-identically."""
        cluster = crash_cluster(tmp_path, crash("s2", 3, 6))
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        assert cluster.crashes_performed == 1
        assert cluster.restarts_performed == 1
        recovered = cluster.shim("s2")
        assert recovered.recovery is not None
        assert recovered.recovery.blocks_recovered > 0
        for ref, ours, theirs in shared_fingerprints(cluster, "s1", "s2"):
            assert ours == theirs, f"annotation mismatch at {ref[:8]}…"

    def test_matches_fresh_offline_interpretation(self, tmp_path):
        """The recovered server's annotations equal an uninterrupted,
        from-scratch interpretation of the converged DAG — recovery is
        indistinguishable from never having crashed."""
        cluster = crash_cluster(tmp_path, crash("s3", 2, 5), prune=False)
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        recovered = cluster.shim("s3")
        scratch = Interpreter(
            recovered.dag, brb_protocol, cluster.servers
        )
        scratch.run()
        assert scratch.interpreted == recovered.interpreter.interpreted
        for block in recovered.dag:
            assert annotation_fingerprint(
                scratch, block.ref
            ) == annotation_fingerprint(recovered.interpreter, block.ref)

    def test_same_trace_as_uninterrupted_run(self, tmp_path):
        """Observable equivalence: a crash-and-recover run delivers the
        same per-instance indications as a run without the crash."""
        crashed = crash_cluster(tmp_path / "crashed", crash("s2", 3, 6))
        labels = workload(crashed)
        run_to_convergence(crashed, labels)

        smooth = Cluster(brb_protocol, n=4)
        for i, lbl in enumerate(labels):
            smooth.request(smooth.servers[i % 4], lbl, Broadcast(i))
        smooth.run_until(
            lambda c: all(c.all_delivered(lbl) for lbl in labels), max_rounds=24
        )
        assert same_indications(smooth.trace(), crashed.trace()) == []

    def test_recovered_indication_history_complete(self, tmp_path):
        """The restarted server re-reports its full pre-crash ledger:
        indications delivered before the crash come back from the
        checkpoint + WAL replay."""
        cluster = crash_cluster(tmp_path, crash("s1", 4, 7), interval=4)
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        recovered = cluster.shim("s1")
        peer = cluster.shim("s2")
        assert {
            (lbl, ind.value) for lbl, ind in recovered.indications
        } == {(lbl, ind.value) for lbl, ind in peer.indications}

    def test_recovered_index_matches_history(self, tmp_path):
        """Checkpoint-restored and replayed indications both reach the
        per-label index through the shim's one delivery method: after a
        restart from disk, ``indications_for`` answers what a scan of
        the history answers, for every label."""
        cluster = crash_cluster(tmp_path, crash("s1", 4, 7), interval=4)
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        recovered = cluster.shim("s1")
        assert recovered.recovery.indications_restored > 0
        for label in labels:
            assert recovered.indications_for(label) == scan_indications(
                recovered, label
            )
            assert recovered.indications_for(label), label


class TestRecoveryMechanics:
    def test_wal_topological_after_out_of_order_arrival(self, tmp_path):
        """Blocks delivered child-before-parent (routine under network
        reordering / FWD chasing) must land in the WAL in topological
        order — recovery replays it with ``dag.insert``, which rejects
        a child whose parent has not been replayed yet.  Regression
        test for the buffered-chain drain admitting a descendant before
        the unblocking block's own WAL append ran."""
        from repro.crypto.keys import KeyRing
        from repro.net.message import BlockEnvelope
        from repro.net.simulator import NetworkSimulator
        from repro.net.transport import SimTransport
        from repro.storage.blockstore import ServerStorage

        servers = make_servers(2)
        ring = KeyRing(servers)
        sim = NetworkSimulator()
        for server in servers:
            sim.register(server, lambda src, env: None)
        builder = Shim(servers[0], brb_protocol, ring, SimTransport(sim, servers[0]))
        chain = [builder.gossip.disseminate_to([]) for _ in range(5)]

        receiver = Shim(
            servers[1], brb_protocol, ring, SimTransport(sim, servers[1]),
            storage=ServerStorage(tmp_path / "s2", config=StorageConfig()),
        )
        for block in reversed(chain[1:]):
            receiver.on_network(servers[0], BlockEnvelope(block))
        receiver.on_network(servers[0], BlockEnvelope(chain[0]))
        assert [b.ref for b in receiver.storage.load_blocks()] == [
            b.ref for b in chain
        ]

        recovered = Shim(
            servers[1], brb_protocol, ring, SimTransport(sim, servers[1]),
            storage=ServerStorage(tmp_path / "s2", config=StorageConfig()),
        )
        assert len(recovered.dag) == 5
        assert recovered.interpreter.interpreted == receiver.interpreter.interpreted

    def test_checkpoint_bounds_replay(self, tmp_path):
        """Restart replays only the suffix: with a small checkpoint
        interval, blocks replayed ≪ blocks recovered."""
        cluster = crash_cluster(tmp_path, crash("s2", 6, 8), interval=4)
        labels = workload(cluster, count=8)
        run_to_convergence(cluster, labels)
        report = cluster.shim("s2").recovery
        assert report.checkpoint_seq is not None
        assert report.states_restored > 0
        assert report.blocks_replayed < report.blocks_recovered

    def test_pruning_retires_covered_wal_records(self, tmp_path):
        """WAL GC fires: a long run retires the WAL records its retained
        checkpoints cover (``docs/costs.json`` of the golden corpus pins
        the exact count), and the files stay one per server."""
        result = run_scenario(registry.get("pruning", smoke=True), storage_root=tmp_path)
        assert result.storage.wal_records_retired > 0
        for server in make_servers(4):
            assert len(list((tmp_path / server / "wal").glob("wal-*.log"))) == 1

    def test_chain_resumes_without_sequence_gap(self, tmp_path):
        """The restarted server continues its own chain with consecutive
        sequence numbers and no equivocation (Lemma A.6 preserved)."""
        cluster = crash_cluster(tmp_path, crash("s2", 3, 5))
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        view = cluster.shim("s1").dag
        own = view.by_server("s2")
        assert [b.k for b in own] == list(range(len(own)))
        assert view.forks() == {}

    def test_server_left_down_does_not_block_the_rest(self, tmp_path):
        cluster = crash_cluster(tmp_path, crash("s4", 2))
        cluster.request(cluster.servers[0], L, Broadcast("x"))
        # s4 stays down forever, so the default all_delivered (which
        # quantifies over the *configured* correct set) can never hold;
        # live_only is the documented opt-out for exactly this shape.
        cluster.run_until(
            lambda c: c.all_delivered(L, live_only=True), max_rounds=24
        )
        assert not cluster.all_delivered(L)
        assert "s4" in cluster.down
        assert sorted(cluster.correct_servers) == ["s1", "s2", "s3"]

    def test_crash_fault_requires_storage(self):
        with pytest.raises(SimulationError, match="storage_dir"):
            Cluster(brb_protocol, n=4, faults=FaultSchedule((crash("s1", 1, 2),)))

    def test_double_crash_of_same_server(self, tmp_path):
        """Crash, recover, crash again, recover again — each recovery
        builds on the previous incarnation's log."""
        cluster = crash_cluster(
            tmp_path, crash("s2", 2, 4), crash("s2", 7, 9), interval=4
        )
        labels = workload(cluster)
        run_to_convergence(cluster, labels)
        assert cluster.crashes_performed == 2
        assert cluster.restarts_performed == 2
        for ref, ours, theirs in shared_fingerprints(cluster, "s1", "s2"):
            assert ours == theirs

    def test_wal_suffix_loss_trims_checkpoint_and_recovers(self, tmp_path):
        """Without fsync an OS crash can lose a WAL suffix the newest
        checkpoint already references; recovery trims to the maximal
        reconstructible prefix instead of failing, and the server
        re-fetches the lost tail over gossip."""
        from repro.crypto.keys import KeyRing
        from repro.net.simulator import NetworkSimulator
        from repro.net.transport import SimTransport
        from repro.storage.blockstore import ServerStorage

        config = ClusterConfig(
            storage_dir=tmp_path,
            storage=StorageConfig(checkpoint_interval=4),
        )
        cluster = Cluster(brb_protocol, n=4, config=config)
        labels = workload(cluster, count=4)
        cluster.run_rounds(6)
        original_dag = len(cluster.shim("s1").dag)

        # Lose the last WAL record *and then some* — cut into the
        # record before it, past what tail repair alone covers.
        wal_dir = tmp_path / "s1" / "wal"
        last = sorted(wal_dir.glob("wal-*.log"))[-1]
        last.write_bytes(last.read_bytes()[:-5])

        storage = ServerStorage(tmp_path / "s1")
        shim = Shim(
            "s1",
            brb_protocol,
            KeyRing(make_servers(4)),
            SimTransport(NetworkSimulator(), "s1"),
            storage=storage,
        )
        assert shim.recovery.refs_trimmed >= 1
        assert len(shim.dag) < original_dag
        assert len(shim.dag) == len(shim.interpreter.interpreted)

    def test_cross_process_recovery(self, tmp_path):
        """A genuinely separate Python process recovers from the WAL +
        checkpoint another process left behind — nothing in the durable
        format depends on in-process state (codec registry included)."""
        import subprocess
        import sys
        import textwrap

        env_src = str(Path(__file__).parent.parent.parent / "src")
        build = textwrap.dedent(f"""
            import os, sys
            sys.path.insert(0, {env_src!r})
            from repro import Cluster, ClusterConfig
            from repro.protocols.brb import Broadcast, brb_protocol
            from repro.storage import StorageConfig
            from repro.types import Label
            config = ClusterConfig(
                storage_dir={str(tmp_path)!r},
                storage=StorageConfig(checkpoint_interval=6),
            )
            cluster = Cluster(brb_protocol, n=4, config=config)
            for i in range(4):
                cluster.request(cluster.servers[i % 4], Label(f"t{{i}}"), Broadcast(i))
            cluster.run_rounds(6)
            os._exit(9)  # hard crash: no clean shutdown anywhere
        """)
        result = subprocess.run([sys.executable, "-c", build])
        assert result.returncode == 9

        recover = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {env_src!r})
            from repro.crypto.keys import KeyRing
            from repro.net.simulator import NetworkSimulator
            from repro.net.transport import SimTransport
            from repro.protocols.brb import brb_protocol
            from repro.shim.shim import Shim
            from repro.storage import ServerStorage
            from repro.types import make_servers
            servers = make_servers(4)
            shim = Shim(
                "s1", brb_protocol, KeyRing(servers),
                SimTransport(NetworkSimulator(), "s1"),
                storage=ServerStorage({str(tmp_path)!r} + "/s1"),
            )
            assert shim.recovery is not None
            assert shim.recovery.blocks_recovered > 0
            assert len(shim.dag) > 0
            print("OK", len(shim.dag), len(shim.indications))
        """)
        result = subprocess.run(
            [sys.executable, "-c", recover], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK")

    def test_counter_protocol_totals_survive_crash(self, tmp_path):
        cluster = crash_cluster(tmp_path, crash("s3", 3, 5), protocol=counter_protocol)
        for amount, server in zip((1, 2, 3, 4), cluster.servers):
            cluster.request(server, L, Inc(amount))
        cluster.run_until(
            lambda c: not c.down
            and c.restarts_performed == 1
            and all(
                shim.indications_for(L)
                and shim.indications_for(L)[-1].value == 10
                for shim in c.shims.values()
            ),
            max_rounds=32,
        )
        finals = {
            s: cluster.shim(s).indications_for(L)[-1].value
            for s in cluster.correct_servers
        }
        assert finals == {s: 10 for s in cluster.servers}

    def test_two_newest_checkpoints_kept_on_disk(self, tmp_path):
        config = ClusterConfig(
            storage_dir=tmp_path, storage=StorageConfig(checkpoint_interval=4)
        )
        cluster = Cluster(brb_protocol, n=4, config=config)
        workload(cluster)
        cluster.run_rounds(12)
        manager = cluster.shim("s1").storage.checkpoints
        written = manager.next_seq() - 1
        # The two newest roots are retained, in one object log.
        assert manager.sequences() == [written - 1, written]
        assert manager.load(written - 1).seq == written - 1
        assert manager.latest().seq == written
        assert len(list((tmp_path / "s1" / "checkpoints").glob("ckpt-*.bin"))) == 1

    def test_restart_falls_back_to_the_older_checkpoint(self, tmp_path):
        """A newest checkpoint that does not load costs replay, not the
        restart: recovery starts from the one before it and ends in the
        same annotations as an uninterrupted peer."""
        config = ClusterConfig(
            storage_dir=tmp_path, storage=StorageConfig(checkpoint_interval=4)
        )
        cluster = Cluster(brb_protocol, n=4, config=config)
        labels = workload(cluster)
        cluster.run_rounds(8)
        cluster.crash("s2")
        (log,) = (tmp_path / "s2" / "checkpoints").glob("ckpt-*.bin")
        newest = CheckpointManager(log.parent).sequences()[-1]
        # The log ends in the newest root: tear it.
        log.write_bytes(log.read_bytes()[:-5])
        recovered = cluster.restart("s2")
        assert recovered.recovery.checkpoint_seq == newest - 1
        catch_up(cluster, labels)
        for ref, ours, theirs in shared_fingerprints(cluster, "s1", "s2"):
            assert ours == theirs, f"annotation mismatch at {ref[:8]}…"


#: Requests enter at the view-0 leader for PBFT, which decides only its
#: proposal; phase king decides nothing without ``PkAdvance``, so its
#: runs are judged on annotations alone.
def catch_up(cluster, labels):
    """Convergence after a crash and restart driven by hand."""
    cluster.run_until(
        lambda c: all(c.all_delivered(lbl) for lbl in labels) and c.dags_converged(),
        max_rounds=48,
    )


def protocol_workload(cluster, name, count=6):
    entry = PROTOCOLS[name]
    for i in range(count):
        server = cluster.servers[0] if name == "pbft" else cluster.servers[i % 4]
        cluster.request(server, Label(f"{name}-{i}"), entry.make_request(i))


class TestRecoveryAcrossProtocols:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_recovered_dag_interprets_identically(self, tmp_path, name):
        """For every protocol: the restarted server continues its own
        chain, and its annotations equal both an uninterrupted peer's and
        a from-scratch interpretation of its recovered DAG."""
        spec = PROTOCOLS[name].spec
        cluster = crash_cluster(
            tmp_path, crash("s2", 3, 6), protocol=spec, interval=4, prune=False
        )
        protocol_workload(cluster, name)
        cluster.run_rounds(10)
        cluster.run_until(lambda c: c.dags_converged(), max_rounds=24)
        recovered = cluster.shim("s2")
        assert recovered.recovery.blocks_recovered > 0

        own = cluster.shim("s1").dag.by_server("s2")
        assert [b.k for b in own] == list(range(len(own)))
        # One block per round up: three rounds before the crash, then
        # every round from the restart on.
        assert len(own) == cluster.rounds_run - 3

        scratch = Interpreter(recovered.dag, spec, cluster.servers)
        scratch.run()
        assert scratch.interpreted == recovered.interpreter.interpreted
        for block in recovered.dag:
            assert annotation_fingerprint(scratch, block.ref) == annotation_fingerprint(
                recovered.interpreter, block.ref
            )
        for ref, ours, theirs in shared_fingerprints(cluster, "s1", "s2"):
            assert ours == theirs, f"annotation mismatch at {ref[:8]}…"


class TestCatchUpAfterRestart:
    @pytest.mark.parametrize("down_rounds", [2, 4, 8])
    def test_fwd_chases_only_what_the_disk_lacked(self, tmp_path, down_rounds):
        """Restart from disk, then FWD chasing: the recovered server
        holds exactly its pre-crash DAG, and every FWD it sends names a
        block it did not have — nothing recovered is shipped again."""
        cluster = crash_cluster(tmp_path, prune=False)
        labels = workload(cluster)
        cluster.run_rounds(3)
        before = set(cluster.shim("s2").dag.refs)
        cluster.crash("s2")
        cluster.run_rounds(down_rounds)
        recovered = cluster.restart("s2")
        assert set(recovered.dag.refs) == before
        assert recovered.recovery.blocks_recovered == len(before)

        chased = []
        send_fwd = recovered.gossip._send_fwd

        def recording(ref, target):
            chased.append(ref)
            send_fwd(ref, target)

        recovered.gossip._send_fwd = recording
        catch_up(cluster, labels)
        assert chased, "the gap was never chased"
        assert before.isdisjoint(chased)
        assert set(chased) <= set(recovered.dag.refs)


def restart_from(directory, server, protocol, servers, config):
    """A fresh shim for ``server`` recovered from ``directory``."""
    from repro.crypto.keys import KeyRing
    from repro.net.simulator import NetworkSimulator
    from repro.net.transport import SimTransport
    from repro.storage.blockstore import ServerStorage

    storage = ServerStorage(directory, config)
    shim = Shim(
        server,
        protocol,
        KeyRing(servers),
        SimTransport(NetworkSimulator(), server),
        storage=storage,
    )
    storage.close()
    return shim


def restarted(scenario, directory):
    """A fresh shim recovered from a copy of one server's storage."""
    return restart_from(
        directory,
        directory.name,
        PROTOCOLS[scenario.protocol].spec,
        scenario.topology.servers(),
        scenario.topology.storage.build(),
    )


def test_a_record_retired_before_the_crash_is_not_counted_as_recovered(tmp_path):
    """``blocks_recovered`` counts the blocks recovery inserts from the
    WAL.  A record retired before the crash but not yet compacted away
    is replayed again; its skeleton was inserted first, so recovery
    skips the block and does not count it.  The restart ends where one
    from a log of the live records alone ends.  (It used to count every
    record replayed.)"""
    import shutil

    from repro.storage.wal import WriteAheadLog

    cluster = crash_cluster(tmp_path / "run", interval=4)
    labels = workload(cluster)
    wal = cluster.shim("s2").storage.wal
    cluster.run_until(
        lambda c: all(c.all_delivered(lbl) for lbl in labels)
        and wal.size_bytes() > wal.live_bytes(),
        max_rounds=60,
    )
    live = [payload for _, payload in wal.replay()]
    cluster.crash("s2")
    directory = tmp_path / "run" / "s2"
    retained, compacted = tmp_path / "retained", tmp_path / "compacted"
    shutil.copytree(directory, retained)
    shutil.copytree(directory / "checkpoints", compacted / "checkpoints")
    log = WriteAheadLog(compacted / "wal")
    for payload in live:
        log.append(payload)
    log.close()
    replayed = WriteAheadLog(retained / "wal")
    assert replayed.record_count() > len(live)
    replayed.close()

    config = StorageConfig(checkpoint_interval=4, prune=True)
    kept, clean = (
        restart_from(d, "s2", brb_protocol, cluster.servers, config)
        for d in (retained, compacted)
    )
    assert kept.recovery.skeletons_inserted > 0
    assert kept.recovery.refs_trimmed == clean.recovery.refs_trimmed == 0
    assert kept.dag.refs == clean.dag.refs
    assert kept.indications == clean.indications
    assert kept.recovery.blocks_recovered == clean.recovery.blocks_recovered
    assert kept.recovery.blocks_recovered == len(kept.dag) - kept.recovery.skeletons_inserted


def test_a_newest_root_that_does_not_load_falls_back_with_every_block(tmp_path):
    """Every retained root, with the WAL, rebuilds the server: on the
    full ``pruning`` run, a flipped byte in each server's newest root
    sends recovery to the older root, which still finds every block it
    names — in its skeletons or in the WAL's live records — and ends in
    the indications a restart from the undamaged copy ends in.  (WAL
    records used to go on the newest root's coverage alone, so this
    restart failed with ``MissingPredecessorError``.)"""
    import shutil

    scenario = registry.get("pruning")
    result = run_scenario(scenario, storage_root=tmp_path / "run")
    assert result.storage.wal_records_retired > 0
    for server in scenario.topology.servers():
        intact, damaged = (tmp_path / kind / server for kind in ("intact", "damaged"))
        shutil.copytree(tmp_path / "run" / server, intact)
        shutil.copytree(tmp_path / "run" / server, damaged)
        (log,) = (damaged / "checkpoints").glob("ckpt-*.bin")
        newest = CheckpointManager(log.parent).sequences()[-1]
        # The log ends in the newest root: flip its last byte.
        data = bytearray(log.read_bytes())
        data[-1] ^= 0xFF
        log.write_bytes(bytes(data))
        reference, fallen_back = restarted(scenario, intact), restarted(scenario, damaged)
        assert reference.recovery.checkpoint_seq == newest
        assert fallen_back.recovery.checkpoint_seq == newest - 1
        assert fallen_back.recovery.refs_trimmed == 0
        assert fallen_back.indications == reference.indications
        assert fallen_back.dag.refs == reference.dag.refs


def damage_every_root(directory):
    """Flip a byte in every root frame of a server's object log, so no
    root loads; returns the sequence numbers it held."""
    from repro.storage.checkpoint import _FRAME, _HEAD, _ROOT

    (log,) = (directory / "checkpoints").glob("ckpt-*.bin")
    held = CheckpointManager(log.parent)._roots
    data = bytearray(log.read_bytes())
    offset = 0
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        if data[offset + _FRAME.size : offset + _FRAME.size + 1] == _ROOT:
            data[offset + _FRAME.size + _HEAD] ^= 0xFF
        offset += _FRAME.size + length
    log.write_bytes(bytes(data))
    assert CheckpointManager(log.parent).latest() is None
    return sorted(held)


def test_no_loadable_root_after_records_retired_names_the_cause(tmp_path):
    """With both retained roots damaged and WAL records retired and
    compacted away, no checkpoint stands for the retired records'
    blocks: recovery says so with a ``StorageError`` instead of failing
    to insert a block.  (It used to raise ``MissingPredecessorError``.)
    The full ``pruning`` run, since the smoke retires records but ends
    before a compaction drops any."""
    import shutil

    from repro.errors import StorageError

    scenario = registry.get("pruning")
    result = run_scenario(scenario, storage_root=tmp_path / "run")
    assert result.storage.wal_records_retired > 0
    for server in scenario.topology.servers():
        shutil.copytree(tmp_path / "run" / server, tmp_path / server)
        assert len(damage_every_root(tmp_path / server)) >= 2
        with pytest.raises(StorageError, match="no retained checkpoint loads"):
            restarted(scenario, tmp_path / server)


def test_no_loadable_root_without_retired_records_replays_the_wal(tmp_path):
    """With every root damaged but no WAL record retired, the WAL alone
    rebuilds the server: recovery replays it whole and ends with the
    DAG and indications a restart from the undamaged store ends with."""
    import dataclasses
    import shutil

    scenario = registry.get("pruning", smoke=True)
    storage = dataclasses.replace(scenario.topology.storage, prune=False)
    scenario = dataclasses.replace(
        scenario, topology=dataclasses.replace(scenario.topology, storage=storage)
    )
    result = run_scenario(scenario, storage_root=tmp_path / "run")
    assert result.storage.wal_records_retired == 0
    for server in scenario.topology.servers():
        intact, damaged = (tmp_path / kind / server for kind in ("intact", "damaged"))
        shutil.copytree(tmp_path / "run" / server, intact)
        shutil.copytree(tmp_path / "run" / server, damaged)
        assert len(damage_every_root(damaged)) >= 2
        reference, replayed = restarted(scenario, intact), restarted(scenario, damaged)
        assert reference.recovery.checkpoint_seq is not None
        assert replayed.recovery.checkpoint_seq is None
        assert replayed.recovery.blocks_recovered == len(reference.dag)
        assert replayed.dag.refs == reference.dag.refs
        assert replayed.indications == reference.indications
        assert replayed.indications
