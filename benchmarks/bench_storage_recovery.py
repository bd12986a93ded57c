"""STORAGE-RECOVERY — restart-from-checkpoint vs full re-interpretation.

The storage subsystem's pitch is quantitative: because interpretation
is a pure function of the DAG (Lemma 4.2), a crashed server *could*
recover by replaying its whole WAL and re-interpreting from genesis —
checkpoints + pruning exist so it restores a bounded recent window and
replays only the suffix.  This benchmark runs the *same workload*
through two storage configurations and times the **real recovery
path** (``Shim`` construction over existing storage) for each:

* ``full``        — no checkpoints: recovery = WAL replay + offline
  re-interpretation of the entire DAG (the Lemma 4.2 baseline);
* ``checkpointed`` — periodic checkpoints with pruning below the stable
  frontier: recovery = window restore + suffix replay.

It also measures raw WAL append throughput over real encoded blocks,
and prints everything as one JSON document on stdout.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_storage_recovery.py -q
  or: PYTHONPATH=src python benchmarks/bench_storage_recovery.py [--smoke]
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.dag import codec
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.shim.shim import Shim
from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.storage.state_codec import annotation_fingerprint
from repro.storage.wal import WriteAheadLog
from repro.types import Label

EXPERIMENT = "STORAGE_RECOVERY"

# Sized so the checkpoint-vs-replay comparison is meaningful: the
# incremental interpretation scheduler (PR 2) made full re-interpretation
# linear in DAG size with a small constant, which moved the crossover —
# a short log with a handful of instances now re-interprets from genesis
# faster than a checkpoint decodes.  Checkpoints exist for *long* logs
# under *real protocol load*; measure that: enough rounds that the
# pruned window is a small fraction of history, enough instances that
# re-executing every block's protocol steps is the dominant replay cost.
INSTANCES = 48
ROUNDS = 240


def build_durable_cluster(
    root: Path, storage: StorageConfig, instances: int, rounds: int
) -> Cluster:
    """Drive a 4-server cluster with storage on, leaving real WALs (and
    possibly checkpoints) under ``root``."""
    config = ClusterConfig(storage_dir=root, storage=storage)
    cluster = Cluster(brb_protocol, n=4, config=config)
    for i in range(instances):
        cluster.request(cluster.servers[i % 4], Label(f"t{i}"), Broadcast(i))
    cluster.run_rounds(rounds)
    return cluster


def time_recovery(root: Path, cluster: Cluster, storage: StorageConfig, repeats=5):
    """Median wall-time of a full restart-from-disk for one server,
    through the production recovery path (Shim construction)."""
    server = cluster.servers[0]
    times = []
    shim = None
    for _ in range(repeats):
        start = time.perf_counter()
        shim = Shim(
            server,
            brb_protocol,
            cluster.keyring,
            cluster._transports[server],
            storage=ServerStorage(root / str(server), config=storage),
        )
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2], shim


def wal_throughput(root: Path, blocks, repeats=3):
    """Append throughput over real encoded blocks."""
    payloads = [codec.encode(b) for b in blocks]
    total_bytes = sum(len(p) for p in payloads)
    best = float("inf")
    for i in range(repeats):
        log = WriteAheadLog(root / f"wal-bench-{i}", segment_max_bytes=256 * 1024)
        start = time.perf_counter()
        for payload in payloads:
            log.append(payload)
        elapsed = time.perf_counter() - start
        log.close()
        best = min(best, elapsed)
    return {
        "records": len(payloads),
        "bytes": total_bytes,
        "seconds": round(best, 6),
        "records_per_s": round(len(payloads) / best, 1),
        "mb_per_s": round(total_bytes / best / 1e6, 2),
    }


def run(instances: int = INSTANCES, rounds: int = ROUNDS) -> dict:
    root = Path(tempfile.mkdtemp(prefix="bench-storage-"))
    try:
        # Baseline: WAL only, no checkpoints ever written → restart
        # re-interprets the whole DAG.
        full_cfg = StorageConfig(checkpoint_interval=10**9, prune=False)
        full_cluster = build_durable_cluster(
            root / "full", full_cfg, instances, rounds
        )
        t_full, full_shim = time_recovery(root / "full", full_cluster, full_cfg)

        # Checkpointed + pruned: restart restores a bounded window and
        # replays only the post-checkpoint suffix.  Small segments let
        # the GC actually drop covered WAL files.
        ckpt_cfg = StorageConfig(
            checkpoint_interval=16, prune=True, segment_max_bytes=4096
        )
        ckpt_cluster = build_durable_cluster(
            root / "ckpt", ckpt_cfg, instances, rounds
        )
        t_ckpt, ckpt_shim = time_recovery(root / "ckpt", ckpt_cluster, ckpt_cfg)

        # Correctness before speed: the recovered server's annotations
        # are byte-identical to an *uninterrupted live peer's* over
        # every block both still hold in memory (Theorem 5.1 across a
        # crash — same DAG, so the comparison covers the whole resident
        # window, not just the prefix sealed before horizon claims made
        # the two arms' refs diverge).
        peer = ckpt_cluster.shims[ckpt_cluster.servers[1]].interpreter
        recovered = ckpt_shim.interpreter
        compared = 0
        for block in ckpt_shim.dag:
            ref = block.ref
            if ref in recovered.released or ref not in recovered.interpreted:
                continue
            if ref in peer.released or ref not in peer.interpreted:
                continue
            assert annotation_fingerprint(
                recovered, ref
            ) == annotation_fingerprint(peer, ref)
            compared += 1
        assert compared > 0

        # Builder-boundary segment rotation earns its keep: with chain
        # frames aligned to segments, fully-retired segments actually
        # delete during the run — even in short (smoke) runs, where the
        # old mid-chain rotation left every segment pinned by one live
        # tail ref.
        segments_dropped = sum(
            shim.storage.wal.stats.segments_dropped
            for shim in ckpt_cluster.shims.values()
        )
        assert segments_dropped > 0, (
            "WAL segment GC never fired — chain-boundary rotation regressed"
        )

        # Bytes the ckpt arm's live server actually appended vs what
        # remains on disk: the measure of how much WAL the GC reclaimed
        # (a cross-arm byte comparison would be apples-to-oranges —
        # coordinated GC stamps horizon claims into every block, so the
        # ckpt arm's blocks are inherently bigger than the full arm's).
        live_storage = ckpt_cluster.shims[ckpt_cluster.servers[0]].storage
        ckpt_appended = live_storage.wal.stats.bytes_appended

        dag_blocks = len(full_shim.dag)
        result = {
            "experiment": EXPERIMENT,
            "workload": {"servers": 4, "instances": instances, "rounds": rounds},
            "dag_blocks": dag_blocks,
            "full_reinterpretation": {
                "seconds": round(t_full, 6),
                "blocks_replayed": full_shim.recovery.blocks_replayed,
                "wal_bytes": full_shim.storage.wal_size_bytes(),
            },
            "restart_from_checkpoint": {
                "seconds": round(t_ckpt, 6),
                "blocks_replayed": ckpt_shim.recovery.blocks_replayed,
                "states_restored": ckpt_shim.recovery.states_restored,
                "skeletons": ckpt_shim.recovery.skeletons_inserted,
                "checkpoint_seq": ckpt_shim.recovery.checkpoint_seq,
                "wal_bytes": ckpt_shim.storage.wal_size_bytes(),
                "wal_bytes_appended": ckpt_appended,
            },
            "speedup": round(t_full / t_ckpt, 2),
            "annotations_compared": compared,
            "wal_segments_dropped": segments_dropped,
            "wal_append_throughput": wal_throughput(root, full_shim.dag.blocks()),
        }
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_restart_from_checkpoint_beats_full_reinterpretation():
    result = run()
    full = result["full_reinterpretation"]
    ckpt = result["restart_from_checkpoint"]
    # Checkpoints bound the replay suffix...
    assert ckpt["blocks_replayed"] < full["blocks_replayed"]
    # ...segment GC reclaims a real fraction of what was written (the
    # arm's own append volume is the honest baseline: horizon claims
    # make ckpt-arm *blocks* bigger than the claim-free full arm's, so
    # cross-arm byte totals don't compare)...
    assert ckpt["wal_bytes"] < 0.9 * ckpt["wal_bytes_appended"]
    # ...and the acceptance criterion: restart-from-checkpoint is
    # measurably faster than re-interpreting the whole DAG.
    assert ckpt["seconds"] < full["seconds"]


if __name__ == "__main__":
    # --smoke: a CI-sized run — same shape and JSON schema, a workload
    # small enough to finish in seconds.
    if "--smoke" in sys.argv[1:]:
        print(json.dumps(run(instances=12, rounds=60), indent=2))
    else:
        print(json.dumps(run(), indent=2))
