"""Durable storage & crash recovery for the block DAG framework.

The paper proves interpretation is a pure function of the DAG
(Lemma 4.2 / Theorem 5.1); this subsystem turns that into an
operational property: a server's entire state is reconstructible from
an append-only log of its blocks, and checkpoints + pruning bound both
restart time and memory.

Layers, bottom up:

* :mod:`repro.storage.wal`         — segmented, CRC-framed append-only log;
* :mod:`repro.storage.state_codec` — pickle-free (de)serialization of
  live process-instance state;
* :mod:`repro.storage.checkpoint`  — durable interpreter snapshots, a
  log of a full frame and appended deltas;
* :mod:`repro.storage.gc`          — the stable frontier and pruning;
* :mod:`repro.storage.blockstore`  — :class:`ServerStorage`, the
  per-server facade the shim talks to;
* :mod:`repro.storage.recover`     — restart-from-disk.
"""

from repro.storage.blockstore import ServerStorage, StorageConfig
from repro.storage.checkpoint import (
    Checkpoint,
    CheckpointManager,
    capture_checkpoint,
    install_checkpoint,
)
from repro.storage.gc import PruneReport, prunable_refs, prune
from repro.storage.recover import RecoveryReport, recover_shim_state
from repro.storage.wal import WalSegment, WalStats, WriteAheadLog

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "PruneReport",
    "RecoveryReport",
    "ServerStorage",
    "StorageConfig",
    "WalSegment",
    "WalStats",
    "WriteAheadLog",
    "capture_checkpoint",
    "install_checkpoint",
    "prunable_refs",
    "prune",
    "recover_shim_state",
]
