"""Typed metric snapshots of one cluster run.

The cluster exposes three families of counters — wire traffic
(simulator), interpretation work (per-shim interpreters) and
persistence costs (per-shim storage).  Historically each was a loose
``dict[str, number]``; these frozen dataclasses give them a schema so
the scenario layer (and anything else that serializes results) gets
typos caught at attribute access and a stable JSON shape.
:meth:`Cluster.wire_snapshot <repro.runtime.cluster.Cluster.wire_snapshot>`,
``interpreter_snapshot`` and ``storage_snapshot`` are the one way to
read those counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.jsonvalue import JsonDocument


@dataclass(frozen=True)
class WireSnapshot(JsonDocument):
    """What crossed the simulated wire during a run."""

    messages: int = 0
    bytes: int = 0
    delivered: int = 0
    dropped: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class InterpreterSnapshot(JsonDocument):
    """Interpretation counters aggregated across live correct servers.

    The three GC-health counters are additionally broken out
    *per server* in ``by_server``: servers diverging on interpretability
    (the PR 3 `mixed-faults` hazard) is exactly the failure a cluster-
    wide sum can hide — one server stalled while the rest advance still
    moves the total.
    """

    blocks_interpreted: int = 0
    messages_delivered: int = 0
    messages_materialized: int = 0
    request_steps: int = 0
    #: Blocks permanently uninterpretable because a direct predecessor's
    #: annotation was pruned below the stable frontier and could not be
    #: rehydrated.  Non-zero means interpretation of every descendant
    #: has stalled — surface it, never hide it.  With coordinated GC
    #: this stays zero: late references either rehydrate or are
    #: condemned with cause at gossip ingress.
    below_horizon: int = 0
    #: Released annotations reconstructed on demand from the covering
    #: checkpoint (the rehydration path working as designed).
    rehydrated: int = 0
    #: Arriving blocks rejected because their position was already below
    #: the agreed horizon (the coordinated-GC validity rule firing).
    condemned_below_horizon: int = 0
    #: Per-server ``{below_horizon, rehydrated, condemned_below_horizon}``.
    by_server: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class StorageSnapshot(JsonDocument):
    """Persistence counters aggregated across live correct servers.

    All-zero when the run had no ``storage_dir`` configured."""

    wal_appends: int = 0
    wal_bytes: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    #: Objects the written checkpoints needed: appended to a store, and
    #: found already stored there.
    checkpoint_objects_appended: int = 0
    checkpoint_objects_stored: int = 0
    checkpoint_age_max: int = 0
    states_released: int = 0
    payloads_dropped: int = 0
    #: WAL records retired: blocks every retained checkpoint covers.
    wal_records_retired: int = 0
    blocks_recovered: int = 0
    blocks_replayed: int = 0

    def any_activity(self) -> bool:
        """Whether the run touched durable storage at all."""
        return any(getattr(self, f.name) for f in fields(self))
