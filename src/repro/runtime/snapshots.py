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

from dataclasses import asdict, dataclass, field, fields


@dataclass(frozen=True)
class WireSnapshot:
    """What crossed the simulated wire during a run."""

    messages: int = 0
    bytes: int = 0
    delivered: int = 0
    dropped: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-able dict with deterministically ordered kind maps."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "by_kind": {k: self.by_kind[k] for k in sorted(self.by_kind)},
            "bytes_by_kind": {
                k: self.bytes_by_kind[k] for k in sorted(self.bytes_by_kind)
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "WireSnapshot":
        return cls(
            messages=int(data["messages"]),  # type: ignore[arg-type]
            bytes=int(data["bytes"]),  # type: ignore[arg-type]
            delivered=int(data.get("delivered", 0)),  # type: ignore[arg-type]
            dropped=int(data.get("dropped", 0)),  # type: ignore[arg-type]
            # Coerce the per-kind counts: a document that passed through
            # a serializer with float/str numbers must round-trip to the
            # same snapshot value it came from.
            by_kind={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(data.get("by_kind", {})).items()  # type: ignore[arg-type]
            },
            bytes_by_kind={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(data.get("bytes_by_kind", {})).items()  # type: ignore[arg-type]
            },
        )


@dataclass(frozen=True)
class InterpreterSnapshot:
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
    #: Same-builder chain runs the batched drain followed without heap
    #: traffic, and the blocks those runs covered (chain-batched
    #: interpretation at work — catch-up drains, recovery replays).
    chain_runs: int = 0
    chain_blocks: int = 0
    #: Per-server ``{below_horizon, rehydrated, condemned_below_horizon}``.
    by_server: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "blocks_interpreted": self.blocks_interpreted,
            "messages_delivered": self.messages_delivered,
            "messages_materialized": self.messages_materialized,
            "request_steps": self.request_steps,
            "below_horizon": self.below_horizon,
            "rehydrated": self.rehydrated,
            "condemned_below_horizon": self.condemned_below_horizon,
            "chain_runs": self.chain_runs,
            "chain_blocks": self.chain_blocks,
            "by_server": {
                server: {k: counters[k] for k in sorted(counters)}
                for server, counters in sorted(self.by_server.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "InterpreterSnapshot":
        scalars = {
            f.name: int(data.get(f.name, 0))  # type: ignore[arg-type]
            for f in fields(cls)
            if f.name != "by_server"
        }
        by_server = {
            str(server): {str(k): int(v) for k, v in counters.items()}  # type: ignore[union-attr]
            for server, counters in dict(data.get("by_server", {})).items()  # type: ignore[arg-type]
        }
        return cls(by_server=by_server, **scalars)


@dataclass(frozen=True)
class StorageSnapshot:
    """Persistence counters aggregated across live correct servers.

    All-zero when the run had no ``storage_dir`` configured."""

    wal_appends: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    checkpoint_entries_written: int = 0
    checkpoint_entries_reused: int = 0
    checkpoint_age_max: int = 0
    states_released: int = 0
    payloads_dropped: int = 0
    wal_segments_dropped: int = 0
    blocks_recovered: int = 0
    blocks_replayed: int = 0

    def any_activity(self) -> bool:
        """Whether the run touched durable storage at all."""
        return any(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "StorageSnapshot":
        return cls(**{f.name: int(data.get(f.name, 0)) for f in fields(cls)})  # type: ignore[arg-type]
