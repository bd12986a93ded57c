"""How the ledger's metrics are computed, and the per-layer block budget.

The catalogue — names, units, directions, bounds — is ``BENCHMARK.json``
at the repository root and nowhere else; this module computes a value
for every name declared there.

End-to-end metrics come from untraced repetitions only.  Per-layer
metrics come from the traced repetitions' span summaries (CPU self
times, see :mod:`spans`), from one flight-recorder repetition (commit
latency: a block's interpretation instant is not visible from outside
a node process, and the recorder is a product feature, not benchmark
tracing), from an untraced repetition's published counters, and from
the restart-from-disk probe.  ``_per_block`` means per admitted block
per server.  A metric whose layer does no work on a workload is
reported as 0 there (``storage.*`` on ``live-chain``, ``net.live.*`` on
``sim-faults``): that is the bypass prediction made checkable.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Module names; later issues use these.
LAYERS: tuple[str, ...] = (
    "scenario",
    "runtime.live",
    "net.live",
    "net.sim",
    "gossip",
    "dag",
    "dag.codec",
    "crypto",
    "interpret",
    "protocols",
    "shim",
    "storage",
    "horizon",
    "obs",
)

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarise(samples: Sequence[float]) -> tuple[float, float]:
    """One figure from a metric's per-repetition samples — the
    **median** — and how far the repetitions leave it undetermined: the
    distance between their quartiles as a share of it."""
    if not samples:
        return 0.0, 0.0
    if len(samples) == 1:
        return samples[0], 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, ratio(q3 - q1, median)


def end_to_end(rep: dict) -> dict[str, float]:
    """The end-to-end figures of one good untraced repetition.  Times
    are divided by the host's pace while they were measured (see
    :mod:`hostclock`): they read as on the defining host's fast phase,
    whatever phase this host is in."""
    delivered = rep["delivered"]
    return {
        "setup_s": rep["setup_s"] / rep["setup_pace"],
        "requests_per_s": ratio(delivered, rep["window_s"] / rep["wall_pace"]),
        "cpu_ms_per_request": ratio(rep["cpu_s"] / rep["cpu_pace"] * 1000.0, delivered),
        "wire_bytes_per_request": ratio(rep["wire_bytes"], delivered),
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
    }


class _Spans:
    """Accessors over one merged span summary."""

    _EMPTY = {
        "count": 0,
        "cpu_s": 0.0,
        "self_s": 0.0,
        "outer_cpu_s": 0.0,
        "with_children": 0,
        "items": 0,
    }

    def __init__(self, spans: dict) -> None:
        self.summary: dict[str, dict[str, float]] = spans["summary"]
        self.counts: dict[str, int] = spans["counts"]
        #: CPU the wrappers themselves used inside the spans, already
        #: taken out of every figure in ``summary``.
        self.wrapper_s: float = spans["wrapper_s"]

    def get(self, name: str, field: str) -> float:
        return self.summary.get(name, self._EMPTY)[field]

    def layer(self, layer: str, field: str = "self_s") -> float:
        prefix = layer + ":"
        return sum(
            row[field] for name, row in self.summary.items() if name.startswith(prefix)
        )

    def explained(self) -> float:
        """CPU seconds the budget accounts for: every layer's self
        time plus what the wrappers cost inside the spans."""
        return sum(row["self_s"] for row in self.summary.values()) + self.wrapper_s

    def mean_cpu(self, name: str, scale: float, per: str = "count") -> float:
        return ratio(self.get(name, "cpu_s") * scale, self.get(name, per))


def traced_metrics(rep: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    spans = _Spans(rep["spans"])
    blocks = rep["blocks"]
    messages = spans.get("protocols:step_message", "count")
    checkpoints = spans.get("storage:write_checkpoint", "count")

    def per_block(seconds: float) -> float:
        return ratio(seconds * 1e6, blocks)

    return {
        "scenario.driver_self_us_per_block": per_block(spans.layer("scenario")),
        "runtime.live.status_self_us_per_block": per_block(
            spans.get("runtime.live:status", "self_s")
        ),
        "net.live.self_us_per_block": per_block(spans.layer("net.live")),
        "net.live.frame_encode_us": spans.mean_cpu("net.live:encode_frame", 1e6),
        "net.live.frame_decode_us": spans.mean_cpu("net.live:feed", 1e6, per="items"),
        "net.sim.self_us_per_event": ratio(
            spans.get("net.sim:step", "self_s") * 1e6, spans.get("net.sim:step", "count")
        ),
        "net.sim.events_per_block": ratio(spans.get("net.sim:step", "count"), blocks),
        "gossip.receive_self_us_per_block": per_block(
            spans.get("gossip:on_receive", "self_s")
        ),
        "gossip.seal_self_us_per_block": per_block(
            spans.get("gossip:disseminate", "self_s")
        ),
        "gossip.fwd_requests": spans.counts["fwd_requests"],
        "gossip.buffered_peak": spans.counts["buffered_peak"],
        "gossip.condemned": spans.counts["condemned"],
        "dag.validate_us_per_block": per_block(spans.get("dag:validity", "self_s")),
        "dag.insert_us_per_block": per_block(spans.get("dag:insert", "self_s")),
        "dag.codec.encode_self_us_per_block": per_block(
            spans.get("dag.codec:encode", "self_s")
        ),
        "dag.codec.encode_calls_per_block": ratio(
            spans.get("dag.codec:encode", "count"), blocks
        ),
        "dag.codec.decode_self_us_per_block": per_block(
            spans.get("dag.codec:decode", "self_s")
        ),
        "dag.codec.decode_calls_per_block": ratio(
            spans.get("dag.codec:decode", "count"), blocks
        ),
        "dag.codec.sort_key_calls_per_block": ratio(
            spans.get("dag.codec:encoding_key", "count"), blocks
        ),
        "crypto.sign_us": spans.mean_cpu("crypto:sign", 1e6),
        "crypto.verify_us": spans.mean_cpu("crypto:verify", 1e6),
        "crypto.verifies_per_block": ratio(spans.get("crypto:verify", "count"), blocks),
        "crypto.hash_us_per_block": per_block(
            spans.get("crypto:hash_bytes", "self_s")
            + spans.get("crypto:hash_fields", "self_s")
        ),
        "interpret.self_us_per_block": per_block(spans.layer("interpret")),
        "interpret.messages_per_block": ratio(messages, blocks),
        "interpret.us_per_message": ratio(spans.layer("interpret") * 1e6, messages),
        "interpret.order_share": ratio(
            spans.get("interpret:ordered", "cpu_s"), spans.get("interpret:run", "cpu_s")
        ),
        "interpret.rehydrated": spans.counts["rehydrated"],
        "protocols.step_us_per_message": ratio(
            spans.get("protocols:step_message", "self_s") * 1e6, messages
        ),
        "shim.self_us_per_block": per_block(spans.layer("shim")),
        "shim.indications_for_calls_per_tick": ratio(
            spans.get("shim:indications_for", "count"), rep["ticks"]
        ),
        "storage.self_share": ratio(spans.layer("storage"), rep["cpu_s"]),
        "storage.inclusive_share": ratio(
            spans.layer("storage", "outer_cpu_s"), rep["cpu_s"]
        ),
        # Flushes that wrote something: an empty flush opens no child span.
        "storage.wal_flush_ms": spans.mean_cpu(
            "storage:flush_wal", 1e3, per="with_children"
        ),
        "storage.wal_flushes_per_block": ratio(
            spans.get("storage:flush_wal", "with_children"), blocks
        ),
        "storage.wal_bytes_per_block": ratio(
            spans.get("storage:wal_append", "items"), blocks
        ),
        "storage.checkpoint_capture_ms": spans.mean_cpu(
            "storage:capture_checkpoint", 1e3
        ),
        "storage.checkpoint_write_ms": spans.mean_cpu("storage:write_checkpoint", 1e3),
        "storage.checkpoint_kb_mean": ratio(
            spans.counts["checkpoint_bytes"] / 1024.0, checkpoints
        ),
        "storage.checkpoints": checkpoints,
        "storage.gc_prune_ms": spans.mean_cpu("storage:prune", 1e3),
        "horizon.observe_us_per_block": per_block(spans.get("horizon:observe", "self_s")),
        "obs.metrics_snapshot_ms": ratio(
            (spans.get("obs:snapshot", "cpu_s") + spans.get("obs:write_jsonl", "cpu_s"))
            * 1e3,
            spans.get("obs:write_jsonl", "count"),
        ),
        "residual_frac": 1.0 - ratio(spans.explained(), rep["cpu_s"]),
    }


def per_layer(
    plain: dict,
    recorder: dict,
    traced: Sequence[dict],
    recovery: dict | None,
    traced_recovery: dict | None,
) -> dict[str, float]:
    """Every per-layer metric of one workload (median over the traced
    repetitions where spans are involved).  Times here are as measured,
    not divided by the host's pace; ``host.spin_ms`` says what the pace
    was."""
    live = plain["arm"] == "live"
    per_rep = [traced_metrics(rep) for rep in traced]
    values: dict[str, float] = {
        name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]
    }
    commit = recorder.get("commit", {})
    seal_to_receive = recorder.get("seal_to_receive", {})
    values.update(
        {
            "host.spin_ms": plain["kernel_ms"],
            "runtime.live.tick_ms": (
                ratio(plain["window_s"] * 1e3, plain["rounds"]) if live else 0.0
            ),
            "runtime.live.idle_frac": plain["idle_frac"],
            "runtime.live.status_writes_per_tick": ratio(
                plain.get("status_writes", 0), plain["ticks"]
            ),
            "runtime.live.gate_wait_p50_ms": plain.get("gate_wait_p50_ms", 0.0),
            "runtime.live.spawn_s": plain["spawn_s"],
            "runtime.live.gate_timeouts": plain.get("gate_timeouts", 0),
            "runtime.live.commit_p50_ms": commit.get("p50", 0.0) * 1e3,
            "runtime.live.commit_p99_ms": commit.get("p99", 0.0) * 1e3,
            "runtime.live.commit_samples": commit.get("count", 0),
            "net.live.frames_per_block": ratio(plain.get("frames_out", 0), plain["blocks"]),
            "net.live.bytes_per_block": (
                ratio(plain["wire_bytes"], plain["blocks"]) if live else 0.0
            ),
            "net.live.seal_to_receive_p50_ms": seal_to_receive.get("p50", 0.0) * 1e3,
            "net.live.queue_high_water": plain.get("queue_high_water", 0),
            "net.live.queue_drops": plain.get("queue_drops", 0),
            "storage.recovery_ms": (
                statistics.median(recovery["recovery_ms"]) if recovery else 0.0
            ),
            "storage.recover_us_per_block": 0.0,
            "storage.disk_kb_per_request": ratio(
                plain["disk_bytes"] / 1024.0, plain["delivered"]
            ),
            # Two repetitions made in different host phases: compare
            # them at one pace.
            "obs.recorder_overhead_frac": ratio(
                recorder["window_s"] / recorder["wall_pace"],
                plain["window_s"] / plain["wall_pace"],
            )
            - 1.0,
            "obs.span_overhead_frac": ratio(
                statistics.median(rep["window_s"] / rep["wall_pace"] for rep in traced),
                plain["window_s"] / plain["wall_pace"],
            )
            - 1.0,
        }
    )
    if traced_recovery is not None and "spans" in traced_recovery:
        spans = _Spans(traced_recovery["spans"])
        values["storage.recover_us_per_block"] = ratio(
            spans.get("storage:recover_shim_state", "cpu_s") * 1e6,
            len(traced_recovery["recovery_ms"]) * traced_recovery["blocks"],
        )
    return {name: float(value) for name, value in values.items()}


def budget_table(rep: dict, idle_frac: float) -> str:
    """``layers + span wrappers + residual = CPU, CPU + idle = wall``
    for one traced repetition, as text."""
    spans = _Spans(rep["spans"])
    cpu = rep["cpu_s"]
    lines = [f"  {'layer':<14}{'self s':>10}{'share of CPU':>14}"]
    for layer in LAYERS:
        seconds = spans.layer(layer)
        lines.append(f"  {layer:<14}{seconds:>10.4f}{ratio(seconds, cpu):>13.1%}")
    lines.append(
        f"  {'span wrappers':<14}{spans.wrapper_s:>10.4f}"
        f"{ratio(spans.wrapper_s, cpu):>13.1%}"
    )
    residual = cpu - spans.explained()
    lines.append(f"  {'residual':<14}{residual:>10.4f}{ratio(residual, cpu):>13.1%}")
    lines.append(f"  {'CPU':<14}{cpu:>10.4f}{1:>13.1%}")
    processes = rep["servers"] if rep["arm"] == "live" else 1
    lines.append(
        f"  runtime.live.idle_frac (untraced) = {idle_frac:.3f}; "
        f"wall window = {rep['window_s']:.3f} s x {processes} process(es)"
    )
    return "\n".join(lines)
