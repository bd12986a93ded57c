"""Unit tests for the flight recorder (``repro.obs``): ring-buffer
bounds, canonical JSONL export, lifecycle joins, the log2 histogram and
the first-divergence finder on hand-built traces."""

from __future__ import annotations

import json

from repro.obs import (
    NULL_RECORDER,
    ClusterTracer,
    LifecycleIndex,
    StageSummary,
    TraceEvent,
    TraceRecorder,
    first_chain_divergence,
    first_divergence,
    first_event_divergence,
    read_jsonl,
    write_jsonl,
)
from repro.obs.export import event_to_line
from repro.obs.metrics import Histogram
from repro.obs.trace import KINDS
from repro.types import ServerId

S1 = ServerId("s1")


def _event(seq=0, t=0.0, kind="block-sealed", block=None, peer=None, **data):
    return TraceEvent(seq=seq, t=t, kind=kind, block=block, peer=peer, data=data)


def _validated(seq, t, ref, builder, k):
    return _event(
        seq=seq, t=t, kind="block-validated", block=ref, n=builder, k=k
    )


class TestTraceRecorder:
    def test_ring_bound_evicts_oldest_but_seq_keeps_counting(self):
        recorder = TraceRecorder(S1, capacity=4)
        for i in range(10):
            recorder.emit("interpreted", block=f"b{i}")
        assert len(recorder) == 4
        assert recorder.seq == 10
        assert recorder.dropped == 6
        retained = recorder.snapshot()
        assert [e.seq for e in retained] == [6, 7, 8, 9]
        assert retained[0].block == "b6"

    def test_clock_stamps_virtual_time(self):
        now = {"t": 0.0}
        recorder = TraceRecorder(S1, clock=lambda: now["t"])
        recorder.emit("block-sealed", block="a")
        now["t"] = 7.5
        event = recorder.emit("interpreted", block="a")
        assert [e.t for e in recorder.snapshot()] == [0.0, 7.5]
        assert event.t == 7.5

    def test_on_event_sees_emissions_before_eviction(self):
        seen = []
        recorder = TraceRecorder(
            S1, capacity=2, on_event=lambda server, e: seen.append(e.seq)
        )
        for _ in range(5):
            recorder.emit("interpreted")
        assert seen == [0, 1, 2, 3, 4]
        assert len(recorder) == 2

    def test_emitted_kinds_are_vocabulary(self):
        # The instrumentation sites all emit literal kind strings; this
        # pins the vocabulary so a typo'd emission can't slip in as a
        # "new" kind silently.
        assert "block-sealed" in KINDS
        assert "wire-send" in KINDS and "wire-recv" in KINDS
        assert "condemned" in KINDS and "fault-injected" in KINDS

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.emit("interpreted", block="x", extra=1) is None
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.snapshot() == []

    def test_identity_ignores_seq(self):
        a = _event(seq=0, t=1.0, kind="interpreted", block="b", k=3)
        b = _event(seq=99, t=1.0, kind="interpreted", block="b", k=3)
        c = _event(seq=0, t=1.0, kind="interpreted", block="b", k=4)
        assert a.identity() == b.identity()
        assert a.identity() != c.identity()


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        events = [
            _event(seq=0, t=0.0, kind="block-sealed", block="r0", n="s1", k=0),
            _event(seq=1, t=1.5, kind="wire-recv", block="r0", peer="s2", bytes=64),
            _event(seq=2, t=2.0, kind="interpreted", block="r0"),
        ]
        path = write_jsonl(events, tmp_path / "sub" / "s1.jsonl")
        assert read_jsonl(path) == events

    def test_lines_are_canonical(self):
        line = event_to_line(_event(seq=1, t=2.0, kind="checkpoint", refs=3))
        # Keys sorted, compact separators: the byte-identity contract.
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert " " not in line

    def test_same_events_export_identical_bytes(self, tmp_path):
        events = [_event(seq=i, t=float(i), kind="interpreted") for i in range(5)]
        a = write_jsonl(events, tmp_path / "a.jsonl")
        b = write_jsonl(list(events), tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()


class TestLifecycleIndex:
    def test_joins_stages_per_block_and_server(self):
        index = LifecycleIndex()
        index.observe("s1", _event(t=0.0, kind="block-sealed", block="b"))
        index.observe("s2", _event(t=1.0, kind="wire-recv", block="b"))
        index.observe("s2", _event(t=1.0, kind="block-validated", block="b"))
        index.observe("s2", _event(t=3.0, kind="interpreted", block="b"))
        stats = index.stats()
        assert stats.seal_to_first_receive.count == 1
        assert stats.seal_to_first_receive.max == 1.0
        assert stats.validate_to_interpret.max == 2.0
        assert stats.seal_to_interpret.max == 3.0
        assert index.commit_latency(0.5) == 3.0

    def test_first_occurrence_wins(self):
        # Duplicate deliveries must not shift the join points.
        index = LifecycleIndex()
        index.observe("s1", _event(t=0.0, kind="block-sealed", block="b"))
        index.observe("s2", _event(t=1.0, kind="wire-recv", block="b"))
        index.observe("s2", _event(t=9.0, kind="wire-recv", block="b"))
        assert index.received[("s2", "b")] == 1.0

    def test_stats_round_trip_through_dict(self):
        index = LifecycleIndex()
        index.observe("s1", _event(t=0.0, kind="block-sealed", block="b"))
        index.observe("s1", _event(t=2.0, kind="interpreted", block="b"))
        stats = index.stats()
        rebuilt = type(stats).from_dict(stats.as_dict())
        assert rebuilt == stats

    def test_empty_summary_is_zeroes(self):
        assert StageSummary.from_samples([]) == StageSummary()
        assert LifecycleIndex().commit_latency(0.99) == 0.0

    def test_cluster_tracer_feeds_lifecycle(self):
        tracer = ClusterTracer([S1], clock=lambda: 4.0)
        tracer.recorder(S1).emit("block-sealed", block="b")
        assert tracer.lifecycle.sealed == {"b": 4.0}


class TestHistogram:
    def test_histogram_counts_and_quantiles(self):
        hist = Histogram()
        for us in (1, 2, 4, 1000):
            hist.observe(us / 1e6)
        assert hist.count == 4
        assert hist.quantile_us(0.5) <= hist.quantile_us(1.0)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["max_us"] >= 1000


class TestDivergence:
    def test_identical_traces_have_no_divergence(self):
        events = [_event(seq=i, t=float(i), kind="interpreted") for i in range(3)]
        assert first_event_divergence(events, list(events)) is None
        assert first_divergence(events, list(events)) is None

    def test_event_mismatch_position_and_description(self):
        left = [
            _event(seq=0, t=0.0, kind="block-sealed", block="a"),
            _event(seq=1, t=1.0, kind="interpreted", block="a"),
        ]
        right = [
            _event(seq=0, t=0.0, kind="block-sealed", block="a"),
            _event(seq=1, t=1.0, kind="interpreted", block="b"),
        ]
        divergence = first_event_divergence(left, right)
        assert divergence is not None
        assert divergence.mode == "event-mismatch"
        assert divergence.index == 1
        assert "event 1" in divergence.describe()

    def test_event_length_tail(self):
        left = [_event(seq=0, t=0.0, kind="interpreted", block="a")]
        divergence = first_event_divergence(left, [])
        assert divergence is not None
        assert divergence.mode == "event-length"
        assert "only left" in divergence.describe()

    def test_chain_fork_names_equivocating_builder(self):
        # Two correct servers validated the same honest chain for s1
        # but different k=1 blocks for s4: the classic equivocation.
        left = [
            _validated(0, 1.0, "h0", "s1", 0),
            _validated(1, 1.0, "f0", "s4", 0),
            _validated(2, 2.0, "fA", "s4", 1),
        ]
        right = [
            _validated(0, 1.0, "h0", "s1", 0),
            _validated(1, 1.0, "f0", "s4", 0),
            _validated(2, 2.0, "fB", "s4", 1),
        ]
        divergence = first_chain_divergence(left, right)
        assert divergence is not None
        assert divergence.mode == "chain-fork"
        assert divergence.builder == "s4"
        assert divergence.k == 1
        assert {divergence.left["ref"], divergence.right["ref"]} == {"fA", "fB"}
        assert "equivocation fork" in divergence.describe()
        # Wire timing may differ wildly between servers; auto mode must
        # still pin the chain fork, not the first wire mismatch.
        noise = _event(seq=9, t=0.5, kind="wire-recv", block="h0", peer="s9")
        assert first_divergence([noise] + left, right).mode == "chain-fork"

    def test_chain_length_tail(self):
        left = [_validated(0, 1.0, "h0", "s1", 0), _validated(1, 2.0, "h1", "s1", 1)]
        right = [_validated(0, 1.0, "h0", "s1", 0)]
        divergence = first_chain_divergence(left, right)
        assert divergence is not None
        assert divergence.mode == "chain-length"
        assert divergence.builder == "s1"
        assert "only left" in divergence.describe()
