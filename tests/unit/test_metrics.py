"""``repro.obs.metrics`` — registry semantics, merge algebra, canonical
export, SLO evaluation, and the status-file scrape-skip machinery.

The merge tests prove the property the cluster scraper depends on:
snapshot merge is associative and commutative, so a cluster-wide
``MetricsReport`` is independent of scrape order.  The export tests
prove the byte-level canon the determinism CI depends on: same
instruments, same values ⇒ same bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ScenarioError
from repro.obs.metrics import (
    Histogram,
    MetricPoint,
    MetricsError,
    MetricsRegistry,
    MetricsReport,
    MetricsSnapshot,
)
from repro.runtime.live.node import NodeStatus
from repro.scenario.slo import SloReport, SloSpec


def _registry(server: str = "s1") -> MetricsRegistry:
    registry = MetricsRegistry(server=server)
    registry.counter("frames", peer="s2").inc(5)
    registry.counter("frames", peer="s3").inc(2)
    registry.gauge("depth").set(7)
    registry.gauge("depth").set(3)
    registry.histogram("latency").observe(0.004)
    registry.histogram("latency").observe(0.001)
    return registry


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert registry.counter("x") is counter
        assert counter.value == 5

    def test_gauge_tracks_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(9)
        gauge.set(2)
        gauge.add(1)
        assert gauge.value == 3
        assert gauge.high_water == 9

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("frames", peer="s2").inc()
        registry.counter("frames", peer="s3").inc(2)
        snapshot = registry.snapshot()
        assert snapshot.get("frames", peer="s2").value == 1
        assert snapshot.get("frames", peer="s3").value == 2
        assert snapshot.total("frames") == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_histogram_instrument_type(self):
        registry = MetricsRegistry()
        assert isinstance(registry.histogram("h"), Histogram)

    def test_timed_context_observes(self):
        registry = MetricsRegistry()
        with registry.timed("span"):
            pass
        assert registry.histogram("span").count == 1

    def test_snapshot_point_and_live_histogram_share_one_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for us in (1, 3, 3, 70, 900, 900, 15_000):
            histogram.observe(us / 1e6)
        point = registry.snapshot().get("h")
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert point.quantile_us(fraction) == histogram.quantile_us(fraction)
        assert histogram.quantile_us(0.5) == 128.0  # 70 µs: bucket < 2**7


# ---------------------------------------------------------------- merge algebra


class TestMergeAlgebra:
    def test_merge_sums_counters_and_folds_gauges(self):
        a = _registry("s1").snapshot()
        b = _registry("s2").snapshot()
        merged = a.merge(b)
        assert merged.get("frames", peer="s2").value == 10
        assert merged.get("depth").value == 6
        assert merged.get("depth").high_water == 7
        latency = merged.get("latency")
        assert latency.count == 4
        assert latency.max == pytest.approx(0.004)

    def test_merge_is_associative(self):
        a, b, c = (_registry(f"s{i}").snapshot(seq=i) for i in (1, 2, 3))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.points == right.points
        assert left.seq == right.seq == 3

    def test_merge_is_commutative(self):
        a = _registry("s1").snapshot()
        b = _registry("s2").snapshot()
        assert a.merge(b).points == b.merge(a).points

    def test_report_is_scrape_order_independent(self):
        snapshots = {f"s{i}": _registry(f"s{i}").snapshot() for i in (1, 2, 3)}
        forward = MetricsReport.from_snapshots(snapshots)
        backward = MetricsReport.from_snapshots(
            dict(reversed(list(snapshots.items())))
        )
        assert forward == backward

    def test_report_points_carry_server_labels(self):
        report = MetricsReport.from_snapshots(
            {"s1": _registry("s1").snapshot(), "s2": _registry("s2").snapshot()}
        )
        per_server = list(report.merged.select("frames", server="s1"))
        assert len(per_server) == 2  # peer=s2 and peer=s3
        assert report.merged.total("frames") == 14


# ---------------------------------------------------------------- canonical export


class TestCanonicalExport:
    def test_jsonl_roundtrip(self):
        snapshot = _registry().snapshot(seq=9)
        again = MetricsSnapshot.from_jsonl(snapshot.to_jsonl())
        assert again == snapshot

    def test_jsonl_is_byte_identical_for_same_values(self):
        a = _registry().snapshot(seq=4)
        b = _registry().snapshot(seq=4)
        assert a.to_jsonl() == b.to_jsonl()

    def test_jsonl_has_no_timestamps(self):
        text = _registry().snapshot().to_jsonl()
        for line in text.splitlines():
            assert "time" not in json.loads(line)

    def test_write_is_atomic_and_readable(self, tmp_path):
        path = tmp_path / "node.metrics.jsonl"
        snapshot = _registry().snapshot(seq=2)
        snapshot.write_jsonl(path)
        assert MetricsSnapshot.read_jsonl(path) == snapshot
        assert not list(tmp_path.glob("*.tmp"))

    def test_report_dict_roundtrip(self):
        report = MetricsReport.from_snapshots(
            {"s1": _registry("s1").snapshot(seq=1)}
        )
        again = MetricsReport.from_dict(json.loads(json.dumps(report.as_dict())))
        assert again == report

    def test_malformed_document_raises(self):
        with pytest.raises(MetricsError):
            MetricsSnapshot.from_jsonl('{"kind": "counter"}\nnot json\n')
        with pytest.raises(MetricsError):
            MetricsReport.from_dict({"merged": {"points": [{"kind": "wat"}]}})

    def test_foreign_bucket_order_is_canonicalised(self):
        doc = {"name": "h", "kind": "histogram", "count": 2, "buckets": [[5, 1], [1, 1]]}
        point = MetricPoint.from_dict(doc)
        assert point.buckets == ((1, 1), (5, 1))
        assert point.quantile_us(0.50) == 2.0
        assert point.quantile_us(0.99) == 32.0
        doc["buckets"] = [[5, 1], [1, 1], [5, 2]]
        assert MetricPoint.from_dict(doc).buckets == ((1, 1), (5, 3))

    @pytest.mark.parametrize("index", [-1, 40])
    def test_out_of_range_bucket_index_rejected(self, index):
        doc = {"name": "h", "kind": "histogram", "count": 1, "buckets": [[index, 1]]}
        with pytest.raises(MetricsError):
            MetricPoint.from_dict(doc)


# ---------------------------------------------------------------- slo


class TestSlo:
    def test_spec_roundtrip(self):
        spec = SloSpec(commit_p99_ms=500.0, max_queue_drops=0)
        again = SloSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError):
            SloSpec.from_dict({"commit_p99_msec": 1.0})

    def test_non_positive_bound_rejected(self):
        with pytest.raises(ScenarioError):
            SloSpec(commit_p99_ms=0.0)
        with pytest.raises(ScenarioError):
            SloSpec(max_queue_drops=-1)

    def test_missing_data_fails_the_verdict(self):
        report = SloSpec(commit_p99_ms=100.0).evaluate(None, None)
        assert not report.passed
        assert report.verdicts[0].observed is None

    def test_counter_bounds_evaluate_against_metrics(self):
        registry = MetricsRegistry(server="s1")
        registry.counter("transport.queue-drops", peer="s2").inc(3)
        metrics = MetricsReport.from_snapshots({"s1": registry.snapshot()})
        report = SloSpec(max_queue_drops=2, max_reconnects=0).evaluate(
            None, metrics
        )
        by_name = {v.name: v for v in report.verdicts}
        assert not by_name["max_queue_drops"].ok
        assert by_name["max_queue_drops"].observed == 3.0
        assert by_name["max_reconnects"].ok
        assert not report.passed

    def test_report_json_roundtrip(self):
        registry = MetricsRegistry(server="s1")
        metrics = MetricsReport.from_snapshots({"s1": registry.snapshot()})
        report = SloSpec(max_queue_drops=0).evaluate(None, metrics)
        again = SloReport.from_dict(
            json.loads(json.dumps(report.as_dict()))
        )
        assert again == report
        assert report.passed


# ---------------------------------------------------------------- node status


class TestNodeStatusSeq:
    def test_metrics_seq_roundtrips(self):
        status = NodeStatus(
            server="s1", pid=1, tick=3, blocks=9, fingerprint="ab", metrics_seq=5
        )
        data = json.loads(json.dumps(status.as_dict()))
        assert NodeStatus.from_dict(data).metrics_seq == 5

    def test_metrics_seq_defaults_to_zero(self):
        status = NodeStatus(server="s1", pid=1, tick=0, blocks=0, fingerprint="")
        assert status.metrics_seq == 0
