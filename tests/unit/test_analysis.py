"""Unit tests for the analysis layer — compression accounting, tables."""

from repro.analysis.compression import CompressionReport, compression_report
from repro.analysis.reporting import format_series, format_table, shape_check
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.cluster import Cluster
from repro.types import Label

L = Label("l")


class TestCompressionReport:
    def _report(self, materialized=100, envelopes=10, bytes_=1000):
        return CompressionReport(
            n_servers=4,
            n_labels=5,
            messages_materialized=materialized,
            messages_delivered=materialized,
            wire_envelopes=envelopes,
            wire_bytes=bytes_,
            blocks=16,
        )

    def test_messages_per_envelope(self):
        assert self._report().messages_per_envelope == 10.0

    def test_omitted_fraction(self):
        assert self._report().omitted_fraction == 0.9

    def test_bytes_per_message(self):
        assert self._report().bytes_per_message == 10.0

    def test_zero_guards(self):
        empty = self._report(materialized=0, envelopes=0)
        assert empty.messages_per_envelope == 0.0
        assert empty.omitted_fraction == 0.0
        assert empty.bytes_per_message == 0.0

    def test_from_cluster(self):
        cluster = Cluster(brb_protocol, n=4)
        cluster.request(cluster.servers[0], L, Broadcast(1))
        cluster.run_until(lambda c: c.all_delivered(L))
        report = compression_report(cluster, n_labels=1)
        assert report.messages_materialized > 0
        assert report.wire_envelopes == cluster.sim.metrics.messages
        assert 0 <= report.omitted_fraction <= 1

    def test_as_row(self):
        row = self._report().as_row()
        assert row["n"] == 4
        assert row["omitted"] == "90.0%"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": "xx"}, {"a": 100, "b": "y"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_missing_keys(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="T")

    def test_format_series_bars_scale(self):
        text = format_series([(1, 10), (2, 20)], title="S")
        lines = text.splitlines()
        assert lines[0] == "S"
        assert lines[-1].count("#") == 30  # max value gets full bar
        assert 0 < lines[-2].count("#") < 30

    def test_format_series_zero_peak(self):
        text = format_series([(1, 0), (2, 0)])
        assert "#" not in text

    def test_shape_check(self):
        assert shape_check("x", True).startswith("[OK ]")
        assert shape_check("x", False).startswith("[FAIL]")
