"""Live metrics, end to end: telemetry from real processes.

Three claims:

1. a live ``live-smoke`` run yields a cluster :class:`MetricsReport`
   with per-peer transport gauges from every node, a populated
   cross-process lifecycle join, and evaluated SLO verdicts that
   round-trip through the result JSON;
2. the scraper actually skips: unchanged status files answer from the
   stat cache, and unchanged ``metrics_seq`` skips re-reading the
   metrics JSONL (a filesystem-only regression test, no processes);
3. the ``metrics-soak`` crash scenario attributes the disturbance —
   connection losses and reconnects — to exactly the killed seat.

Claims 1 and 3 spawn OS processes and are integration-priced.
"""

import json
import os

from repro.obs.metrics import MetricsRegistry
from repro.runtime.live.cluster import LiveCluster
from repro.runtime.live.node import NodeConfig, NodeStatus
from repro.scenario import registry
from repro.scenario.result import ScenarioResult
from repro.scenario.runner import run_scenario
from repro.types import ServerId


class TestLiveSmokeTelemetry:
    def test_live_run_produces_metrics_lifecycle_and_slo(self, tmp_path):
        scenario = registry.get("live-smoke", smoke=True)
        result = run_scenario(scenario, trace_dir=tmp_path / "trace", live=True)
        assert result.converged

        report = result.metrics
        assert report is not None
        servers = [str(s) for s in scenario.topology.servers()]
        assert [server for server, _ in report.by_server] == servers
        for server in servers:
            snapshot = report.snapshot(server)
            assert snapshot is not None
            peers = [s for s in servers if s != server]
            for peer in peers:
                depth = snapshot.get("transport.queue-depth", peer=peer)
                assert depth is not None, f"{server} has no gauge for {peer}"
                assert depth.kind == "gauge"
            frames_out = sum(
                p.value for p in snapshot.select("transport.frames-out")
            )
            assert frames_out > 0, f"{server} sent no frames"
            assert snapshot.get("node.gate-wait").count > 0
            # The status publication is timed once per write.  The
            # final snapshot precedes the shutdown status, so it counts
            # at least the first seal's and the post-settle one.
            assert snapshot.get("node.status-write").count >= 2

        # The cross-process lifecycle join saw real commits.
        assert result.live_lifecycle is not None
        assert result.live_lifecycle.seal_to_interpret.count > 0
        assert result.live_lifecycle.seal_to_interpret.p99 > 0.0

        # SLO verdicts are present, evaluated, and survive the JSON trip.
        assert result.slo is not None
        assert {v.name for v in result.slo.verdicts} == {
            "commit_p99_ms",
            "max_queue_drops",
            "max_reconnects",
        }
        assert all(v.observed is not None for v in result.slo.verdicts)
        again = ScenarioResult.from_json(result.to_json())
        assert again.slo == result.slo
        assert again.metrics == result.metrics
        assert again.live_lifecycle == result.live_lifecycle


class TestScrapeSkipsUnchangedFiles:
    def _cluster(self, tmp_path) -> tuple[LiveCluster, ServerId]:
        server = ServerId("s1")
        config = NodeConfig(
            server="s1",
            servers=("s1",),
            protocol="brb",
            addresses={"s1": f"unix:{tmp_path}/s1.sock"},
            status_path=str(tmp_path / "s1.status.json"),
            metrics_path=str(tmp_path / "s1.metrics.jsonl"),
        )
        return LiveCluster({server: config}, tmp_path / "run"), server

    @staticmethod
    def _publish(config: NodeConfig, tick: int, seq: int) -> None:
        registry = MetricsRegistry(server="s1")
        registry.counter("transport.frames-out", peer="s2").inc(seq)
        registry.snapshot(seq=seq).write_jsonl(config.metrics_path)
        status = NodeStatus(
            server="s1", pid=1, tick=tick, blocks=0, fingerprint="",
            metrics_seq=seq,
        )
        path = config.status_path
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(status.as_dict(), handle)
        # Force a distinct stat signature even on coarse-mtime
        # filesystems: the cache keys on (mtime_ns, size).
        os.utime(path, ns=(seq * 1_000_000, seq * 1_000_000))

    def test_status_poll_answers_from_stat_cache(self, tmp_path):
        cluster, server = self._cluster(tmp_path)
        config = cluster.configs[server]
        self._publish(config, tick=1, seq=1)

        first = cluster.status(server)
        second = cluster.status(server)
        assert first is not None and second is not None
        assert first.tick == second.tick == 1
        assert cluster.status_polls == 2
        assert cluster.status_parses == 1  # second poll hit the cache

        self._publish(config, tick=2, seq=2)
        third = cluster.status(server)
        assert third is not None and third.tick == 2
        assert cluster.status_parses == 2  # rewrite forced a re-parse

    def test_metrics_scrape_skips_on_unchanged_seq(self, tmp_path):
        cluster, server = self._cluster(tmp_path)
        config = cluster.configs[server]
        self._publish(config, tick=1, seq=1)

        cluster.scrape_metrics()
        cluster.scrape_metrics()
        assert cluster.metrics_reads == 1
        assert cluster.metrics_skips == 1

        self._publish(config, tick=2, seq=2)
        snapshots = cluster.scrape_metrics()
        assert cluster.metrics_reads == 2
        assert snapshots["s1"].seq == 2
        assert snapshots["s1"].total("transport.frames-out") == 2


class TestCrashAttribution:
    def test_soak_attributes_disturbance_to_the_killed_seat(self, tmp_path):
        scenario = registry.get("metrics-soak", smoke=True)
        victim = "s5"
        assert any(e.server == victim for e in scenario.faults.events)

        result = run_scenario(scenario, trace_dir=tmp_path / "trace", live=True)
        assert result.converged
        assert result.crashes == 1
        assert result.restarts == 1

        report = result.metrics
        assert report is not None

        # Every connection loss and every reconnect names the victim —
        # nobody else's link dropped.
        losses = list(report.merged.select("transport.conn-lost"))
        assert sum(p.value for p in losses) > 0
        for point in losses:
            if point.value:
                assert dict(point.labels)["peer"] == victim, point

        reconnects = list(report.merged.select("transport.reconnects"))
        to_victim = sum(
            p.value for p in reconnects if dict(p.labels)["peer"] == victim
        )
        elsewhere = sum(
            p.value for p in reconnects if dict(p.labels)["peer"] != victim
        )
        assert to_victim >= 1, "no peer re-established a link to the victim"
        assert elsewhere == 0, f"reconnects attributed off-victim: {reconnects}"

        assert result.slo is not None and result.slo.passed
