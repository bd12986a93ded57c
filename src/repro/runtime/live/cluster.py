"""``LiveCluster`` — spawn one ``repro.node`` process per server.

The launcher writes each server's :class:`NodeConfig` JSON into the run
directory, spawns ``python -m repro.node --config <file>`` per server,
and watches the *status files* the nodes atomically rewrite — no
control channel, no shared memory: the only coordination artifacts are
files and sockets, so killing a node with SIGKILL is exactly the crash
the storage layer's recovery path is specified against.

``kill(server)`` / ``start(server)`` expose that crash surface to
tests; ``run()`` is the happy path: start everyone, fire the
scenario's :class:`~repro.runtime.faults.CrashFault` events (if any),
wait until every status reports ``complete`` with matching DAG
fingerprints, then SIGTERM the fleet (nodes export their
flight-recorder traces and final metrics snapshots on the way down).
A crash event SIGKILLs its server once the server's own tick reaches
``crash_round`` and respawns it :data:`DOWN_SECONDS_PER_ROUND` seconds
per round of the crash→restart span later (never, without a
``restart_round``): the wall-clock downtime stands in for the
simulator's virtual one.  Nodes publish on a timer, not per seal, so
the launcher writes each victim's crash rounds into its config's
``publish_ticks``: the victim publishes its crash round the moment it
seals it, and the next poll kills it there.

Polling is cheap twice over: status files are re-parsed only when
their stat signature changes, and metrics files are re-read only when
the ``metrics_seq`` published in the status file advances.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.errors import NetworkError, ScenarioError
from repro.obs.metrics import MetricsError, MetricsReport, MetricsSnapshot
from repro.runtime.faults import CrashFault
from repro.runtime.live.node import NodeConfig, NodeStatus
from repro.types import ServerId

#: Wall-clock downtime per virtual crash→restart round (seconds).  A
#: restarted node recovers from disk and beacon-chases the gap, so the
#: stand-in only needs to be long enough to be observable.
DOWN_SECONDS_PER_ROUND = 1.0
#: Seconds between two polls of the status files.
POLL_INTERVAL = 0.1


def down_seconds(crash: CrashFault) -> float | None:
    """Wall-clock downtime of one crash (``None``: never restarted)."""
    if crash.restart_round is None:
        return None
    return (crash.restart_round - crash.crash_round) * DOWN_SECONDS_PER_ROUND


@dataclass
class LiveRunResult:
    """Outcome of one :meth:`LiveCluster.run`."""

    converged: bool
    wall_seconds: float
    statuses: dict[str, NodeStatus] = field(default_factory=dict)
    trace_paths: dict[str, str] = field(default_factory=dict)
    metrics: MetricsReport | None = None
    crashes: int = 0

    @property
    def fingerprints(self) -> dict[str, str]:
        return {s: st.fingerprint for s, st in self.statuses.items()}

    def delivered_min(self) -> dict[str, int]:
        """Per label: the minimum delivery count across servers."""
        merged: dict[str, int] = {}
        for status in self.statuses.values():
            for label, count in status.delivered.items():
                merged[label] = min(merged.get(label, count), count)
        return merged


class LiveCluster:
    """One OS process per server, coordinated through status files."""

    def __init__(
        self,
        configs: dict[ServerId, NodeConfig],
        run_dir: str | Path,
        *,
        crashes: Sequence[CrashFault] = (),
    ) -> None:
        if not configs:
            raise NetworkError("live cluster needs at least one server")
        self.configs = dict(configs)
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.crashes = tuple(crashes)
        for crash in self.crashes:
            server = ServerId(crash.server)
            if server not in self.configs:
                raise NetworkError(f"crash names unknown server {crash.server!r}")
            # The crash schedule acts on this tick: have it published.
            config = self.configs[server]
            ticks = sorted({*config.publish_ticks, crash.crash_round})
            self.configs[server] = replace(config, publish_ticks=tuple(ticks))
        self.processes: dict[ServerId, asyncio.subprocess.Process] = {}
        self.restarts = 0
        self.crashes_performed = 0
        #: Status files parsed (vs. polls answered from the stat cache).
        self.status_parses = 0
        self.status_polls = 0
        #: Metrics files read (vs. scrapes skipped on unchanged seq).
        self.metrics_reads = 0
        self.metrics_skips = 0
        self._status_cache: dict[ServerId, tuple[tuple[int, int], NodeStatus]] = {}
        self._metrics_cache: dict[ServerId, tuple[int, MetricsSnapshot]] = {}
        self._killed_at: dict[str, float] = {}
        for server, config in self.configs.items():
            if config.status_path is None:
                raise NetworkError(f"node {server} has no status_path")
            self.config_path(server).write_text(
                config.to_json(indent=2), encoding="utf-8"
            )

    # -- paths -----------------------------------------------------------------

    def config_path(self, server: ServerId) -> Path:
        return self.run_dir / f"{server}.config.json"

    def _env(self) -> dict[str, str]:
        # The child must import the same `repro` this process runs:
        # this file is src/repro/runtime/live/cluster.py, so the
        # importable root is three directories up.
        src_root = str(Path(__file__).resolve().parents[3])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        return env

    # -- process control -------------------------------------------------------

    async def start(self, server: ServerId) -> None:
        """Spawn (or respawn) one node process."""
        if server not in self.configs:
            raise NetworkError(f"unknown server: {server!r}")
        existing = self.processes.get(server)
        if existing is not None and existing.returncode is None:
            raise NetworkError(f"server already running: {server!r}")
        if existing is not None:
            self.restarts += 1
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.node",
            "--config",
            str(self.config_path(server)),
            env=self._env(),
        )
        # Re-validate after the await: a concurrent start() for the same
        # server may have won the race while the subprocess spawned —
        # overwriting its entry would leak an untracked child process.
        if self.processes.get(server) is not existing:
            process.kill()
            raise NetworkError(f"server already running: {server!r}")
        self.processes[server] = process

    async def start_all(self) -> None:
        for server in self.configs:
            await self.start(server)

    def kill(self, server: ServerId) -> None:
        """SIGKILL — the real crash (no flush, no goodbye)."""
        process = self.processes.get(server)
        if process is None or process.returncode is not None:
            raise NetworkError(f"server not running: {server!r}")
        process.kill()

    async def shutdown(self, timeout: float = 10.0) -> None:
        """SIGTERM everyone, wait, SIGKILL stragglers."""
        for process in self.processes.values():
            if process.returncode is None:
                process.terminate()
        for process in self.processes.values():
            try:
                await asyncio.wait_for(process.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

    # -- status ----------------------------------------------------------------

    def status(self, server: ServerId) -> NodeStatus | None:
        path = self.configs[server].status_path
        assert path is not None
        self.status_polls += 1
        try:
            stat = os.stat(path)
        except OSError:
            return None
        # Nodes rewrite the file atomically (tmp + rename), so an
        # unchanged (mtime_ns, size) signature means unchanged content —
        # answer from the cache without re-reading or re-parsing.
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._status_cache.get(server)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            status = NodeStatus.from_dict(json.loads(text))
        except (ScenarioError, ValueError):
            return None  # torn read of a non-atomic filesystem
        self.status_parses += 1
        self._status_cache[server] = (signature, status)
        return status

    def statuses(self) -> dict[str, NodeStatus]:
        result: dict[str, NodeStatus] = {}
        for server in self.configs:
            status = self.status(server)
            if status is not None:
                result[str(server)] = status
        return result

    # -- metrics ---------------------------------------------------------------

    def scrape_metrics(self) -> dict[str, MetricsSnapshot]:
        """Read every node's metrics JSONL, skipping unchanged files.

        The status file's ``metrics_seq`` names the snapshot version on
        disk; a scrape re-reads a node's file only when that seq moved
        past the cached one.
        """
        snapshots: dict[str, MetricsSnapshot] = {}
        for server, config in self.configs.items():
            if config.metrics_path is None:
                continue
            status = self.status(server)
            published = status.metrics_seq if status is not None else None
            cached = self._metrics_cache.get(server)
            if (
                cached is not None
                and published is not None
                and cached[0] >= published
            ):
                self.metrics_skips += 1
                snapshots[str(server)] = cached[1]
                continue
            try:
                snapshot = MetricsSnapshot.read_jsonl(config.metrics_path)
            except (OSError, MetricsError):
                if cached is not None:
                    snapshots[str(server)] = cached[1]
                continue
            self.metrics_reads += 1
            self._metrics_cache[server] = (snapshot.seq, snapshot)
            snapshots[str(server)] = snapshot
        return snapshots

    def metrics_report(self) -> MetricsReport | None:
        """Cluster-wide merge of the latest scrape (``None`` if nothing
        has been exported yet)."""
        snapshots = self.scrape_metrics()
        if not snapshots:
            return None
        return MetricsReport.from_snapshots(snapshots)

    def _all_complete(self) -> bool:
        statuses = self.statuses()
        if len(statuses) < len(self.configs):
            return False
        # A fleet that finished before the launcher saw the victim's
        # kill tick has not run the scenario yet: the crash is still due.
        for crash in self.crashes:
            budget = self.configs[ServerId(crash.server)].max_ticks
            if crash.server not in self._killed_at and crash.crash_round <= budget:
                return False
        for server, status in statuses.items():
            # A killed node's last status stays on disk; it speaks for
            # nobody until the respawned process publishes its own.
            process = self.processes.get(ServerId(server))
            if process is not None and (
                process.returncode is not None or status.pid != process.pid
            ):
                return False
        if not all(s.complete for s in statuses.values()):
            return False
        return len({s.fingerprint for s in statuses.values()}) == 1

    async def wait_converged(self, timeout: float) -> bool:
        """Poll statuses until every node is complete on one fingerprint,
        every crash due has fired, and each status comes from the node's
        running process."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            await self._drive_crashes()
            if self._all_complete():
                return True
            await asyncio.sleep(POLL_INTERVAL)
        return self._all_complete()

    # -- crash schedule --------------------------------------------------------

    async def _drive_crashes(self) -> None:
        """Fire due crash events and respawns against live statuses."""
        loop = asyncio.get_running_loop()
        for crash in self.crashes:
            server = ServerId(crash.server)
            if crash.server not in self._killed_at:
                status = self.status(server)
                process = self.processes.get(server)
                if (
                    status is not None
                    and status.tick >= crash.crash_round
                    and process is not None
                    and process.returncode is None
                ):
                    self.kill(server)
                    await process.wait()
                    # Re-check after the await: overlapping
                    # _drive_crashes calls must not double-count one
                    # crash or reset its respawn clock.
                    if crash.server not in self._killed_at:
                        self._killed_at[crash.server] = loop.time()
                        self.crashes_performed += 1
            else:
                down = down_seconds(crash)
                process = self.processes.get(server)
                if (
                    down is not None
                    and process is not None
                    and process.returncode is not None
                    and loop.time() - self._killed_at[crash.server] >= down
                ):
                    await self.start(server)

    # -- the happy path --------------------------------------------------------

    async def _run(self, timeout: float) -> LiveRunResult:
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            await self.start_all()
            converged = await self.wait_converged(timeout)
        finally:
            await self.shutdown()
        return LiveRunResult(
            converged=converged,
            wall_seconds=loop.time() - started,
            statuses=self.statuses(),
            trace_paths={
                str(server): config.trace_path
                for server, config in self.configs.items()
                if config.trace_path is not None
            },
            # Final snapshots: every node wrote metrics one last time on
            # the way down, bumping its seq past anything cached.
            metrics=self.metrics_report(),
            crashes=self.crashes_performed,
        )

    def run(self, timeout: float = 60.0) -> LiveRunResult:
        """Start, wait for convergence, shut down — synchronously.

        The event loop lives entirely inside this call; callers (the
        scenario runner, benchmarks) never import asyncio.
        """
        return asyncio.run(self._run(timeout))
