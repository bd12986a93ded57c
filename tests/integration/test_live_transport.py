"""The live transport, end to end: real processes, real sockets.

Four claims, in ascending order of ambition:

1. a 4-server UDS cluster driven from a registry scenario reaches
   delivery-and-convergence (the live analogue of AllDelivered);
2. the live arm admits exactly the per-builder chains the simulated
   arm admits — ``trace diff --mode chains`` between the two arms of
   the same scenario document is silent, for every server;
3. ``kill -9`` of one node mid-run followed by a restart-from-disk
   converges: recovery resumes the chain, peers' retained queues and
   the tip beacon replay what was missed;
4. every status a node publishes equals the from-scratch oracle.
   ``LiveNode`` keeps its status as running totals — delivery counts
   and the unmet-label count from the shim's indication callback, the
   DAG fingerprint folded per admitted block — instead of recomputing
   them per publication.  :func:`helpers.reference_status` is the
   recomputation it replaced; four nodes run in *this* process's event
   loop over real unix sockets and **every** publication (per tick,
   timer, post-settle, shutdown) must equal the oracle field by field,
   on a fresh multi-label run and on a node restarted from disk
   mid-run (where the totals are seeded from what recovery rebuilt).
   The same runs pin the costs the totals bought: no
   ``Shim.indications_for`` call anywhere in a node's life, metrics
   snapshots off the tick path, and a published ``metrics_seq`` always
   naming the snapshot on disk.

Claims 1–3 spawn OS processes (``python -m repro.node``) and sleep on
real sockets, so they are integration-priced: seconds, not
milliseconds.
"""

import asyncio
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import reference_status
from repro.net.message import BlockEnvelope
from repro.obs.diverge import first_chain_divergence
from repro.obs.export import read_jsonl
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.live.cluster import LiveCluster
from repro.runtime.live.node import LiveNode, NodeConfig, NodeStatus
from repro.scenario import registry
from repro.scenario.live import compile_live_configs
from repro.scenario.runner import run_scenario
from repro.scenario.spec import Scenario, StorageSpec, Topology, resolve_protocol
from repro.scenario.stop import RoundsElapsed
from repro.scenario.workload import OpenLoopWorkload
from repro.shim.shim import Shim
from repro.types import ServerId


class TestLiveMatchesSimulated:
    def test_live_cluster_converges_and_chains_match_simulator(self, tmp_path):
        scenario = registry.get("live-smoke", smoke=True)
        sim_trace = tmp_path / "sim"
        live_trace = tmp_path / "live"

        sim_result = run_scenario(scenario, trace_dir=sim_trace)
        live_result = run_scenario(scenario, trace_dir=live_trace, live=True)

        # Claim 1: the live fleet reached completion on one fingerprint.
        assert live_result.converged
        assert live_result.stopped_by == "live-complete"
        assert live_result.requests_delivered == sim_result.requests_issued
        assert live_result.total_blocks == sim_result.total_blocks

        # Claim 2: same document, same chains — per server, the live
        # run validated exactly the blocks the simulated run validated,
        # builder by builder, (k, ref) by (k, ref).
        for server in scenario.topology.servers():
            sim_events = read_jsonl(sim_trace / f"{server}.jsonl")
            live_events = read_jsonl(live_trace / f"{server}.jsonl")
            divergence = first_chain_divergence(sim_events, live_events)
            assert divergence is None, f"{server}: {divergence}"


class TestKillMinusNineRecovery:
    def test_sigkill_one_node_restart_from_disk_converges(self, tmp_path):
        scenario = Scenario(
            name="live-restart",
            protocol="counter",
            description="live kill -9 + restart-from-disk fixture",
            topology=Topology(
                n=4, storage=StorageSpec(checkpoint_interval=4)
            ),
            workload=OpenLoopWorkload(rate=1, rounds=2, shared_label="ledger"),
            stop=RoundsElapsed(8),
            max_rounds=8,
        )
        run_dir = tmp_path / "run"
        configs = compile_live_configs(
            scenario, run_dir, tick_timeout=15.0, settle_timeout=60.0
        )
        # Slow the fleet down so "mid-run" is a real window: the
        # workload lands at ticks 0–1, the kill at tick ≥ 3, and the
        # budget is 8 ticks.
        configs = {
            server: replace(config, tick_interval=0.25)
            for server, config in configs.items()
        }
        victim = ServerId("s3")
        cluster = LiveCluster(configs, run_dir)

        async def drive() -> bool:
            loop = asyncio.get_running_loop()
            await cluster.start_all()
            try:
                deadline = loop.time() + 30.0
                while loop.time() < deadline:
                    status = cluster.status(victim)
                    if status is not None and status.tick >= 3:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("victim never reached tick 3")
                cluster.kill(victim)
                await cluster.processes[victim].wait()
                await cluster.start(victim)
                return await cluster.wait_converged(timeout=90.0)
            finally:
                await cluster.shutdown()

        converged = asyncio.run(drive())
        assert converged, f"statuses: {cluster.statuses()}"

        statuses = cluster.statuses()
        assert statuses[str(victim)].recovered, "restart did not hit recovery"
        assert len({s.fingerprint for s in statuses.values()}) == 1
        for status in statuses.values():
            assert status.delivered.get("ledger", 0) >= 2
        assert cluster.restarts == 1


# -- claim 4: every publication against the oracle ----------------------------

DEADLINE = 60.0


class CheckedNode(LiveNode):
    """A node that holds each of its publications against the oracle."""

    def __init__(self, config: NodeConfig) -> None:
        entry = resolve_protocol(config.protocol)
        super().__init__(config, entry.spec, entry.make_request)
        self.published: list[NodeStatus] = []

    def status(self) -> NodeStatus:
        status = super().status()
        ours = status.as_dict()
        for name, expected in reference_status(self).as_dict().items():
            assert ours[name] == expected, (name, len(self.published))
        metrics_path = Path(self.config.metrics_path)
        if status.metrics_seq:
            assert MetricsSnapshot.read_jsonl(metrics_path).seq == status.metrics_seq
        else:
            # (A restarted node finds its previous incarnation's file.)
            assert status.recovered or not metrics_path.exists()
        self.published.append(status)
        return status

    def latest(self) -> NodeStatus | None:
        return self.published[-1] if self.published else None


def converged(nodes: list[CheckedNode]) -> bool:
    latest = [node.latest() for node in nodes]
    return (
        all(status is not None and status.complete for status in latest)
        and len({status.fingerprint for status in latest}) == 1
    )


async def until(predicate, tasks: list[asyncio.Task]) -> None:
    """Poll ``predicate``; a node task that died re-raises here."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DEADLINE
    while not predicate():
        for task in tasks:
            if task.done():
                task.result()
        assert loop.time() < deadline, "live run did not get there in time"
        await asyncio.sleep(0.01)


async def stop(nodes: list[CheckedNode], tasks: list[asyncio.Task]) -> None:
    for node in nodes:
        node.request_stop()
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=DEADLINE)


def oracle_scenario(rounds: int, rate: int, storage: StorageSpec | None = None) -> Scenario:
    return Scenario(
        name="status-oracle",
        protocol="brb",
        description="multi-label live run held against reference_status",
        topology=Topology(n=4, storage=storage),
        workload=OpenLoopWorkload(rate=rate, rounds=3),
        stop=RoundsElapsed(rounds),
        max_rounds=rounds,
    )


@pytest.fixture
def count_indications_for(monkeypatch):
    calls = []
    real = Shim.indications_for

    def counted(self, label):
        calls.append(label)
        return real(self, label)

    monkeypatch.setattr(Shim, "indications_for", counted)
    return calls


def test_every_publication_of_a_multi_label_run(tmp_path, count_indications_for):
    # Timer off: what is left is one status per tick plus the
    # post-settle and shutdown publications — exactly two snapshots.
    configs = {
        server: replace(config, status_interval=3600.0)
        for server, config in compile_live_configs(
            oracle_scenario(rounds=8, rate=3), tmp_path
        ).items()
    }
    nodes = [CheckedNode(config) for config in configs.values()]
    assert len(nodes[0].config.expected) == 9

    async def drive() -> None:
        tasks = [asyncio.ensure_future(node.run()) for node in nodes]
        try:
            await until(lambda: converged(nodes), tasks)
        finally:
            await stop(nodes, tasks)

    asyncio.run(drive())
    for node in nodes:
        ticks = [status.tick for status in node.published]
        # One publication per tick, the first of them immediately.
        assert set(range(1, node.config.max_ticks + 1)) <= set(ticks)
        assert [s.metrics_seq for s in node.published if not s.ticks_done] == [0] * (
            node.config.max_ticks - 1
        )
        final = node.published[-1]
        assert final.complete and final.metrics_seq == 2
        assert all(count == 1 for count in final.delivered.values())
        assert node.metrics.histogram("node.status-write").count == len(node.published)
    assert count_indications_for == []


def test_every_publication_of_a_node_restarted_from_disk(
    tmp_path, count_indications_for
):
    rounds = 24
    configs = {
        server: replace(config, tick_interval=0.02)
        for server, config in compile_live_configs(
            oracle_scenario(rounds=rounds, rate=2, storage=StorageSpec()),
            tmp_path,
            # The reborn node can wait out one gate (its peers' tip
            # beacons sit in its ingress hold until it seals): keep
            # that wait short, convergence does not depend on it.
            tick_timeout=2.0,
        ).items()
    }
    nodes = {str(server): CheckedNode(config) for server, config in configs.items()}
    victim = nodes["s3"]

    async def drive() -> CheckedNode:
        tasks = {
            name: asyncio.ensure_future(node.run()) for name, node in nodes.items()
        }
        try:
            # Past the first checkpoint (32 interpreted blocks), so the
            # restart restores indications instead of replaying them all.
            await until(
                lambda: victim.latest() is not None and victim.latest().tick >= 12,
                list(tasks.values()),
            )
            await stop([victim], [tasks.pop("s3")])
            assert not victim.published[-1].complete
            reborn = nodes["s3"] = CheckedNode(victim.config)
            tasks["s3"] = asyncio.ensure_future(reborn.run())
            await until(lambda: converged(list(nodes.values())), list(tasks.values()))
            return reborn
        finally:
            await stop(list(nodes.values()), list(tasks.values()))

    reborn = asyncio.run(drive())
    assert reborn.shim.recovery.indications_restored > 0
    first = reborn.published[0]
    # Seeded from the recovered shim before the first publication.
    assert first.recovered and first.blocks > 0 and sum(first.delivered.values()) > 0
    assert all(status.recovered for status in reborn.published)
    # tick_interval × rounds outlasts status_interval: the timer fired.
    assert reborn.published[-1].metrics_seq > 2
    assert count_indications_for == []


def test_a_peer_gone_before_shutdown_is_lost_and_one_found_gone_during_it_is_not(
    tmp_path,
):
    # ``transport.conn-lost`` attributes a disturbance to a peer; a
    # fleet shutdown is not one.  A node told to stop may still hold a
    # beacon for a peer that stopped first: the write fails while
    # ``run()`` winds down — after the stop, before the final snapshot.
    # Timers off, so after convergence a node writes to a peer only
    # when this test queues something.
    configs = {
        str(server): replace(config, status_interval=3600.0, beacon_interval=3600.0)
        for server, config in compile_live_configs(
            oracle_scenario(rounds=8, rate=1), tmp_path
        ).items()
    }
    nodes = {name: CheckedNode(config) for name, config in configs.items()}
    running, stopping, gone = nodes["s1"], nodes["s2"], ServerId("s4")

    def lost(node: CheckedNode) -> int:
        return node.metrics.counter("transport.conn-lost", peer=str(gone)).value

    async def drive() -> None:
        tasks = {name: asyncio.ensure_future(node.run()) for name, node in nodes.items()}
        try:
            await until(lambda: converged(list(nodes.values())), list(tasks.values()))
            await stop([nodes[str(gone)]], [tasks.pop(str(gone))])
            beacon = BlockEnvelope(running.shim.dag.tip(running.server))
            # Idle pumps do not read, so nobody has noticed yet.
            assert lost(running) == lost(stopping) == 0
            running.transport.send(gone, beacon)
            await until(lambda: lost(running) == 1, list(tasks.values()))
            stopping.transport.send(gone, beacon)
            await stop([stopping], [tasks.pop("s2")])
            assert stopping.transport.queued(gone) == 1  # tried, not delivered
        finally:
            await stop(list(nodes.values()), list(tasks.values()))

    asyncio.run(drive())
    final = {
        name: MetricsSnapshot.read_jsonl(config.metrics_path)
        for name, config in configs.items()
    }
    assert final["s2"].total("transport.conn-lost") == 0
    assert final["s1"].total("transport.conn-lost") == 1
    assert final["s1"].total("transport.conn-lost", peer=str(gone)) == 1
    assert final["s3"].total("transport.conn-lost") == 0
