"""The live transport, end to end: real processes, real sockets.

Five claims, the first four in ascending order of ambition:

1. a 4-server UDS cluster driven from a registry scenario reaches
   delivery-and-convergence (the live analogue of AllDelivered);
2. the live arm admits exactly the per-builder chains the simulated
   arm admits — ``trace diff --mode chains`` between the two arms of
   the same scenario document is silent, for every server;
3. ``kill -9`` of one node mid-run followed by a restart-from-disk
   converges: recovery resumes the chain, peers' retained queues and
   the tip beacon replay what was missed; and a crash victim publishes
   its crash round the moment it seals it, so the launcher kills it
   there even with the status timer off;
4. every status a node publishes equals the from-scratch oracle.
   ``LiveNode`` keeps its status as running totals — delivery counts
   and the unmet-label count from the shim's indication callback, the
   DAG fingerprint folded per admitted block — instead of recomputing
   them per publication.  :func:`helpers.reference_status` is the
   recomputation it replaced; four nodes run in *this* process's event
   loop over real unix sockets and **every** publication (first seal,
   timer, post-settle, shutdown) must equal the oracle field by field,
   on a fresh multi-label run and on a node restarted from disk
   mid-run (where the totals are seeded from what recovery rebuilt).
   A seal no reader acts on publishes nothing, so the fresh run also
   holds the status against the oracle after every seal: the totals
   are checked at every tick, not only at the three publications.
   The same runs pin the costs the totals bought: no
   ``Shim.indications_for`` call anywhere in a node's life, metrics
   snapshots off the tick path, and a published ``metrics_seq`` always
   naming the snapshot on disk;
5. the transport on its own: addresses, per-peer queues, and a stop
   that keeps the listener open until the peers still connected let
   go (at most ``SHUTDOWN_LINGER``), so a fleet shutdown costs no node
   a counted connection loss however late it handles its own stop;
6. the node's own lifecycle: a node keeps the cyclic collector off
   what earlier ticks built (``gc.freeze``) and hands the heap back
   unfrozen on every exit from ``run()``, which is sound because the
   simulated runs of the fault-free scenarios leave no reference
   cycle behind; and an assembly that fails releases the listener and
   the peer pumps it had already started.

Claims 1–3 spawn OS processes (``python -m repro.node``) and sleep on
real sockets, so they are integration-priced: seconds, not
milliseconds.
"""

import asyncio
import gc
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import reference_status
from repro.errors import NetworkError
from repro.net.live import transport as live
from repro.net.live.transport import LiveTransport, parse_address
from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.obs.diverge import first_chain_divergence
from repro.obs.export import read_jsonl
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.faults import CrashFault
from repro.runtime.live.cluster import LiveCluster
from repro.runtime.live.node import LiveNode, NodeConfig, NodeStatus
from repro.scenario import registry
from repro.scenario.live import compile_live_configs
from repro.scenario.runner import ScenarioRunner, run_scenario
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


class TestStorageLowering:
    @pytest.mark.parametrize("name", ["metrics-soak", "crash-restart", "live-smoke"])
    def test_a_lowered_config_round_trips_to_the_scenarios_storage(self, tmp_path, name):
        scenario = registry.get(name, smoke=True)
        expected = (scenario.topology.storage or StorageSpec()).build()
        for config in compile_live_configs(scenario, tmp_path).values():
            loaded = NodeConfig.from_json(config.to_json())
            assert loaded == config
            assert loaded.storage.build() == expected
            assert (loaded.storage_dir is None) == (not scenario.needs_storage())

    def test_a_live_node_builds_its_storage_from_the_spec(self, tmp_path):
        scenario = registry.get("metrics-soak", smoke=True)
        config = compile_live_configs(scenario, tmp_path)[ServerId("s1")]
        entry = resolve_protocol(config.protocol)
        node = LiveNode(config, entry.spec, entry.make_request)

        async def drive() -> None:
            task = asyncio.ensure_future(node.run())
            await until(lambda: node.shim is not None, [task])
            node.request_stop()
            await asyncio.wait_for(task, timeout=DEADLINE)

        asyncio.run(drive())
        # Not the defaults (32 / 65536): the scenario's own knobs.
        assert node.shim.storage.config == scenario.topology.storage.build()
        assert node.shim.storage.config.checkpoint_interval == 6


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

    def test_a_killed_node_is_not_converged_until_it_is_back(self, tmp_path):
        # The victim dies after it completed: the status it left on disk
        # still says complete, on the fleet's fingerprint.
        scenario = Scenario(
            name="live-late-kill",
            protocol="counter",
            description="kill -9 after completion",
            topology=Topology(n=4, storage=StorageSpec(checkpoint_interval=4)),
            workload=OpenLoopWorkload(rate=1, rounds=2, shared_label="ledger"),
            stop=RoundsElapsed(6),
            max_rounds=6,
        )
        run_dir = tmp_path / "run"
        cluster = LiveCluster(compile_live_configs(scenario, run_dir), run_dir)
        victim = ServerId("s2")

        async def drive() -> None:
            await cluster.start_all()
            try:
                assert await cluster.wait_converged(timeout=60.0)
                cluster.kill(victim)
                await cluster.processes[victim].wait()
                assert cluster.status(victim).complete
                assert not await cluster.wait_converged(timeout=0.5)
                await cluster.start(victim)
                assert await cluster.wait_converged(timeout=60.0)
            finally:
                await cluster.shutdown()

        asyncio.run(drive())
        status = cluster.statuses()[str(victim)]
        assert status.recovered
        assert status.pid == cluster.processes[victim].pid

    @pytest.mark.parametrize("crash_round, converged", [(2, False), (7, True)])
    def test_a_crash_still_due_holds_convergence(
        self, tmp_path, crash_round, converged
    ):
        # No processes: every status says complete on one fingerprint and
        # nobody has been killed.  A crash within the victim's six-tick
        # budget is still due; one past it never fires.
        configs = compile_live_configs(oracle_scenario(rounds=6, rate=1), tmp_path)
        for server, config in configs.items():
            status = NodeStatus(
                server=str(server), pid=1, tick=6, blocks=0, fingerprint="f",
                complete=True,
            )
            Path(config.status_path).write_text(status.to_json(), encoding="utf-8")
        cluster = LiveCluster(
            configs,
            tmp_path,
            crashes=(
                CrashFault(
                    server="s2", crash_round=crash_round, restart_round=crash_round + 1
                ),
            ),
        )
        assert asyncio.run(cluster.wait_converged(timeout=0.3)) is converged
        assert cluster.crashes_performed == 0


class TestCrashRoundStatus:
    def test_a_victim_is_told_to_publish_its_crash_round(self, tmp_path):
        configs = compile_live_configs(oracle_scenario(rounds=8, rate=1), tmp_path)
        cluster = LiveCluster(
            configs, tmp_path, crashes=(CrashFault("s2", 3, 5),)
        )
        written = {
            str(server): NodeConfig.from_json(
                cluster.config_path(server).read_text(encoding="utf-8")
            ).publish_ticks
            for server in configs
        }
        assert written == {"s1": (), "s2": (3,), "s3": (), "s4": ()}

    def test_the_kill_sees_the_crash_round_not_completion(
        self, tmp_path, monkeypatch
    ):
        scenario = Scenario(
            name="live-crash-round",
            protocol="counter",
            description="crash at round 3 of 8 with the status timer off",
            topology=Topology(n=4, storage=StorageSpec(checkpoint_interval=4)),
            workload=OpenLoopWorkload(rate=1, rounds=2, shared_label="ledger"),
            stop=RoundsElapsed(8),
            max_rounds=8,
        )
        run_dir = tmp_path / "run"
        # Paced so the ticks after the crash round outlast a launcher
        # poll: only a publication of the round itself can be seen.
        configs = {
            server: replace(config, status_interval=3600.0, tick_interval=0.25)
            for server, config in compile_live_configs(
                scenario, run_dir, tick_timeout=15.0, settle_timeout=60.0
            ).items()
        }
        seen: list[NodeStatus] = []
        real_kill = LiveCluster.kill

        def kill(cluster: LiveCluster, server: ServerId) -> None:
            seen.append(cluster.status(server))
            real_kill(cluster, server)

        monkeypatch.setattr(LiveCluster, "kill", kill)
        result = LiveCluster(
            configs, run_dir, crashes=(CrashFault("s3", 3, 4),)
        ).run(timeout=90.0)
        assert result.converged, f"statuses: {result.statuses}"
        assert result.crashes == 1
        assert [(status.tick, status.complete) for status in seen] == [(3, False)]
        assert result.statuses["s3"].recovered


# -- claim 4: every publication against the oracle ----------------------------

DEADLINE = 60.0


class CheckedNode(LiveNode):
    """A node that holds each of its publications against the oracle."""

    def __init__(self, config: NodeConfig) -> None:
        entry = resolve_protocol(config.protocol)
        super().__init__(config, entry.spec, entry.make_request)
        self.published: list[NodeStatus] = []
        #: Seals after which the status was held against the oracle.
        self.seals_checked = 0

    def checked_status(self) -> NodeStatus:
        """The status, held against the oracle field by field."""
        status = super().status()
        ours = status.as_dict()
        for name, expected in reference_status(self).as_dict().items():
            assert ours[name] == expected, (name, len(self.published))
        return status

    def status(self) -> NodeStatus:
        status = self.checked_status()
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


@pytest.mark.parametrize("rounds", [8, 16])
def test_every_publication_of_a_multi_label_run(
    tmp_path, monkeypatch, count_indications_for, rounds
):
    # Timer off, no crash schedule: whatever the run's length, what is
    # left is the first seal's status plus the post-settle and shutdown
    # publications — exactly three, two of them with a snapshot.
    configs = {
        server: replace(config, status_interval=3600.0)
        for server, config in compile_live_configs(
            oracle_scenario(rounds=rounds, rate=3), tmp_path
        ).items()
    }
    nodes = [CheckedNode(config) for config in configs.values()]
    assert len(nodes[0].config.expected) == 9
    real_disseminate = Shim.disseminate

    def disseminate(shim):
        # The oracle at every seal, published or not.
        real_disseminate(shim)
        (node,) = [node for node in nodes if node.shim is shim]
        node.checked_status()
        node.seals_checked += 1

    monkeypatch.setattr(Shim, "disseminate", disseminate)

    async def drive() -> None:
        tasks = [asyncio.ensure_future(node.run()) for node in nodes]
        try:
            await until(lambda: converged(nodes), tasks)
        finally:
            await stop(nodes, tasks)

    asyncio.run(drive())
    for node in nodes:
        assert node.seals_checked == rounds
        first_seal, settled, shutdown = node.published
        assert (first_seal.tick, first_seal.complete, first_seal.metrics_seq) == (
            1, False, 0
        )
        assert settled.complete and settled.metrics_seq == 1
        assert shutdown.complete and shutdown.metrics_seq == 2
        assert all(count == 1 for count in shutdown.delivered.values())
        assert node.metrics.histogram("node.status-write").count == 3
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
            # The node's own seq, not a publication: those follow the timer.
            await until(
                lambda: victim.shim is not None
                and victim.shim.gossip.builder.next_seq >= 12,
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


def test_a_node_stopping_first_is_not_lost_to_one_that_stops_late(tmp_path):
    # A fleet shutdown reaches every node, but not at the same instant:
    # a node that has not yet handled its stop may write to a peer that
    # already finished its final snapshot.  The stopping peer holds its
    # listener until the others let go of it, so the write lands and the
    # late node counts no loss.
    configs = {
        str(server): replace(config, status_interval=3600.0, beacon_interval=3600.0)
        for server, config in compile_live_configs(
            oracle_scenario(rounds=8, rate=1), tmp_path
        ).items()
    }
    nodes = {name: CheckedNode(config) for name, config in configs.items()}
    late, first = nodes["s1"], nodes["s2"]

    def moved(name: str) -> int:
        peer = str(first.server)
        return late.metrics.counter(name, peer=peer).value

    async def drive() -> None:
        tasks = {name: asyncio.ensure_future(node.run()) for name, node in nodes.items()}
        try:
            await until(lambda: converged(list(nodes.values())), list(tasks.values()))
            published = len(first.published)
            first.request_stop()
            # The shutdown publication is the last thing before the
            # transport stops.
            await until(lambda: len(first.published) > published, list(tasks.values()))
            sent = moved("transport.frames-out")
            late.transport.send(first.server, BlockEnvelope(late.shim.dag.tip(late.server)))
            await until(
                lambda: moved("transport.frames-out") > sent
                or moved("transport.conn-lost") > 0,
                list(tasks.values()),
            )
            assert moved("transport.conn-lost") == 0
            assert not tasks["s2"].done(), "s2 closed while s1 still held a link"
        finally:
            await stop(list(nodes.values()), list(tasks.values()))

    asyncio.run(drive())
    for name, config in configs.items():
        final = MetricsSnapshot.read_jsonl(config.metrics_path)
        assert final.total("transport.conn-lost") == 0, name
        assert final.total("transport.reconnects") == 0, name


# -- claim 5: the transport on its own ----------------------------------------

A, B, C = ServerId("a"), ServerId("b"), ServerId("c")


def fwd(n: int) -> FwdRequestEnvelope:
    return FwdRequestEnvelope(ref=f"{n:064x}")


def pair(tmp_path, **kwargs):
    """A and B, each recording what it is handed."""
    addresses = {s: f"unix:{tmp_path / (str(s) + '.sock')}" for s in (A, B)}
    received = {A: [], B: []}
    transports = {
        s: LiveTransport(
            s,
            addresses,
            handler=lambda src, env, s=s: received[s].append((src, env)),
            **kwargs,
        )
        for s in (A, B)
    }
    return transports, received


def meter(transport: LiveTransport, name: str, peer: ServerId) -> int:
    return transport.live_metrics.counter(name, peer=str(peer)).value


async def eventually(predicate, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.01)


class TestAddresses:
    def test_unix(self):
        assert parse_address("unix:/run/s1.sock") == ("unix", "/run/s1.sock")

    def test_tcp(self):
        assert parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))

    @pytest.mark.parametrize(
        "address", ["unix:", "tcp:host", "tcp::80", "tcp:host:port", "udp:host:80"]
    )
    def test_malformed_rejected(self, address):
        with pytest.raises(NetworkError):
            parse_address(address)

    def test_own_address_required(self, tmp_path):
        with pytest.raises(NetworkError, match="no listen address"):
            LiveTransport(A, {B: f"unix:{tmp_path / 'b.sock'}"})


class TestSend:
    def test_frames_reach_the_peer_attributed_to_the_sender(self, tmp_path):
        transports, received = pair(tmp_path)

        async def drive():
            for t in transports.values():
                await t.start()
            transports[A].send(B, fwd(1))
            await eventually(lambda: received[B])
            await asyncio.gather(*(t.stop() for t in transports.values()))

        asyncio.run(drive())
        assert received[B] == [(A, fwd(1))]
        assert transports[B].delivered_count == 1

    def test_self_send_loops_back_after_send_returns(self, tmp_path):
        transports, received = pair(tmp_path)

        async def drive():
            await transports[A].start()
            transports[A].send(A, fwd(2))
            assert received[A] == []
            await asyncio.sleep(0)
            assert received[A] == [(A, fwd(2))]
            await transports[A].stop()

        asyncio.run(drive())

    def test_unknown_destination_raises(self, tmp_path):
        transports, _ = pair(tmp_path)

        async def drive():
            await transports[A].start()
            try:
                with pytest.raises(NetworkError, match="unknown destination"):
                    transports[A].send(C, fwd(3))
            finally:
                await transports[A].stop()

        asyncio.run(drive())

    def test_overflow_drops_the_oldest(self, tmp_path):
        # B never listens: the queue only fills.
        transports, _ = pair(tmp_path, max_queue=2)
        sender = transports[A]

        async def drive():
            await sender.start()
            for n in range(3):
                sender.send(B, fwd(n))
            assert list(sender._queues[B]) == [fwd(1), fwd(2)]
            await sender.stop()

        asyncio.run(drive())
        assert sender.queued(B) == 2
        assert meter(sender, "transport.queue-drops", B) == 1

    def test_a_peer_dialing_in_cuts_the_backoff_short(self, tmp_path):
        # Backoff of 15 s and more after the first failed dial: only the
        # peer's Hello can bring the backlog over in time.
        transports, received = pair(
            tmp_path, reconnect_floor=30.0, reconnect_ceiling=30.0
        )
        early, late = transports[A], transports[B]

        async def drive():
            await early.start()
            early.send(B, fwd(1))
            await eventually(lambda: meter(early, "transport.connect-retries", B) == 1)
            await late.start()
            late.send(A, fwd(2))
            await eventually(lambda: received[B], timeout=5.0)
            await asyncio.gather(*(t.stop() for t in transports.values()))

        asyncio.run(drive())
        assert received[A] == [(B, fwd(2))]
        assert received[B] == [(A, fwd(1))]
        assert meter(early, "transport.connect-retries", B) == 1


class TestStop:
    def test_returns_at_once_when_no_peer_is_connected(self, tmp_path):
        transports, _ = pair(tmp_path)

        async def drive() -> float:
            loop = asyncio.get_running_loop()
            await transports[A].start()
            started = loop.time()
            await transports[A].stop()
            return loop.time() - started

        assert asyncio.run(drive()) < live.SHUTDOWN_LINGER / 2

    def test_listener_stays_open_until_the_peer_lets_go(self, tmp_path):
        transports, received = pair(tmp_path)
        early, late = transports[B], transports[A]

        async def drive():
            for t in transports.values():
                await t.start()
            late.send(B, fwd(1))
            await eventually(lambda: received[B])
            stopping = asyncio.ensure_future(early.stop())
            await asyncio.sleep(0.2)
            assert not stopping.done()
            # The late side still writes into the stopping peer's
            # listener: no loss, no redial.
            late.send(B, fwd(2))
            await eventually(lambda: meter(late, "transport.frames-out", B) == 2)
            assert meter(late, "transport.conn-lost", B) == 0
            await late.stop()
            await asyncio.wait_for(stopping, timeout=live.SHUTDOWN_LINGER / 2)

        asyncio.run(drive())

    def test_frames_arriving_while_stopping_are_dropped(self, tmp_path):
        transports, received = pair(tmp_path)
        early, late = transports[B], transports[A]

        async def drive():
            for t in transports.values():
                await t.start()
            late.send(B, fwd(1))
            await eventually(lambda: received[B])
            stopping = asyncio.ensure_future(early.stop())
            await asyncio.sleep(0)
            late.send(B, fwd(2))
            await eventually(lambda: meter(late, "transport.frames-out", B) == 2)
            await asyncio.sleep(0.05)
            await late.stop()
            await stopping

        asyncio.run(drive())
        assert received[B] == [(A, fwd(1))]
        assert early.delivered_count == 1

    def test_a_peer_that_holds_on_is_let_go_after_the_linger(
        self, tmp_path, monkeypatch
    ):
        # A peer still running after the linger has not stopped with the
        # fleet: this side goes, and the peer counts the loss.
        monkeypatch.setattr(live, "SHUTDOWN_LINGER", 0.2)
        transports, received = pair(tmp_path)
        early, late = transports[B], transports[A]

        async def drive():
            for t in transports.values():
                await t.start()
            late.send(B, fwd(1))
            await eventually(lambda: received[B])
            await asyncio.wait_for(early.stop(), timeout=5.0)
            late.send(B, fwd(2))
            await eventually(lambda: meter(late, "transport.conn-lost", B) == 1)
            await late.stop()

        asyncio.run(drive())
        assert meter(late, "transport.frames-out", B) == 1
        assert late.queued(B) == 1


# -- claim 6: the node's lifecycle ----------------------------------------------


def lone_node(tmp_path, make_request=None, **changes) -> LiveNode:
    """s1 of a four-server brb fleet whose peers never start: every
    tick after the first seals on a short gate timeout, a short settle,
    one request per tick."""
    entry = resolve_protocol("brb")
    servers = ("s1", "s2", "s3", "s4")
    config = NodeConfig(
        server="s1",
        servers=servers,
        protocol="brb",
        addresses={s: f"unix:{tmp_path / s}.sock" for s in servers},
        max_ticks=3,
        tick_timeout=0.05,
        settle_timeout=0.05,
        workload=tuple((tick, "x", tick) for tick in range(3)),
        **changes,
    )
    return LiveNode(config, entry.spec, make_request or entry.make_request)


class TestNodeLifecycle:
    def test_a_ticking_node_is_frozen_and_a_returned_one_is_not(self, tmp_path):
        assert gc.get_freeze_count() == 0
        entry = resolve_protocol("brb")
        frozen = []

        def make_request(index):
            frozen.append(gc.get_freeze_count())
            return entry.make_request(index)

        node = lone_node(tmp_path, make_request)

        def ticked() -> bool:
            return node.shim is not None and node.shim.gossip.builder.next_seq == 3

        async def drive() -> NodeStatus:
            task = asyncio.ensure_future(node.run())
            await until(ticked, [task])
            node.request_stop()
            return await asyncio.wait_for(task, timeout=DEADLINE)

        assert asyncio.run(drive()).tick == 3
        assert len(frozen) == 3 and min(frozen) > 0
        assert gc.get_freeze_count() == 0
        # The post-assembly collection at least went through the hook,
        # and the hook left with the node.
        assert node.metrics.histogram("node.gc-pause").count >= 1
        assert node._on_gc not in gc.callbacks

    def test_a_node_whose_peers_never_start_seals_on_gate_timeouts(self, tmp_path):
        node = lone_node(tmp_path)

        async def drive() -> NodeStatus:
            task = asyncio.ensure_future(node.run())
            await until(
                lambda: node.shim is not None and node.shim.gossip.builder.next_seq == 3,
                [task],
            )
            node.request_stop()
            return await asyncio.wait_for(task, timeout=DEADLINE)

        status = asyncio.run(drive())
        # Ticks 1 and 2 each waited out the gate; tick 0 has no gate.
        assert status.tick == 3
        assert status.gate_timeouts == node.metrics.counter("node.gate-timeouts").value == 2

    def test_a_tick_that_raises_unfreezes_too(self, tmp_path):
        entry = resolve_protocol("brb")
        frozen = []

        def make_request(index):
            if index == 1:
                frozen.append(gc.get_freeze_count())
                raise RuntimeError("no request at tick 1")
            return entry.make_request(index)

        node = lone_node(tmp_path, make_request)
        with pytest.raises(RuntimeError, match="tick 1"):
            asyncio.run(node.run())
        assert frozen and frozen[0] > 0
        assert gc.get_freeze_count() == 0
        assert node._on_gc not in gc.callbacks

    @pytest.mark.parametrize("fail_at", [None, 1], ids=["returns", "raises"])
    def test_a_node_closes_its_storage_on_exit(self, tmp_path, fail_at):
        entry = resolve_protocol("brb")
        handles = []

        def make_request(index):
            handles.append(node.shim.storage.wal._handle)
            if index == fail_at:
                raise RuntimeError(f"no request at tick {index}")
            return entry.make_request(index)

        node = lone_node(tmp_path, make_request, storage_dir=str(tmp_path / "storage"))

        async def drive() -> None:
            task = asyncio.ensure_future(node.run())
            await until(lambda: len(handles) == 3, [task])
            node.request_stop()
            await asyncio.wait_for(task, timeout=DEADLINE)

        if fail_at is None:
            asyncio.run(drive())
        else:
            with pytest.raises(RuntimeError, match="tick 1"):
                asyncio.run(node.run())
        # Tick 0's block opened the WAL segment; the exit closed it.
        assert handles[-1] is not None and handles[-1].closed

    def test_a_failed_assembly_stops_the_transport(self, tmp_path):
        # The storage directory is a regular file: mkdir fails after the
        # transport bound its listener and started its peer pumps.
        blocker = tmp_path / "storage"
        blocker.write_text("not a directory", encoding="utf-8")
        node = lone_node(tmp_path, storage_dir=str(blocker))

        async def drive() -> None:
            with pytest.raises(FileExistsError):
                await node.run()
            assert node.transport is not None and node.shim is None
            assert asyncio.all_tasks() == {asyncio.current_task()}, "pumps left running"
            with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
                await asyncio.open_unix_connection(str(tmp_path / "s1.sock"))

        asyncio.run(drive())
        assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "name", ["fault-free", "pruning", "equivocator", "cow-state-growth", "live-smoke"]
)
def test_a_fault_free_run_leaves_no_reference_cycle(name):
    """The premise of the node's freeze: with the collector off, a
    fault-free run leaves nothing for it to find, so freezing a tick's
    survivors keeps no garbage alive.

    The crash scenarios are left out on purpose: ``crash-restart``,
    ``metrics-soak``, ``gc-horizon-soak`` and ``mixed-faults`` leave
    249–883 cyclic objects, all of them the wiring of the shim
    ``Cluster.crash`` drops (shim, gossip, interpreter, DAG and
    transport refer to one another).  A live crash ends the whole
    process instead, so no live node ever holds such a cycle.
    """
    gc.collect()
    gc.disable()
    try:
        runner = ScenarioRunner(registry.get(name, smoke=True))
        runner.run()
        assert gc.collect() == 0
        assert runner.result is not None
    finally:
        gc.enable()
