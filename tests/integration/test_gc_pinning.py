"""Coordinated-horizon GC on the registry's ``gc-horizon-soak``.

The soak (an equivocator seat plus a crash + restart-from-disk over a
replicated ledger, smoke-sized) runs through three storage
configurations, and every check is a deterministic count:

* ``prune=False`` — resident annotations grow with the run, the memory
  problem pruning exists to solve;
* the scenario's own ``prune=True`` with the pin-recent window — claims,
  the ``n - f`` agreed horizon and checkpoint rehydration bound
  residency *and* keep every honest block interpreted everywhere;
* the same with ``pin_recent_checkpoints=0`` — the most aggressive
  release schedule, whose release→rehydrate thrash the window damps.
"""

import dataclasses

import pytest

from repro.dag.block import Block
from repro.net.message import BlockEnvelope
from repro.protocols.brb import Broadcast, brb_protocol
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.scenario import ScenarioRunner, registry
from repro.storage.blockstore import StorageConfig
from repro.types import Label, ServerId


def run_soak(**storage):
    scenario = registry.get("gc-horizon-soak", smoke=True)
    scenario = dataclasses.replace(
        scenario,
        topology=dataclasses.replace(
            scenario.topology,
            storage=dataclasses.replace(scenario.topology.storage, **storage),
        ),
    )
    runner = ScenarioRunner(scenario)
    return runner.run(), runner.cluster


def honest_blocks_uninterpreted(cluster):
    """The most honest blocks any live shim holds uninterpreted."""
    byzantine = {
        s for s in cluster.servers if s not in cluster.shims and s not in cluster.down
    }
    return max(
        sum(
            1
            for block in shim.dag
            if block.n not in byzantine
            and block.ref not in shim.interpreter.interpreted
        )
        for shim in cluster.shims.values()
    )


def test_pin_recent_window_drops_rehydration_thrash():
    """The coordinated GC-horizon gate — the pinned run bounds memory
    below an unpruned one without stalling any honest block — and the
    pin window's fix, which damps an eager run's rehydration thrash."""
    unpruned, _ = run_soak(prune=False)
    eager, _ = run_soak(pin_recent_checkpoints=0)
    pinned, cluster = run_soak()

    # Same workload outcome either way: every request delivered, no
    # below-horizon stalls, run finished by stop condition.
    for result in (eager, pinned):
        assert result.stopped_by == "stop-condition"
        assert result.requests_delivered == result.requests_issued
        assert result.interpreter.below_horizon == 0

    # Coordinated GC keeps every honest block interpreted everywhere
    # while bounding resident annotations below the unpruned run, at its
    # peak and at the end.
    assert honest_blocks_uninterpreted(cluster) == 0
    resident = pinned.probes["resident-states"]
    unpruned_resident = unpruned.probes["resident-states"]
    assert max(resident) < max(unpruned_resident)
    assert resident[-1] < unpruned_resident[-1]

    # The fix: the pin window visibly damps rehydration churn...
    assert eager.interpreter.rehydrated > 0, (
        "scenario no longer exercises rehydration; the regression test "
        "lost its subject"
    )
    assert pinned.interpreter.rehydrated < eager.interpreter.rehydrated, (
        f"pin window did not reduce rehydration thrash: "
        f"{pinned.interpreter.rehydrated} >= {eager.interpreter.rehydrated}"
    )
    # ...while GC keeps doing its job (states still get released).
    assert pinned.storage.states_released > 0


S2, S4 = ServerId("s2"), ServerId("s4")


def prune_counts_on_s2(directory, orphans):
    """A 60-round n = 4 BRB run with storage on.  At round 5, s2 is
    handed ``orphans`` blocks signed with s4's key, standing in for a
    byzantine s4: each sits above s4's chain and names a parent that
    never existed, so s2 buffers it and FWD-chases that parent for the
    rest of the run."""
    cluster = Cluster(
        brb_protocol,
        n=4,
        config=ClusterConfig(
            storage_dir=directory,
            storage=StorageConfig(checkpoint_interval=8),
        ),
    )
    gossip = cluster.shim(S2).gossip
    for r in range(60):
        cluster.request(cluster.servers[r % 4], Label(f"tx-{r}"), Broadcast(r))
        if r == 5:
            for i in range(orphans):
                unsigned = Block(n=S4, k=10, preds=(f"{i:064x}",), rs=())
                orphan = Block(
                    n=S4, k=10, preds=unsigned.preds, rs=(),
                    sigma=cluster.keyring.sign(S4, unsigned.signing_payload()),
                )
                gossip.on_receive(S4, BlockEnvelope(orphan))
        cluster.run_rounds(1)
    storage = cluster.shim(S2).storage
    counts = {
        "buffered": len(gossip.blks),
        "payloads_dropped": storage.payloads_dropped,
        "wal_records_retired": storage.wal.stats.retired,
    }
    for shim in cluster.shims.values():
        shim.storage.abandon()
    return counts


@pytest.fixture(scope="module")
def orphan_probe(tmp_path_factory):
    return {
        orphans: prune_counts_on_s2(tmp_path_factory.mktemp(f"orphans-{orphans}"), orphans)
        for orphans in (0, 5)
    }


def test_the_orphan_probe_prunes_when_clean_and_its_orphans_stay_buffered(orphan_probe):
    clean, attacked = orphan_probe[0], orphan_probe[5]
    assert clean["buffered"] == 0
    assert clean["payloads_dropped"] > 0 and clean["wal_records_retired"] > 0
    assert attacked["buffered"] == 5


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 16(a): Shim.checkpoint_now reads "
    "gossip.missing_predecessors() > 4 as catching up, so five orphans "
    "from one byzantine builder stop s2's data destruction for good",
)
def test_orphans_from_one_byzantine_builder_do_not_stop_pruning(orphan_probe):
    attacked = orphan_probe[5]
    assert attacked["payloads_dropped"] > 0
    assert attacked["wal_records_retired"] > 0


def test_the_wal_stays_bounded_over_a_long_run(tmp_path):
    """Retirement keeps s2's WAL flat: over 240 rounds of an n = 4 BRB
    run with one fresh label a round, the second half never grows the
    file past 1.1x the first half's largest size, no round ends with
    more than two WAL files, and a checkpoint leaves at most twice the
    live records' bytes on disk."""
    cluster = Cluster(
        brb_protocol,
        n=4,
        config=ClusterConfig(
            storage_dir=tmp_path, storage=StorageConfig(checkpoint_interval=8)
        ),
    )
    wal = cluster.shim(ServerId("s2")).storage.wal
    checkpoints = cluster.shim(ServerId("s2")).storage.checkpoints
    sizes = []
    for r in range(240):
        cluster.request(cluster.servers[r % 4], Label(f"tx-{r}"), Broadcast(r))
        writes = checkpoints.writes
        cluster.run_rounds(1)
        sizes.append(wal.size_bytes())
        assert len(list(wal.directory.glob("wal-*.log"))) <= 2, r
        if checkpoints.writes > writes:
            assert wal.size_bytes() <= 2 * wal.live_bytes(), r
    assert wal.stats.retired > 0 and wal.stats.compactions > 0
    assert max(sizes[120:]) <= 1.1 * max(sizes[:120])
    for shim in cluster.shims.values():
        shim.storage.abandon()
