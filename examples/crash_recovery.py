#!/usr/bin/env python3
"""Crash a server mid-consensus and resurrect it from disk.

Four servers run a replicated counter ledger over the block DAG, with
the storage subsystem persisting every block to a write-ahead log and
checkpointing the interpreter.  Mid-run, one server is killed — all of
its volatile state (DAG, annotations, request buffer) is gone — and a
few rounds later it restarts from its WAL + checkpoint, catches up on
the blocks it missed over normal gossip, and converges to the exact
ledger everyone else holds.

The whole run — workload, crash schedule, stop condition — is one
declarative :class:`Scenario` (the registry's ``crash-restart`` shape).
This is the paper's §7 observation made executable: interpretation is
a pure function of the DAG (Lemma 4.2), so the durable DAG *is* the
whole server.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import tempfile
from pathlib import Path

from repro.scenario import (
    AllDelivered,
    And,
    CrashFault,
    DagsConverged,
    FaultSchedule,
    OpenLoopWorkload,
    Scenario,
    ScenarioRunner,
    StorageSpec,
    Topology,
)
from repro.types import Label

LEDGER = "ledger"
VICTIM = "s3"
INCREMENTS = 8  # amounts 1..8 — the ledger must converge to 36


def print_ledger(cluster, heading):
    print(f"\n{heading}")
    for server in sorted(cluster.correct_servers):
        totals = [
            i.value for i in cluster.shim(server).indications_for(Label(LEDGER))
        ]
        final = totals[-1] if totals else 0
        print(f"  {server}: total={final}  (+{len(totals)} increments applied)")
    for server in sorted(cluster.down):
        print(f"  {server}: DOWN")


def build_scenario() -> Scenario:
    return Scenario(
        name="crash-recovery-example",
        protocol="counter",
        description="Counter ledger; s3 crashes at round 3 and restarts "
        "from WAL + checkpoint at round 8.",
        topology=Topology(storage=StorageSpec(checkpoint_interval=6)),
        # Inc(1) .. Inc(8), one per round, all on the shared ledger
        # instance — increments land while the victim is up, down, and
        # back again.
        workload=OpenLoopWorkload(
            rate=1, rounds=INCREMENTS, shared_label=LEDGER
        ),
        faults=FaultSchedule(
            (CrashFault(server=VICTIM, crash_round=3, restart_round=8),)
        ),
        stop=And((AllDelivered(), DagsConverged())),
        max_rounds=48,
    )


def main(storage_root: str | Path | None = None) -> dict:
    root = Path(storage_root) if storage_root else Path(
        tempfile.mkdtemp(prefix="crash-recovery-")
    )
    scenario = build_scenario()
    print(f"running scenario {scenario.name!r}:\n{scenario.to_json(indent=2)}")

    runner = ScenarioRunner(scenario, storage_root=root)
    result = runner.run()
    cluster = runner.cluster
    print_ledger(cluster, f"after recovery — {VICTIM} restarted from disk:")

    recovered = cluster.shim(VICTIM)
    report = recovered.recovery
    print(f"\nrecovery report for {VICTIM}:")
    print(f"  WAL blocks recovered : {report.blocks_recovered}")
    print(f"  checkpoint installed : seq {report.checkpoint_seq}, "
          f"{report.states_restored} block states restored")
    print(f"  suffix replayed      : {report.blocks_replayed} blocks")
    print(f"  chain resumed        : {report.chain_resumed}")

    storage = result.storage
    print(f"\nstorage totals across servers:")
    print(f"  WAL size    : {storage.wal_bytes} bytes, "
          f"{storage.wal_records_retired} records retired")
    print(f"  checkpoints : {storage.checkpoints_written} written")
    print(f"  pruned      : {storage.payloads_dropped} block payloads, "
          f"{storage.states_released} interpreter states")

    expected = sum(range(1, INCREMENTS + 1))
    finals = {
        server: cluster.shim(server).indications_for(Label(LEDGER))[-1].value
        for server in cluster.correct_servers
    }
    assert finals == {s: expected for s in cluster.servers}, finals
    print(f"\nall four servers agree on the ledger total {expected} — "
          f"Theorem 5.1 held across a crash.")
    print(f"result (rounds={result.rounds_run}, crashes={result.crashes}, "
          f"restarts={result.restarts}, "
          f"p50 latency={result.latency_rounds.p50} rounds)")
    return {
        "finals": finals,
        "recovery": report,
        "storage": result.storage.as_dict(),
        "result": result,
    }


if __name__ == "__main__":
    main()
