"""THM51 — Theorem 5.1 as an experiment: trace equivalence between
``shim(P)`` and ``P`` over direct links, across protocols and faults,
with side-by-side wire-message and indication counts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import emit, reset

from repro.analysis.reporting import format_table, shape_check
from repro.protocols.bcb import BcbBroadcast, bcb_protocol
from repro.protocols.brb import Broadcast, brb_protocol
from repro.protocols.pbft import Propose, pbft_protocol
from repro.runtime.adversary import SilentAdversary
from repro.runtime.cluster import Cluster
from repro.runtime.compare import equivalent_traces
from repro.runtime.direct import DirectRuntime
from repro.types import Label, make_servers

L = Label("l")


def run_equivalence(protocol, request, faulty=False):
    servers = make_servers(4)
    byz = servers[3] if faulty else None
    direct = DirectRuntime(
        protocol, servers=servers, silent=[byz] if byz else []
    )
    direct.request(servers[0], L, request)
    direct.run()

    adversaries = {byz: SilentAdversary} if byz else {}
    cluster = Cluster(protocol, servers=servers, adversaries=adversaries)
    cluster.request(servers[0], L, request)
    cluster.run_until(lambda c: c.all_delivered(L), max_rounds=20)

    compare_servers = [s for s in servers if s != byz]
    return (
        equivalent_traces(direct.trace(), cluster.trace(), servers=compare_servers),
        direct,
        cluster,
    )


def _indications(runtime) -> int:
    return sum(len(events) for events in runtime.trace().indications.values())


SCENARIOS = [
    ("brb", brb_protocol, Broadcast("v"), False),
    ("brb +silent byz", brb_protocol, Broadcast("v"), True),
    ("bcb", bcb_protocol, BcbBroadcast("v"), False),
    ("bcb +silent byz", bcb_protocol, BcbBroadcast("v"), True),
    ("pbft", pbft_protocol, Propose("cmd"), False),
]


def test_theorem51_across_protocols(benchmark):
    reset("THM51")
    rows = []
    all_equal = True
    for name, protocol, request, faulty in SCENARIOS:
        equal, direct, cluster = run_equivalence(protocol, request, faulty)
        all_equal &= equal
        rows.append(
            {
                "scenario": name,
                "traces equal": "yes" if equal else "NO",
                "dag wire": cluster.sim.metrics.messages,
                "direct wire": direct.sim.metrics.messages,
                "dag inds": _indications(cluster),
                "direct inds": _indications(direct),
            }
        )
    emit(
        "THM51",
        format_table(
            rows,
            title="THM51 — shim(P) vs P-over-direct-links, observable traces",
        ),
    )
    emit(
        "THM51",
        shape_check(
            "all scenarios produce identical per-server indications", all_equal
        ),
    )
    assert all_equal

    benchmark.pedantic(
        run_equivalence, args=(brb_protocol, Broadcast("v")), rounds=3, iterations=1
    )
