"""repro — Embedding a Deterministic BFT Protocol in a Block DAG.

A full reproduction of Schett & Danezis (PODC 2021, arXiv:2102.09594):
the block DAG framework (``gossip`` + ``interpret`` + ``shim``), several
deterministic BFT protocols to embed (reliable broadcast, consistent
broadcast, PBFT-style consensus, phase king), the simulated and live
networks they run on, and the direct-messaging baseline the paper's
efficiency claims are measured against.

Quickstart::

    from repro import Cluster, brb_protocol, Broadcast, label

    cluster = Cluster(brb_protocol, n=4)
    cluster.request(cluster.servers[0], label("tx-1"), Broadcast(42))
    cluster.run_until(lambda c: c.all_delivered(label("tx-1")))
    print(cluster.shim(cluster.servers[1]).indications_for(label("tx-1")))

README.md maps each package to the paper; the paper's figures, lemmas
and efficiency claims are tier-1 tests under ``tests/integration/``.
"""

from repro.crypto import KeyRing
from repro.dag import Block, BlockBuilder, BlockDag, Digraph, genesis_block
from repro.dag.blockdag import Validator, Validity
from repro.gossip import Gossip, GossipConfig
from repro.interpret import Interpreter
from repro.net import FixedLatency, JitterLatency, NetworkSimulator
from repro.protocols import (
    Broadcast,
    Deliver,
    ProtocolSpec,
    bcb_protocol,
    brb_protocol,
    counter_protocol,
    pbft_protocol,
    phase_king_protocol,
)
from repro.runtime import (
    Adversary,
    ByzantineFault,
    Cluster,
    ClusterConfig,
    CrashFault,
    DirectRuntime,
    FaultSchedule,
    InterpreterSnapshot,
    StorageSnapshot,
    WireSnapshot,
)
from repro.horizon import HorizonTracker, durable_frontier
from repro.scenario import (
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    run_scenario,
)
from repro.shim import Shim
from repro.storage import ServerStorage, StorageConfig, WriteAheadLog
from repro.types import Label, ServerId, label, make_servers, server_id

__version__ = "1.1.0"

__all__ = [
    "Adversary",
    "Block",
    "BlockBuilder",
    "BlockDag",
    "Broadcast",
    "ByzantineFault",
    "Cluster",
    "ClusterConfig",
    "CrashFault",
    "Deliver",
    "Digraph",
    "DirectRuntime",
    "FaultSchedule",
    "FixedLatency",
    "Gossip",
    "GossipConfig",
    "HorizonTracker",
    "durable_frontier",
    "Interpreter",
    "JitterLatency",
    "KeyRing",
    "Label",
    "NetworkSimulator",
    "InterpreterSnapshot",
    "ProtocolSpec",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "ServerId",
    "ServerStorage",
    "Shim",
    "StorageConfig",
    "StorageSnapshot",
    "WireSnapshot",
    "Validator",
    "Validity",
    "WriteAheadLog",
    "bcb_protocol",
    "brb_protocol",
    "counter_protocol",
    "genesis_block",
    "label",
    "make_servers",
    "pbft_protocol",
    "phase_king_protocol",
    "run_scenario",
    "server_id",
]
