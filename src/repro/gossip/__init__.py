"""Building the block DAG — the paper's ``gossip`` (§3, Algorithm 1).

:mod:`repro.gossip.module` is the gossip protocol proper: receive,
validate, insert, build, disseminate, and FWD requests for missing
predecessors, paced by one retry timer per instance (the Δ_B'
discipline of §3).

FWD chasing is the only catch-up path: a server restarted from disk
(:mod:`repro.storage.recover`) re-fetches what it missed through it.
"""

from repro.gossip.module import Gossip, GossipConfig, GossipMetrics

__all__ = [
    "Gossip",
    "GossipConfig",
    "GossipMetrics",
]
