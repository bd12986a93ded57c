"""Restart-from-disk probe: time ``Shim`` construction over a server's
on-disk ``ServerStorage`` left by a repetition.

Construction *is* recovery (WAL replay + checkpoint install), the same
seam a respawned live node and a simulated ``CrashFault`` restart go
through.  Each of the :data:`COPIES` constructions runs on a fresh
copy of the directory, so no construction sees what an earlier one
wrote.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

COPIES = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--storage", required=True)
    parser.add_argument("--server", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    recorder = None
    if args.spans:
        import spans

        recorder = spans.install()
    from repro.crypto.keys import KeyRing
    from repro.net.simulator import NetworkSimulator
    from repro.net.transport import SimTransport
    from repro.scenario.spec import Scenario, resolve_protocol
    from repro.shim.shim import Shim
    from repro.storage.blockstore import ServerStorage, StorageConfig
    from repro.types import ServerId

    scenario = Scenario.from_json(Path(args.scenario).read_text(encoding="utf-8"))
    spec = scenario.topology.storage
    config = spec.build() if spec is not None else StorageConfig()
    servers = scenario.topology.servers()
    server = ServerId(args.server)
    protocol = resolve_protocol(scenario.protocol).spec
    scratch = Path(args.scratch)

    samples_ms = []
    blocks = 0
    for index in range(COPIES):
        copy = scratch / f"copy-{index}"
        shutil.copytree(args.storage, copy)
        try:
            transport = SimTransport(NetworkSimulator(), server)
            storage = ServerStorage(copy, config=config)
            started = time.perf_counter()
            shim = Shim(server, protocol, KeyRing(servers), transport, storage=storage)
            samples_ms.append((time.perf_counter() - started) * 1000.0)
            if shim.recovery is None:
                raise SystemExit(f"nothing to recover from in {args.storage}")
            blocks = shim.recovery.blocks_recovered + shim.recovery.skeletons_inserted
            storage.close()
        finally:
            shutil.rmtree(copy, ignore_errors=True)
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps({"recovery_ms": samples_ms, "blocks": blocks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
