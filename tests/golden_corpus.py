"""The golden byte corpus: committed bytes of every durable format.

``tests/golden/`` holds what one small deterministic storage scenario
leaves behind, so "the bytes did not move" is a test and not a ritual:

* ``s3/wal/wal-*.log`` — every WAL segment of the crash-restart smoke's
  crashed-and-restarted server (CRC-framed canonical chain frames);
* ``s3/checkpoints/ckpt-*.bin`` — that server's newest checkpoint;
* ``frames.bin`` — wire frames (``repro.net.live.framing``): a
  handshake, a few block envelopes taken from the WAL and a FWD request;
* ``MANIFEST.sha256`` — ``sha256sum -c``-compatible sums of the above.

``tests/integration/test_golden_corpus.py`` regenerates the corpus and
compares it byte for byte, then decodes and recovers from every
committed file.  A deliberate format change reruns this script and
commits the diff::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from repro.net.live.framing import Hello, encode_frame
from repro.net.message import BlockEnvelope, FwdRequestEnvelope
from repro.scenario import registry, run_scenario
from repro.storage import ServerStorage

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO = "crash-restart"
SERVER = "s3"
MANIFEST = "MANIFEST.sha256"
#: Blocks from the WAL shipped as wire frames.
FRAMED_BLOCKS = 4


def build(dest: Path) -> None:
    """Write the whole corpus (manifest included) under ``dest``."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "storage"
        run_scenario(registry.get(SCENARIO, smoke=True), storage_root=root)
        source = root / SERVER
        wal = dest / SERVER / "wal"
        wal.mkdir(parents=True)
        for segment in sorted((source / "wal").glob("wal-*.log")):
            shutil.copyfile(segment, wal / segment.name)
        checkpoints = dest / SERVER / "checkpoints"
        checkpoints.mkdir(parents=True)
        newest = sorted((source / "checkpoints").glob("ckpt-*.bin"))[-1]
        shutil.copyfile(newest, checkpoints / newest.name)
        blocks = ServerStorage(source).load_blocks()[:FRAMED_BLOCKS]
    frames = [encode_frame(Hello(SERVER))]
    frames += [encode_frame(BlockEnvelope(block)) for block in blocks]
    frames.append(encode_frame(FwdRequestEnvelope(blocks[-1].ref)))
    (dest / "frames.bin").write_bytes(b"".join(frames))
    (dest / MANIFEST).write_text(manifest(dest), encoding="utf-8")


def corpus_files(root: Path) -> list[Path]:
    """Every corpus file under ``root`` except the manifest, sorted."""
    return sorted(
        path
        for path in root.rglob("*")
        if path.is_file() and path.name != MANIFEST
    )


def manifest(root: Path) -> str:
    """``sha256sum`` lines for every corpus file under ``root``."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
        f"{path.relative_to(root).as_posix()}\n"
        for path in corpus_files(root)
    )


def main() -> int:
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    GOLDEN_DIR.mkdir()
    build(GOLDEN_DIR)
    print((GOLDEN_DIR / MANIFEST).read_text(encoding="utf-8"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
