"""Shared utilities for the benchmark/experiment harness.

Every experiment prints its reproduced table/series *and* appends it to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote the
artefacts verbatim even when pytest captures stdout.  The committed,
machine-readable performance record is ``benchmarks/ledger/baseline.json``.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(experiment: str, text: str) -> None:
    """Print a reproduced artefact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print(f"\n{text}\n")
    path = RESULTS_DIR / f"{experiment}.txt"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n\n")


def reset(experiment: str) -> None:
    """Start a fresh results file for an experiment."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    if path.exists():
        path.unlink()
