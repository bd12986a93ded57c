"""The before/after comparison of two ledgers.

``run.py --compare A.json B.json`` (and ``--twice``) print, per
end-to-end metric x workload, both reported values with their spreads
(the quartile distance of that run's repetitions over their median, see
:func:`layers.summarise`), how much worse B is than A in the metric's
own direction, the bound, and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the pair cannot tell — never read as "unchanged".  Either
                the spread of one side is wider than the bound (its
                repetitions disagree), or (``--twice``) two runs of the
                *same* commit differ by more than the bound in either
                direction, which is not the code.

The bound of a row is :data:`BOUNDS` where the workload holds a tighter
one than the single per-metric bound ``BENCHMARK.json`` can carry.
"""

from __future__ import annotations

from typing import Sequence

#: Per workload x metric: 2 x the spread measured between sets of ten
#: runs on the defining host (the largest of each set's quartile
#: distance over its median and the distance between their medians),
#: floored at 2 % and capped at 10 %.  A row that cannot hold 10 % there
#: is left out and falls back to the metric's bound in BENCHMARK.json,
#: which is what the benchmark driver gates every workload with
#: (README.md has the measured spreads).
BOUNDS: dict[str, dict[str, float]] = {
    "live-chain": {
        "cpu_ms_per_request": 0.10,
        "wire_bytes_per_request": 0.05,
        "peak_rss_mb": 0.02,
    },
    "live-fanout": {"peak_rss_mb": 0.02},
    "live-durable": {"wire_bytes_per_request": 0.03, "peak_rss_mb": 0.02},
    "sim-faults": {"wire_bytes_per_request": 0.02, "peak_rss_mb": 0.02},
}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before`` (negative = better)."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(
    a: dict, b: dict, catalogue: Sequence[dict], same_commit: bool
) -> tuple[str, bool]:
    """Render the comparison of two ledger documents; the flag is
    ``True`` when no row regressed or stayed unresolved."""
    header = (
        f"{'workload':<14}{'metric':<26}{'A value (spread)':>22}"
        f"{'B value (spread)':>22}{'worse by':>10}{'bound':>8}  verdict"
    )
    lines = [header, "-" * len(header)]
    clean = True
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        for metric in catalogue:
            name = metric["name"]
            if name not in in_a["end_to_end"] or name not in in_b["end_to_end"]:
                continue
            ea, eb = in_a["end_to_end"][name], in_b["end_to_end"][name]
            bound = BOUNDS.get(workload, {}).get(name, metric["bound"])
            delta = worse_by(ea["value"], eb["value"], metric["better"])
            if max(ea["spread"], eb["spread"]) > bound:
                verdict = "unresolved"
            elif same_commit and abs(delta) > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            clean = clean and verdict == "ok"
            lines.append(
                f"{workload:<14}{name:<26}{_cell(ea):>22}{_cell(eb):>22}"
                f"{delta:>+10.1%}{bound:>8.0%}  {verdict}"
            )
    return "\n".join(lines), clean


def _cell(entry: dict) -> str:
    return f"{entry['value']:.5g} ({entry['spread']:.3f})"
