"""Measurement & analysis tooling for the reproduction experiments.

* :mod:`repro.analysis.compression` — the message-compression accounting
  behind CLM-COMPRESS (messages materialized vs. sent).
* :mod:`repro.analysis.reporting` — plain-text tables/series the
  benchmark harness prints (the reproduction's "figures").
"""

from repro.analysis.compression import CompressionReport, compression_report
from repro.analysis.reporting import format_series, format_table

__all__ = [
    "CompressionReport",
    "compression_report",
    "format_series",
    "format_table",
]
