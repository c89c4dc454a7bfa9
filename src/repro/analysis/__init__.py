"""Reporting helpers: aligned text tables and experiment result records.

Also re-exports :class:`~repro.faults.report.FaultReport` so chaos runs can
be summarized next to the timing tables.
"""

from repro.analysis.report import ReportTable, geomean
from repro.faults.report import FaultReport, LayerFaultStats

__all__ = [
    "ReportTable",
    "geomean",
    "FaultReport",
    "LayerFaultStats",
]
