"""Analysis utilities: energy summaries, fairness metrics, radio-state
traces (the ARO-tool stand-in), paper-style table rendering, and
streaming accumulators for backend-resident data (see
:mod:`repro.analysis.streaming`)."""

from repro.analysis.energy import EnergySummary, savings_pct, summarize_devices
from repro.analysis.fairness import jain_index, selection_spread
from repro.analysis.streaming import (
    StreamingLatency,
    StreamingMean,
    StreamingSelectionCounts,
    StreamingStateTime,
)
from repro.analysis.tables import format_table
from repro.analysis.trace import RadioTraceRecorder, TraceSegment

__all__ = [
    "EnergySummary",
    "RadioTraceRecorder",
    "StreamingLatency",
    "StreamingMean",
    "StreamingSelectionCounts",
    "StreamingStateTime",
    "TraceSegment",
    "format_table",
    "jain_index",
    "savings_pct",
    "selection_spread",
    "summarize_devices",
]
