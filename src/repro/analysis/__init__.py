"""Analysis utilities: energy summaries, fairness metrics, radio-state
traces (the ARO-tool stand-in), paper-style table rendering, and the
streaming mean behind the app server's queries (see
:mod:`repro.analysis.streaming`)."""

from repro.analysis.energy import EnergySummary, savings_pct, summarize_devices
from repro.analysis.fairness import jain_index, selection_spread
from repro.analysis.streaming import StreamingMean
from repro.analysis.tables import format_table
from repro.analysis.trace import RadioTraceRecorder, TraceSegment

__all__ = [
    "EnergySummary",
    "RadioTraceRecorder",
    "StreamingMean",
    "TraceSegment",
    "format_table",
    "jain_index",
    "savings_pct",
    "selection_spread",
    "summarize_devices",
]
