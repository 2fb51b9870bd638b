"""Opt-in cycle-resolved telemetry: timelines, histograms, stalls.

Everything here is off unless a run passes ``telemetry=`` to
:class:`repro.accel.system.AcceleratorSystem` (or sets
``REPRO_TELEMETRY=1`` for sweeps); with no observer attached each
event site is a single ``_probe is None`` test (see repro.sim.probe).
"""

from repro.telemetry.collector import (
    TELEMETRY_SCHEMA_VERSION,
    LatencyHistogram,
    Telemetry,
    TelemetryConfig,
)
from repro.telemetry.export import (
    validate_timeline_jsonl,
    write_summary_json,
    write_timeline_csv,
    write_timeline_jsonl,
)
from repro.telemetry.perfetto import validate_perfetto, write_perfetto

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "LatencyHistogram",
    "Telemetry",
    "TelemetryConfig",
    "validate_perfetto",
    "validate_timeline_jsonl",
    "write_summary_json",
    "write_timeline_csv",
    "write_perfetto",
    "write_timeline_jsonl",
]
