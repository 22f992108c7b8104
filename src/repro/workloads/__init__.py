"""Workload generators, metrics and the experiment runner."""

from repro.workloads.generators import UpdateWorkload, WriteWorkload
from repro.workloads.metrics import LatencyRecorder, ThroughputMeter
from repro.workloads.profiler import write_report
from repro.workloads.runner import (
    ALARM_THRESHOLD,
    FIG8_HEADER,
    FIG8_OFFERED,
    FIG8_TITLE,
    ExperimentResult,
    fig8_rows,
    run_update_experiment,
    run_write_experiment,
)

__all__ = [
    "ALARM_THRESHOLD",
    "ExperimentResult",
    "FIG8_HEADER",
    "FIG8_OFFERED",
    "FIG8_TITLE",
    "LatencyRecorder",
    "ThroughputMeter",
    "UpdateWorkload",
    "WriteWorkload",
    "fig8_rows",
    "run_update_experiment",
    "run_write_experiment",
    "write_report",
]
