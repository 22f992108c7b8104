"""Workload generators, metrics and the experiment runner."""

from repro.workloads.generators import UpdateWorkload, WriteWorkload
from repro.workloads.metrics import LatencyRecorder, ThroughputMeter
from repro.workloads.profiler import write_report
from repro.workloads.runner import (
    ALARM_THRESHOLD,
    ExperimentResult,
    run_update_experiment,
    run_write_experiment,
)

__all__ = [
    "ALARM_THRESHOLD",
    "ExperimentResult",
    "LatencyRecorder",
    "ThroughputMeter",
    "UpdateWorkload",
    "WriteWorkload",
    "run_update_experiment",
    "run_write_experiment",
    "write_report",
]
