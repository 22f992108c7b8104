"""Workload generators reproducing the paper's §V experiments.

The Update-Item workload "emulates a scenario wherein every second 1000
RTUs are updated and then propagate their information to the Frontend"
— with the RTUs removed and the Frontend generating the messages, which
is exactly what :class:`UpdateWorkload` does via
:meth:`~repro.neoscada.frontend.Frontend.inject_update`. The Write-Value
workload is a closed loop of synchronous HMI writes
(:class:`WriteWorkload`).
"""

from __future__ import annotations

from repro.neoscada.frontend import Frontend
from repro.neoscada.hmi import HMI
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupted
from repro.workloads.metrics import LatencyRecorder


class UpdateWorkload:
    """Open-loop item updates injected at the Frontend at a fixed rate.

    Parameters
    ----------
    sim, frontend:
        Where updates are injected.
    item_ids:
        Items updated round-robin (the paper's 1000 RTUs map onto these).
    rate:
        Updates per second, spread evenly.
    alarm_ratio:
        Fraction of updates whose value exceeds the alarm threshold
        configured on the Monitor handler (0.0, 0.5 and 1.0 in Fig. 8).
        The alarm pattern is a deterministic fraction accumulator, so
        exactly ``ratio × n`` of any ``n`` consecutive updates alarm.
    normal_value, alarm_value:
        Values emitted below/above the threshold. A small deterministic
        wobble keeps consecutive values distinct so every injection is a
        real change.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: Frontend,
        item_ids: list,
        rate: float,
        alarm_ratio: float = 0.0,
        normal_value: int = 100,
        alarm_value: int = 1000,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= alarm_ratio <= 1.0:
            raise ValueError("alarm_ratio must be within [0, 1]")
        if not item_ids:
            raise ValueError("need at least one item")
        self.sim = sim
        self.frontend = frontend
        self.item_ids = list(item_ids)
        self.rate = rate
        self.alarm_ratio = alarm_ratio
        self.normal_value = normal_value
        self.alarm_value = alarm_value
        self.injected = 0
        self.alarms_injected = 0
        self._alarm_accumulator = 0.0
        self._process = None

    def start(self, duration: float | None = None) -> None:
        """Begin injecting; stops after ``duration`` seconds if given."""
        if self._process is not None:
            raise RuntimeError("workload already started")
        self._process = self.sim.process(
            self._run(duration), name="update-workload"
        )

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    def _run(self, duration: float | None):
        interval = 1.0 / self.rate
        deadline = None if duration is None else self.sim.now + duration
        try:
            while deadline is None or self.sim.now < deadline:
                yield self.sim.timeout(interval)
                self._inject_one()
        except Interrupted:
            pass

    def _inject_one(self) -> None:
        item_id = self.item_ids[self.injected % len(self.item_ids)]
        self._alarm_accumulator += self.alarm_ratio
        if self._alarm_accumulator >= 1.0:
            self._alarm_accumulator -= 1.0
            base = self.alarm_value
            self.alarms_injected += 1
        else:
            base = self.normal_value
        # Alternate +/-1 so consecutive injections always differ.
        value = base + (self.injected % 2)
        self.injected += 1
        self.frontend.inject_update(item_id, value)


class WriteWorkload:
    """Closed-loop synchronous writes from the HMI (Fig. 8c).

    "For each write operation, the HMI waits until the operation is
    completed" — one outstanding write at a time, issued back-to-back.
    """

    def __init__(
        self,
        sim: Simulator,
        hmi: HMI,
        item_id: str,
        values: tuple = (0, 1),
    ) -> None:
        self.sim = sim
        self.hmi = hmi
        self.item_id = item_id
        self.values = values
        self.completed = 0
        self.failed = 0
        self.latencies = LatencyRecorder()
        self._process = None

    def start(self, duration: float) -> None:
        if self._process is not None:
            raise RuntimeError("workload already started")
        self._process = self.sim.process(self._run(duration), name="write-workload")

    @property
    def done(self):
        """Event that triggers when the workload finishes."""
        return self._process

    def _run(self, duration: float):
        deadline = self.sim.now + duration
        index = 0
        while self.sim.now < deadline:
            value = self.values[index % len(self.values)]
            index += 1
            started = self.sim.now
            result = yield self.hmi.write(self.item_id, value)
            self.latencies.record(self.sim.now - started)
            if result.success:
                self.completed += 1
            else:
                self.failed += 1
        return self.completed
