"""Host-time measurement that survives a host whose speed wanders.

The sandbox this benchmark is judged in runs on shared cores: the same
pure-Python loop takes 0.15 s or 0.21 s from one second to the next, and
the whole machine drifts by tens of percent over minutes. Raw CPU
seconds therefore repeat within 10-20 %, far wider than any change a
reviewer wants to see. The cure used here is the one hardware people use
for a drifting clock: measure a fixed reference alongside.

:func:`spin` is that reference — a short, fixed mix of the operations
the simulator spends its time on (dict and heap updates, a SHA-256, small
byte-string building). :class:`HostMeter` advances the simulation through
a steady window in slices and runs one spin after every slice, so the
reference samples the host's speed at the same moments the workload
experiences it. Host time is then reported in *calibrated seconds*:

    calibrated = measured x (REFERENCE_SPIN_S / measured mean spin)

i.e. the seconds the work would take on a host where one spin takes
exactly :data:`REFERENCE_SPIN_S`. For identical work, calibrated CPU
seconds had a quartile spread of 1-3 % where raw seconds had 7 %, and a
range of 3-5 % against 12-17 %. The raw seconds are kept beside them in
every result.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time

#: The reference host runs one :func:`spin` in exactly this long.
REFERENCE_SPIN_S = 0.001
#: Slices (and so calibration samples) per steady window.
SLICES = 64

_SHA = hashlib.sha256(b"k" * 64)
_BLOCK = b"x" * 64
_TABLE: dict = {}
_HEAP: list = []
_OUT = bytearray()


def spin(rounds: int = 850) -> tuple:
    """Run the fixed reference loop once; returns ``(cpu_s, wall_s)``.

    The loop allocates nothing the garbage collector tracks (ints, floats,
    bytes and hash objects only, in containers made once): a collection
    triggered from inside a spin would be charged to the reference — one
    full collection of a large heap is worth twenty spins.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    table, heap, out = _TABLE, _HEAP, _OUT
    table.clear()
    del heap[:]
    del out[:]
    push, pop = heapq.heappush, heapq.heappop
    for i in range(rounds):
        table[i & 63] = table.get(i & 63, 0) + i
        push(heap, (i * 7919 % 1000) * 0.5)
        if i & 1:
            pop(heap)
        sha = _SHA.copy()
        sha.update(_BLOCK)
        out += sha.digest()[:4]
        out.append(len(str(i)))
    return time.process_time() - cpu, time.perf_counter() - wall


def calibrated(seconds: float, spin_seconds: float, spins: int) -> float:
    """``seconds`` rescaled to the reference host."""
    return seconds * (spins * REFERENCE_SPIN_S / spin_seconds)


class HostMeter:
    """CPU, wall and event counts over one steady window, with calibration.

    ``advance(t)`` moves the simulation to simulated time ``t`` (for most
    workloads it is ``sim.run(until=t)``; the fault workload also applies
    its schedule). Only the time inside ``advance`` is charged to the
    workload; the spins are timed separately.
    """

    def __init__(self, sim, advance) -> None:
        self.sim = sim
        self.advance = advance
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.spin_cpu_s = 0.0
        self.spins = 0
        self.events = 0

    def measure(self, start: float, end: float) -> None:
        gc.collect()  # start every window from the same collector state
        events = self.sim.dispatched
        width = (end - start) / SLICES
        for index in range(1, SLICES + 1):
            target = end if index == SLICES else start + index * width
            wall = time.perf_counter()
            cpu = time.process_time()
            self.advance(target)
            self.cpu_s += time.process_time() - cpu
            self.wall_s += time.perf_counter() - wall
            self.spin_cpu_s += spin()[0]
            self.spins += 1
        self.events = self.sim.dispatched - events

    @property
    def calibrated_cpu_s(self) -> float:
        return calibrated(self.cpu_s, self.spin_cpu_s, self.spins)
