"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction: the
network, the BFT replicas, the SCADA components and the workload
generators are all processes and callbacks scheduled on one
:class:`Simulator` event queue, which makes every run reproducible given
a seed. :class:`Simulator` is the public type; ``Simulator(seed)`` builds
the flat-array timer wheel :class:`RingSimulator`, its one implementation.
"""

from repro.sim.events import Event, Timeout
from repro.sim.fastkernel import RingSimulator
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Interrupted, Process
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "Interrupted",
    "Process",
    "RingSimulator",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
]
