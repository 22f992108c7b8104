"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction: the
network, the BFT replicas, the SCADA components and the workload
generators are all processes and callbacks scheduled on one
:class:`Simulator` event queue, which makes every run reproducible given
a seed. ``Simulator()`` builds the flat-array :class:`RingSimulator` by
default; the binary-heap :class:`Simulator` itself is the reference
kernel (``kernel="heap"`` / ``REPRO_KERNEL=heap``) with a bit-identical
schedule.
"""

from repro.sim.channels import Channel, ChannelClosed
from repro.sim.events import AllOf, AnyOf, Event, ScheduledCall, Timeout
from repro.sim.fastkernel import RingSimulator
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Interrupted, Process
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Event",
    "Interrupted",
    "Process",
    "RingSimulator",
    "RngRegistry",
    "ScheduledCall",
    "SimulationError",
    "Simulator",
    "Timeout",
]
