"""Deterministic discrete-event simulation kernel.

Every Sense-Aid experiment runs inside a single :class:`Simulator`.
Components schedule callbacks on the shared event heap and draw
randomness from named, independently seeded streams so that results are
reproducible run-to-run and insensitive to the order in which
components are constructed.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.perf import PerfProbe, PerfRegistry
from repro.sim.processes import PeriodicProcess
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "PerfProbe",
    "PerfRegistry",
    "PeriodicProcess",
    "RandomStreams",
    "Simulator",
]
