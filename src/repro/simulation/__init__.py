"""Discrete-event simulation substrate.

This package is the stand-in for the paper's hardware testbed: a small,
deterministic discrete-event engine (:mod:`repro.simulation.engine`) in the
style of SimPy, plus a fluid-flow network model
(:mod:`repro.simulation.fluid`) that gives max-min fair bandwidth sharing
with per-stream rate caps — the first-order effects AdapCC's evaluation
depends on.

Typical use::

    from repro.simulation import Simulator

    sim = Simulator()

    def hello(sim):
        yield sim.timeout(1.0)
        print("one simulated second elapsed", sim.now)

    sim.process(hello(sim))
    sim.run()
"""

from repro.simulation.engine import AllOf, Event, Process, Simulator, Timeout
from repro.simulation.fluid import FluidLink, FluidNetwork, Transfer

__all__ = [
    "AllOf",
    "Event",
    "FluidLink",
    "FluidNetwork",
    "Process",
    "Simulator",
    "Timeout",
    "Transfer",
]
