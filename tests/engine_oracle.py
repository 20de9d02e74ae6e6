"""One-entry-per-step reference stepper for the simulation engine.

``Simulator.step`` runs the whole same-(time, priority) run at the head of
the queue per call. The order it must reproduce is that of the plain
stepper kept here: pop one entry, advance the clock, run it.
:func:`step_one_at_a_time` installs it on one simulator, after which
``run`` and ``run_until_complete`` drive that simulator through it; the
differential tests run a scenario both ways and compare dispatch order
and exported bytes.
"""

from __future__ import annotations

import heapq
import types

from repro.errors import SimulationError
from repro.simulation.engine import Simulator


def reference_step(sim: Simulator) -> None:
    """Pop and run exactly one queue entry."""
    if not sim._queue:
        raise SimulationError("step() on an empty event queue")
    time, _priority, _seq, callback, arg = heapq.heappop(sim._queue)
    if time < sim.now - 1e-12:
        raise SimulationError("event scheduled in the past")
    sim.now = max(sim.now, time)
    callback(arg)


def step_one_at_a_time(sim: Simulator) -> Simulator:
    """Make ``sim`` step through :func:`reference_step`; returns ``sim``."""
    sim.step = types.MethodType(reference_step, sim)
    return sim
