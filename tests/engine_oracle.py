"""One-entry-per-step reference for the simulation engine.

``Simulator`` keeps entries due later than ``now`` in a heap and entries
due at ``now`` in one FIFO per priority, and ``Simulator.step`` runs the
whole same-(time, priority) run at the front of the queue per call. The
order it must reproduce is that of :class:`ReferenceSimulator`: every
entry in one ``(time, priority, seq)`` heap, and a step that pops one
entry, advances the clock and runs it. The differential tests run a
scenario both ways and compare dispatch order and exported bytes.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.simulation.engine import LATE, NORMAL, URGENT, Simulator


class _Lane:
    """Stands in for one priority's FIFO: an append is a heap push at
    ``now``. Always empty, so the engine's emptiness checks see only the
    heap."""

    __slots__ = ("sim", "priority")

    def __init__(self, sim: "ReferenceSimulator", priority: int):
        self.sim = sim
        self.priority = priority

    def append(self, entry) -> None:
        callback, arg = entry
        self.sim._push(self.sim.now, self.priority, callback, arg)

    def __bool__(self) -> bool:
        return False


class ReferenceSimulator(Simulator):
    """A simulator with one heap for every entry and one entry per step."""

    def __init__(self) -> None:
        super().__init__()
        self._install_lanes()

    def _install_lanes(self) -> None:
        self._fifos = tuple(_Lane(self, priority) for priority in (URGENT, NORMAL, LATE))

    def _push(self, time: float, priority: int, callback, arg) -> None:
        self._seq += 1
        heappush(self._heap, (time, priority, self._seq, callback, arg))

    def call_later(self, delay, callback, arg, priority=NORMAL) -> None:
        if not delay >= 0:
            raise SimulationError(f"call_later delay {delay!r} is not >= 0")
        self._push(self.now + delay, priority, callback, arg)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Pop and run exactly one queue entry."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        time, _priority, _seq, callback, arg = heappop(self._heap)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        callback(arg)


def step_one_at_a_time(sim: Simulator) -> Simulator:
    """Turn a simulator with nothing queued yet into a
    :class:`ReferenceSimulator`; returns ``sim``."""
    if sim.peek() != float("inf"):
        raise SimulationError("step_one_at_a_time() needs an empty queue")
    sim.__class__ = ReferenceSimulator
    sim._install_lanes()
    return sim
