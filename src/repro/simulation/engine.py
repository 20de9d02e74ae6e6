"""Core discrete-event engine: events, processes, and the simulator loop.

The engine follows the SimPy model. Simulated activities are Python
generators ("processes") that ``yield`` :class:`Event` objects; the
simulator resumes a process when the event it waits on triggers. Time only
advances between events, so a run is fully deterministic.

Three ideas cover everything in this module:

* :class:`Event` — a one-shot occurrence with a value (or an exception).
  Callbacks registered on the event fire when it is processed.
* :class:`Process` — an event that wraps a generator. It triggers when the
  generator returns (value = ``StopIteration`` value) or raises.
* :class:`Simulator` — the clock plus a priority queue of scheduled work.

A queue entry is ``(time, priority, seq, callback, arg)``: a triggered
event is queued as ``(…, Simulator._dispatch, event)``, and internal
timers that nobody waits on — the fluid network's latency waits, flushes
and completion horizons — go straight in through
:meth:`Simulator.call_later` without an :class:`Event` around them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError

#: Entries at one simulated time run in priority order: URGENT, then
#: NORMAL, then LATE. The engine uses URGENT internally for process
#: resumption so that a process sees the world as it was when its event
#: triggered. A LATE entry runs after every URGENT and NORMAL entry of its
#: instant: the fluid network schedules its rate flush LATE, so one solve
#: sees every change made at the instant. An URGENT or NORMAL entry that a
#: LATE callback schedules at its own instant runs before the next LATE one.
URGENT = 0
NORMAL = 1
LATE = 2


class Event:
    """A one-shot occurrence in simulated time.

    An event goes through three states: *pending* (created, not triggered),
    *triggered* (scheduled with a value, waiting in the queue), and
    *processed* (callbacks have run). ``succeed``/``fail`` move a pending
    event to triggered.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value and scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when it failed)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.sim._schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event will have the exception thrown into
        its generator.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.sim._schedule(self, priority=priority)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this makes late waiters safe.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise SimulationError(f"timeout delay {delay!r} is not >= 0")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        sim._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        self._triggered = True
        sim._schedule(self, priority=URGENT)


class Process(Event):
    """An event wrapping a generator that yields events.

    The process triggers when the generator finishes; its value is the
    generator's return value. If the generator raises, the process fails
    with that exception (re-raised at ``Simulator.run`` unless some other
    process is waiting on it).
    """

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(sim, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the event's outcome.

        Runs as a loop rather than recursing so that yielding a long chain
        of already-processed events cannot blow the Python stack.
        """
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self.fail(exc, priority=URGENT)
                return
            if not isinstance(next_event, Event):
                self._generator.close()
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {next_event!r}, expected an Event"
                    ),
                    priority=URGENT,
                )
                return
            if next_event.processed:
                event = next_event  # already done: consume without recursing
                continue
            next_event.add_callback(self._resume)
            return


class Simulator:
    """The simulation clock and event queue.

    All simulated objects hold a reference to their simulator and create
    events through it. ``run()`` processes events in (time, priority,
    insertion order) until the queue is empty or ``until`` is reached.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List = []
        self._seq = 0

    # -- event creation -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting immediately."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event triggering when every event in ``events`` has succeeded."""
        from repro.simulation.primitives import AllOf

        return AllOf(self, list(events))

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue, (self.now + delay, priority, self._seq, Simulator._dispatch, event)
        )

    def call_later(
        self,
        delay: float,
        callback: Callable[[Any], None],
        arg: Any,
        priority: int = NORMAL,
    ) -> None:
        """Run ``callback(arg)`` ``delay`` simulated seconds from now.

        The timer is a bare queue entry: no :class:`Event`, so nothing can
        wait on it, fail it or cancel it — a callback that may be
        superseded checks for that itself. It takes its place in the
        (time, priority, insertion order) sequence exactly as a
        :meth:`timeout` created at the same moment would.
        """
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise SimulationError(f"call_later delay {delay!r} is not >= 0")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, callback, arg))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @staticmethod
    def _dispatch(event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failed event nobody waited on: surface the error.
            raise event._value

    def step(self) -> None:
        """Run the next queue entry and the rest of its same-instant run.

        The step keeps going while the queue's head shares the first
        entry's (time, priority), saving a call and the caller's loop
        checks per entry. Entries are popped one at a time, only when they
        are next: a callback may schedule something *more urgent* at the
        same instant (process resumptions are URGENT, scheduled from
        NORMAL callbacks), which then heads the queue and ends the step —
        so the order is that of popping one entry per step, and an
        exception leaves the rest queued.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        time, priority, _seq, callback, arg = heapq.heappop(queue)
        if time < self.now - 1e-12:
            raise SimulationError("event scheduled in the past")
        if time > self.now:
            self.now = time
        callback(arg)
        while queue:
            head = queue[0]
            if head[0] != time or head[1] != priority:
                return
            heapq.heappop(queue)
            head[3](head[4])

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if no event falls on it.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"run(until={until!r}) is not a time at or after now={self.now}"
            )
        while self._queue:
            if until is not None and self.peek() > until:
                break
            self.step()
        if until is not None:
            self.now = max(self.now, until)

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue empties (deadlock) or the
        clock passes ``limit`` first.
        """
        while not event.processed:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: event queue empty at t={self.now} before {event!r}"
                )
            if self.peek() > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting for {event!r}")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
