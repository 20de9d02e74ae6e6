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
* :class:`Simulator` — the clock plus the queue of scheduled work.

Work runs in ``(time, priority, seq)`` order. A queue entry is a
``(callback, arg)`` pair: a triggered event is queued as
``(Simulator._dispatch, event)``, and internal timers that nobody waits
on — the fluid network's latency waits, flushes and completion horizons —
go straight in through :meth:`Simulator.call_later` without an
:class:`Event` around them. An entry due later than ``now`` goes to a heap
keyed ``(time, priority, seq)``; one due at ``now`` itself (a zero delay,
or one that rounds to ``now``) is appended to a FIFO for its priority.
Every heap entry due at ``now`` was scheduled before the clock reached
``now``, so it precedes its priority's FIFO entries, and the two together
keep exactly the ``(time, priority, seq)`` order of one heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

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
        self.sim._fifos[priority].append((Simulator._dispatch, self))
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
        self.sim._fifos[priority].append((Simulator._dispatch, self))
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
        sim.call_later(delay, Simulator._dispatch, self)


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        self._triggered = True
        sim._fifos[URGENT].append((Simulator._dispatch, self))


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


class AllOf(Event):
    """Triggers when all child events have succeeded.

    The value is the list of child values in the order the children were
    given. If any child fails, this event fails immediately with the same
    exception (remaining children are left untouched). A simpler form of
    SimPy's condition events.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        self._events = events
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._events])


#: A queue entry: ``callback(arg)`` runs when the entry's turn comes.
Entry = Tuple[Callable[[Any], None], Any]


class Simulator:
    """The simulation clock and event queue.

    All simulated objects hold a reference to their simulator and create
    events through it. ``run()`` processes events in (time, priority,
    insertion order) until the queue is empty or ``until`` is reached.
    A priority is one of :data:`URGENT`, :data:`NORMAL` and :data:`LATE`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Entries due after ``now``: ``(time, priority, seq, callback, arg)``.
        self._heap: List[Tuple[float, int, int, Callable[[Any], None], Any]] = []
        #: Entries due at ``now``, one FIFO per priority.
        self._fifos: Tuple[Deque[Entry], Deque[Entry], Deque[Entry]] = (
            deque(),
            deque(),
            deque(),
        )
        self._seq = 0

    # -- event creation -----------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting immediately."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event triggering when every event in ``events`` has succeeded."""
        return AllOf(self, list(events))

    # -- scheduling ---------------------------------------------------------

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
        now = self.now
        time = now + delay
        if time == now:
            self._fifos[priority].append((callback, arg))
        else:
            self._seq += 1
            heappush(self._heap, (time, priority, self._seq, callback, arg))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        urgent, normal, late = self._fifos
        if urgent or normal or late:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

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

        The step keeps going while the next entry shares the first one's
        (time, priority), saving a call and the caller's loop checks per
        entry: first the heap entries due at that (time, priority), then
        the priority's FIFO. Entries are taken one at a time, only when
        they are next: a callback may schedule something *more urgent* at
        the same instant (process resumptions are URGENT, scheduled from
        NORMAL callbacks), which then comes first and ends the step — so
        the order is that of taking one entry per step, and an exception
        leaves the rest queued.
        """
        heap = self._heap
        urgent, normal, late = self._fifos
        priority = URGENT if urgent else NORMAL if normal else LATE if late else None
        if heap:
            head = heap[0]
            if priority is None or (head[1] <= priority and head[0] == self.now):
                time = self.now = head[0]
                priority = head[1]
                while True:
                    heappop(heap)
                    head[3](head[4])
                    if priority != URGENT and (urgent or (priority == LATE and normal)):
                        return
                    if not heap:
                        break
                    head = heap[0]
                    if head[0] != time or head[1] != priority:
                        break
        elif priority is None:
            raise SimulationError("step() on an empty event queue")
        if priority == URGENT:
            while urgent:
                callback, arg = urgent.popleft()
                callback(arg)
        elif priority == NORMAL:
            while normal and not urgent:
                callback, arg = normal.popleft()
                callback(arg)
        else:
            while late and not urgent and not normal:
                callback, arg = late.popleft()
                callback(arg)

    def _idle(self) -> bool:
        """Whether nothing at all is queued."""
        urgent, normal, late = self._fifos
        return not (self._heap or urgent or normal or late)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if no event falls on it.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"run(until={until!r}) is not a time at or after now={self.now}"
            )
        while not self._idle():
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
        while not event._processed:
            if self._idle():
                raise SimulationError(
                    f"deadlock: event queue empty at t={self.now} before {event!r}"
                )
            if self.peek() > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting for {event!r}")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
