"""Composite events: wait-for-all and wait-for-any.

These mirror SimPy's condition events but are deliberately simpler: an
:class:`AllOf` succeeds with the list of child values once every child has
succeeded (and fails fast if any child fails); an :class:`AnyOf` mirrors the
first child to trigger.
"""

from __future__ import annotations

from typing import List

from repro.simulation.engine import Event, Simulator


class AllOf(Event):
    """Triggers when all child events have succeeded.

    The value is the list of child values in the order the children were
    given. If any child fails, this event fails immediately with the same
    exception (remaining children are left untouched).
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: Simulator, events: List[Event]):
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


class AnyOf(Event):
    """Triggers as soon as any child event triggers, mirroring its outcome.

    The value is a ``(index, value)`` pair identifying which child fired
    first. Failure of the first child fails this event.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: Simulator, events: List[Event]):
        super().__init__(sim)
        self._events = events
        if not events:
            self.succeed((None, None))
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int):
        def on_child(event: Event) -> None:
            if self._triggered:
                return
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.value)

        return on_child
