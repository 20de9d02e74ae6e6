"""Composite events: wait-for-all.

This mirrors SimPy's condition events but is deliberately simpler: an
:class:`AllOf` succeeds with the list of child values once every child has
succeeded (and fails fast if any child fails).
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
