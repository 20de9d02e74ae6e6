"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Simulator
from repro.simulation.engine import LATE, NORMAL, URGENT, Event
from repro.simulation.fluid import FluidLink, FluidNetwork

from .engine_oracle import ReferenceSimulator


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [2.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    result = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        result.append(value)

    sim.process(proc(sim))
    sim.run()
    assert result == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_nan_timeout_rejected():
    # NaN fails every comparison, so a `delay < 0` check let it through and
    # the heap then ordered it wherever it happened to land.
    sim = Simulator()
    with pytest.raises(SimulationError, match="nan"):
        sim.timeout(float("nan"))
    assert sim.peek() == float("inf")


def test_run_until_nan_rejected():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "late")
    with pytest.raises(SimulationError, match="nan"):
        sim.run(until=float("nan"))
    assert (fired, sim.now) == ([], 0.0)


def test_process_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim, out):
        value = yield sim.process(child(sim))
        out.append(value)

    out = []
    sim.process(parent(sim, out))
    sim.run()
    assert out == [42]


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc(sim, "b", 2.0))
    sim.process(proc(sim, "a", 1.0))
    sim.process(proc(sim, "c", 3.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = Event(sim)
    woke = []

    def waiter(sim):
        value = yield gate
        woke.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(5.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert woke == [(5.0, "open")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = Event(sim)
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = Event(sim)
    caught = []

    def waiter(sim):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_at_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)
        return "done"

    p = sim.process(proc(sim))
    assert sim.run_until_complete(p) == "done"
    assert sim.now == 3.0


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    gate = Event(sim)  # never triggered

    def proc(sim):
        yield gate

    p = sim.process(proc(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_all_of_collects_values_in_order():
    sim = Simulator()
    out = []

    def proc(sim):
        values = yield sim.all_of([sim.timeout(3.0, "c"), sim.timeout(1.0, "a")])
        out.append((sim.now, values))

    sim.process(proc(sim))
    sim.run()
    assert out == [(3.0, ["c", "a"])]


class TestEventBatching:
    """step() drains same-(time, priority) runs from the heap and the
    same-instant FIFOs; the order must be that of the one-heap,
    one-entry-per-step reference (``tests/engine_oracle.py``)."""

    @staticmethod
    def _burst_scenario(sim):
        """Processes that pile many events onto the same instants."""
        order = []

        def worker(sim, name, delays):
            for delay in delays:
                yield sim.timeout(delay)
                order.append((name, sim.now))

        def spawner(sim):
            yield sim.timeout(1.0)
            # Same-instant spawns: resumptions are urgent, timeouts normal.
            for i in range(4):
                sim.process(worker(sim, f"late{i}", [0.0, 1.0]))
            order.append(("spawner", sim.now))

        for i in range(4):
            sim.process(worker(sim, f"w{i}", [1.0, 0.0, 1.0]))
        sim.process(spawner(sim))
        return order

    @staticmethod
    def _simulators():
        """A batching simulator and the reference."""
        return Simulator(), ReferenceSimulator()

    def test_batched_matches_unbatched_exactly(self):
        runs = []
        for sim in self._simulators():
            order = self._burst_scenario(sim)
            sim.run()
            runs.append(order)
        assert runs[0] == runs[1]

    def test_timers_interleave_with_events_as_unbatched(self):
        # call_later entries take their seq where a timeout would, so the
        # mixed order of bare timers and event dispatches is the
        # reference stepper's.
        runs = []
        for sim in self._simulators():
            order = self._burst_scenario(sim)
            for delay, priority in ((1.0, NORMAL), (1.0, URGENT), (0.0, URGENT), (2.0, NORMAL)):
                sim.call_later(delay, order.append, ("timer", delay, priority), priority)
            sim.run()
            runs.append(order)
        assert runs[0] == runs[1]
        assert ("timer", 1.0, URGENT) in runs[0]

    @staticmethod
    def _late_scenario(sim):
        order = []

        def late(tag):
            order.append(tag)
            if tag == "late-a":
                sim.call_later(0.0, order.append, "normal-from-late", NORMAL)

        sim.call_later(1.0, late, "late-a", LATE)
        sim.call_later(1.0, order.append, "normal", NORMAL)
        sim.call_later(1.0, late, "late-b", LATE)
        sim.call_later(1.0, lambda _: sim.call_later(0.0, order.append, "urgent", URGENT), None)
        sim.run()
        return order

    def test_late_entry_runs_after_its_instants_other_work(self):
        """A LATE entry waits for every URGENT and NORMAL entry of its
        instant, including ones that entries before it scheduled there;
        one it schedules at a lower priority runs before the next LATE."""
        for sim in self._simulators():
            assert self._late_scenario(sim) == [
                "normal",
                "urgent",
                "late-a",
                "normal-from-late",
                "late-b",
            ]

    def test_step_count_shrinks_under_batching(self):
        counts = []
        for sim in self._simulators():
            self._burst_scenario(sim)
            steps = 0
            while sim.peek() != float("inf"):
                sim.step()
                steps += 1
            counts.append(steps)
        assert counts[0] < counts[1]

    def test_exception_mid_batch_requeues_the_rest(self):
        sim = Simulator()
        seen = []

        def ok(sim, name):
            yield sim.timeout(1.0)
            seen.append(name)

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(ok(sim, "a"))
        sim.process(bad(sim))
        sim.process(ok(sim, "b"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # The batch aborted cleanly: the trailing same-instant event is
        # still queued, not lost, and a fresh run() drains it.
        assert sim.peek() == 1.0
        sim.run()
        assert seen == ["a", "b"]

    def test_delay_that_rounds_to_now_keeps_its_place(self):
        """A positive delay lost to the clock's resolution is due now: it
        runs after the heap entries already due at its (time, priority),
        in scheduling order with the zero delays."""
        for sim in self._simulators():
            order = []

            def schedule(_arg):
                sim.call_later(1e-9, order.append, "tiny", NORMAL)
                sim.call_later(0.0, order.append, "zero", NORMAL)
                sim.call_later(0.0, order.append, "urgent", URGENT)

            sim.call_later(1e9, schedule, None)
            sim.call_later(1e9, order.append, "queued-before", NORMAL)
            sim.run()
            assert order == ["urgent", "queued-before", "tiny", "zero"]
            assert sim.now == 1e9

    def test_urgent_scheduled_by_a_late_callback_runs_before_the_next_late(self):
        for sim in self._simulators():
            order = []

            def late(tag):
                order.append(tag)
                if tag == "late-a":
                    sim.call_later(0.0, order.append, "late-from-late", LATE)
                    sim.call_later(0.0, order.append, "urgent-from-late", URGENT)

            sim.call_later(1.0, late, "late-a", LATE)
            sim.call_later(1.0, late, "late-b", LATE)
            sim.run()
            assert order == ["late-a", "urgent-from-late", "late-b", "late-from-late"]

    def test_run_until_stops_inside_an_instant_as_the_reference(self):
        """``run(until=)`` between two instants leaves the clock there;
        entries scheduled at that clock run first on the next run."""
        runs = []
        for sim in self._simulators():
            order = self._burst_scenario(sim)
            sim.run(until=1.5)
            sim.call_later(0.0, order.append, ("now", sim.now), NORMAL)
            sim.call_later(0.0, order.append, ("urgent-now", sim.now), URGENT)
            sim.call_later(0.5, order.append, ("timer", 2.0), URGENT)
            assert sim.peek() == 1.5
            sim.run()
            runs.append(order)
        assert runs[0] == runs[1]
        assert runs[0].index(("urgent-now", 1.5)) < runs[0].index(("now", 1.5))

    def test_exception_mid_fifo_run_leaves_the_rest_queued(self):
        runs = []
        for sim in self._simulators():
            order = []

            def boom(_arg):
                raise RuntimeError("boom")

            def spawn(_arg):
                sim.call_later(0.0, order.append, "a", NORMAL)
                sim.call_later(0.0, boom, None, NORMAL)
                sim.call_later(0.0, order.append, "b", NORMAL)
                sim.call_later(0.0, order.append, "late", LATE)

            sim.call_later(1.0, spawn, None)
            with pytest.raises(RuntimeError, match="boom"):
                sim.run()
            assert order == ["a"] and sim.peek() == 1.0
            sim.run()
            runs.append(order)
        assert runs[0] == runs[1] == ["a", "b", "late"]

    def test_run_until_complete_returns_before_its_instants_late_flush(self):
        for sim in self._simulators():
            order = []
            done = Event(sim)
            sim.call_later(1.0, order.append, "late", LATE)
            sim.call_later(1.0, lambda _arg: done.succeed("value"), None)
            assert sim.run_until_complete(done) == "value"
            assert order == [] and sim.peek() == 1.0
            sim.run()
            assert order == ["late"]

    def test_run_until_matches_unbatched_clock(self):
        for sim in self._simulators():
            self._burst_scenario(sim)
            sim.run(until=1.0)
            assert sim.now == 1.0
            assert sim.peek() == 2.0


class TestCallLater:
    def test_runs_callback_with_arg_at_its_time(self):
        sim = Simulator()
        seen = []
        sim.call_later(2.0, lambda arg: seen.append((sim.now, arg)), "x")
        sim.run()
        assert seen == [(2.0, "x")]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_later(-1.0, print, None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.call_later(float("nan"), print, None)
        assert sim.peek() == float("inf")

    def test_one_event_per_fluid_transfer(self, monkeypatch):
        # Latency waits, flushes and completion horizons are bare timers:
        # the only Event a transfer makes is its completion event.
        made = []
        init = Event.__init__

        def counting_init(self, sim):
            made.append(type(self).__name__)
            init(self, sim)

        monkeypatch.setattr(Event, "__init__", counting_init)
        sim = Simulator()
        net = FluidNetwork(sim)
        slow = FluidLink("slow", capacity=100.0, latency=0.5)
        fast = FluidLink("fast", capacity=400.0, latency=0.25, per_stream_cap=150.0)
        done = [
            net.transfer([slow, fast], size=300.0),
            net.transfer([fast], size=600.0, extra_latency=0.1),
            net.transfer([fast], size=0.0),
            net.transfer([], size=10.0, extra_latency=0.2),
            net.transfer([FluidLink("free", capacity=50.0)], size=25.0),
        ]
        arrived = []
        net.transfer([slow], size=50.0, callback=arrived.append)
        sim.run()
        assert all(event.processed and event.ok for event in done)
        # A transfer given a callback makes none.
        assert made == ["Event"] * len(done)
        assert [t.size for t in arrived] == [50.0]
