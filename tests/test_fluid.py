"""Unit and property tests for the fluid-flow network."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import FluidLink, FluidNetwork, Simulator


def make_net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


def test_single_transfer_takes_size_over_capacity():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    done = net.transfer([link], size=1000.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(10.0)


def test_latency_is_paid_before_streaming():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, latency=2.0)
    done = net.transfer([link], size=1000.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(12.0)


def test_extra_latency_adds_to_path_latency():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, latency=1.0)
    done = net.transfer([link], size=100.0, extra_latency=3.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(5.0)


def test_two_transfers_share_fairly():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    d1 = net.transfer([link], size=1000.0)
    d2 = net.transfer([link], size=1000.0)
    sim.run_until_complete(d1)
    sim.run_until_complete(d2)
    # Both stream at 50 B/s, so both finish at t=20.
    assert sim.now == pytest.approx(20.0)


def test_short_transfer_releases_bandwidth():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    d_long = net.transfer([link], size=1000.0)
    d_short = net.transfer([link], size=100.0)
    sim.run_until_complete(d_short)
    assert sim.now == pytest.approx(2.0)  # 100 B at 50 B/s
    sim.run_until_complete(d_long)
    # Long transfer: 100 B in first 2 s, remaining 900 B at full 100 B/s.
    assert sim.now == pytest.approx(11.0)


def test_per_stream_cap_limits_single_flow():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, per_stream_cap=20.0)
    done = net.transfer([link], size=100.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(5.0)


def test_per_stream_cap_allows_parallel_streams_to_saturate():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, per_stream_cap=20.0)
    events = [net.transfer([link], size=100.0) for _ in range(5)]
    for e in events:
        sim.run_until_complete(e)
    # Five capped streams achieve 5*20 = 100 B/s aggregate.
    assert sim.now == pytest.approx(5.0)


def test_path_bottleneck_sets_rate():
    sim, net = make_net()
    fast = FluidLink("fast", capacity=1000.0)
    slow = FluidLink("slow", capacity=10.0)
    done = net.transfer([fast, slow], size=100.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(10.0)


def test_path_latencies_accumulate():
    sim, net = make_net()
    a = FluidLink("a", capacity=100.0, latency=1.0)
    b = FluidLink("b", capacity=100.0, latency=2.0)
    done = net.transfer([a, b], size=100.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(4.0)


def test_repeated_link_consumes_capacity_twice():
    sim, net = make_net()
    bus = FluidLink("bus", capacity=100.0)
    done = net.transfer([bus, bus], size=100.0)
    sim.run_until_complete(done)
    # The flow crosses the bus twice, so its end-to-end rate is 50 B/s.
    assert sim.now == pytest.approx(2.0)


def test_max_min_with_unequal_demands():
    sim, net = make_net()
    shared = FluidLink("shared", capacity=90.0)
    private = FluidLink("private", capacity=30.0)
    # Flow A is capped at 30 by its private link; flow B then gets 60.
    d_a = net.transfer([shared, private], size=300.0)
    d_b = net.transfer([shared], size=600.0)
    sim.run_until_complete(d_a)
    assert sim.now == pytest.approx(10.0)
    sim.run_until_complete(d_b)
    assert sim.now == pytest.approx(10.0)


def test_zero_size_transfer_completes_after_latency():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, latency=1.5)
    done = net.transfer([link], size=0.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(1.5)


def test_empty_path_transfer_is_pure_latency():
    sim, net = make_net()
    done = net.transfer([], size=12345.0, extra_latency=2.0)
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(2.0)


def test_negative_size_rejected():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    with pytest.raises(SimulationError):
        net.transfer([link], size=-1.0)


def test_cancel_fails_event():
    sim, net = make_net()
    link = FluidLink("l", capacity=10.0)
    done = net.transfer([link], size=1000.0)
    cancelled = []

    def canceller(sim):
        yield sim.timeout(1.0)
        net.cancel(net.active_transfers[0])

    def waiter(sim):
        try:
            yield done
        except SimulationError:
            cancelled.append(sim.now)

    sim.process(waiter(sim))
    sim.process(canceller(sim))
    sim.run()
    assert cancelled == [1.0]


def test_set_capacity_midway_changes_rate():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    done = net.transfer([link], size=1000.0)

    def shaper(sim):
        yield sim.timeout(5.0)  # 500 B moved so far
        net.set_capacity(link, 50.0)

    sim.process(shaper(sim))
    sim.run_until_complete(done)
    # Remaining 500 B at 50 B/s takes 10 more seconds.
    assert sim.now == pytest.approx(15.0)


def test_capacity_drop_to_zero_stalls_then_resumes():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    done = net.transfer([link], size=1000.0)

    def shaper(sim):
        yield sim.timeout(5.0)
        net.set_capacity(link, 0.0)
        yield sim.timeout(10.0)
        net.set_capacity(link, 100.0)

    sim.process(shaper(sim))
    sim.run_until_complete(done)
    assert sim.now == pytest.approx(20.0)


def test_bytes_carried_accounting():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    done = net.transfer([link], size=1000.0)
    sim.run_until_complete(done)
    assert link.bytes_carried == pytest.approx(1000.0)


def test_link_load_reports_aggregate_rate():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    net.transfer([link], size=1000.0)
    net.transfer([link], size=1000.0)
    sim.run(until=1.0)
    assert net.link_load(link) == pytest.approx(100.0)


def test_transfer_records_start_and_finish():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, latency=1.0)
    done = net.transfer([link], size=100.0)
    t = sim.run_until_complete(done)
    assert t.start_time == pytest.approx(1.0)
    assert t.finish_time == pytest.approx(2.0)


# -- path interning -----------------------------------------------------------


def test_equal_paths_from_distinct_lists_share_one_class():
    sim, net = make_net()
    a, b = FluidLink("a", capacity=100.0), FluidLink("b", capacity=100.0)
    net.transfer([a, b], size=1000.0)
    net.transfer([a, b], size=1000.0)  # equal content, different list object
    net.transfer([b, a], size=1000.0)  # another sequence: its own class
    first, second, reverse = net.active_transfers
    assert first._path is second._path
    assert reverse._path is not first._path
    assert len(net._paths) == 2


def test_capacity_is_read_at_solve_time_not_cached_in_the_class():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    net.transfer([link], size=1e6)
    sim.run(until=1.0)
    (first,) = net.active_transfers
    assert first.rate == 100.0
    net.set_capacity(link, 40.0)
    net.transfer([link], size=1e6)  # same path, interned before the change
    sim.run(until=2.0)
    assert [t.rate for t in net.active_transfers] == [20.0, 20.0]


def test_transfer_path_stays_readable_for_recorders():
    from repro.analysis.lint_trace import lint_trace
    from repro.simulation.records import TraceRecorder

    sim, net = make_net()
    recorder = TraceRecorder()
    net.attach_recorder(recorder)
    bus = FluidLink("bus", capacity=100.0)
    nic = FluidLink("nic", capacity=100.0, per_stream_cap=30.0)
    done = net.transfer([bus, nic, bus], size=90.0)
    (t,) = net.active_transfers
    assert t.links == [bus, nic, bus]
    sim.run_until_complete(done)
    snapshots = [r for r in recorder.records if r.kind == "net-rates"]
    flow = snapshots[0].payload["flows"][0]
    assert flow[2] == 30.0  # the per-stream cap binds, not bus / 2
    assert flow[4] == tuple(sorted([(bus.id, 2), (nic.id, 1)]))
    assert lint_trace(recorder.records) == []


def test_cancel_of_inactive_transfer_is_rejected():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    done = net.transfer([link], size=100.0)
    (t,) = net.active_transfers
    sim.run_until_complete(done)
    with pytest.raises(SimulationError):
        net.cancel(t)


def test_link_load_counts_only_the_links_users_with_multiplicity():
    sim, net = make_net()
    bus = FluidLink("bus", capacity=100.0)
    other = FluidLink("other", capacity=10.0)
    net.transfer([bus, bus], size=1e6)
    net.transfer([other], size=1e6)
    sim.run(until=1.0)
    assert net.link_load(bus) == 100.0  # one flow at 50 B/s, crossing twice
    assert net.link_load(other) == 10.0
    assert net.link_load(FluidLink("idle", capacity=1.0)) == 0


# -- property-based invariants ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6),
    capacity=st.floats(min_value=1.0, max_value=1e5),
)
def test_shared_link_conserves_bytes_and_time(sizes, capacity):
    """Total completion time on one shared link is at least sum(sizes)/capacity,
    and all bytes are delivered exactly."""
    sim, net = make_net()
    link = FluidLink("l", capacity=capacity)
    events = [net.transfer([link], size=s) for s in sizes]
    for e in events:
        sim.run_until_complete(e)
    assert sim.now >= sum(sizes) / capacity - 1e-6
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    capacity=st.floats(min_value=10.0, max_value=1e4),
)
def test_equal_flows_finish_together(n, capacity):
    """n identical flows on one link are served max-min fairly: all finish at
    n*size/capacity simultaneously."""
    sim, net = make_net()
    link = FluidLink("l", capacity=capacity)
    size = 1000.0
    events = [net.transfer([link], size=size) for _ in range(n)]
    finish = [sim.run_until_complete(e).finish_time for e in events]
    expected = n * size / capacity
    for f in finish:
        assert f == pytest.approx(expected, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=5),
)
def test_rates_respect_link_capacity(caps):
    """At any observation instant, aggregate rate on each link is within
    capacity."""
    sim, net = make_net()
    links = [FluidLink(f"l{i}", capacity=c) for i, c in enumerate(caps)]
    for i in range(len(links)):
        net.transfer(links[i : i + 2], size=1e5)
    sim.run(until=1.0)
    for link in links:
        assert net.link_load(link) <= link.capacity * (1 + 1e-9)


# -- byte accounting ------------------------------------------------------------


def test_bytes_are_credited_once_at_completion_with_multiplicity():
    """Nothing is credited while a transfer streams (settling touches no
    link); at completion each link gains exactly ``size × multiplicity``."""
    sim, net = make_net()
    bus = FluidLink("bus", capacity=100.0)
    nic = FluidLink("nic", capacity=30.0)
    size = 1000.1
    done = net.transfer([bus, nic, bus], size=size)
    sim.run(until=10.0)
    assert (bus.bytes_carried, nic.bytes_carried) == (0.0, 0.0)
    sim.run_until_complete(done)
    assert bus.bytes_carried == 2 * size
    assert nic.bytes_carried == size


def test_cancel_credits_exactly_the_bytes_moved():
    sim, net = make_net()
    bus = FluidLink("bus", capacity=70.0)
    done = net.transfer([bus, bus], size=1000.0)
    done.add_callback(lambda _evt: None)  # the cancel fails it
    sim.run(until=3.3)
    (t,) = net.active_transfers
    net.cancel(t)
    assert 0.0 < t.remaining < t.size
    assert bus.bytes_carried == 2 * (t.size - t.remaining)


# -- latency -------------------------------------------------------------------


def test_path_latency_counts_each_distinct_link_once():
    """A bus crossed twice consumes its capacity twice but adds its latency
    once (the path latency sums *distinct* links)."""
    sim, net = make_net()
    bus = FluidLink("bus", capacity=100.0, latency=1.5)
    nic = FluidLink("nic", capacity=100.0, latency=0.25)
    done = net.transfer([bus, nic, bus], size=100.0)
    t = sim.run_until_complete(done)
    assert t.start_time == 1.75
    assert t.finish_time == pytest.approx(1.75 + 2.0)


# -- non-finite inputs ---------------------------------------------------------


def test_nan_capacity_is_rejected():
    with pytest.raises(SimulationError, match="link bad: capacity nan"):
        FluidLink("bad", capacity=math.nan)


def test_set_capacity_to_nan_is_rejected():
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0)
    with pytest.raises(SimulationError, match="link l: capacity nan"):
        net.set_capacity(link, math.nan)
    assert link.capacity == 100.0


def test_nan_latency_is_rejected():
    with pytest.raises(SimulationError, match="link bad: latency nan"):
        FluidLink("bad", capacity=100.0, latency=math.nan)


def test_nan_extra_latency_is_rejected():
    """NaN, and a negative value, which would start the transfer before
    its path latency has passed (or hide under an empty path's clamp)."""
    sim, net = make_net()
    link = FluidLink("l", capacity=100.0, latency=1.0)
    for bad in (math.nan, -5.0):
        for path in ([link], []):
            with pytest.raises(SimulationError, match=rf"extra latency {bad!r} is not finite"):
                net.transfer(path, size=100.0, extra_latency=bad)
    assert sim.peek() == math.inf


def test_nan_per_stream_cap_is_rejected():
    with pytest.raises(SimulationError, match="link bad: per-stream cap nan"):
        FluidLink("bad", capacity=100.0, per_stream_cap=math.nan)


@pytest.mark.parametrize("size", [math.nan, math.inf])
def test_non_finite_size_is_rejected(size):
    sim, net = make_net()
    a, b = FluidLink("a", capacity=100.0), FluidLink("b", capacity=100.0)
    with pytest.raises(SimulationError, match=r"transfer over \[a, b\]: size"):
        net.transfer([a, b], size=size)
    assert not net.active_transfers


def test_infinite_capacity_and_stream_cap_stay_legal():
    sim, net = make_net()
    free = FluidLink("free", capacity=math.inf, per_stream_cap=math.inf)
    slow = FluidLink("slow", capacity=50.0)
    done = net.transfer([free, slow], size=100.0)
    sim.run_until_complete(done)
    assert sim.now == 2.0


def test_hand_built_links_take_ids_from_the_network_that_carries_them():
    sim, net = make_net()
    a, b = FluidLink("a", capacity=100.0), FluidLink("b", capacity=100.0)
    assert a.id is None and b.id is None
    net.transfer([b, a], size=100.0)
    assert (b.id, a.id) == (0, 1)
    assert net.next_link_id() == 2
    net.transfer([a], size=100.0)
    assert a.id == 1
    sim.run()


def test_transfer_ids_count_per_network():
    for _ in range(2):
        sim, net = make_net()
        link = FluidLink("l", capacity=100.0)
        first = net.transfer([link], size=100.0)
        second = net.transfer([link], size=100.0)
        sim.run()
        assert (first.value.id, second.value.id) == (0, 1)
