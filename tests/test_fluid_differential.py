"""Differential harness for the incremental fluid solver.

Two equivalence claims lock the incremental recompute
(`FluidNetwork._assign_rates` re-solving only dirty connected components)
to its references:

* **vs. the joint solve** — at every recompute point of a randomized
  multi-component run, the per-transfer rates match
  :func:`repro.simulation.fluid.solve_rates_reference` (one progressive
  filling over *all* active transfers jointly, the pre-incremental
  semantics) to within 1e-9. Per-component filling takes different float
  paths than the joint solve, so agreement is near-exact, not bitwise.
* **vs. from-scratch per-component mode** — replaying the same event
  script with ``incremental=False`` (every component re-solved on every
  recompute) produces **exactly** the same per-link ``bytes_carried``,
  completion times and final clock, bit for bit. This is the property
  that makes it safe to ship the incremental solver as the default.

* **class kernel vs. the per-transfer fill, bitwise** — on one connected
  component (found here by union-find over ``Transfer.links``, not by the
  network's own tracking) the rates the network assigned equal
  :func:`solve_rates_reference` of the same members with ``==``, and do
  not move under a shuffle of activation order. The reference keeps one
  row per transfer and rebuilds the incidence from ``links``; the network
  solves one row per interned path class.

Event scripts are hypothesis-generated: interleaved transfer starts
(random paths over a shared pool of links, so components merge), early
cancels, and mid-flight ``set_capacity`` shaping (including to zero),
with random inter-event delays.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import FluidLink, FluidNetwork, Simulator
from repro.simulation.fluid import solve_rates_reference

#: Tolerance of the incremental-vs-joint comparison (relative and absolute).
TOLERANCE = 1e-9


class DifferentialNetwork(FluidNetwork):
    """A network that checks every recompute against the joint solve."""

    def __init__(self, sim, incremental=None):
        super().__init__(sim, incremental=incremental)
        self.recompute_points = 0

    def _assign_rates(self):
        super()._assign_rates()
        if not self._active:
            return
        self.recompute_points += 1
        reference = solve_rates_reference(self._active)
        for transfer, expected in zip(self._active, reference):
            assert transfer.rate == pytest.approx(
                expected, rel=TOLERANCE, abs=TOLERANCE
            ), (
                f"incremental rate {transfer.rate!r} diverged from joint "
                f"reference {expected!r} at t={self.sim.now!r}"
            )


# -- script generation ---------------------------------------------------------

_link_caps = st.lists(
    st.floats(min_value=1.0, max_value=1000.0), min_size=2, max_size=6
)

_op = st.one_of(
    st.tuples(
        st.just("start"),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
        st.floats(min_value=1.0, max_value=500.0),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("setcap"),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
)

_script = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0), _op),
    min_size=3,
    max_size=14,
)


def _run_script(capacities, script, network_cls=FluidNetwork, incremental=None):
    """Replay one generated event script; returns its observable outcome."""
    sim = Simulator()
    net = network_cls(sim, incremental=incremental)
    links = [
        FluidLink(f"l{i}", capacity=cap) for i, cap in enumerate(capacities)
    ]
    started = []

    def runner(sim):
        for delay, op in script:
            yield sim.timeout(delay)
            if op[0] == "start":
                _kind, path, size = op
                chosen = [links[i % len(links)] for i in path]
                event = net.transfer(chosen, size=size, tag=f"t{len(started)}")
                # Consume the completion event: cancels fail it, and an
                # unobserved failure aborts the simulation by design.
                event.add_callback(lambda _evt: None)
                started.append(net.active_transfers[-1])
            elif op[0] == "cancel":
                _kind, idx = op
                active = net.active_transfers
                if active:
                    net.cancel(active[idx % len(active)])
            else:
                _kind, idx, capacity = op
                net.set_capacity(links[idx % len(links)], capacity)

    sim.process(runner(sim))
    sim.run()
    return {
        "now": sim.now,
        "bytes": {link.name: link.bytes_carried for link in links},
        "finishes": [(t.tag, t.finish_time) for t in started],
        "completed": net.completed_transfers,
        "net": net,
    }


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_incremental_rates_match_joint_reference(capacities, script):
    """Every incremental recompute agrees with the joint solve to 1e-9."""
    outcome = _run_script(
        capacities, script, network_cls=DifferentialNetwork, incremental=True
    )
    # The assertion lives inside DifferentialNetwork._assign_rates; make
    # sure the script actually exercised it.
    if any(op[0] == "start" for _delay, op in script):
        assert outcome["net"].recompute_points > 0


@settings(max_examples=60, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_incremental_run_is_bit_identical_to_from_scratch(capacities, script):
    """Same script, both modes: bytes and completion times match exactly."""
    incremental = _run_script(capacities, script, incremental=True)
    scratch = _run_script(capacities, script, incremental=False)
    assert incremental["now"] == scratch["now"]
    assert incremental["completed"] == scratch["completed"]
    assert incremental["bytes"] == scratch["bytes"]  # exact, not approx
    assert incremental["finishes"] == scratch["finishes"]


@settings(max_examples=30, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_from_scratch_mode_matches_joint_reference_too(capacities, script):
    """The reference mode itself stays within 1e-9 of the joint solve."""
    _run_script(
        capacities, script, network_cls=DifferentialNetwork, incremental=False
    )


# -- class kernel vs. per-transfer reference, bitwise ------------------------------


def _components(transfers):
    """Connected components of the transfer↔link sharing graph, computed
    from ``Transfer.links`` alone (independent of the network's tracking)."""
    root = {}

    def find(link):
        while root.setdefault(link, link) is not link:
            root[link] = root[root[link]]
            link = root[link]
        return link

    for t in transfers:
        first = find(t.links[0])
        for link in t.links[1:]:
            root[find(link)] = first
    groups = {}
    for t in transfers:
        groups.setdefault(find(t.links[0]), []).append(t)
    return list(groups.values())


def _assert_bitwise_per_component(transfers):
    for members in _components(transfers):
        assert [t.rate for t in members] == solve_rates_reference(members)


class BitwiseNetwork(FluidNetwork):
    """A network that checks every recompute, component by component,
    against the per-transfer reference with ``==``."""

    def _assign_rates(self):
        super()._assign_rates()
        _assert_bitwise_per_component(self.active_transfers)


_capacity = st.one_of(
    st.floats(min_value=1.0, max_value=1000.0),
    st.just(0.0),
    st.just(math.inf),
)
_stream_cap = st.one_of(st.just(math.inf), st.floats(min_value=0.5, max_value=500.0))

#: (link pool, distinct paths over it, one path index per transfer): few
#: paths and many transfers, so classes have several members; a path may
#: repeat a link (a bus crossed twice, multiplicity 2).
_component_case = st.tuples(
    st.lists(st.tuples(_capacity, _stream_cap), min_size=1, max_size=5),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=24),
).flatmap(
    lambda case: st.tuples(st.just(case), st.permutations(range(len(case[2]))))
)


def _solve_at_once(link_specs, paths, members, order):
    """Activate ``members`` (indices into ``paths``) at t=0 in ``order``;
    returns the transfers in *member* order after the one solve."""
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [
        FluidLink(f"l{i}", capacity=capacity, per_stream_cap=cap)
        for i, (capacity, cap) in enumerate(link_specs)
    ]
    transfers = [None] * len(members)
    for position in order:
        path = paths[members[position] % len(paths)]
        # A fresh list per call: equal paths must still land in one class.
        net.transfer([links[i % len(links)] for i in path], size=1000.0)
        transfers[position] = net.active_transfers[-1]
    sim.run(until=0.0)
    return transfers


# An all-``inf`` component makes the reference's array update compute
# ``inf - inf`` on its way to the (equal) ``inf`` rates.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=_component_case)
def test_class_kernel_equals_per_transfer_reference_bitwise(case):
    """Shared and distinct paths, multiplicity-2 crossings, finite stream
    caps, zero- and inf-capacity links: ``==`` to the reference, and the
    same bits whatever order the members were activated in."""
    (link_specs, paths, members), order = case
    in_order = _solve_at_once(link_specs, paths, members, range(len(members)))
    _assert_bitwise_per_component(in_order)
    shuffled = _solve_at_once(link_specs, paths, members, order)
    assert [t.rate for t in shuffled] == [t.rate for t in in_order]


@settings(max_examples=60, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_every_recompute_is_bitwise_equal_per_component(capacities, script):
    """Through merges, splits, cancels and shaping, every component's
    rates equal the per-transfer fill of its members with ``==``."""
    _run_script(capacities, script, network_cls=BitwiseNetwork)


def test_inf_capacity_link_saturates_in_round_one():
    """The quirk the collapse must keep: an ``inf``-capacity link counts as
    saturated after the first filling round (``inf <= eps * inf``), so a
    flow crossing only it freezes at the round-one increment set by
    *other* flows' bottleneck instead of running unbounded."""
    infinite = FluidLink("inf", capacity=math.inf)
    narrow = FluidLink("narrow", capacity=100.0)
    sim = Simulator()
    net = FluidNetwork(sim)
    for _ in range(2):
        net.transfer([infinite, narrow], size=1000.0)
    net.transfer([infinite], size=1000.0)
    sim.run(until=0.0)
    active = net.active_transfers
    assert [t.rate for t in active] == [50.0, 50.0, 50.0]
    assert [t.rate for t in active] == solve_rates_reference(active)


def test_incremental_is_the_default():
    sim = Simulator()
    assert FluidNetwork(sim).incremental is True


def test_reference_solver_matches_trivial_closed_form():
    """Two flows on one 100 B/s link: the joint reference gives 50/50."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = FluidLink("l", capacity=100.0)
    net.transfer([link], size=1000.0)
    net.transfer([link], size=1000.0)
    sim.run(until=1.0)
    rates = solve_rates_reference(net.active_transfers)
    assert rates == pytest.approx([50.0, 50.0])
    assert all(not math.isnan(r) for r in rates)


def test_component_isolation_freezes_untouched_rates():
    """Churn on one link must not re-rate flows on a disjoint link."""
    sim = Simulator()
    net = FluidNetwork(sim)
    left = FluidLink("left", capacity=100.0)
    right = FluidLink("right", capacity=100.0)
    net.transfer([left], size=10_000.0)
    sim.run(until=1.0)
    (steady,) = net.active_transfers
    rate_before = steady.rate
    # Start and finish a burst of flows on the other component.
    for _ in range(3):
        net.transfer([right], size=10.0)
    sim.run(until=2.0)
    assert steady.rate == rate_before  # bitwise frozen, not approx
