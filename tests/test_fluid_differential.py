"""Differential harness for the incremental fluid solver.

Two equivalence claims lock the incremental recompute
(`FluidNetwork._assign_rates` re-solving only dirty connected components)
to its references:

* **vs. the joint solve** — at every recompute point of a randomized
  multi-component run, the per-transfer rates match
  :func:`tests.fluid_oracle.solve_rates_reference` (one progressive
  filling over *all* active transfers jointly, the pre-incremental
  semantics) to within 1e-9. Per-component filling takes different float
  paths than the joint solve, so agreement is near-exact, not bitwise.
* **vs. a from-scratch per-component re-solve** — replaying the same
  event script on :class:`tests.fluid_oracle.FromScratchNetwork` (every
  component re-solved on every recompute, without the fill memo)
  produces **exactly** the same per-link ``bytes_carried``, completion
  times and final clock, bit for bit. This is the property that makes it
  safe to re-solve only the dirty components.

* **class kernel vs. the per-transfer fill, bitwise** — on one connected
  component (found here by union-find over ``Transfer.links``, not by the
  network's own tracking) the rates the network assigned equal
  :func:`solve_rates_reference` of the same members with ``==``, and do
  not move under a shuffle of activation order. The reference keeps one
  row per transfer and rebuilds the incidence from ``links``; the network
  solves one row per interned path class, through its fill memo.

* **class groups** — through merges, splits, cancels and shaping, every
  member's ``rate`` equals its group's at every settle point, and the
  network's components partition the active transfers exactly as the
  union-find does (so no group spans two components).

* **cohorts vs. one cohort per transfer, bitwise** — a network that keeps
  a class's members in cohorts of bit-equal ``remaining`` finishes every
  transfer at the same time, with the same ``remaining`` and ``rate``
  read during and after it, and credits every link the same bytes, as
  :class:`tests.fluid_oracle.PerMemberNetwork`, which settles each
  member by itself.

Event scripts are hypothesis-generated: interleaved transfer starts
(random paths over a shared pool of links, so components merge), early
cancels, and mid-flight ``set_capacity`` shaping (including to zero),
with random inter-event delays.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import FluidLink, FluidNetwork, Simulator, fluid

from .fluid_oracle import FromScratchNetwork, PerMemberNetwork, solve_rates_reference

#: Tolerance of the incremental-vs-joint comparison (relative and absolute).
TOLERANCE = 1e-9


class DifferentialNetwork(FluidNetwork):
    """A network that checks every recompute against the joint solve."""

    def __init__(self, sim):
        super().__init__(sim)
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
                f"rate {transfer.rate!r} diverged from joint "
                f"reference {expected!r} at t={self.sim.now!r}"
            )


class ScratchDifferentialNetwork(DifferentialNetwork, FromScratchNetwork):
    """The joint-solve check over the from-scratch re-solve."""


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


def _run_script(capacities, script, network_cls=FluidNetwork, stream_caps=()):
    """Replay one generated event script; returns its observable outcome."""
    sim = Simulator()
    net = network_cls(sim)
    links = [
        FluidLink(
            f"l{i}",
            capacity=cap,
            per_stream_cap=stream_caps[i] if i < len(stream_caps) else math.inf,
        )
        for i, cap in enumerate(capacities)
    ]
    started = []
    # cancelled transfer -> the instant of its cancel
    cancelled = {}

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
                    victim = active[idx % len(active)]
                    net.cancel(victim)
                    cancelled[victim] = sim.now
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
        "started": started,
        "cancelled": cancelled,
    }


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_incremental_rates_match_joint_reference(capacities, script):
    """Every incremental recompute agrees with the joint solve to 1e-9."""
    outcome = _run_script(capacities, script, network_cls=DifferentialNetwork)
    # The assertion lives inside DifferentialNetwork._assign_rates; make
    # sure the script actually exercised it. A transfer cancelled at its
    # own start instant is gone before that instant's one solve, so only
    # a transfer that outlives its start instant guarantees a point.
    cancelled = outcome["cancelled"]
    if any(cancelled.get(t) != t.start_time for t in outcome["started"]):
        assert outcome["net"].recompute_points > 0


@settings(max_examples=60, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_incremental_run_is_bit_identical_to_from_scratch(capacities, script):
    """Same script, both re-solves: bytes and completion times match exactly."""
    incremental = _run_script(capacities, script)
    scratch = _run_script(capacities, script, network_cls=FromScratchNetwork)
    assert incremental["now"] == scratch["now"]
    assert incremental["completed"] == scratch["completed"]
    assert incremental["bytes"] == scratch["bytes"]  # exact, not approx
    assert incremental["finishes"] == scratch["finishes"]


@settings(max_examples=30, deadline=None)
@given(capacities=_link_caps, script=_script)
def test_from_scratch_mode_matches_joint_reference_too(capacities, script):
    """The from-scratch reference itself stays within 1e-9 of the joint solve."""
    _run_script(capacities, script, network_cls=ScratchDifferentialNetwork)


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


# -- fill memo ------------------------------------------------------------------

#: Three paths over three links, all sharing one link or another, so any
#: non-empty mix of them is one multi-class component.
_SHARED_PATHS = ((0, 1), (1, 2), (2,))

_finite_capacity = st.floats(min_value=1.0, max_value=1000.0)


def _start_wave(net, links, counts, size=1e9):
    """Start ``counts[i]`` transfers down ``_SHARED_PATHS[i]``; returns them
    once solved. Their events are consumed so a cancel can fail them."""
    for path, count in zip(_SHARED_PATHS, counts):
        for _ in range(count):
            net.transfer([links[i] for i in path], size=size).add_callback(
                lambda _evt: None
            )
    net.sim.run(until=net.sim.now)
    return net.active_transfers


def _fresh_rates(capacities, counts):
    """The same wave on a fresh network (and so an empty memo)."""
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [FluidLink(f"l{i}", capacity=c) for i, c in enumerate(capacities)]
    return [t.rate for t in _start_wave(net, links, counts)]


@settings(max_examples=60, deadline=None)
@given(
    capacities=st.lists(_finite_capacity, min_size=3, max_size=3),
    counts=st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
    which=st.integers(min_value=0, max_value=2),
    reshaped=_finite_capacity,
)
def test_class_set_rebuilt_after_set_capacity_gets_the_new_rates(
    capacities, counts, which, reshaped
):
    """A wave solved (and memoised), cancelled, then rebuilt identically
    after ``set_capacity``: the rebuilt wave presents the same memo key,
    and must still get the new capacity's rates — ``==`` to the oracle
    and to a fresh network that never saw the old capacity."""
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [FluidLink(f"l{i}", capacity=c) for i, c in enumerate(capacities)]
    first = _start_wave(net, links, counts)
    _assert_bitwise_per_component(first)
    for t in first:
        net.cancel(t)
    net.set_capacity(links[which], reshaped)
    again = _start_wave(net, links, counts)
    _assert_bitwise_per_component(again)
    capacities[which] = reshaped
    assert [t.rate for t in again] == _fresh_rates(capacities, counts)


def test_identical_class_set_is_filled_once(monkeypatch):
    """Rebuilding the same (class, count) set hits the memo: one fill."""
    calls = []
    original = fluid._fill_classes

    def counting(classes):
        calls.append(len(classes))
        return original(classes)

    monkeypatch.setattr(fluid, "_fill_classes", counting)
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [FluidLink(f"l{i}", capacity=c) for i, c in enumerate((30.0, 70.0, 50.0))]
    first = _start_wave(net, links, (2, 1, 3))
    rates = [t.rate for t in first]
    for t in first:
        net.cancel(t)
    again = _start_wave(net, links, (2, 1, 3))
    assert [t.rate for t in again] == rates
    assert calls == [3]
    assert len(net._fill_memo) == 1


def test_fill_memo_is_bounded(monkeypatch):
    """Past its fixed size the memo starts over; rates stay exact."""
    monkeypatch.setattr(fluid, "_FILL_MEMO_ENTRIES", 2)
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [FluidLink(f"l{i}", capacity=c) for i, c in enumerate((30.0, 70.0, 50.0))]
    for counts in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)):
        wave = _start_wave(net, links, counts)
        _assert_bitwise_per_component(wave)
        assert 1 <= len(net._fill_memo) <= 2
        for t in wave:
            net.cancel(t)


# -- class groups ---------------------------------------------------------------


def _assert_groups_consistent(net):
    """Every live group is its class's only group, sits in its component,
    and holds its members; the network's components partition the active
    transfers exactly as an independent union-find over links does."""
    for path, group in net._groups.items():
        assert group.path is path and group.count
        assert group.count == sum(len(cohort.members) for cohort in group.cohorts)
        assert group in group.comp.groups
        for cohort in group.cohorts:
            assert cohort.members
            for t in cohort.members:
                assert t._group is group and t._cohort is cohort
    ours = {}
    for t in net.active_transfers:
        ours.setdefault(id(t._group.comp), set()).add(t.id)
    expected = [{t.id for t in members} for members in _components(net.active_transfers)]
    assert sorted(map(sorted, ours.values())) == sorted(map(sorted, expected))


class GroupCheckNetwork(FluidNetwork):
    """A network that checks the group invariants at every settle point
    and after every rate assignment."""

    def _settle_progress(self):
        for group in self._groups.values():
            for cohort in group.cohorts:
                assert all(t.rate == group.rate for t in cohort.members)
                assert all(t.remaining == cohort.remaining for t in cohort.members)
        super()._settle_progress()

    def _assign_rates(self):
        super()._assign_rates()
        _assert_groups_consistent(self)


@settings(max_examples=80, deadline=None)
@given(
    capacities=_link_caps,
    stream_caps=st.lists(
        st.one_of(st.just(math.inf), st.floats(min_value=0.5, max_value=50.0)),
        max_size=6,
    ),
    script=_script,
)
def test_members_carry_their_groups_rate_through_merges_and_splits(
    capacities, stream_caps, script
):
    """Finite per-stream caps make a group's rate survive a newcomer
    joining, so a newcomer that did not copy it would be caught."""
    _run_script(capacities, script, GroupCheckNetwork, stream_caps=stream_caps)


# -- cohorts --------------------------------------------------------------------


class _Reads:
    """Records what a transfer reads as when it starts, ends or is cancelled
    (the moments the telemetry bridge and ``TraceRecorder`` read it)."""

    wants_rates = False

    def __init__(self):
        self.log = []

    def flow_started(self, t, now):
        self.log.append(("start", t.tag, now, t.remaining, t.rate))

    def flow_ended(self, t, now):
        self.log.append(("end", t.tag, now, t.remaining, t.rate))

    def flow_cancelled(self, t, now):
        self.log.append(("cancel", t.tag, now, t.remaining, t.rate))


class _ForceCounting:
    """Counts the flushes that took the force-complete path."""

    def __init__(self, sim):
        super().__init__(sim)
        self.forced = 0

    def _force_complete(self):
        self.forced += 1
        super()._force_complete()


class CountingNetwork(_ForceCounting, FluidNetwork):
    pass


class CountingPerMember(_ForceCounting, PerMemberNetwork):
    pass


#: Few sizes, so equal-size joins are common; one is under the
#: completion threshold.
_cohort_size = st.sampled_from([1e-7, 64.0, 100.0, 100.0, 250.0, 333.3])

_cohort_op = st.one_of(
    # ``copies`` equal-size transfers down one path at one instant.
    st.tuples(
        st.just("burst"),
        st.integers(min_value=0, max_value=3),
        _cohort_size,
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=15)),
    st.tuples(
        st.just("setcap"),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0.0, 0.0, 1.0, 30.0, 100.0, 997.0]),
    ),
)

_cohort_script = st.tuples(
    # A clock far from zero makes completions fall below its resolution.
    st.sampled_from([0.0, 1e9]),
    # Few capacities and caps, so classes on disjoint links often move at
    # one rate and finish at one instant.
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([30.0, 100.0]), st.floats(min_value=1.0, max_value=1000.0)),
            st.sampled_from([math.inf, math.inf, 7.0, 50.0]),
        ),
        min_size=3,
        max_size=3,
    ),
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.75]), _cohort_op),
        min_size=2,
        max_size=16,
    ),
)

#: Paths over the three links; path 3 shares both of path 0's links.
_COHORT_PATHS = ((0,), (1,), (0, 2), (0, 2, 1))


def _run_cohort_script(network_cls, start, link_specs, script):
    sim = Simulator()
    net = network_cls(sim)
    reads = _Reads()
    net.attach_recorder(reads)
    links = [
        FluidLink(f"l{i}", capacity=capacity, per_stream_cap=cap)
        for i, (capacity, cap) in enumerate(link_specs)
    ]
    started = []
    done = []
    during = []

    def finished(outcome):
        if isinstance(outcome, BaseException):
            done.append(("cancelled", str(outcome), sim.now))
        else:
            done.append((outcome.tag, sim.now))

    def runner(sim):
        yield sim.timeout(start)
        for delay, op in script:
            yield sim.timeout(delay)
            during.append([(t.tag, t.remaining, t.rate) for t in net.active_transfers])
            if op[0] == "burst":
                _kind, path, size, copies = op
                for _ in range(copies):
                    tag = f"t{len(started)}"
                    path_links = [links[i] for i in _COHORT_PATHS[path]]
                    net.transfer(path_links, size, tag=tag, callback=finished)
                    started.append(tag)
            elif op[0] == "cancel":
                active = net.active_transfers
                if active:
                    net.cancel(active[op[1] % len(active)])
            else:
                _kind, idx, capacity = op
                net.set_capacity(links[idx], capacity)
        # Whatever a zero-capacity link still blocks ends here.
        yield sim.timeout(1e4)
        for t in net.active_transfers:
            net.cancel(t)

    sim.process(runner(sim))
    sim.run()
    return {
        "now": sim.now,
        "bytes": [link.bytes_carried for link in links],
        "done": done,
        "during": during,
        "reads": reads.log,
        "completed": net.completed_transfers,
        "forced": net.forced,
    }


@settings(max_examples=120, deadline=None)
@given(case=_cohort_script)
def test_cohorts_equal_one_cohort_per_transfer_bitwise(case):
    """Equal-size joins at one instant, staggered joins, zero-rate classes,
    the force-complete path and cancels of single cohort members: every
    finish time, every ``remaining`` and ``rate`` read during a transfer
    and when it ends or is cancelled, and every link's ``bytes_carried``
    equal the one-cohort-per-transfer network's with ``==``, and both
    take the force-complete path as often."""
    start, link_specs, script = case
    ours = _run_cohort_script(CountingNetwork, start, link_specs, script)
    reference = _run_cohort_script(CountingPerMember, start, link_specs, script)
    assert ours == reference


def test_cohort_scripts_reach_the_force_complete_path():
    """A burst of equal chunks far from clock zero: completions land below
    the clock's resolution, and both networks force them alike."""
    script = [
        (0.0, ("burst", 0, 64.0, 3)),
        (0.5, ("burst", 2, 64.0, 2)),
        (0.0, ("cancel", 3)),
    ]
    specs = [(997.0, math.inf), (30.0, math.inf), (100.0, 7.0)]
    ours = _run_cohort_script(CountingNetwork, 1e9, specs, script)
    reference = _run_cohort_script(CountingPerMember, 1e9, specs, script)
    assert ours["forced"] > 0
    assert ours == reference


def test_same_instant_finishes_complete_in_activation_order():
    """Two classes at one capped rate: the later class's member started
    first, so it completes first, as in the one-cohort-per-transfer scan."""
    script = [
        (0.0, ("burst", 0, 64.0, 1)),
        (0.0, ("burst", 1, 100.0, 1)),
        (0.0, ("burst", 0, 100.0, 1)),
    ]
    specs = [(1000.0, 7.0), (1000.0, 7.0), (100.0, math.inf)]
    ours = _run_cohort_script(CountingNetwork, 0.0, specs, script)
    assert [tag for tag, _time in ours["done"]] == ["t0", "t1", "t2"]
    assert ours == _run_cohort_script(CountingPerMember, 0.0, specs, script)


def test_equal_chunks_share_one_cohort():
    """Same-instant equal-size joins share a cohort; a staggered join of
    the same size starts its own, since the first have moved bytes."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = FluidLink("l", capacity=100.0)
    for _ in range(3):
        net.transfer([link], 1000.0)
    sim.run(until=1.0)
    net.transfer([link], 1000.0)
    sim.run(until=1.0)
    (group,) = net._groups.values()
    assert [len(cohort.members) for cohort in group.cohorts] == [3, 1]
    assert [cohort.remaining for cohort in group.cohorts] == [1000.0 - 100.0 / 3, 1000.0]


def test_transfer_reads_the_same_after_it_leaves():
    """A cancelled member keeps the ``remaining`` and ``rate`` it had when
    it was cancelled; its cohort mates move on."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = FluidLink("l", capacity=100.0)
    events = [net.transfer([link], 1000.0) for _ in range(2)]
    for event in events:
        event.add_callback(lambda _event: None)
    sim.run(until=2.0)
    victim, mate = net.active_transfers
    net.cancel(victim)
    assert (victim.remaining, victim.rate) == (900.0, 50.0)
    sim.run(until=3.0)
    assert (victim.remaining, victim.rate) == (900.0, 50.0)
    assert mate.rate == 100.0
    sim.run()
    assert (mate.remaining, mate.rate, mate.finish_time) == (0.0, 100.0, 11.0)
