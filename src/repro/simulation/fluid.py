"""Fluid-flow network model with max-min fair bandwidth sharing.

Data movement in the simulated cluster is modelled at flow granularity: a
*transfer* pushes ``size`` bytes across a sequence of links, first paying
the path latency (the α part of the α–β model), then streaming at a rate
determined by progressive-filling max-min fairness across all concurrent
transfers, subject to:

* each link's capacity (shared by every transfer crossing it), and
* each link's optional *per-stream cap* — the maximum rate one transfer can
  achieve on that link regardless of idle capacity. This models the paper's
  observation that a single TCP channel peaks around 20 Gbps on a 100 Gbps
  NIC; launching parallel sub-collectives (more streams) recovers the
  capacity, which is exactly what AdapCC's M>1 does.

Rates are recomputed whenever the set of active transfers or a link
capacity changes; between recomputations rates are constant, so transfer
completions are exact (no time-stepping error).

Recomputation is *incremental* (DESIGN.md §11): the network maintains the
connected components of the transfer↔link sharing graph, and a flow
start/end/cancel or capacity change re-solves only the component it
touches. Untouched components keep their frozen rates — which is safe
bit-for-bit, not just mathematically, because the per-component solver is
deterministic in its inputs, so a re-solve of an unchanged component
would reproduce the frozen value exactly. The differential suite holds
the network to a subclass that re-solves every component from scratch,
without the fill memo, at every recompute point, and to the original
per-transfer progressive-filling solve; both are kept as oracles in
``tests/fluid_oracle.py``.

The per-component solver works on *path classes*, not transfers: chunk
pipelining puts many transfers on few distinct paths, transfers sharing a
path (and hence a per-stream cap) get the same max-min rate by symmetry,
and because the per-link user sums are integer-valued the collapse is
exact to the last bit and independent of member order (DESIGN.md §11).
Components therefore hold their members as per-class groups, and a
network memoises the class fill by (class, count) multiset, since chunk
waves present the same few sets over and over.

A group keeps its members in *cohorts* of bit-equal ``remaining``: equal
values under the same sequence of settles stay equal, so settling, the
finished scan and the earliest-finish prediction walk cohorts, not
members (DESIGN.md §11). A transfer completes through one path: its
callback is queued in the NORMAL slot at the current instant that
``event.succeed()`` would take, with the transfer (or, on a cancel, the
error). The chunk executor passes a callback and so builds no
:class:`~repro.simulation.engine.Event` per chunk; a caller that passes
none gets a completion event, completed through the same path.
"""

from __future__ import annotations

import itertools
import math
from array import array
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.simulation.engine import LATE, NORMAL, Event, Simulator

_EPS = 1e-12
#: Remaining-bytes tolerance under which a transfer counts as complete.
_DONE_EPS = 1e-6
#: Entries at which a network's fill memo is cleared and starts over.
_FILL_MEMO_ENTRIES = 4096


class FluidLink:
    """A directed link with capacity, per-stream cap, and latency.

    Capacities are in bytes/second; latency in seconds. ``per_stream_cap``
    limits the rate of any single transfer on the link (``inf`` = no cap).
    ``link_id`` comes from the network that carries the link
    (:meth:`FluidNetwork.next_link_id`); a link built without one gets
    its id from the first network it is carried on.
    """

    def __init__(
        self,
        name: str,
        capacity: float,
        latency: float = 0.0,
        per_stream_cap: float = float("inf"),
        link_id: Optional[int] = None,
    ):
        # Negated comparisons, so NaN fails them too.
        if not capacity >= 0:
            raise SimulationError(f"link {name}: capacity {capacity!r} is not >= 0")
        if not 0 <= latency < math.inf:
            raise SimulationError(f"link {name}: latency {latency!r} is not finite and >= 0")
        if not per_stream_cap > 0:
            raise SimulationError(f"link {name}: per-stream cap {per_stream_cap!r} is not > 0")
        self.id = link_id
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.per_stream_cap = per_stream_cap
        #: Cumulative bytes that have crossed this link, credited once per
        #: transfer: its size when it completes, the bytes it moved when
        #: it is cancelled (times the path's multiplicity of the link).
        self.bytes_carried = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FluidLink {self.name} cap={self.capacity:.3g}B/s lat={self.latency:.3g}s>"


class _PathClass:
    """One distinct link sequence, interned per network.

    Everything a transfer's path contributes to the solve that does not
    change after construction — ``per_stream_cap`` and ``latency`` are
    construction-time constants of a link; ``capacity`` is not, and is
    read at solve time — computed once per path instead of once per
    transfer. Immutable: every transfer on the path shares this object.
    """

    __slots__ = ("serial", "links", "multiplicity", "incidence", "stream_cap", "latency")

    def __init__(self, serial: int, links: Tuple[FluidLink, ...]):
        #: Interning order within the network: the path's name in a fill
        #: memo key (stable across runs, unlike ``id()``).
        self.serial = serial
        self.links = links
        #: Multiplicity of each link in the path (a path may cross a shared
        #: bus twice; it then consumes that bus's capacity twice).
        self.multiplicity: Dict[FluidLink, int] = {}
        for link in links:
            self.multiplicity[link] = self.multiplicity.get(link, 0) + 1
        #: ``(link, multiplicity)`` rows, for the per-instant hot loops.
        self.incidence = tuple(self.multiplicity.items())
        #: The rate one transfer can reach on this path however idle it is.
        self.stream_cap = min(
            (link.per_stream_cap / mult for link, mult in self.incidence),
            default=math.inf,
        )
        self.latency = sum(link.latency for link in self.multiplicity)


#: What a finished transfer's callback gets: the transfer, or the error of
#: a cancel.
Outcome = Union["Transfer", BaseException]


class Transfer:
    """An in-flight data movement across a path of links.

    ``transfer_id`` is the carrying network's count of transfers so far.
    ``callback(outcome)`` runs when the transfer finishes or is cancelled;
    ``event`` is the completion event of a transfer started without a
    callback. While the transfer streams, ``remaining`` and ``rate`` are
    its cohort's and its class group's; once it has left the network they
    keep the values they had then.
    """

    __slots__ = (
        "id", "size", "tag", "start_time", "finish_time", "callback", "event",
        "_path", "_group", "_cohort", "_order", "_remaining", "_rate",
    )

    def __init__(
        self,
        transfer_id: int,
        path: _PathClass,
        size: float,
        callback: Callable[[Any], None],
        event: Optional[Event],
        tag: str = "",
    ):
        self.id = transfer_id
        self.size = float(size)
        self.tag = tag
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.callback = callback
        self.event = event
        #: Interned path, class group and cohort, managed by the network.
        self._path = path
        self._group: Optional[_Group] = None
        self._cohort: Optional[_Cohort] = None
        #: Activation order within the network (set when it starts streaming).
        self._order = -1
        self._remaining = self.size
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        """Bytes left to move."""
        cohort = self._cohort
        return self._remaining if cohort is None else cohort.remaining

    @property
    def rate(self) -> float:
        """Current rate in bytes/second (the last one, once it has left)."""
        group = self._group
        return self._rate if group is None else group.rate

    @property
    def links(self) -> List[FluidLink]:
        """The links crossed, in path order."""
        return list(self._path.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transfer #{self.id} {self.tag or 'untagged'} "
            f"{self.remaining:.0f}/{self.size:.0f}B @{self.rate:.3g}B/s>"
        )


class _Cohort:
    """Members of one class group whose ``remaining`` is bit-equal.

    Members of a group move at the group's rate, so two of them with equal
    ``remaining`` subtract the same ``rate * dt`` at every settle and stay
    equal: the cohort settles, finishes and predicts its finish once for
    all of them. ``members`` is in activation order.
    """

    __slots__ = ("remaining", "members")

    def __init__(self, remaining: float, first: Transfer):
        self.remaining = remaining
        self.members = [first]


class _Group:
    """The members of one path class inside one component.

    Members of a class cross the same links, so a class never spans two
    components: a merge moves whole groups and a split hands whole groups
    to the parts. ``rate`` is the class's solved rate, which every member
    reads as its own; ``cohorts`` hold the ``count`` members, each cohort
    made when a member joined with a ``remaining`` unequal to the last
    cohort's.
    """

    __slots__ = ("path", "cohorts", "count", "rate", "comp")

    def __init__(self, path: _PathClass, comp: _Component):
        self.path = path
        self.cohorts: List[_Cohort] = []
        self.count = 0
        self.rate = 0.0
        self.comp = comp


class _Component:
    """One connected component of the transfer↔link sharing graph.

    ``groups`` and ``links`` are insertion-ordered dicts used as ordered
    sets, so every walk over them is deterministic. ``needs_split`` marks
    a component that lost a class and may therefore have disconnected;
    it is re-partitioned lazily at the next solve. (Losing one member of
    a class that keeps others cannot disconnect anything: the class still
    holds every link it held.)
    """

    __slots__ = ("groups", "links", "needs_split")

    def __init__(self) -> None:
        self.groups: Dict[_Group, None] = {}
        self.links: Dict[int, None] = {}
        self.needs_split = False


_serial = attrgetter("path.serial")
_order = attrgetter("_order")
_remaining = attrgetter("remaining")


def _credit(transfer: Transfer, moved: float) -> None:
    """Add ``moved`` bytes of ``transfer`` to each link it crossed."""
    for link, mult in transfer._path.incidence:
        link.bytes_carried += moved * mult


def _names(links: Iterable[FluidLink]) -> str:
    return "[" + ", ".join(link.name for link in links) + "]"


def _fill_classes(classes: Sequence[Tuple[_PathClass, int]]) -> List[float]:
    """Progressive-filling max-min fair rate of each path class.

    ``classes`` pairs every distinct path of one component with its member
    count. Members of a class start at rate 0, gain the same increment
    while unfrozen and freeze on the same condition (a saturated link of
    the shared path, or the shared per-stream cap), so one rate per class
    *is* the per-transfer allocation. A link's users are
    ``sum(count * multiplicity)`` over unfrozen classes — integer-valued,
    hence exact in float64 in any order — and every other reduction is a
    ``min``, so the result does not depend on the order of ``classes`` and
    equals the per-transfer fill (``tests/fluid_oracle.py``) bit for bit.
    It reads nothing but the classes, their counts and the links'
    capacities, which is what makes :class:`FluidNetwork`'s memo of it
    exact. Components hold a handful of classes, where a scalar loop beats
    the call overhead of array rounds.
    """
    slot_of: Dict[FluidLink, int] = {}
    residual: List[float] = []
    sat_floor: List[float] = []
    users: List[int] = []
    rows: List[List[Tuple[int, int]]] = []
    for path, count in classes:
        row = []
        for link, mult in path.incidence:
            slot = slot_of.get(link)
            if slot is None:
                slot = slot_of[link] = len(residual)
                residual.append(link.capacity)
                sat_floor.append(_EPS * max(1.0, link.capacity))
                users.append(0)
            users[slot] += count * mult
            row.append((slot, count * mult))
        rows.append(row)
    caps = [path.stream_cap for path, _count in classes]
    rates = [0.0] * len(rows)
    unfrozen = list(range(len(rows)))
    slots = range(len(residual))

    while True:
        delta = math.inf
        for slot in slots:
            if users[slot]:
                share = residual[slot] / users[slot]
                if share < delta:
                    delta = share
        for c in unfrozen:
            headroom = caps[c] - rates[c]
            if headroom < delta:
                delta = headroom
        if delta < 0:
            delta = 0.0
        if delta > _EPS:
            for c in unfrozen:
                rates[c] += delta
            for slot in slots:
                if users[slot]:
                    residual[slot] -= delta * users[slot]

        still = []
        for c in unfrozen:
            if rates[c] < caps[c] - _EPS:
                for slot, _weight in rows[c]:
                    if residual[slot] <= sat_floor[slot]:
                        break  # crosses a saturated link
                else:
                    still.append(c)
                    continue
            for slot, weight in rows[c]:  # frozen: stops using its links
                users[slot] -= weight
        if len(still) == len(unfrozen):
            if delta <= _EPS:
                break  # nothing can move (e.g. zero-capacity link)
            continue
        unfrozen = still
        if not unfrozen:
            break
    return rates


class FluidNetwork:
    """Tracks active transfers and allocates max-min fair rates.

    One instance serves a whole simulated cluster. All state changes go
    through :meth:`transfer`, :meth:`cancel` and :meth:`set_capacity`, which
    keep the completion timer consistent (and the fill memo valid: a
    link's capacity must not be written any other way).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: In-flight transfers in activation order (dict used as ordered set).
        self._active: Dict[Transfer, None] = {}
        #: Link sequence (by content) -> its interned path class.
        self._paths: Dict[Tuple[FluidLink, ...], _PathClass] = {}
        self._last_update = 0.0
        self._timer_generation = 0
        self._flush_scheduled = False
        self.completed_transfers = 0
        #: Id sources of this network's links and transfers, so ids (and
        #: the ``net-rates`` snapshots that carry them) depend only on what
        #: this network built and carried.
        self._link_ids = itertools.count()
        self._transfer_ids = itertools.count()
        #: Source of ``Transfer._order``: finished transfers complete in it.
        self._activations = itertools.count()
        #: path class -> its group of active members (live classes only).
        self._groups: Dict[_PathClass, _Group] = {}
        #: link id -> groups whose path crosses it, insertion-ordered.
        self._link_users: Dict[int, Dict[_Group, None]] = {}
        #: link id -> owning component, exact at all times.
        self._link_comp: Dict[int, _Component] = {}
        #: A multi-class component's class serials (ascending) then their
        #: member counts, as ``array('q')`` bytes -> the class rates in that
        #: order, as ``array('d')`` bytes (compact: thousands of entries
        #: live at once on a 24-rank AllReduce). Exact because
        #: :func:`_fill_classes` reads only the classes, their counts (both
        #: in the key) and link capacities (the memo is cleared whenever
        #: :meth:`set_capacity` writes one); bounded by clearing it at
        #: ``_FILL_MEMO_ENTRIES``.
        self._fill_memo: Dict[bytes, bytes] = {}
        #: Components needing a re-solve, insertion-ordered (used as set).
        self._dirty: Dict[_Component, None] = {}
        #: component -> predicted absolute time of its earliest member
        #: completion (``inf`` when every member is blocked). An entry is
        #: recomputed only when the component's membership changes (the
        #: entry is popped) or some member's rate changes bitwise — an
        #: unchanged rate keeps the predicted absolute finish exact — so
        #: the cache evolves identically under a from-scratch re-solve
        #: and the completion horizon is a min over components
        #: instead of a scan over every active transfer.
        self._comp_finish: Dict[_Component, float] = {}
        #: Groups with a cohort whose ``remaining`` crossed the completion
        #: threshold since the last finished-scan, insertion-ordered (used
        #: as a set). Filled by settling (the only way remaining
        #: decreases) and by the force-complete path, so the scan visits
        #: these groups only, and an activation-only flush none.
        self._finishing: Dict[_Group, None] = {}
        #: Attached observers implementing the recorder protocol, usually
        #: :class:`repro.simulation.records.TraceRecorder`. Every recorder
        #: gets the typed flow calls ``flow_started(transfer, now)``,
        #: ``flow_ended(transfer, now)`` and ``flow_cancelled(transfer,
        #: now)``; recorders that want it (``wants_rates`` attribute,
        #: default true) also get one ``record(time, "net-rates",
        #: "network", flows=, links=)`` allocation snapshot per recompute
        #: instant, which :mod:`repro.analysis.lint_trace` checks for
        #: capacity and fairness invariants. Use :meth:`attach_recorder` /
        #: :meth:`detach_recorder`.
        self._recorders: List = []
        self._wants_rates = False

    # -- recorder attachment -------------------------------------------------

    def attach_recorder(self, recorder) -> None:
        """Attach one recorder-protocol observer (idempotent)."""
        if recorder is None:
            raise SimulationError("attach_recorder(None); use detach_recorder instead")
        if recorder not in self._recorders:
            self._recorders.append(recorder)
        self._wants_rates = any(
            getattr(rec, "wants_rates", True) for rec in self._recorders
        )

    def detach_recorder(self, recorder) -> None:
        """Detach a previously attached recorder (missing is a no-op)."""
        if recorder in self._recorders:
            self._recorders.remove(recorder)
        self._wants_rates = any(
            getattr(rec, "wants_rates", True) for rec in self._recorders
        )

    # -- public API ----------------------------------------------------------

    def next_link_id(self) -> int:
        """A fresh link id; links are ordered by it in ``net-rates``."""
        return next(self._link_ids)

    def transfer(
        self,
        links: Sequence[FluidLink],
        size: float,
        extra_latency: float = 0.0,
        tag: str = "",
        callback: Optional[Callable[[Outcome], None]] = None,
    ) -> Optional[Event]:
        """Move ``size`` bytes across ``links``.

        The transfer first pays the latency of every *distinct* link on the
        path (a bus crossed twice adds its latency once) plus
        ``extra_latency``, then joins the fluid phase. When it finishes,
        ``callback`` gets the :class:`Transfer` record (with start/finish
        times filled in); when it is cancelled, the error. Without a
        callback, the transfer returns a completion event instead, whose
        value is the record (or which fails with the error).
        """
        key = tuple(links)
        if not 0 <= size < math.inf:
            raise SimulationError(
                f"transfer over {_names(key)}: size {size!r} is not finite and >= 0"
            )
        if not 0 <= extra_latency < math.inf:
            raise SimulationError(
                f"transfer over {_names(key)}: extra latency {extra_latency!r} "
                "is not finite and >= 0"
            )
        if callback is None:
            event: Optional[Event] = Event(self.sim)
            callback = Simulator._dispatch
        else:
            event = None
        path = self._paths.get(key)
        if path is None:
            for link in key:
                if link.id is None:
                    link.id = next(self._link_ids)
            path = self._paths[key] = _PathClass(len(self._paths), key)
        t = Transfer(next(self._transfer_ids), path, size, callback, event, tag=tag)
        if not key:
            # Pure-latency movement (e.g. an intra-GPU copy modelled as free):
            # complete after the latency with no fluid phase.
            self.sim.call_later(extra_latency, self._complete_latency_only, t)
            return event
        latency = path.latency + extra_latency
        if latency > 0:
            self.sim.call_later(latency, self._activate, t)
        else:
            self._activate(t)
        return event

    def cancel(self, transfer: Transfer, reason: Optional[BaseException] = None) -> None:
        """Abort an active transfer, passing the error to its callback.

        A transfer whose bytes ran out at the current instant stays active
        until the instant's flush, which runs after the instant's URGENT
        and NORMAL entries: a cancel from one of them reaches it, fails it
        and credits its links with every byte, as moved.
        """
        if transfer not in self._active:
            raise SimulationError("cancel() of a transfer that is not active")
        self._settle_progress()
        del self._active[transfer]
        cohort = transfer._cohort
        cohort.members.remove(transfer)
        if not cohort.members:
            transfer._group.cohorts.remove(cohort)
        self._component_remove(transfer)
        _credit(transfer, transfer.size - transfer.remaining)
        for rec in self._recorders:
            rec.flow_cancelled(transfer, self.sim.now)
        self._finish(
            transfer, reason or SimulationError(f"transfer {transfer.id} cancelled")
        )
        self._recompute()

    def set_capacity(self, link: FluidLink, capacity: float) -> None:
        """Change a link's capacity mid-simulation (tc-style shaping)."""
        if not capacity >= 0:
            raise SimulationError(f"link {link.name}: capacity {capacity!r} is not >= 0")
        self._settle_progress()
        link.capacity = capacity
        # Every memoised fill may have read the old capacity.
        self._fill_memo.clear()
        comp = self._link_comp.get(link.id)
        if comp is not None:
            self._dirty[comp] = None
        self._recompute()

    @property
    def active_transfers(self) -> List[Transfer]:
        """Snapshot of in-flight transfers (fluid phase only)."""
        return list(self._active)

    def link_load(self, link: FluidLink) -> float:
        """Aggregate current rate on ``link`` in bytes/second."""
        return sum(
            group.rate * group.path.multiplicity[link] * group.count
            for group in self._link_users.get(link.id, ())
        )

    # -- internals -----------------------------------------------------------

    def _finish(self, transfer: Transfer, outcome: Outcome) -> None:
        """Queue ``transfer``'s callback with ``outcome``.

        The one completion path: the entry takes the NORMAL slot at the
        current instant that ``event.succeed()`` would take. A transfer
        started without a callback triggers its event here and queues
        :meth:`Simulator._dispatch` of it, exactly what ``succeed`` or
        ``fail`` would queue.
        """
        event = transfer.event
        if event is not None:
            event._ok = outcome is transfer
            event._value = outcome
            event._triggered = True
            outcome = event
        self.sim._fifos[NORMAL].append((transfer.callback, outcome))

    def _complete_latency_only(self, transfer: Transfer) -> None:
        transfer.start_time = transfer.finish_time = self.sim.now
        transfer._remaining = 0.0
        self.completed_transfers += 1
        self._finish(transfer, transfer)

    def _activate(self, transfer: Transfer) -> None:
        now = self.sim.now
        if now != self._last_update:
            self._settle_progress()
        transfer.start_time = now
        for rec in self._recorders:
            rec.flow_started(transfer, now)
        if transfer._remaining <= _DONE_EPS:
            transfer.finish_time = now
            self.completed_transfers += 1
            _credit(transfer, transfer.size)
            for rec in self._recorders:
                rec.flow_ended(transfer, now)
            self._finish(transfer, transfer)
            self._recompute()
            return
        transfer._order = next(self._activations)
        self._active[transfer] = None
        self._component_add(transfer)
        self._recompute()

    def _settle_progress(self) -> None:
        """Apply progress accrued since the last recompute point.

        Only ``remaining`` moves, by ``rate * dt`` per cohort — the
        group's rate is every member's, and a cohort's ``remaining`` is
        every member's — and no link is touched: links are credited once
        per transfer, when it completes or is cancelled.
        """
        dt = self.sim.now - self._last_update
        if dt > 0:
            finishing = self._finishing
            for group in self._groups.values():
                moved = group.rate * dt
                for cohort in group.cohorts:
                    left = cohort.remaining - moved
                    if left > _DONE_EPS:
                        cohort.remaining = left
                    else:
                        cohort.remaining = left if left > 0.0 else 0.0
                        finishing[group] = None
        self._last_update = self.sim.now

    def _recompute(self) -> None:
        """Schedule a rate reassignment at the current instant.

        Many transfers start or finish at the same timestamp (chunk waves
        through a pipeline). The actual work happens in :meth:`_flush`,
        scheduled LATE so it runs after every URGENT and NORMAL entry of
        the instant: one solve sees all of the instant's changes. No time
        passes between same-instant entries, so no byte moves at the
        rates the solve skips (DESIGN.md §11, "One solve per instant").
        A change made by an entry the flush woke (a sender starting its
        next chunk over a zero-latency path) asks for one more flush at
        the same instant, after that entry.
        """
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self.sim.call_later(0.0, self._flush, None, LATE)

    def _flush(self, _arg: None) -> None:
        """Reassign rates and (re)schedule the next completion."""
        self._flush_scheduled = False
        self._settle_progress()  # no-op for dt=0; needed if time advanced
        self._assign_rates()
        self._complete_finished()
        self._timer_generation += 1
        generation = self._timer_generation
        while True:
            horizon = self._next_horizon()
            if math.isinf(horizon):
                self._record_snapshot()
                return
            if horizon > 0.0 and self.sim.now + horizon > self.sim.now:
                break
            self._force_complete()
            self._assign_rates()
            self._complete_finished()

        self.sim.call_later(horizon, self._on_timer, generation)
        self._record_snapshot()

    def _force_complete(self) -> None:
        """Zero the cohorts whose finish is below the clock's resolution.

        The next completion is below the clock's floating-point resolution
        at the current time: those transfers are numerically done —
        force-complete them or the timer would fire forever without
        advancing time. The cached horizon can sit an ulp off (or clamp to
        zero against) the live values, so take the exact minimum here (this
        path is rare) to guarantee at least one cohort crosses the
        threshold and the flush makes progress.
        """
        moving = [group for group in self._groups.values() if group.rate > _EPS]
        exact = math.inf
        for group in moving:
            for cohort in group.cohorts:
                headway = cohort.remaining / group.rate
                if headway < exact:
                    exact = headway
        threshold = max(exact, 0.0) * (1 + 1e-9)
        for group in moving:
            for cohort in group.cohorts:
                if cohort.remaining / group.rate <= threshold:
                    cohort.remaining = 0.0
                    self._finishing[group] = None

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a later recompute
        self._settle_progress()
        self._recompute()

    def _next_horizon(self) -> float:
        """Seconds until the earliest predicted completion (``inf`` if none).

        A min over the per-component finish cache — O(components), not
        O(active transfers). Cached predictions can sit an ulp off the
        live ``remaining / rate`` value (the prediction basis is the last
        recompute, not now); the force-complete path's relative slack
        absorbs that.
        """
        finish = min(self._comp_finish.values(), default=math.inf)
        if math.isinf(finish):
            return math.inf
        remaining_time = finish - self.sim.now
        return remaining_time if remaining_time > 0.0 else 0.0

    def _record_snapshot(self) -> None:
        """Emit one ``net-rates`` allocation snapshot.

        Built only when some attached recorder wants it (telemetry-only
        attachments skip the cost of flattening the incidence lists)."""
        if not self._wants_rates:
            return
        links: Dict[int, FluidLink] = {}
        flows = []
        for t in self._active:
            incidence = []
            for link, mult in t._path.incidence:
                links[link.id] = link
                incidence.append((link.id, mult))
            flows.append((t.id, t.tag, t.rate, t.remaining, tuple(sorted(incidence))))
        link_rows = [
            (link.id, link.name, link.capacity, link.per_stream_cap)
            for _lid, link in sorted(links.items())
        ]
        for rec in self._recorders:
            if getattr(rec, "wants_rates", True):
                rec.record(
                    self.sim.now, "net-rates", "network", flows=flows, links=link_rows
                )

    def _complete_finished(self) -> None:
        """Complete every member of every cohort out of bytes.

        Only the cohorts of groups that settling marked are scanned, not
        the members; the finished members then complete in activation
        order, as a scan of the active transfers would meet them. (A
        marked group may have lost the cohort to a cancel since, or left
        the network: its scan finds nothing.)
        """
        if not self._finishing:
            return
        finished: List[Transfer] = []
        cohorts_done = 0
        for group in self._finishing:
            kept = []
            for cohort in group.cohorts:
                if cohort.remaining <= _DONE_EPS:
                    finished += cohort.members
                    cohorts_done += 1
                else:
                    kept.append(cohort)
            group.cohorts = kept
        self._finishing.clear()
        if not finished:
            return
        if cohorts_done > 1:
            finished.sort(key=_order)
        now = self.sim.now
        recorders = self._recorders
        for t in finished:
            del self._active[t]
            self._component_remove(t)
            _credit(t, t.size)
            t.finish_time = now
            self.completed_transfers += 1
            for rec in recorders:
                rec.flow_ended(t, now)
            self._finish(t, t)
        self._assign_rates()

    # -- component tracking --------------------------------------------------

    def _component_add(self, t: Transfer) -> None:
        """Register an activated transfer with its class group.

        A transfer whose class is live joins that group: its links already
        belong to the group's component, so nothing is walked. Otherwise
        a new group is made, and since it touches every link of its path
        it connects their components into exactly one — a merge here is
        always exact; only removals can split.
        """
        path = t._path
        group = self._groups.get(path)
        if group is not None:
            comp = group.comp
        else:
            touched: Dict[_Component, None] = {}
            for link in path.multiplicity:
                other = self._link_comp.get(link.id)
                if other is not None:
                    touched[other] = None
            comp = (
                max(touched, key=lambda c: len(c.groups) + len(c.links))
                if touched
                else _Component()
            )
            for other in touched:
                if other is comp:
                    continue
                for absorbed in other.groups:
                    absorbed.comp = comp
                    comp.groups[absorbed] = None
                for lid in other.links:
                    self._link_comp[lid] = comp
                    comp.links[lid] = None
                if other.needs_split:
                    # An absorbed component with a pending split stays
                    # possibly-disconnected after the merge.
                    comp.needs_split = True
                self._dirty.pop(other, None)
                self._comp_finish.pop(other, None)
            group = self._groups[path] = _Group(path, comp)
            comp.groups[group] = None
            for link in path.multiplicity:
                self._link_users.setdefault(link.id, {})[group] = None
                comp.links[link.id] = None
                self._link_comp[link.id] = comp
        # Equal-size chunks that start together share a cohort.
        cohorts = group.cohorts
        if cohorts and cohorts[-1].remaining == t._remaining:
            cohort = cohorts[-1]
            cohort.members.append(t)
        else:
            cohort = _Cohort(t._remaining, t)
            cohorts.append(cohort)
        group.count += 1
        t._group = group
        t._cohort = cohort
        self._dirty[comp] = None
        # Membership changed: the cached finish prediction must be rebuilt
        # at the next solve.
        self._comp_finish.pop(comp, None)

    def _component_remove(self, t: Transfer) -> None:
        """Unregister a finished/cancelled transfer from its group.

        The caller has taken it out of its cohort; from here on it keeps
        the ``remaining`` and ``rate`` it has now.
        """
        group = t._group
        t._remaining = t._cohort.remaining
        t._rate = group.rate
        t._group = t._cohort = None
        group.count -= 1
        comp = group.comp
        self._comp_finish.pop(comp, None)
        if group.count:
            self._dirty[comp] = None
            return
        del comp.groups[group]
        del self._groups[group.path]
        for link in group.path.multiplicity:
            users = self._link_users[link.id]
            del users[group]
            if not users:
                del self._link_users[link.id]
                del self._link_comp[link.id]
                del comp.links[link.id]
        if comp.groups:
            comp.needs_split = True
            self._dirty[comp] = None
        else:
            self._dirty.pop(comp, None)

    def _split_component(self, comp: _Component) -> List[_Component]:
        """Re-partition a possibly-disconnected component exactly.

        Walks the component's remaining group↔link adjacency outward from
        each not-yet-reached group; each reachable set becomes a fresh
        component. Deterministic — ``groups`` and the adjacency dicts are
        insertion-ordered — though no solved rate depends on the order
        (the class kernel is order-free).
        """
        unvisited = dict(comp.groups)
        self._comp_finish.pop(comp, None)
        parts: List[_Component] = []
        while unvisited:
            seed = next(iter(unvisited))
            del unvisited[seed]
            part = _Component()
            stack = [seed]
            while stack:
                group = stack.pop()
                part.groups[group] = None
                group.comp = part
                for link in group.path.multiplicity:
                    if link.id in part.links:
                        continue
                    part.links[link.id] = None
                    self._link_comp[link.id] = part
                    for other in self._link_users[link.id]:
                        if other in unvisited:
                            del unvisited[other]
                            stack.append(other)
            parts.append(part)
        return parts

    # -- rate assignment -----------------------------------------------------

    def _assign_rates(self) -> None:
        """Re-solve max-min fair rates where they may have changed.

        Each *dirty* component is solved with the progressive-filling
        kernel and every other component's rates stay frozen. That gives
        the bits a from-scratch re-solve of every component would (see the
        module docstring), and matches the joint per-transfer solve to
        float round-off, because a max-min allocation decomposes exactly
        across link-disjoint components.
        """
        if not self._dirty:
            return
        dirty = list(self._dirty)
        self._dirty.clear()
        for comp in dirty:
            if not comp.groups:
                continue
            if comp.needs_split:
                comp.needs_split = False
                parts = self._split_component(comp)
            else:
                parts = [comp]
            for part in parts:
                self._solve_component(part)

    def _solve_component(self, comp: _Component) -> None:
        """Assign max-min fair rates to one component's class groups.

        The classes are solved, not the transfers. A single-class
        component — one flow, or a burst of chunks down one path: the bulk
        of chunk-pipeline traffic — needs no filling loop: round one's
        increment is the minimum of the per-stream and capacity bounds and
        freezes every member, so the rate is that minimum in closed form.
        Otherwise :func:`_fill_classes` runs the rounds, once per distinct
        (class, count) multiset until a capacity changes: the memo key
        lists the classes by serial, so it names the multiset whatever
        order the groups sit in. Either way the bits equal a per-transfer
        fill of the same members in any order. Members read the group's
        rate, so a solve writes one number per class.

        The component's cached finish prediction is rebuilt only when it
        was invalidated by a membership change or some group's rate
        actually changed; both triggers fire identically under a
        from-scratch re-solve, so the cache (and therefore every timer
        horizon) stays bit-equal to it.
        """
        groups = comp.groups
        if len(groups) == 1:
            (group,) = groups
            path = group.path
            count = group.count
            rate = path.stream_cap
            for link, mult in path.incidence:
                link_share = link.capacity / (count * mult)
                if link_share < rate:
                    rate = link_share
            solved: Iterable[Tuple[_Group, float]] = ((group, rate if rate > _EPS else 0.0),)
        else:
            ordered = sorted(groups, key=_serial)
            counts = [group.count for group in ordered]
            key = array("q", [group.path.serial for group in ordered] + counts).tobytes()
            memo = self._fill_memo
            packed = memo.get(key)
            if packed is None:
                if len(memo) >= _FILL_MEMO_ENTRIES:
                    memo.clear()
                rates = _fill_classes(
                    [(group.path, count) for group, count in zip(ordered, counts)]
                )
                memo[key] = array("d", rates).tobytes()
            else:
                rates = array("d", packed)
            solved = zip(ordered, rates)
        changed = False
        for group, rate in solved:
            if group.rate != rate:
                group.rate = rate
                changed = True
        if changed or comp not in self._comp_finish:
            # A class shares one rate and ``now + remaining / rate`` is
            # monotone in ``remaining``, so its earliest finish is that of
            # its least remaining cohort, exactly.
            now = self.sim.now
            finish = math.inf
            for group in groups:
                rate = group.rate
                if rate > _EPS:
                    predicted = now + min(map(_remaining, group.cohorts)) / rate
                    if predicted < finish:
                        finish = predicted
            self._comp_finish[comp] = finish
