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
would reproduce the frozen value exactly. ``incremental=False`` re-solves
every component from scratch at every recompute point; the differential
suite runs both modes against each other and against
:func:`solve_rates_reference`, the original joint progressive-filling
solve over all active transfers.

The per-component solver works on *path classes*, not transfers: chunk
pipelining puts many transfers on few distinct paths, transfers sharing a
path (and hence a per-stream cap) get the same max-min rate by symmetry,
and because the per-link user sums are integer-valued the collapse is
exact to the last bit and independent of member order (DESIGN.md §11).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.simulation.engine import URGENT, Event, Simulator

_EPS = 1e-12
#: Remaining-bytes tolerance under which a transfer counts as complete.
_DONE_EPS = 1e-6


class FluidLink:
    """A directed link with capacity, per-stream cap, and latency.

    Capacities are in bytes/second; latency in seconds. ``per_stream_cap``
    limits the rate of any single transfer on the link (``inf`` = no cap).
    """

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        capacity: float,
        latency: float = 0.0,
        per_stream_cap: float = float("inf"),
    ):
        if capacity < 0:
            raise SimulationError(f"link {name}: negative capacity")
        if latency < 0:
            raise SimulationError(f"link {name}: negative latency")
        if per_stream_cap <= 0:
            raise SimulationError(f"link {name}: per-stream cap must be positive")
        self.id = next(FluidLink._ids)
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.per_stream_cap = per_stream_cap
        #: Cumulative bytes that have crossed this link (updated lazily by
        #: the network at recompute points).
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

    __slots__ = ("links", "multiplicity", "incidence", "stream_cap", "latency")

    def __init__(self, links: Tuple[FluidLink, ...]):
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


class Transfer:
    """An in-flight data movement across a path of links."""

    _ids = itertools.count()

    def __init__(self, path: _PathClass, size: float, event: Event, tag: str = ""):
        self.id = next(Transfer._ids)
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.event = event
        self.tag = tag
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Interned path and owning component, managed by the network.
        self._path = path
        self._comp: Optional[_Component] = None

    @property
    def links(self) -> List[FluidLink]:
        """The links crossed, in path order."""
        return list(self._path.links)

    @property
    def link_multiplicity(self) -> Dict[FluidLink, int]:
        """Times each distinct link is crossed (shared per path: read-only)."""
        return self._path.multiplicity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transfer #{self.id} {self.tag or 'untagged'} "
            f"{self.remaining:.0f}/{self.size:.0f}B @{self.rate:.3g}B/s>"
        )


class _Component:
    """One connected component of the transfer↔link sharing graph.

    ``members`` and ``links`` are insertion-ordered dicts used as ordered
    sets, so every walk over them is deterministic. ``needs_split`` marks
    a component that lost a member and may therefore have disconnected;
    it is re-partitioned lazily at the next solve.
    """

    __slots__ = ("members", "links", "needs_split")

    def __init__(self) -> None:
        self.members: Dict[Transfer, None] = {}
        self.links: Dict[int, None] = {}
        self.needs_split = False


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
    equals the per-transfer fill (:func:`solve_rates_reference`) bit for
    bit. Components hold a handful of classes, where a scalar loop beats
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


def solve_rates_reference(transfers: Sequence[Transfer]) -> List[float]:
    """From-scratch joint max-min solve over ``transfers`` (the oracle).

    The original semantics, kept for the differential suite: one
    progressive-filling run with a row per *transfer* (built from
    ``Transfer.links`` alone, so it shares nothing with the path-class
    table), vectorized over a flattened incidence. On one component it
    equals the network's class-collapsed rates bit for bit; over *all*
    active transfers jointly, components interleave and take different
    float paths, so agreement there is 1e-9, not bitwise.
    """
    n = len(transfers)
    if n == 0:
        return []
    caps = np.full(n, math.inf)
    links: List[FluidLink] = []
    link_index: Dict[int, int] = {}
    t_idx: List[int] = []
    l_idx: List[int] = []
    mults: List[float] = []
    for ti, t in enumerate(transfers):
        multiplicity: Dict[FluidLink, int] = {}
        for link in t.links:
            multiplicity[link] = multiplicity.get(link, 0) + 1
        for link, mult in multiplicity.items():
            caps[ti] = min(caps[ti], link.per_stream_cap / mult)
            li = link_index.get(link.id)
            if li is None:
                li = link_index[link.id] = len(links)
                links.append(link)
            t_idx.append(ti)
            l_idx.append(li)
            mults.append(mult)
    m = len(links)
    ti_arr = np.array(t_idx, dtype=np.intp)
    li_arr = np.array(l_idx, dtype=np.intp)
    mult_arr = np.array(mults)
    residual = np.array([link.capacity for link in links])
    sat_floor = _EPS * np.maximum(1.0, residual)
    rates = np.zeros(n)
    unfrozen = np.ones(n, dtype=bool)

    while True:
        active_inc = unfrozen[ti_arr]
        users = np.bincount(
            li_arr[active_inc], weights=mult_arr[active_inc], minlength=m
        )
        used = users > _EPS
        delta = math.inf
        if used.any():
            delta = float(np.min(residual[used] / users[used]))
        headroom = caps[unfrozen] - rates[unfrozen]
        if headroom.size:
            delta = min(delta, float(headroom.min()))
        if delta < 0:
            delta = 0.0
        if delta > _EPS:
            rates[unfrozen] += delta
            residual -= delta * users

        saturated = residual <= sat_floor
        on_saturated = np.zeros(n, dtype=bool)
        hit = active_inc & saturated[li_arr]
        on_saturated[ti_arr[hit]] = True
        newly = unfrozen & (on_saturated | (rates >= caps - _EPS))
        if not newly.any():
            if delta <= _EPS:
                break  # nothing can move (e.g. zero-capacity link)
            continue
        unfrozen &= ~newly
        if not unfrozen.any():
            break
    return rates.tolist()


class FluidNetwork:
    """Tracks active transfers and allocates max-min fair rates.

    One instance serves a whole simulated cluster. All state changes go
    through :meth:`transfer`, :meth:`cancel` and :meth:`set_capacity`, which
    keep the completion timer consistent.
    """

    def __init__(self, sim: Simulator, incremental: Optional[bool] = None):
        self.sim = sim
        #: In-flight transfers in activation order (dict used as ordered set).
        self._active: Dict[Transfer, None] = {}
        #: Link sequence (by content) -> its interned path class.
        self._paths: Dict[Tuple[FluidLink, ...], _PathClass] = {}
        self._last_update = 0.0
        self._timer_generation = 0
        self._flush_scheduled = False
        self.completed_transfers = 0
        #: Whether recomputes re-solve only dirty components (the default)
        #: or every component from scratch (the differential reference).
        self.incremental = True if incremental is None else incremental
        #: link id -> active transfers crossing it, insertion-ordered.
        self._link_users: Dict[int, Dict[Transfer, None]] = {}
        #: link id -> owning component, exact at all times.
        self._link_comp: Dict[int, _Component] = {}
        #: Components needing a re-solve, insertion-ordered (used as set).
        self._dirty: Dict[_Component, None] = {}
        #: component -> predicted absolute time of its earliest member
        #: completion (``inf`` when every member is blocked). An entry is
        #: recomputed only when the component's membership changes (the
        #: entry is popped) or some member's rate changes bitwise — an
        #: unchanged rate keeps the predicted absolute finish exact — so
        #: the cache evolves identically in incremental and from-scratch
        #: modes and the completion horizon is a min over components
        #: instead of a scan over every active transfer.
        self._comp_finish: Dict[_Component, float] = {}
        #: Whether some transfer's ``remaining`` may have crossed the
        #: completion threshold since the last finished-scan. Set when
        #: settling advances time (the only way remaining decreases) and
        #: by the force-complete path; lets activation-only flushes skip
        #: the O(active) completion scan entirely.
        self._scan_pending = False
        #: Attached observers implementing the recorder protocol —
        #: ``record(time, kind, subject, **payload)``, usually
        #: :class:`repro.simulation.records.TraceRecorder`. The network
        #: emits ``net-flow-start``/``net-flow-end``/``net-flow-cancel``
        #: events to every recorder, and a ``net-rates`` allocation
        #: snapshot per recompute instant to recorders that want it
        #: (``wants_rates`` attribute, default true), which
        #: :mod:`repro.analysis.lint_trace` checks for capacity and
        #: fairness invariants. Use :meth:`attach_recorder` /
        #: :meth:`detach_recorder`; the ``recorder`` property remains as a
        #: single-recorder compatibility view.
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

    @property
    def recorder(self):
        """Compatibility view: the first attached *lint* recorder, if any.

        Telemetry recorders (``wants_rates = False``) are skipped so code
        that reads ``network.recorder`` sees what it attached, not the
        hub's bridge.
        """
        for rec in self._recorders:
            if getattr(rec, "wants_rates", True):
                return rec
        return None

    @recorder.setter
    def recorder(self, recorder) -> None:
        """Replace all attached lint recorders (``None`` detaches them).

        Telemetry attachments survive: assigning a recorder for one run
        must not silently disable tracing, and vice versa.
        """
        self._recorders = [
            rec for rec in self._recorders if not getattr(rec, "wants_rates", True)
        ]
        if recorder is not None:
            self._recorders.append(recorder)
        self._wants_rates = any(
            getattr(rec, "wants_rates", True) for rec in self._recorders
        )

    def _emit(self, kind: str, subject: str, **payload) -> None:
        for rec in self._recorders:
            rec.record(self.sim.now, kind, subject, **payload)

    # -- public API ----------------------------------------------------------

    def transfer(
        self,
        links: Sequence[FluidLink],
        size: float,
        extra_latency: float = 0.0,
        tag: str = "",
    ) -> Event:
        """Move ``size`` bytes across ``links``; returns the completion event.

        The transfer first pays ``sum(link.latency) + extra_latency``
        seconds of latency, then joins the fluid phase. The event's value is
        the :class:`Transfer` record (with start/finish times filled in).
        """
        if size < 0:
            raise SimulationError("transfer size must be non-negative")
        event = Event(self.sim)
        key = tuple(links)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = _PathClass(key)
        t = Transfer(path, size, event, tag=tag)
        if not key:
            # Pure-latency movement (e.g. an intra-GPU copy modelled as free):
            # complete after the latency with no fluid phase.
            def _complete(_evt: Event, transfer: Transfer = t) -> None:
                transfer.start_time = transfer.finish_time = self.sim.now
                transfer.remaining = 0.0
                self.completed_transfers += 1
                transfer.event.succeed(transfer)

            self.sim.timeout(max(0.0, extra_latency)).add_callback(_complete)
            return event
        latency = path.latency + extra_latency
        if latency > 0:

            def _after_latency(_evt: Event, transfer: Transfer = t) -> None:
                self._activate(transfer)

            self.sim.timeout(latency).add_callback(_after_latency)
        else:
            self._activate(t)
        return event

    def cancel(self, transfer: Transfer, reason: Optional[BaseException] = None) -> None:
        """Abort an active transfer, failing its completion event."""
        if transfer not in self._active:
            raise SimulationError("cancel() of a transfer that is not active")
        self._settle_progress()
        del self._active[transfer]
        self._component_remove(transfer)
        if self._recorders:
            self._emit(
                "net-flow-cancel",
                f"flow{transfer.id}",
                flow=transfer.id,
                tag=transfer.tag,
                remaining=transfer.remaining,
            )
        transfer.event.fail(reason or SimulationError(f"transfer {transfer.id} cancelled"))
        self._recompute()

    def set_capacity(self, link: FluidLink, capacity: float) -> None:
        """Change a link's capacity mid-simulation (tc-style shaping)."""
        if capacity < 0:
            raise SimulationError("capacity must be non-negative")
        self._settle_progress()
        link.capacity = capacity
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
            t.rate * t._path.multiplicity[link]
            for t in self._link_users.get(link.id, ())
        )

    # -- internals -----------------------------------------------------------

    def _activate(self, transfer: Transfer) -> None:
        self._settle_progress()
        transfer.start_time = self.sim.now
        if self._recorders:
            self._emit(
                "net-flow-start",
                f"flow{transfer.id}",
                flow=transfer.id,
                tag=transfer.tag,
                size=transfer.size,
            )
        if transfer.remaining <= _DONE_EPS:
            transfer.finish_time = self.sim.now
            self.completed_transfers += 1
            if self._recorders:
                self._emit(
                    "net-flow-end",
                    f"flow{transfer.id}",
                    flow=transfer.id,
                    tag=transfer.tag,
                    size=transfer.size,
                )
            transfer.event.succeed(transfer)
            self._recompute()
            return
        self._active[transfer] = None
        self._component_add(transfer)
        self._recompute()

    def _settle_progress(self) -> None:
        """Apply progress accrued since the last recompute point."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for t in self._active:
                moved = t.rate * dt
                left = t.remaining - moved
                t.remaining = left if left > 0.0 else 0.0
                for link, mult in t._path.incidence:
                    link.bytes_carried += moved * mult
            self._scan_pending = True
        self._last_update = self.sim.now

    def _recompute(self) -> None:
        """Schedule a rate reassignment at the current instant.

        Many transfers start or finish at the same timestamp (chunk waves
        through a pipeline); recomputing max-min rates once per instant
        instead of once per event is a large constant-factor win. The
        actual work happens in :meth:`_flush`, scheduled URGENT so it runs
        before time advances.
        """
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        flush_event = Event(self.sim)
        flush_event._ok = True
        flush_event._value = None
        flush_event._triggered = True
        flush_event.callbacks.append(self._flush)
        self.sim._schedule(flush_event, priority=URGENT)

    def _flush(self, _event: Event) -> None:
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
            # The next completion is below the clock's floating-point
            # resolution at the current time: those transfers are
            # numerically done — force-complete them or the timer would
            # fire forever without advancing time. The cached horizon can
            # sit an ulp off (or clamp to zero against) the live values,
            # so take the exact minimum here (this path is rare) to
            # guarantee at least one transfer crosses the threshold and
            # the loop makes progress.
            exact = math.inf
            for t in self._active:
                if t.rate > _EPS:
                    headway = t.remaining / t.rate
                    if headway < exact:
                        exact = headway
            threshold = max(exact, 0.0) * (1 + 1e-9)
            for t in list(self._active):
                if t.rate > _EPS and t.remaining / t.rate <= threshold:
                    t.remaining = 0.0
            self._scan_pending = True
            self._assign_rates()
            self._complete_finished()

        def _on_timer(_evt: Event) -> None:
            if generation != self._timer_generation:
                return  # superseded by a later recompute
            self._settle_progress()
            self._recompute()

        self.sim.timeout(horizon).add_callback(_on_timer)
        self._record_snapshot()

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
        if not self._scan_pending:
            return
        self._scan_pending = False
        finished = [t for t in self._active if t.remaining <= _DONE_EPS]
        if not finished:
            return
        for t in finished:
            del self._active[t]
            self._component_remove(t)
            t.finish_time = self.sim.now
            self.completed_transfers += 1
            if self._recorders:
                self._emit(
                    "net-flow-end",
                    f"flow{t.id}",
                    flow=t.id,
                    tag=t.tag,
                    size=t.size,
                )
            t.event.succeed(t)
        self._assign_rates()

    # -- component tracking --------------------------------------------------

    def _component_add(self, t: Transfer) -> None:
        """Register an activated transfer, merging the components it joins.

        A new transfer connects the components of every link on its path
        into exactly one component (it touches all of them itself), so a
        merge here is always exact — only removals can split.
        """
        touched: Dict[int, _Component] = {}
        for link in t._path.multiplicity:
            self._link_users.setdefault(link.id, {})[t] = None
            comp = self._link_comp.get(link.id)
            if comp is not None:
                touched[id(comp)] = comp
        if touched:
            ordered = list(touched.values())
            target = max(ordered, key=lambda c: len(c.members) + len(c.links))
            for comp in ordered:
                if comp is target:
                    continue
                for member in comp.members:
                    member._comp = target
                    target.members[member] = None
                for lid in comp.links:
                    self._link_comp[lid] = target
                    target.links[lid] = None
                if comp.needs_split:
                    # An absorbed component with a pending split stays
                    # possibly-disconnected after the merge.
                    target.needs_split = True
                self._dirty.pop(comp, None)
                self._comp_finish.pop(comp, None)
        else:
            target = _Component()
        target.members[t] = None
        t._comp = target
        for link in t._path.multiplicity:
            target.links[link.id] = None
            self._link_comp[link.id] = target
        self._dirty[target] = None
        # Membership changed: the cached finish prediction must be rebuilt
        # at the next solve.
        self._comp_finish.pop(target, None)

    def _component_remove(self, t: Transfer) -> None:
        """Unregister a finished/cancelled transfer from its component."""
        comp = t._comp
        t._comp = None
        del comp.members[t]
        for link in t._path.multiplicity:
            users = self._link_users.get(link.id)
            if users is not None:
                users.pop(t, None)
                if not users:
                    del self._link_users[link.id]
                    self._link_comp.pop(link.id, None)
                    comp.links.pop(link.id, None)
        self._comp_finish.pop(comp, None)
        if comp.members:
            comp.needs_split = True
            self._dirty[comp] = None
        else:
            self._dirty.pop(comp, None)

    def _split_component(self, comp: _Component) -> List[_Component]:
        """Re-partition a possibly-disconnected component exactly.

        Walks the component's remaining transfer↔link adjacency outward
        from each not-yet-reached member; each reachable set becomes a
        fresh component. Deterministic — ``members`` and the adjacency
        dicts are insertion-ordered — though no solved rate depends on
        the order (the class kernel is order-free).
        """
        unvisited = dict(comp.members)
        self._comp_finish.pop(comp, None)
        parts: List[_Component] = []
        while unvisited:
            seed = next(iter(unvisited))
            del unvisited[seed]
            part = _Component()
            stack = [seed]
            while stack:
                member = stack.pop()
                part.members[member] = None
                member._comp = part
                for link in member._path.multiplicity:
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

        Incremental mode solves each *dirty* component with the
        progressive-filling kernel and leaves every other component's
        rates frozen; from-scratch mode re-partitions and re-solves all of
        them. Both produce identical bits (see the module docstring), and
        both match the joint :func:`solve_rates_reference` to float
        round-off, because a max-min allocation decomposes exactly across
        link-disjoint components.
        """
        if self.incremental:
            if not self._dirty:
                return
            dirty = list(self._dirty)
            self._dirty.clear()
        else:
            # From-scratch mode re-solves *every* component each time. A
            # clean component's re-solve reproduces its frozen rates
            # bit-for-bit, and component tracking (merges, splits, finish
            # cache pops) is shared with incremental mode, so the two
            # modes stay exactly equivalent.
            self._dirty.clear()
            dirty = []
            seen: Dict[int, None] = {}
            for t in self._active:
                comp = t._comp
                if id(comp) not in seen:
                    seen[id(comp)] = None
                    dirty.append(comp)
        for comp in dirty:
            if not comp.members:
                continue
            if comp.needs_split:
                comp.needs_split = False
                parts = self._split_component(comp)
            else:
                parts = [comp]
            for part in parts:
                self._solve_component(part)

    def _solve_component(self, comp: _Component) -> None:
        """Assign max-min fair rates to one component's transfers.

        Members are counted per path class and the classes are solved, not
        the transfers. A single-class component — one flow, or a burst of
        chunks down one path: the bulk of chunk-pipeline traffic — needs
        no filling loop: round one's increment is the minimum of the
        per-stream and capacity bounds and freezes every member, so the
        rate is that minimum in closed form. Otherwise
        :func:`_fill_classes` runs the rounds. Either way the bits equal a
        per-transfer fill of the same members in any order.

        The component's cached finish prediction is rebuilt only when it
        was invalidated by a membership change or some member's rate
        actually changed; both triggers fire identically in incremental
        and from-scratch modes, so the cache (and therefore every timer
        horizon) stays bit-equal across modes.
        """
        groups: Dict[_PathClass, List[Transfer]] = {}
        for t in comp.members:
            group = groups.get(t._path)
            if group is None:
                groups[t._path] = [t]
            else:
                group.append(t)
        if len(groups) == 1:
            ((path, group),) = groups.items()
            rate = path.stream_cap
            for link, mult in path.incidence:
                link_share = link.capacity / (len(group) * mult)
                if link_share < rate:
                    rate = link_share
            rates = [rate if rate > _EPS else 0.0]
        else:
            rates = _fill_classes([(path, len(group)) for path, group in groups.items()])
        # One pass writes rates back and predicts the earliest finish. A
        # class shares one rate and ``now + remaining / rate`` is monotone
        # in ``remaining``, so its earliest finish is that of its least
        # remaining member, exactly.
        changed = False
        now = self.sim.now
        finish = math.inf
        for group, rate in zip(groups.values(), rates):
            least = math.inf
            for t in group:
                if t.rate != rate:
                    t.rate = rate
                    changed = True
                if t.remaining < least:
                    least = t.remaining
            if rate > _EPS:
                predicted = now + least / rate
                if predicted < finish:
                    finish = predicted
        if changed or comp not in self._comp_finish:
            self._comp_finish[comp] = finish
