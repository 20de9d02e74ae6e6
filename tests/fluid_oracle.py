"""The fluid network's references: the per-transfer solve and the flush policy.

``solve_rates_reference`` below is the rate solver of
``repro.simulation.fluid`` as it was before the network collapsed each
component's transfers into path classes: one numpy progressive-filling run
with a row per *transfer*, rebuilt from ``Transfer.links`` alone, so it
shares nothing with the network's interning, class groups or fill memo.
``tests/test_fluid_differential.py`` and ``tests/test_fluid.py`` hold the
network's rates to it.

``FromScratchNetwork`` is the network with the re-solve it had as its
``incremental=False`` mode: every component solved afresh at every
recompute point, without the fill memo. ``tests/test_fluid_differential.py``
holds the dirty-component re-solve to it bit for bit.

``PerEventFlushNetwork`` is the network with the flush policy it had
before it solved once per simulated instant: the rate flush scheduled
URGENT, so it ran after each activation, completion, cancel or reshape
rather than after the instant's last one.
``tests/test_flush_differential.py`` holds the network to it.

``PerMemberNetwork`` is the network before it grouped a class's members
into cohorts of bit-equal ``remaining``: every transfer is a cohort of its
own, and settling, the force-complete sweep and the finished scan walk
the active transfers in activation order, member by member, as they did.
``tests/test_fluid_differential.py`` holds the cohorts to it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.simulation.engine import URGENT
from repro.simulation.fluid import (
    _DONE_EPS,
    _EPS,
    FluidLink,
    FluidNetwork,
    Transfer,
    _Cohort,
    _credit,
)


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


class FromScratchNetwork(FluidNetwork):
    """The fluid network re-solving every component at every recompute."""

    def _assign_rates(self) -> None:
        # Every multi-class component is filled afresh: the memo is emptied
        # per call, and no two components of one call share a class. A
        # clean component's re-solve reproduces its frozen rates
        # bit-for-bit, and component tracking (merges, splits, finish
        # cache pops) is the network's own, so the two stay exactly
        # equivalent.
        self._dirty.clear()
        self._fill_memo.clear()
        self._dirty.update(dict.fromkeys(group.comp for group in self._groups.values()))
        super()._assign_rates()


class PerEventFlushNetwork(FluidNetwork):
    """The fluid network with one rate flush per change, not per instant.

    The URGENT flush runs before every later NORMAL entry of its instant,
    so an instant with k activations solved k times. Everything else is
    the network's own code.

    It also records one case where the two policies may differ in the
    last bits: ``transient_refresh`` is set when a component with no
    membership change had its finish prediction refreshed twice at one
    instant (two same-instant reshapes that change its rates and then
    change or restore them). This policy re-derives the prediction from
    the instant's state; a once-per-instant solve that sees the restored
    rates unchanged keeps the earlier, bitwise different but equally
    exact one.
    """

    def __init__(self, sim):
        super().__init__(sim)
        self.transient_refresh = False
        #: component -> instant of its last refresh with no membership change
        self._refreshed: Dict = {}

    def _recompute(self) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self.sim.call_later(0.0, self._flush, None, URGENT)

    def _solve_component(self, comp) -> None:
        kept = comp in self._comp_finish  # no membership change since its last solve
        before = [group.rate for group in comp.groups]
        super()._solve_component(comp)
        if not kept:
            self._refreshed.pop(comp, None)
        elif before != [group.rate for group in comp.groups]:
            now = self.sim.now
            if self._refreshed.get(comp) == now:
                self.transient_refresh = True
            self._refreshed[comp] = now


class PerMemberNetwork(FluidNetwork):
    """The fluid network with one cohort per transfer and the per-member
    settle, force-complete sweep and finished scan."""

    def _component_add(self, t) -> None:
        super()._component_add(t)
        cohort = t._cohort
        if len(cohort.members) > 1:
            cohort.members.remove(t)
            t._cohort = _Cohort(t._remaining, t)
            t._group.cohorts.append(t._cohort)

    def _settle_progress(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            for t in self._active:
                left = t.remaining - t.rate * dt
                t._cohort.remaining = left if left > 0.0 else 0.0
        self._last_update = self.sim.now

    def _force_complete(self) -> None:
        exact = math.inf
        for t in self._active:
            if t.rate > _EPS:
                exact = min(exact, t.remaining / t.rate)
        threshold = max(exact, 0.0) * (1 + 1e-9)
        for t in self._active:
            if t.rate > _EPS and t.remaining / t.rate <= threshold:
                t._cohort.remaining = 0.0

    def _complete_finished(self) -> None:
        self._finishing.clear()
        finished = [t for t in self._active if t.remaining <= _DONE_EPS]
        if not finished:
            return
        now = self.sim.now
        for t in finished:
            t._group.cohorts.remove(t._cohort)
            del self._active[t]
            self._component_remove(t)
            _credit(t, t.size)
            t.finish_time = now
            self.completed_transfers += 1
            for rec in self._recorders:
                rec.flow_ended(t, now)
            self._finish(t, t)
        self._assign_rates()
