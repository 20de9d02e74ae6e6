"""Schedule-driven fault injection against a simulated cluster.

The :class:`ChaosInjector` turns one :class:`~repro.chaos.plan.FaultPlan`
into concrete side effects:

* **ready-time faults** — :meth:`ready_delays` resolves the plan into the
  per-rank delay map the relay coordinator consumes (stragglers get their
  scheduled delay, down workers get ``None``);
* **link faults** — :meth:`start` spawns one finite simulated process per
  :class:`~repro.chaos.plan.LinkFault` that rewrites the instance's NIC
  capacity through :meth:`repro.hardware.cluster.Cluster.set_nic_bandwidth`
  (the fluid network re-solves max-min rates at each change) and always
  restores nominal bandwidth at the end of the window.

Every applied fault is appended to :attr:`trace` as a plain tuple
``(sim_time, kind, *details)`` — the deterministic event trace the
conformance suite compares across same-seed replays — and mirrored into an
optional :class:`~repro.simulation.records.TraceRecorder` (kinds
``chaos-straggler``/``chaos-crash``/``chaos-link``) so
:func:`repro.analysis.lint_chaos.lint_chaos` can cross-check chaos runs
against the fluid-trace invariants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import FaultPlan, LinkFault
from repro.errors import ChaosError
from repro.hardware.cluster import Cluster
from repro.simulation.records import TraceRecorder


class ChaosInjector:
    """Applies one fault plan to one cluster; all effects are replayable."""

    def __init__(
        self,
        cluster: Cluster,
        plan: FaultPlan,
        recorder: Optional[TraceRecorder] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.recorder = recorder
        #: Deterministic event trace: (sim_time, kind, *details) tuples in
        #: application order. Two same-seed runs produce identical traces.
        self.trace: List[Tuple] = []
        self._started = False
        for fault in plan.link_faults:
            if fault.instance_id >= len(cluster.instances):
                raise ChaosError(
                    f"link fault targets instance {fault.instance_id}, "
                    f"cluster has {len(cluster.instances)}"
                )

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, subject: str, *details, **payload) -> None:
        """Append one chaos event to the deterministic trace (and mirror it
        into the attached recorder and the telemetry hub, if any)."""
        self.trace.append((self.sim.now, kind, subject, *details))
        if self.recorder is not None:
            self.recorder.record(self.sim.now, kind, subject, **payload)
        telemetry = self.cluster.hub
        if telemetry.enabled:
            telemetry.instant(
                kind, self.sim.now, category="chaos", track="chaos",
                subject=subject, **payload,
            )
            telemetry.metrics.counter(
                "chaos_events_total", "fault activations injected"
            ).inc(kind=kind)

    # -- ready-time faults -----------------------------------------------------

    def ready_delays(
        self, iteration: int, participants: Sequence[int]
    ) -> Dict[int, Optional[float]]:
        """The plan's delay map for one iteration, with trace entries for
        every straggler and down worker."""
        delays = self.plan.ready_delays(iteration, participants)
        for rank in sorted(delays):
            delay = delays[rank]
            if delay is None:
                self.record(
                    "chaos-crash", f"rank{rank}", iteration, rank,
                    iteration=iteration, rank=rank,
                )
            elif delay > 0:
                self.record(
                    "chaos-straggler", f"rank{rank}", iteration, rank, delay,
                    iteration=iteration, rank=rank, delay_seconds=delay,
                )
        return delays

    # -- link faults -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the (finite) link-fault processes; idempotent."""
        if self._started:
            return
        self._started = True
        for fault in self.plan.link_faults:
            self.sim.process(
                self._link_process(fault), name=f"chaos-link:i{fault.instance_id}"
            )

    def _link_process(self, fault: LinkFault):
        sim = self.sim
        nominal = self.cluster.nominal_nic_bandwidth(fault.instance_id)
        degraded = nominal * fault.bandwidth_fraction
        if fault.start_seconds > sim.now:
            yield sim.timeout(fault.start_seconds - sim.now)
        segment = fault.duration_seconds / fault.flaps
        for cycle in range(fault.flaps):
            self.cluster.set_nic_bandwidth(fault.instance_id, degraded)
            self.record(
                "chaos-link", f"instance{fault.instance_id}",
                fault.instance_id, fault.bandwidth_fraction,
                instance=fault.instance_id,
                bandwidth_fraction=fault.bandwidth_fraction,
            )
            if fault.flaps == 1:
                yield sim.timeout(segment)
            else:
                # A flapping link alternates degraded/restored half-cycles.
                yield sim.timeout(segment / 2)
                if cycle < fault.flaps - 1:
                    self.cluster.set_nic_bandwidth(fault.instance_id, nominal)
                    self.record(
                        "chaos-link", f"instance{fault.instance_id}",
                        fault.instance_id, 1.0,
                        instance=fault.instance_id, bandwidth_fraction=1.0,
                    )
                    yield sim.timeout(segment / 2)
        self.cluster.set_nic_bandwidth(fault.instance_id, nominal)
        self.record(
            "chaos-link", f"instance{fault.instance_id}",
            fault.instance_id, 1.0,
            instance=fault.instance_id, bandwidth_fraction=1.0,
        )
