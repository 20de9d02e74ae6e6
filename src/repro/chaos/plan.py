"""Declarative, seed-replayable fault plans.

A :class:`FaultPlan` is the chaos subsystem's single source of truth: a
frozen list of fault events, each one a plain dataclass, plus the seed the
plan was generated from. Everything downstream — the injector, the runner,
the conformance suite — consumes the *plan*, never ambient randomness, so
any chaos run can be replayed bit-for-bit from ``FaultPlan.generate(seed,
...)`` (or from the explicit event list itself).

Six fault families (worker-level, the recovery control plane's, plus
the data-plane integrity layer's):

* :class:`StragglerFault` — a per-rank delay added to the tensor-ready
  time of one iteration (drives the ski-rental wait-vs-relay decision);
* :class:`CrashFault` — a worker crash at a chosen iteration, permanent
  (``rejoin_iteration=None``) or transient (the rank reports ``None``
  until it rejoins);
* :class:`LinkFault` — degradation or flapping of one instance's NIC
  bandwidth on the :class:`~repro.simulation.fluid.FluidNetwork`;
* :class:`CoordinatorCrashFault` — the acting coordinator's *control-plane
  role* dies mid-iteration (during the ski-rental decision, or between a
  strategy transition's prepare and commit), forcing a lease takeover and
  journal replay in :class:`~repro.recovery.control_plane.
  RecoveringControlPlane`;
* :class:`PartitionFault` — a set of ranks loses the control channel for a
  window of iterations and heals, exercising epoch fencing (split-brain
  resolution) without touching the data path;
* :class:`CorruptionFault` — silent data corruption on one link's payloads
  (a high-mantissa bit flip or a scaled payload), at the wire site
  (caught by per-hop checksums) or the kernel site (past verification —
  only the end-of-collective digest exchange sees it), single-shot or
  intermittent at a seeded per-transmission rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChaosError
from repro.integrity.channel import SITE_KERNEL, SITE_WIRE

#: Corruption-fault modes.
BITFLIP = "bitflip"
SCALE = "scale"

#: Coordinator-crash phases: during the ski-rental decision scan, or
#: between a strategy transition's prepare and its commit.
DECIDE_PHASE = "decide"
TRANSITION_PHASE = "transition"

# Shape of a :meth:`FaultPlan.generate` draw.
#: Upper bound of a straggler's uniform ready-time delay (seconds).
MAX_DELAY_SECONDS = 0.1
#: Share of worker crashes that rejoin later in the run.
TRANSIENT_FRACTION = 0.5
#: Share of coordinator crashes that land mid-transition, not mid-decision.
TRANSITION_CRASH_FRACTION = 0.25


@dataclass(frozen=True)
class StragglerFault:
    """Delay ``rank``'s tensor-ready time by ``delay_seconds`` at one
    iteration."""

    rank: int
    iteration: int
    delay_seconds: float

    def __post_init__(self) -> None:
        if self.delay_seconds < 0:
            raise ChaosError("straggler delay must be non-negative")
        if self.iteration < 0:
            raise ChaosError("iteration must be non-negative")


@dataclass(frozen=True)
class CrashFault:
    """``rank`` crashes at ``iteration``; a transient crash rejoins at
    ``rejoin_iteration`` (exclusive of the crash window), a permanent one
    never does."""

    rank: int
    iteration: int
    rejoin_iteration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ChaosError("iteration must be non-negative")
        if self.rejoin_iteration is not None and self.rejoin_iteration <= self.iteration:
            raise ChaosError("rejoin must happen after the crash")

    def down_at(self, iteration: int) -> bool:
        """Whether the worker is down during ``iteration``."""
        if iteration < self.iteration:
            return False
        return self.rejoin_iteration is None or iteration < self.rejoin_iteration


@dataclass(frozen=True)
class LinkFault:
    """Degrade one instance's NIC to ``bandwidth_fraction`` of nominal at
    ``start_seconds`` (simulated time) for ``duration_seconds``.

    With ``flaps > 1`` the window is split into that many down/up cycles
    (half degraded, half restored each), modelling a flapping link rather
    than a single sag. The nominal bandwidth is always restored at the end
    of the window.
    """

    instance_id: int
    start_seconds: float
    duration_seconds: float
    bandwidth_fraction: float
    flaps: int = 1

    def __post_init__(self) -> None:
        if self.start_seconds < 0 or self.duration_seconds <= 0:
            raise ChaosError("link fault window must be positive and start at t>=0")
        if not 0.0 <= self.bandwidth_fraction < 1.0:
            raise ChaosError("bandwidth fraction must be in [0, 1)")
        if self.flaps < 1:
            raise ChaosError("flaps must be >= 1")


@dataclass(frozen=True)
class CoordinatorCrashFault:
    """Kill the acting coordinator's control-plane role at ``iteration``.

    Whoever holds the lease when the fault fires is the victim — the plan
    names the *moment*, not the rank, because the rank depends on earlier
    elections. ``phase`` places the crash inside the iteration: during the
    ski-rental ``decide`` scan, or in a strategy ``transition`` between
    prepare and commit (the rollback path). The victim's worker keeps
    running: only its coordination agent dies and restarts as a follower.
    """

    iteration: int
    phase: str = DECIDE_PHASE

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ChaosError("iteration must be non-negative")
        if self.phase not in (DECIDE_PHASE, TRANSITION_PHASE):
            raise ChaosError(f"unknown coordinator-crash phase {self.phase!r}")


@dataclass(frozen=True)
class PartitionFault:
    """Cut ``ranks`` off the control channel from ``iteration`` until the
    heal at ``heal_iteration`` (exclusive of the partition window).

    Control-channel-only: isolated ranks keep exchanging tensors on the
    data network, but stop hearing epoch announcements — so if the
    partition swallowed the coordinator, the majority side elects a new
    one and the deposed incumbent's first post-heal message is fenced.
    """

    ranks: Tuple[int, ...]
    iteration: int
    heal_iteration: int

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ChaosError("a partition isolates at least one rank")
        if self.iteration < 0:
            raise ChaosError("iteration must be non-negative")
        if self.heal_iteration <= self.iteration:
            raise ChaosError("heal must happen after the partition starts")


@dataclass(frozen=True)
class CorruptionFault:
    """Silently corrupt payloads crossing ``link`` (e.g. ``"n0->n1"``).

    ``mode`` picks the mutation — :data:`BITFLIP` XORs a high mantissa
    bit of one nonzero element (a classic SDC: large relative
    displacement, no NaN), :data:`SCALE` multiplies the whole payload by
    ``scale_factor``. ``site`` places the corruption relative to the hop
    checksums: :data:`~repro.integrity.channel.SITE_WIRE` lands between
    stamp and verify (the receiver's CRC32 names the link immediately),
    :data:`~repro.integrity.channel.SITE_KERNEL` lands after verification
    (the aggregation buffer), so only the digest exchange catches it.

    ``rate`` is the per-transmission corruption probability over the
    active window ``[start_iteration, end_iteration)`` (``1.0`` =
    deterministic, below = intermittent; draws come from the plan-seeded
    corruptor, so replays are bit-for-bit). ``max_corruptions`` caps the
    total strikes — ``1`` models a single-shot upset.
    """

    link: str
    mode: str = BITFLIP
    rate: float = 1.0
    start_iteration: int = 0
    end_iteration: Optional[int] = None
    site: str = SITE_WIRE
    max_corruptions: Optional[int] = None
    scale_factor: float = 2.0

    def __post_init__(self) -> None:
        if "->" not in self.link:
            raise ChaosError(f"corruption link must name a hop, got {self.link!r}")
        if self.mode not in (BITFLIP, SCALE):
            raise ChaosError(f"unknown corruption mode {self.mode!r}")
        if not 0.0 < self.rate <= 1.0:
            raise ChaosError("corruption rate must be in (0, 1]")
        if self.start_iteration < 0:
            raise ChaosError("iteration must be non-negative")
        if self.end_iteration is not None and self.end_iteration <= self.start_iteration:
            raise ChaosError("corruption window must end after it starts")
        if self.site not in (SITE_WIRE, SITE_KERNEL):
            raise ChaosError(f"unknown corruption site {self.site!r}")
        if self.max_corruptions is not None and self.max_corruptions < 1:
            raise ChaosError("max_corruptions must be >= 1")
        if self.mode == SCALE and (self.scale_factor <= 0 or self.scale_factor == 1.0):
            raise ChaosError("scale factor must be positive and != 1")

    def active_at(self, iteration: int) -> bool:
        """Whether the fault's window covers ``iteration``."""
        if iteration < self.start_iteration:
            return False
        return self.end_iteration is None or iteration < self.end_iteration


@dataclass(frozen=True)
class FaultPlan:
    """One replayable chaos schedule for a multi-iteration run."""

    seed: int
    iterations: int
    stragglers: Tuple[StragglerFault, ...] = ()
    crashes: Tuple[CrashFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    coordinator_crashes: Tuple[CoordinatorCrashFault, ...] = ()
    partitions: Tuple[PartitionFault, ...] = ()
    corruptions: Tuple[CorruptionFault, ...] = ()

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ChaosError("a plan covers at least one iteration")
        crashed_ranks = [c.rank for c in self.crashes]
        if len(crashed_ranks) != len(set(crashed_ranks)):
            raise ChaosError("at most one crash fault per rank")
        crash_iterations = [c.iteration for c in self.coordinator_crashes]
        if len(crash_iterations) != len(set(crash_iterations)):
            raise ChaosError("at most one coordinator crash per iteration")
        corrupted_links = [c.link for c in self.corruptions]
        if len(corrupted_links) != len(set(corrupted_links)):
            raise ChaosError("at most one corruption fault per link")

    # -- queries ---------------------------------------------------------------

    def ready_delays(
        self, iteration: int, participants: Sequence[int]
    ) -> Dict[int, Optional[float]]:
        """Per-rank ready delays for one iteration: straggler delays where
        scheduled, ``None`` for ranks down (crashed) this iteration, 0.0
        otherwise."""
        delays: Dict[int, Optional[float]] = {rank: 0.0 for rank in participants}
        for straggler in self.stragglers:
            if straggler.iteration == iteration and straggler.rank in delays:
                delays[straggler.rank] = straggler.delay_seconds
        for crash in self.crashes:
            if crash.rank in delays and crash.down_at(iteration):
                delays[crash.rank] = None
        return delays

    def rejoining_at(self, iteration: int) -> List[int]:
        """Ranks whose transient crash ends exactly at ``iteration``."""
        return sorted(
            c.rank for c in self.crashes if c.rejoin_iteration == iteration
        )

    def coordinator_crash_at(self, iteration: int) -> Optional[CoordinatorCrashFault]:
        """The coordinator-role crash scheduled for ``iteration``, if any."""
        for fault in self.coordinator_crashes:
            if fault.iteration == iteration:
                return fault
        return None

    def partitions_starting_at(self, iteration: int) -> List[PartitionFault]:
        """Partitions whose isolation window opens at ``iteration``."""
        return [p for p in self.partitions if p.iteration == iteration]

    def partitions_healing_at(self, iteration: int) -> List[PartitionFault]:
        """Partitions whose heal lands exactly at ``iteration``."""
        return [p for p in self.partitions if p.heal_iteration == iteration]

    def ground_truth(self) -> List[Dict[str, object]]:
        """Anomaly labels this plan should produce, for detection scoring.

        The observe watchdog's quality harness (:mod:`repro.observe.quality`)
        treats the fault plan as ground truth: every link fault is one
        anomaly window an online detector ought to flag (as interference
        onset, bandwidth drift, or — via fit residuals — topology-change
        suspicion on the faulted instance's NIC), and every rank with
        scheduled stragglers is one straggler-emergence label over those
        iterations. Labels are plain dicts so chaos stays independent of
        the observe package.
        """
        labels: List[Dict[str, object]] = []
        for fault in self.link_faults:
            labels.append(
                {
                    "kinds": ("interference-onset", "bandwidth-drift", "topology-change"),
                    "node": f"n{fault.instance_id}",
                    "start_seconds": fault.start_seconds,
                    "end_seconds": fault.start_seconds + fault.duration_seconds,
                }
            )
        straggler_iterations: Dict[int, List[int]] = {}
        for straggler in self.stragglers:
            straggler_iterations.setdefault(straggler.rank, []).append(
                straggler.iteration
            )
        for rank in sorted(straggler_iterations):
            labels.append(
                {
                    "kinds": ("straggler-emergence",),
                    "subject": f"rank{rank}",
                    "iterations": tuple(sorted(straggler_iterations[rank])),
                }
            )
        for fault in self.corruptions:
            labels.append(
                {
                    "kinds": ("silent-corruption",),
                    "link": fault.link,
                    "mode": fault.mode,
                    "site": fault.site,
                    "start_iteration": fault.start_iteration,
                    "end_iteration": fault.end_iteration,
                }
            )
        return labels

    def signature(self) -> Tuple:
        """A stable value equal across replays of the same plan (used by the
        determinism conformance tests)."""
        return (
            self.seed,
            self.iterations,
            self.stragglers,
            self.crashes,
            self.link_faults,
            self.coordinator_crashes,
            self.partitions,
            self.corruptions,
        )

    # -- generation ------------------------------------------------------------

    @classmethod
    def interference(
        cls,
        seed: int,
        iterations: int,
        instance_id: int = 0,
        start_seconds: float = 0.8,
        duration_seconds: float = 60.0,
        bandwidth_fraction: float = 0.3,
    ) -> "FaultPlan":
        """A plan with one long NIC degradation and nothing else.

        The canonical observe-watchdog scenario: an external workload
        starts contending for ``instance_id``'s NIC at ``start_seconds``
        and keeps squeezing it to ``bandwidth_fraction`` of nominal for
        ``duration_seconds`` — long enough that the watchdog must detect
        it online and adapt, rather than outlive it. The defaults assume
        iterations of roughly a tenth of a simulated second (e.g.
        ``ChaosRunner(..., length=512, byte_scale=200_000.0)``) so the
        onset lands around iteration eight, after the detectors' warm-up.
        Used by the ``--observe`` lint pass, the detection-quality tests,
        and ``examples/adaptive_interference.py``.
        """
        return cls(
            seed=seed,
            iterations=iterations,
            link_faults=(
                LinkFault(
                    instance_id=instance_id,
                    start_seconds=start_seconds,
                    duration_seconds=duration_seconds,
                    bandwidth_fraction=bandwidth_fraction,
                ),
            ),
        )

    @classmethod
    def corruption(
        cls,
        seed: int,
        iterations: int,
        link: str,
        mode: str = BITFLIP,
        rate: float = 0.6,
        site: str = SITE_WIRE,
        start_iteration: int = 0,
        end_iteration: Optional[int] = None,
        max_corruptions: Optional[int] = None,
        scale_factor: float = 2.0,
    ) -> "FaultPlan":
        """A plan with one silently-corrupting link and nothing else.

        The canonical integrity scenario: ``link`` intermittently (at the
        default ``rate=0.6``) corrupts payloads it carries, and the
        integrity layer must detect it within one iteration, localize it
        within the log2 probe bound, quarantine it, and retry the
        corrupted iterations so the run's outputs stay bitwise-equal to
        the fault-free same-seed run. Used by the ``--integrity`` lint
        pass, ``tests/test_integrity.py``, and
        ``examples/sdc_quarantine.py``.
        """
        return cls(
            seed=seed,
            iterations=iterations,
            corruptions=(
                CorruptionFault(
                    link=link,
                    mode=mode,
                    rate=rate,
                    start_iteration=start_iteration,
                    end_iteration=end_iteration,
                    site=site,
                    max_corruptions=max_corruptions,
                    scale_factor=scale_factor,
                ),
            ),
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        world: int,
        iterations: int,
        straggler_rate: float = 0.3,
        crash_rate: float = 0.1,
        link_fault_rate: float = 0.0,
        num_instances: int = 0,
        coordinator_crash_rate: float = 0.0,
        partition_rate: float = 0.0,
        corruption_rate: float = 0.0,
        corruption_links: Sequence[str] = (),
    ) -> "FaultPlan":
        """Draw a random-but-replayable plan from ``seed``.

        All randomness flows through one ``numpy.random.Generator`` seeded
        here, so two calls with identical arguments produce identical plans
        (asserted property-based in the conformance suite). Rank 0 is never
        *worker*-crashed, and at least one rank is left alive at every
        iteration by capping concurrent crashes at ``world - 2``.
        Coordinator-role crashes are a separate family: they may hit any
        incumbent (rank 0 included) because the recovery control plane is
        expected to elect a successor.
        """
        if world < 2:
            raise ChaosError("chaos plans need at least two ranks")
        rng = np.random.default_rng(seed)
        stragglers: List[StragglerFault] = []
        crashes: List[CrashFault] = []
        link_faults: List[LinkFault] = []

        crashable = list(range(1, world))
        rng.shuffle(crashable)
        max_crashes = max(0, world - 2)
        for rank in crashable[:max_crashes]:
            if rng.random() >= crash_rate:
                continue
            at = int(rng.integers(0, iterations))
            if rng.random() < TRANSIENT_FRACTION and at + 1 < iterations:
                rejoin = int(rng.integers(at + 1, iterations))
                crashes.append(CrashFault(rank, at, rejoin_iteration=rejoin))
            else:
                crashes.append(CrashFault(rank, at))
        down_ranks = {c.rank for c in crashes}

        for iteration in range(iterations):
            for rank in range(world):
                if rank in down_ranks:
                    continue
                if rng.random() < straggler_rate:
                    delay = float(rng.uniform(0.0, MAX_DELAY_SECONDS))
                    stragglers.append(StragglerFault(rank, iteration, delay))

        for instance_id in range(num_instances):
            if rng.random() >= link_fault_rate:
                continue
            start = float(rng.uniform(0.0, 0.05))
            duration = float(rng.uniform(0.01, 0.1))
            fraction = float(rng.uniform(0.05, 0.8))
            flaps = int(rng.integers(1, 4))
            link_faults.append(
                LinkFault(instance_id, start, duration, fraction, flaps=flaps)
            )

        coordinator_crashes: List[CoordinatorCrashFault] = []
        partitions: List[PartitionFault] = []
        if coordinator_crash_rate > 0:
            for iteration in range(iterations):
                if rng.random() >= coordinator_crash_rate:
                    continue
                phase = (
                    TRANSITION_PHASE
                    if rng.random() < TRANSITION_CRASH_FRACTION
                    else DECIDE_PHASE
                )
                coordinator_crashes.append(CoordinatorCrashFault(iteration, phase))
        if partition_rate > 0 and iterations > 1:
            # Isolate a strict minority — small enough that the reachable
            # remainder still forms a commit quorum — excluding crashed
            # ranks so a partitioned rank always has a control agent to
            # fence after the heal. Windows never overlap: stacked
            # partitions could jointly isolate past the minority bound.
            isolatable = [r for r in range(world) if r not in down_ranks]
            max_isolated = (len(isolatable) - 1) // 2
            busy_until = 0
            for iteration in range(iterations - 1):
                if iteration < busy_until or max_isolated < 1:
                    continue
                if rng.random() >= partition_rate:
                    continue
                size = int(rng.integers(1, max_isolated + 1))
                chosen = rng.choice(isolatable, size=size, replace=False)
                heal = int(rng.integers(iteration + 1, iterations))
                busy_until = heal
                partitions.append(
                    PartitionFault(tuple(sorted(int(r) for r in chosen)), iteration, heal)
                )

        corruptions: List[CorruptionFault] = []
        if corruption_rate > 0:
            # Drawn last so plans generated with the pre-corruption rate
            # set replay unchanged (same rng consumption order).
            for link in corruption_links:
                if rng.random() >= corruption_rate:
                    continue
                mode = BITFLIP if rng.random() < 0.5 else SCALE
                site = SITE_WIRE if rng.random() < 0.5 else SITE_KERNEL
                strike_rate = float(rng.uniform(0.3, 1.0))
                start = int(rng.integers(0, iterations))
                corruptions.append(
                    CorruptionFault(
                        link=link,
                        mode=mode,
                        rate=strike_rate,
                        start_iteration=start,
                        site=site,
                    )
                )

        return cls(
            seed=seed,
            iterations=iterations,
            stragglers=tuple(stragglers),
            crashes=tuple(crashes),
            link_faults=tuple(link_faults),
            coordinator_crashes=tuple(coordinator_crashes),
            partitions=tuple(partitions),
            corruptions=tuple(corruptions),
        )
