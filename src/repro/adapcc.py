"""The AdapCC user-facing session API (paper Sec. VI-A).

Mirrors how a training script uses the real library::

    import adapcc
    adapcc.init()        # detect topology, profile links, build strategies
    adapcc.setup()       # register buffers / transmission contexts
    ...
    adapcc.allreduce(tensor)
    adapcc.profile(period=500)   # periodic re-profiling

Here the session owns a simulated cluster instead of real GPUs::

    from repro import AdapCCSession
    from repro.hardware import make_hetero_cluster

    session = AdapCCSession(make_hetero_cluster())
    session.init()
    session.setup()
    out = session.allreduce({rank: tensor for rank, tensor in ...})
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ReproError
from repro.hardware.cluster import Cluster
from repro.hardware.instance import InstanceSpec
from repro.observe.watchdog import ObserveConfig, Watchdog
from repro.profiling.profiler import Profiler
from repro.relay.coordinator import AdaptiveAllReduce
from repro.runtime.collectives import CollectiveResult, launch
from repro.runtime.context import ContextManager, TransmissionContext
from repro.simulation.engine import Simulator
from repro.synthesis.optimizer import Synthesizer, SynthesizerConfig
from repro.synthesis.strategy import Primitive, Strategy
from repro.telemetry.core import TelemetryHub
from repro.topology.detector import DetectionReport, Detector
from repro.topology.graph import LogicalTopology


class AdapCCSession:
    """One training job's AdapCC instance on a simulated cluster."""

    def __init__(
        self,
        instance_specs: Sequence[InstanceSpec],
        config: Optional[SynthesizerConfig] = None,
        seed: int = 0,
        verify: bool = True,
        telemetry: Union[None, bool, TelemetryHub] = None,
        observe: Union[None, bool, ObserveConfig] = None,
    ):
        if isinstance(telemetry, TelemetryHub):
            telemetry.enable()
        elif telemetry is not None:
            telemetry = TelemetryHub(enabled=telemetry)
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, instance_specs, hub=telemetry)
        #: The hub this session's cluster records into: the process default
        #: (``REPRO_TELEMETRY``) for ``None``, a fresh hub of the session's
        #: own for ``True``/``False``, the given :class:`TelemetryHub`
        #: (enabled) otherwise. Nothing is installed process-wide.
        self.telemetry = self.cluster.hub
        self.config = config
        self.seed = seed
        #: Static verification: when on, every synthesized strategy is
        #: checked by :func:`repro.analysis.assert_valid` before first use,
        #: here and in the session's adaptive relay.
        self.verify = verify
        self.topology: Optional[LogicalTopology] = None
        self.detection: Optional[DetectionReport] = None
        self.profiler: Optional[Profiler] = None
        self.synthesizer: Optional[Synthesizer] = None
        self.contexts: Optional[ContextManager] = None
        self.adaptive: Optional[AdaptiveAllReduce] = None
        self._strategies: Dict = {}
        self._active_contexts: List[TransmissionContext] = []
        self._profile_period: Optional[int] = None
        self._collectives_run = 0
        #: Closed-loop observability: ``True`` or an :class:`ObserveConfig`
        #: arms a :class:`~repro.observe.watchdog.Watchdog` on the live
        #: telemetry stream at :meth:`init` (requires an enabled hub).
        #: The watchdog replaces fixed-period re-profiling with verdict-
        #: driven targeted re-probes — see :meth:`profile`.
        if observe is True:
            self._observe_config: Optional[ObserveConfig] = ObserveConfig()
        elif observe is False or observe is None:
            self._observe_config = None
        else:
            self._observe_config = observe
        self.watchdog: Optional[Watchdog] = None
        self._last_strategy_key = None

    # -- lifecycle -------------------------------------------------------------------

    def init(self) -> "AdapCCSession":
        """Detect topology, build the logical graph, run the first
        profiling pass, and create the synthesizer (``adapcc.init()``)."""
        detector = Detector(self.cluster)
        self.detection = detector.detect()
        self.topology = LogicalTopology.from_cluster(
            self.cluster, nvlink_pairs=self.detection.nvlink_pairs_by_instance()
        )
        self.profiler = Profiler(self.topology)
        self.profiler.profile()
        self.synthesizer = Synthesizer(self.topology, self.config)
        self.adaptive = AdaptiveAllReduce(self.topology, seed=self.seed, verify=self.verify)
        self._arm_watchdog()
        return self

    def setup(self) -> float:
        """Create the context manager (``adapcc.setup()``); returns the
        simulated seconds the set-up consumed (0 until strategies exist —
        contexts are set up lazily per strategy)."""
        self._require_init()
        self.contexts = ContextManager(self.cluster)
        return 0.0

    def profile(self, period: Optional[int] = None) -> None:
        """Enable re-profiling (``adapcc.profile()``).

        With a ``period``, re-profile every that many collectives — the
        paper's original fixed cadence. With no ``period`` the session
        must have been created with ``observe=`` armed: re-probing is then
        *watchdog-triggered* — the observe loop probes only the links its
        verdicts implicate, exactly when its detectors fire, and blind
        periodic passes are switched off.
        """
        if period is None:
            if self.watchdog is None and self._observe_config is None:
                raise ReproError(
                    "profile() without a period needs observe= enabled: "
                    "pass a period, or create the session with observe=True"
                )
            self._profile_period = None
            return
        if period < 1:
            raise ReproError("profiling period must be >= 1")
        self._profile_period = period

    def reprofile_now(self) -> None:
        """Force a profiling pass and invalidate cached strategies."""
        self._require_init()
        self.profiler.profile()
        self._strategies.clear()

    def scale_out(self, spec: InstanceSpec) -> List[int]:
        """Elastic scaling: attach a new instance mid-job (Sec. IV-A).

        Re-runs detection (the new instance's workers trigger the
        Detector), rebuilds the logical topology, re-profiles, and drops
        cached strategies so the next collective includes the new ranks —
        no restart. Returns the new global ranks.
        """
        self._require_init()
        instance = self.cluster.add_instance(spec)
        detector = Detector(self.cluster)
        self.detection = detector.detect()
        self.topology = LogicalTopology.from_cluster(
            self.cluster, nvlink_pairs=self.detection.nvlink_pairs_by_instance()
        )
        self.profiler = Profiler(self.topology)
        self.profiler.profile()
        self.synthesizer = Synthesizer(self.topology, self.config)
        self.adaptive = AdaptiveAllReduce(self.topology, seed=self.seed, verify=self.verify)
        if self.contexts is not None:
            self.contexts = ContextManager(self.cluster)
        self._strategies.clear()
        self._last_strategy_key = None
        self._arm_watchdog()
        return [gpu.rank for gpu in instance.gpus]

    # -- collectives -------------------------------------------------------------------

    def allreduce(
        self,
        tensors: Dict[int, np.ndarray],
        ready_times: Optional[Dict[int, Optional[float]]] = None,
        adaptive: bool = True,
        byte_scale: float = 1.0,
    ):
        """AllReduce across all ranks; adaptive relay control by default."""
        if adaptive and ready_times:
            strategy = self._strategy(Primitive.ALLREDUCE, tensors, byte_scale)
            self._tick()
            return self._observed(
                self.adaptive.run(strategy, tensors, ready_times, byte_scale=byte_scale)
            )
        clean = {r: (t or 0.0) for r, t in (ready_times or {}).items()}
        return self._run(Primitive.ALLREDUCE, tensors, byte_scale, ready_times=clean)

    def reduce(self, tensors, root: int = 0, byte_scale: float = 1.0) -> CollectiveResult:
        """Reduce: the root rank receives the elementwise sum."""
        return self._run(Primitive.REDUCE, tensors, byte_scale, root=root)

    def broadcast(self, tensors, root: int = 0, byte_scale: float = 1.0) -> CollectiveResult:
        """Broadcast: every rank receives the root's tensor."""
        return self._run(Primitive.BROADCAST, tensors, byte_scale, root=root)

    def alltoall(self, tensors, byte_scale: float = 1.0) -> CollectiveResult:
        """AlltoAll: rank d's block s is rank s's block d (token dispatch)."""
        return self._run(Primitive.ALLTOALL, tensors, byte_scale)

    def allgather(self, tensors, byte_scale: float = 1.0) -> CollectiveResult:
        """AllGather: every rank receives all shards, in rank order."""
        return self._run(Primitive.ALLGATHER, tensors, byte_scale)

    def reduce_scatter(self, tensors, byte_scale: float = 1.0) -> CollectiveResult:
        """ReduceScatter: rank r receives the sum of partition r."""
        return self._run(Primitive.REDUCE_SCATTER, tensors, byte_scale)

    # -- internals -----------------------------------------------------------------------

    def _run(
        self, primitive, tensors, byte_scale, root=None, ready_times=None
    ) -> CollectiveResult:
        """Run one collective to completion and feed it to the watchdog."""
        strategy = self._strategy(primitive, tensors, byte_scale, root=root)
        self._tick()
        return self._observed(
            launch(
                self.topology, strategy, tensors, ready_times=ready_times, byte_scale=byte_scale
            ).wait()
        )

    def _require_init(self) -> None:
        if self.topology is None:
            raise ReproError("call session.init() first")

    def _arm_watchdog(self) -> None:
        """(Re)build the observe watchdog against the current topology.

        Called from :meth:`init` and again from :meth:`scale_out` — the
        watchdog's detectors are keyed by link name, and a rebuilt
        topology means fresh links, fresh baselines, fresh strategy hooks.
        """
        if self._observe_config is None or not self._observe_config.enabled:
            return
        if self.watchdog is not None:
            self.watchdog.detach()
        self.watchdog = Watchdog(
            self.topology,
            config=self._observe_config,
            profiler=self.profiler,
            current_strategy=self._observed_strategy,
            resynthesize=self._resynthesize_for_observe,
            synthesizer=self.synthesizer,
        ).attach(self.telemetry)

    def _observed_strategy(self) -> Optional[Strategy]:
        """The watchdog's view of 'the live strategy': the one the most
        recent collective ran with."""
        if self._last_strategy_key is None:
            return None
        return self._strategies.get(self._last_strategy_key)

    def _resynthesize_for_observe(self, reason: str) -> Optional[Strategy]:
        """Watchdog hook: replace the live strategy under refreshed costs."""
        key = self._last_strategy_key
        if key is None:
            return None
        self._strategies.pop(key, None)
        return self._strategy_for_key(key)

    def _observed(self, result):
        """Feed one finished collective to the watchdog (identity pass)."""
        if self.watchdog is not None:
            self.watchdog.end_iteration(
                self._collectives_run - 1, max(0.0, result.duration)
            )
        return result

    def _strategy(
        self,
        primitive: Primitive,
        tensors: Dict[int, np.ndarray],
        byte_scale: float,
        root: Optional[int] = None,
    ) -> Strategy:
        self._require_init()
        participants = tuple(sorted(tensors))
        sample = tensors[participants[0]]
        tensor_size = len(sample) * sample.itemsize * byte_scale
        key = (primitive, participants, float(tensor_size), root)
        self._last_strategy_key = key
        return self._strategy_for_key(key)

    def _strategy_for_key(self, key) -> Strategy:
        primitive, participants, tensor_size, root = key
        if key not in self._strategies:
            strategy = self.synthesizer.synthesize(
                primitive, tensor_size, list(participants), root=root
            )
            if self.verify:
                from repro.analysis.verify_strategy import assert_valid

                assert_valid(strategy, self.topology)
            if self.contexts is not None:
                planned = self.contexts.plan_contexts(strategy)
                self.contexts.setup_all(planned)
                self._active_contexts.extend(planned)
            self._strategies[key] = strategy
        return self._strategies[key]

    def _tick(self) -> None:
        self._collectives_run += 1
        if (
            self._profile_period
            and self._collectives_run % self._profile_period == 0
        ):
            self.reprofile_now()
