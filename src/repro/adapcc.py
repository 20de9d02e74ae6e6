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

from repro.baselines.adapcc_backend import AdapCCBackend
from repro.errors import ReproError
from repro.hardware.cluster import Cluster
from repro.hardware.instance import InstanceSpec
from repro.observe.watchdog import ObserveConfig, Watchdog
from repro.relay.coordinator import AdaptiveAllReduce
from repro.runtime.collectives import CollectiveResult, launch
from repro.runtime.context import ContextManager
from repro.runtime.partition import check_uniform_inputs
from repro.simulation.engine import Simulator
from repro.synthesis.optimizer import SynthesizerConfig
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
        #: for ``None``, a fresh hub of the session's own for
        #: ``True``/``False``, the given :class:`TelemetryHub` (enabled)
        #: otherwise. Nothing is installed process-wide.
        self.telemetry = self.cluster.hub
        self.config = config
        self.seed = seed
        #: Static verification: when on, every synthesized strategy is
        #: checked by :func:`repro.runtime.verify.assert_valid` before first use,
        #: here and in the session's adaptive relay.
        self.verify = verify
        self.topology: Optional[LogicalTopology] = None
        self.detection: Optional[DetectionReport] = None
        #: The job's one planner: profiles, synthesizes, verifies, caches
        #: and re-plans (rebuilt with the topology by :meth:`scale_out`).
        self.planner: Optional[AdapCCBackend] = None
        self.contexts: Optional[ContextManager] = None
        self.adaptive: Optional[AdaptiveAllReduce] = None
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

    # -- lifecycle -------------------------------------------------------------------

    def init(self) -> "AdapCCSession":
        """Detect topology, build the logical graph, and create the planner,
        which runs the first profiling pass (``adapcc.init()``)."""
        self._build()
        return self

    def setup(self) -> float:
        """Create the context manager (``adapcc.setup()``); returns the
        simulated seconds the set-up consumed (0 until strategies exist —
        the planner sets contexts up lazily per strategy)."""
        self._require_init()
        self.contexts = self.planner.contexts = ContextManager(self.cluster)
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

    def scale_out(self, spec: InstanceSpec) -> List[int]:
        """Elastic scaling: attach a new instance mid-job (Sec. IV-A).

        Re-runs detection (the new instance's workers trigger the
        Detector), rebuilds the logical topology and a fresh planner, which
        re-profiles with an empty cache, so the next collective includes
        the new ranks — no restart. Returns the new global ranks.
        """
        self._require_init()
        instance = self.cluster.add_instance(spec)
        self._build()
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

    def _build(self) -> None:
        """Detect, build the logical topology, the planner (first profiling
        pass), the relay and the watchdog: :meth:`init` and :meth:`scale_out`.

        The watchdog's detectors are keyed by link name, and a rebuilt
        topology means fresh links, fresh baselines and a fresh planner.
        """
        self.detection = Detector(self.cluster).detect()
        self.topology = LogicalTopology.from_cluster(
            self.cluster, nvlink_pairs=self.detection.nvlink_pairs_by_instance()
        )
        self.planner = AdapCCBackend(self.topology, self.config)
        self.planner.verify = self.verify
        if self.contexts is not None:
            # The buffer registry is per GPU: a grown cluster needs a new one.
            self.contexts = self.planner.contexts = ContextManager(self.cluster)
        self.adaptive = AdaptiveAllReduce(self.topology, seed=self.seed, verify=self.verify)
        if self._observe_config is None or not self._observe_config.enabled:
            return
        if self.watchdog is not None:
            self.watchdog.detach()
        self.watchdog = Watchdog(
            self.topology, config=self._observe_config, planner=self.planner
        ).attach(self.telemetry)

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
        length, dtype = check_uniform_inputs(tensors)
        tensor_size = float(length * dtype.itemsize * byte_scale)
        return self.planner.plan(primitive, tensor_size, tensors, root=root)

    def _tick(self) -> None:
        self._collectives_run += 1
        if (
            self._profile_period
            and self._collectives_run % self._profile_period == 0
        ):
            self.planner.refresh()
