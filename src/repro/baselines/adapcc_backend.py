"""The AdapCC planner: profiler + synthesizer behind the common benchmark
interface, and the one place a job's strategies are made and replaced.

``refresh()`` re-profiles the topology and drops cached strategies — the
adaptivity loop the static baselines lack. Strategies are cached per
(primitive, size, participants, root) between refreshes, matching the real
system where synthesis runs at profiling periods, not per iteration
(Sec. IV-B, VI-A); each is verified once, when it enters the cache.
:meth:`AdapCCBackend.replan` re-synthesizes one key under the current
estimates, and :attr:`AdapCCBackend.live` is the strategy the last
``plan()`` or ``replan()`` returned — what the observe watchdog re-scores.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.common import Backend, register_backend
from repro.profiling.profiler import Profiler
from repro.runtime.context import ContextManager, TransmissionContext
from repro.synthesis.optimizer import Synthesizer, SynthesizerConfig
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import LogicalTopology


@register_backend
class AdapCCBackend(Backend):
    """The paper's system: profiled synthesis with strategy caching."""

    name = "adapcc"

    def __init__(
        self,
        topology: LogicalTopology,
        config: Optional[SynthesizerConfig] = None,
        profile_on_init: bool = True,
    ):
        super().__init__(topology)
        self.synthesizer = Synthesizer(topology, config)
        self.profiler = Profiler(topology)
        #: When set (``AdapCCSession.setup()``), each strategy entering the
        #: cache gets its transmission contexts set up here, and each one
        #: leaving it (replaced or refreshed away) has them torn down.
        self.contexts: Optional[ContextManager] = None
        self._cache: Dict[Tuple, Tuple[Strategy, List[TransmissionContext]]] = {}
        self._live_key: Optional[Tuple] = None
        if profile_on_init:
            self.profiler.profile()

    @staticmethod
    def key(
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Tuple:
        """The cache key of one request."""
        return (primitive, tensor_size, tuple(sorted(participants)), root)

    @property
    def live(self) -> Optional[Strategy]:
        """The strategy the last ``plan()``/``replan()`` returned, while cached."""
        entry = self._cache.get(self._live_key)
        return entry[0] if entry is not None else None

    def plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """The cached strategy for this request; a miss synthesizes it."""
        key = self.key(primitive, tensor_size, participants, root)
        entry = self._cache.get(key)
        if entry is None:
            return self.replan(key)
        self._live_key = key
        return entry[0]

    def replan(self, key: Optional[Tuple] = None) -> Strategy:
        """Synthesize ``key`` (default: the live strategy's) afresh under
        the current estimates, verify it, and make it cached and live."""
        if key is None:
            key = self._live_key
        strategy = super().plan(*key)
        self._release(self._cache.pop(key, None))
        contexts: List[TransmissionContext] = []
        if self.contexts is not None:
            contexts = self.contexts.plan_contexts(strategy)
            self.contexts.setup_all(contexts)
        self._cache[key] = (strategy, contexts)
        self._live_key = key
        return strategy

    def _plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        return self.synthesizer.synthesize(primitive, tensor_size, list(participants), root=root)

    def _release(self, entry) -> None:
        if entry is not None and entry[1]:
            self.contexts.teardown(entry[1])

    def refresh(self) -> None:
        """Re-profile links and invalidate cached strategies (Sec. IV-B)."""
        self.profiler.profile()
        for entry in self._cache.values():
            self._release(entry)
        self._cache.clear()
