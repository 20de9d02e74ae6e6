"""Backend interface shared by AdapCC and the baseline models.

A backend turns (primitive, tensor size, participants) into a strategy and
executes it. The interface deliberately mirrors how the paper's benchmarks
drive each library: plan once (or per profiling period for AdapCC), run
per iteration, measure completion time.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import CommunicatorError
from repro.runtime.collectives import CollectiveResult, launch
from repro.runtime.partition import check_uniform_inputs
from repro.runtime.verify import assert_valid
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import LogicalTopology


class Backend(abc.ABC):
    """A communication library under test."""

    #: Display name used in benchmark tables.
    name: str = "backend"

    def __init__(self, topology: LogicalTopology):
        self.topology = topology
        #: Whether :meth:`plan` statically verifies what it produces.
        self.verify = True

    def plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """Produce (and optionally statically verify) this backend's strategy.

        Template method: backends implement :meth:`_plan`; the produced
        strategy is run through :func:`repro.runtime.verify.assert_valid` when
        verification is enabled, so every baseline's output is held to the
        same invariants as the synthesizer's.
        """
        strategy = self._plan(primitive, tensor_size, participants, root=root)
        if self.verify:
            assert_valid(strategy, self.topology)
        return strategy

    @abc.abstractmethod
    def _plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """Produce the strategy this backend would use."""

    def refresh(self) -> None:
        """React to changed network conditions.

        AdapCC re-profiles and re-synthesizes; static baselines do nothing
        (their strategies are fixed at initialization), which is the
        adaptivity gap Fig. 18 measures.
        """

    def run(
        self,
        strategy: Strategy,
        inputs: Dict[int, np.ndarray],
        active_ranks: Optional[Iterable[int]] = None,
        ready_times: Optional[Dict[int, float]] = None,
        byte_scale: float = 1.0,
        max_chunks: Optional[int] = None,
    ) -> CollectiveResult:
        """Execute a planned strategy on this backend's executor."""
        return launch(
            self.topology,
            strategy,
            inputs,
            active_ranks,
            ready_times,
            byte_scale,
            max_chunks,
            pipeline_stages=self.pipelines_stages(),
        ).wait()

    def pipelines_stages(self) -> bool:
        """Whether AllReduce's reduce and broadcast stages are pipelined."""
        return True

    def plan_and_run(
        self,
        primitive: Primitive,
        inputs: Dict[int, np.ndarray],
        participants: Iterable[int],
        root: Optional[int] = None,
        ready_times: Optional[Dict[int, float]] = None,
    ) -> CollectiveResult:
        """Convenience: plan then run in one call (micro-benchmarks)."""
        length, dtype = check_uniform_inputs(inputs)
        strategy = self.plan(primitive, length * dtype.itemsize, list(participants), root=root)
        return self.run(strategy, inputs, ready_times=ready_times)


def instance_groups(
    topology: LogicalTopology, participants: Iterable[int]
) -> Dict[int, List[int]]:
    """``participants`` by instance, instances and ranks ascending: the rank
    order the baseline models lay their graphs out in."""
    groups: Dict[int, List[int]] = {}
    for rank in sorted(participants):
        groups.setdefault(topology.cluster.gpu(rank).instance_id, []).append(rank)
    return dict(sorted(groups.items()))


_REGISTRY: Dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator adding a backend to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def make_backend(name: str, topology: LogicalTopology, **kwargs) -> Backend:
    """Instantiate a backend by name ('adapcc', 'nccl', 'msccl', 'blink')."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise CommunicatorError(f"unknown backend {name!r}; have {available_backends()}")
    return cls(topology, **kwargs)
