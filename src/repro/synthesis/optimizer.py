"""The synthesizer: search over routing × chunking × aggregation.

This is the offline substitute for the paper's Gurobi MILP (see DESIGN.md
§2): the objective and constraints are the paper's exactly — implemented in
:mod:`repro.synthesis.evaluator` — and the search enumerates structured
candidates:

* every routing family in :data:`repro.synthesis.routing.TREE_FAMILIES`,
* root placements (for AllReduce the M sub-collective roots are spread
  over instances, which is where M-way parallelism pays off),
* a geometric chunk-size grid,
* a greedy aggregation-flip pass on the winner.

The returned :class:`Strategy` carries the achieved objective in
``predicted_time`` and its provenance in ``routing_family``.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SynthesisError
from repro.synthesis.aggregation import improve_aggregation
from repro.synthesis.chunking import chunk_candidates
from repro.synthesis.decomposition import Decomposition, Part
from repro.synthesis.evaluator import (
    CompiledStrategy,
    Route,
    StrategyEvaluator,
    StructureCache,
)
from repro.synthesis.routing import (
    ROTATION_FREE,
    TREE_FAMILIES,
    alltoall_walks,
    flows_along,
    instance_network_bandwidth,
    tree_walks,
)
from repro.synthesis.strategy import MODE_MERGE, Flow, Primitive, Strategy, SubCollective
from repro.topology.graph import LogicalTopology


#: Route directions, the first field of a :class:`StructureCache` key.
_TO_ROOT, _FROM_ROOT, _DIRECT = 0, 1, 2

#: Families a screened search sweeps the full chunk grid on.
FINALISTS = 2


@dataclass
class SynthesizerConfig:
    """Tunables of the synthesis search."""

    #: Number of parallel sub-collectives M (the paper evaluates M in
    #: Fig. 19a and settles on 4).
    parallelism: int = 4
    #: Routing families to enumerate (names from TREE_FAMILIES).
    families: Tuple[str, ...] = tuple(TREE_FAMILIES)
    #: Override the chunk candidate grid (None = default geometric grid);
    #: each size is capped to the partition, duplicates are tried once.
    chunk_sizes: Optional[Tuple[float, ...]] = None
    #: Two-stage search: screen every family at one representative chunk
    #: size, then sweep the chunk grid only on the best :data:`FINALISTS`
    #: families. Cuts solve time ~3x at large scales (relevant to the
    #: paper's Fig. 19c reconstruction budget) with no observed quality
    #: loss; set False for the exhaustive product.
    screening: bool = True

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise SynthesisError("parallelism M must be >= 1")
        unknown = set(self.families) - set(TREE_FAMILIES)
        if unknown:
            raise SynthesisError(f"unknown routing families: {sorted(unknown)}")
        chunks = self.chunk_sizes
        if chunks is not None and not (chunks and all(0 < c < math.inf for c in chunks)):
            raise SynthesisError(f"chunk sizes must be finite and positive, got {chunks!r}")


@dataclass
class SynthesisReport:
    """Bookkeeping from one synthesize() call (for Fig. 19c)."""

    solve_seconds: float = 0.0
    candidates_evaluated: int = 0
    family_objectives: Dict[str, float] = field(default_factory=dict)


class CompiledScore:
    """The synthesizer's objective for one routed strategy, evaluated once.

    Keeps the structure the evaluator compiled — for AllReduce of both
    halves, the stored reduce flows and their reversal into the broadcast
    stage. ``score(chunk)`` then prices any chunk size with arithmetic alone.
    ``routes`` and ``mirrored`` are the two halves' cached routes, when the
    caller holds them; the strategy's flows are then not read.
    """

    def __init__(
        self,
        evaluator: StrategyEvaluator,
        strategy: Strategy,
        routes: Optional[Sequence[Route]] = None,
        mirrored: Optional[Sequence[Route]] = None,
    ):
        self.strategy = strategy
        self.routes = routes
        self.forward: CompiledStrategy = evaluator.evaluate(strategy, routes).compiled
        self.backward: Optional[CompiledStrategy] = None
        if strategy.primitive is Primitive.ALLREDUCE:
            reversed_strategy = Strategy(
                primitive=Primitive.BROADCAST,
                tensor_size=strategy.tensor_size,
                participants=strategy.participants,
                subcollectives=[
                    SubCollective(
                        index=sc.index,
                        size=sc.size,
                        chunk_size=sc.chunk_size,
                        flows=[Flow(f.dst, f.src, list(reversed(f.path))) for f in sc.flows],
                        root=sc.root,
                    )
                    for sc in strategy.subcollectives
                ],
            )
            self.backward = evaluator.evaluate(reversed_strategy, mirrored).compiled

    def score(self, chunk: Optional[float] = None) -> float:
        """Evaluator objective with every sub-collective at chunk size
        ``chunk`` (default: each sub-collective's own current chunk size);
        AllReduce adds the reversed broadcast half."""
        reduce_time = self.forward.objective(chunk)
        if self.backward is None:
            return reduce_time
        if chunk is None:
            # The mirrored half follows the strategy's current chunk sizes.
            for mirrored, sc in zip(
                self.backward.strategy.subcollectives, self.strategy.subcollectives
            ):
                mirrored.chunk_size = sc.chunk_size
        return _pipelined(reduce_time, self.backward.objective(chunk))

    def score_below(self, chunk: float, bound: float) -> Optional[float]:
        """``score(chunk)`` if it is below ``bound``, else None, timing no
        more sub-collectives than that answer needs. AllReduce's score is
        non-decreasing in each half, so a half at or above ``bound`` puts
        the score there too."""
        reduce_time = self.forward.objective_below(chunk, bound)
        if reduce_time is None or self.backward is None:
            return reduce_time
        broadcast_time = self.backward.objective_below(chunk, bound)
        if broadcast_time is None:
            return None
        predicted = _pipelined(reduce_time, broadcast_time)
        return predicted if predicted < bound else None

    def refresh_subcollective(self, position: int) -> Tuple:
        """Re-derive after sub-collective ``position`` changed aggregation
        flags; returns the state :meth:`restore` rolls back to. Broadcast
        replicas never aggregate, so AllReduce's reversed half stands."""
        return self.forward.refresh_subcollective(position)

    def restore(self, state: Tuple) -> None:
        """Roll back one :meth:`refresh_subcollective`."""
        self.forward.restore(state)


def _pipelined(reduce_time: float, broadcast_time: float) -> float:
    """AllReduce's objective from its two halves. The executor pipelines the
    two stages; the steady-state pace is set by the slower stage, with the
    faster stage's first-chunk latency as fill time."""
    return max(reduce_time, broadcast_time) + 0.25 * min(reduce_time, broadcast_time)


class Synthesizer:
    """Produces communication strategies from the (profiled) topology."""

    def __init__(
        self,
        topology: LogicalTopology,
        config: Optional[SynthesizerConfig] = None,
        include_kernel_time: bool = True,
    ):
        self.topology = topology
        self.config = config or SynthesizerConfig()
        self.evaluator = StrategyEvaluator(topology, include_kernel_time=include_kernel_time)
        #: Routed sub-collectives and their shapes, kept across rounds
        #: (DESIGN.md §3.1): a re-synthesis re-times, and routes only trees
        #: it has not seen.
        self.structures = StructureCache()
        self.last_report = SynthesisReport()

    # -- public API -------------------------------------------------------------

    def synthesize(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Sequence[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """Produce the best strategy found for one primitive invocation.

        ``root`` applies to Reduce/Broadcast (defaults to the lowest rank).
        ``tensor_size`` is the per-rank tensor size S in bytes.
        """
        request = Decomposition(primitive, tensor_size, participants, root)
        if tensor_size <= 0:
            raise SynthesisError("tensor size must be positive")
        started = time.perf_counter()
        self.last_report = SynthesisReport()
        participants = request.participants
        m = self.config.parallelism
        if len(participants) == 1:
            strategy = request.trivial()
        elif primitive is Primitive.ALLTOALL:
            strategy = self._search_direct(request, request.parts(m))
        else:
            # AllReduce spreads its M roots over instances; the executor
            # replays its stored reduce flows reversed as the broadcast half,
            # pipelined (Sec. V-B multi-stage parallelism).
            if primitive is Primitive.ALLREDUCE:
                channels = self._spread_roots(participants, m)
            else:
                channels = [request.root] * m
            strategy = self._search(request, request.parts(channels))

        self.structures.release_intern_table()
        self.last_report.solve_seconds = time.perf_counter() - started
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            # Recorded at the simulator's current instant: synthesis is
            # offline and does not advance simulated time, so the decision
            # pins to the moment the strategy becomes available.
            telemetry.instant(
                "synthesis-decision",
                self.topology.cluster.sim.now,
                category="synthesis",
                track="synthesizer",
                primitive=primitive.value,
                participants=len(participants),
                tensor_bytes=tensor_size,
                family=strategy.routing_family,
                objective=strategy.predicted_time,
                chunk_bytes=strategy.subcollectives[0].chunk_size,
                subcollectives=len(strategy.subcollectives),
                candidates_evaluated=self.last_report.candidates_evaluated,
                # solve_seconds is wall-clock and deliberately NOT recorded:
                # exports must stay byte-identical across same-seed runs.
                family_objectives=dict(
                    sorted(self.last_report.family_objectives.items())
                ),
            )
            telemetry.metrics.counter(
                "synthesis_decisions_total", "strategies synthesized"
            ).inc(primitive=primitive.value)
        return strategy

    # -- the search core ---------------------------------------------------------------

    def _search_direct(self, request: Decomposition, parts: List[Part]) -> Strategy:
        """AlltoAll: direct pairwise flows in every part; only the chunk
        size is searched."""
        participants = request.participants
        route = self.structures.route(
            array("i", [_DIRECT, *participants]).tobytes(),
            lambda: alltoall_walks(self.topology, participants),
        )
        chunks = self._chunks(parts[0].size)
        strategy = request.strategy(
            [
                request.subcollective(part, chunks[0], None, flows_along(route.paths))
                for part in parts
            ],
            "direct",
        )
        scored = CompiledScore(self.evaluator, strategy, [route] * len(parts))
        best: Optional[Tuple[float, float]] = None
        for chunk in chunks:
            predicted = scored.score(chunk)
            self.last_report.candidates_evaluated += 1
            if best is None or predicted < best[0]:
                best = (predicted, chunk)
        assert best is not None
        return self._settle(strategy, *best)

    def _search(self, request: Decomposition, parts: List[Part]) -> Strategy:
        """Enumerate families × chunk sizes for a rooted (tree) primitive
        split into ``parts``."""
        all_chunks = self._chunks(parts[0].size)
        # Route and compile each family once; every (family, chunk)
        # candidate below is then one timing pass over that structure.
        scored: Dict[str, CompiledScore] = {}
        for family_name in self.config.families:
            trees = [
                self._tree(family_name, request.participants, part.root, part.index)
                for part in parts
            ]
            scored[family_name] = self._routed(
                request, parts, trees, all_chunks[0], family_name
            )

        report = self.last_report
        finalists: Sequence[str] = self.config.families
        if self.config.screening and len(self.config.families) > FINALISTS:
            # Stage 1: rank families at one representative chunk size.
            screen_chunk = all_chunks[len(all_chunks) // 2]
            scores = []
            for family_name in self.config.families:
                predicted = scored[family_name].score(screen_chunk)
                scores.append((predicted, family_name))
                report.candidates_evaluated += 1
                report.family_objectives[family_name] = predicted
            scores.sort()
            # Stage 2: full chunk sweep on the finalists only.
            finalists = [name for _score, name in scores[:FINALISTS]]

        best: Optional[Tuple[float, float, str]] = None
        for family_name in finalists:
            for chunk in all_chunks:
                report.candidates_evaluated += 1
                current = report.family_objectives.get(family_name)
                if current is None or best is None:
                    predicted = scored[family_name].score(chunk)
                else:
                    # Only a value below the family's minimum or the best so
                    # far moves either, so the larger of them bounds it.
                    predicted = scored[family_name].score_below(chunk, max(current, best[0]))
                    if predicted is None:
                        continue
                if current is None or predicted < current:
                    report.family_objectives[family_name] = predicted
                if best is None or predicted < best[0]:
                    best = (predicted, chunk, family_name)
        assert best is not None
        predicted, chunk, family_name = best
        winner = scored[family_name]
        # Candidates are priced from their routes; only the winner's
        # sub-collectives get flows.
        for sc, route in zip(winner.strategy.subcollectives, winner.routes):
            sc.flows = flows_along(route.paths)
        strategy = self._settle(winner.strategy, predicted, chunk)
        if request.primitive.needs_aggregation:
            improve_aggregation(winner, chunk)
        return strategy

    def _routed(
        self,
        request: Decomposition,
        parts: List[Part],
        trees: List,
        chunk: float,
        family_name: str,
    ) -> CompiledScore:
        """Build and compile one family's strategy from its trees. Its
        sub-collectives carry no flows yet: the score reads their routes."""
        toward_root = request.primitive.mode == MODE_MERGE
        routed = [
            self._tree_route(tree, part.root, toward_root) for part, tree in zip(parts, trees)
        ]
        strategy = request.strategy(
            [request.subcollective(part, chunk, tree, []) for part, tree in zip(parts, trees)],
            family_name,
        )
        mirrored = None
        if request.primitive is Primitive.ALLREDUCE:
            # The broadcast half walks the same trees from their roots.
            mirrored = [
                self._tree_route(tree, part.root, toward_root=False)
                for part, tree in zip(parts, trees)
            ]
        return CompiledScore(self.evaluator, strategy, routed, mirrored)

    def _tree(
        self, family_name: str, participants: List[int], root: int, rotation: int
    ) -> Mapping[int, int]:
        """``family_name``'s tree, read-only, built once per estimate epoch
        and (participants, root, rotation where the family uses it): every
        search until the next estimate write shares it, so ReduceScatter
        reuses AllGather's trees and Broadcast reuses Reduce's."""
        if family_name in ROTATION_FREE:
            rotation = 0
        topology = self.topology
        return topology.derived(
            ("tree", family_name, tuple(participants), root, rotation),
            lambda: MappingProxyType(
                TREE_FAMILIES[family_name](topology, participants, root, rotation=rotation)
            ),
        )

    def _tree_route(self, tree: Mapping[int, int], root: int, toward_root: bool) -> Route:
        """The cached route of ``tree``'s walks to (or from) ``root``: keyed
        by the direction, the root and the parent pointers, in rank order."""
        direction = _TO_ROOT if toward_root else _FROM_ROOT
        key = array("i", [direction, root, *chain.from_iterable(sorted(tree.items()))]).tobytes()
        return self.structures.route(
            key, lambda: tree_walks(self.topology, tree, root, toward_root)
        )

    @staticmethod
    def _settle(strategy: Strategy, predicted: float, chunk: float) -> Strategy:
        """Fix the winning chunk size and its objective on a strategy."""
        for sc in strategy.subcollectives:
            sc.chunk_size = chunk
        strategy.predicted_time = predicted
        return strategy

    def finish_time(self, strategy: Strategy) -> float:
        """The strategy's eq.-4 finish time under *current* link estimates.

        ``strategy.predicted_time`` is frozen at synthesis time; this
        re-evaluates the same objective against whatever the topology's
        estimates say now. The observe watchdog compares the two after a
        targeted re-probe: a gap beyond its hysteresis threshold means the
        installed strategy is stale and re-synthesis is worth the switch
        cost.
        """
        return self._score(strategy)

    def _score(self, strategy: Strategy) -> float:
        """Evaluator objective; AllReduce adds the reversed broadcast half."""
        return CompiledScore(self.evaluator, strategy).score()

    def _spread_roots(self, participants: List[int], m: int) -> List[int]:
        """Spread sub-collective roots round-robin over well-connected
        instances.

        Roots concentrate traffic (all partitions funnel into and fan out
        of them), so placing one on a weak NIC makes that NIC the whole
        collective's bottleneck. Only instances whose profiled network
        bandwidth is within 25 % of the best host roots; load then spreads
        round-robin among them (all instances, in a homogeneous cluster).
        """
        by_instance: Dict[int, List[int]] = {}
        for rank in participants:
            by_instance.setdefault(self.topology.cluster.gpu(rank).instance_id, []).append(rank)
        bandwidth = {
            iid: instance_network_bandwidth(self.topology, iid) for iid in by_instance
        }
        best = max(bandwidth.values())
        eligible = sorted(iid for iid, bw in bandwidth.items() if bw >= 0.75 * best)
        roots = []
        for index in range(m):
            instance = eligible[index % len(eligible)]
            ranks = sorted(by_instance[instance])
            roots.append(ranks[(index // len(eligible)) % len(ranks)])
        return roots

    def _chunks(self, partition_size: float) -> List[float]:
        if self.config.chunk_sizes is not None:
            return list(dict.fromkeys(min(c, partition_size) for c in self.config.chunk_sizes))
        return chunk_candidates(partition_size)
