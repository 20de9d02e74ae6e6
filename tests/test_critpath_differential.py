"""The critical-path engine against its verbatim predecessor.

``tests/critpath_oracle.py`` keeps the engine as it was before its
per-span work was cut: the frozen-dataclass ``ChunkSpan``, ``lambda``
keys calling ``_end_key`` per comparison, one successor list per span in
the slack DP. Every report must be byte-equal to the oracle's:

* on random span sets, in both join modes (dag mode over strategies
  with AND-groups and with OR-groups) and at all three tolerances the
  other span-set tests use;
* on recorded runs: an observed training run, a chaos straggler run and
  each job of a fleet replay (inferred mode), and a traced AllReduce
  (dag mode).
"""

from __future__ import annotations

import functools
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchEnvironment
from repro.chaos import ChaosRunner, FaultPlan
from repro.chaos.plan import StragglerFault
from repro.critpath import ChunkSpan, analyze_run, analyze_spans, engine, report_to_json
from repro.fleet import FleetRunner, canonical_overlap_workload
from repro.hardware.presets import make_config, make_homo_cluster
from repro.runtime.stages import derive_chunk_dag
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl

from . import critpath_oracle as oracle
from .test_report_chain import _NUDGE, _TICKS, _span_sets, _traced_allreduce
from .test_tap_path import observed_training_hub

_TOLS = st.sampled_from([0.0, 1e-9, 0.25])


def _old(spans: List[ChunkSpan]) -> List[oracle.ChunkSpan]:
    return [
        oracle.ChunkSpan(s.tag, s.track, s.unit, s.chunk, s.start, s.end, s.order, s.bytes)
        for s in spans
    ]


_READINESS = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 0.1, 0.25, 0.4]),
        min_size=1,
        max_size=4,
    ),
    max_size=3,
)


@functools.lru_cache(maxsize=None)
def _allreduce():
    """One traced AllReduce on 2x2 ranks: its hub and strategy."""
    return _traced_allreduce()


@functools.lru_cache(maxsize=None)
def _strategies():
    """Strategies whose chunk DAGs have AND-groups (the 2x2 AllReduce's
    aggregators) and OR-groups of two (the 2x2x2 Broadcast's)."""
    env = BenchEnvironment(make_config([2, 2, 2]), "adapcc")
    env.backend.verify = False
    broadcast = env.backend.plan(Primitive.BROADCAST, 4 * 1024 * 1024, env.ranks, root=0)
    return {"allreduce-2x2": _allreduce()[1], "broadcast-2x2x2": broadcast}


@st.composite
def _dag_span_sets(draw):
    """A strategy and spans of its senders (and a few foreign ones),
    chunks 0-2, several occurrences each: what ``dag_join`` matches."""
    name = draw(st.sampled_from(sorted(_strategies())))
    strategy = _strategies()[name]
    senders = derive_chunk_dag(strategy).senders
    count = draw(st.integers(min_value=0, max_value=40))
    spans = []
    for order in range(count):
        sender = draw(st.sampled_from(senders))
        tag, track, unit = sender.tag, sender.track, sender.unit
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            tag = "foreign:m0"
        start = draw(_TICKS) * 0.25 + draw(_NUDGE)
        duration = draw(st.sampled_from([0.0, 0.0, 0.25, 0.5]))
        spans.append(
            ChunkSpan(
                tag, track, unit,
                draw(st.integers(min_value=0, max_value=2)),
                start, start + duration, order,
                draw(st.sampled_from([0.0, 8.0])),
            )
        )
    return strategy, spans


class TestSpanSets:
    @settings(max_examples=300, deadline=None)
    @given(spans=_span_sets(), tol=_TOLS, readiness=_READINESS)
    def test_inferred_report_equals_the_oracle(self, spans, tol, readiness):
        ours = analyze_spans(spans, tol=tol, readiness=readiness)
        theirs = oracle.analyze_spans(_old(spans), tol=tol, readiness=readiness)
        assert report_to_json(ours) == report_to_json(theirs)
        assert engine.handoff_producers(spans, tol) == oracle.handoff_producers(_old(spans), tol)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_dag_span_sets(), tol=_TOLS, readiness=_READINESS)
    def test_dag_report_equals_the_oracle(self, drawn, tol, readiness):
        strategy, spans = drawn
        ours = analyze_spans(spans, strategy=strategy, tol=tol, readiness=readiness)
        theirs = oracle.analyze_spans(
            _old(spans), strategy=strategy, tol=tol, readiness=readiness
        )
        assert ours["mode"] == "dag"
        assert report_to_json(ours) == report_to_json(theirs)
        graph = derive_chunk_dag(strategy)
        assert engine.dag_join(spans, graph) == oracle.dag_join(_old(spans), graph)


class TestChunkSpan:
    def test_constructor_equality_hash_and_fields_match_the_dataclass(self):
        cases = [
            ("allreduce-red:m1", "link:g0->n1", "u", 0, 0.0, 1.0, 0),
            ("t", "gpu:3", "u", 2, 0.5, 0.5, 7, 8.0),
            ("a:b:c", "link:g1->g1", "", 1, 1.0, 2.0, 3, 0.0),
        ]
        for fields in cases:
            ours, theirs = ChunkSpan(*fields), oracle.ChunkSpan(*fields)
            for name in (
                "tag", "track", "unit", "chunk", "start", "end", "order", "bytes",
                "link", "src", "dst", "stage", "duration",
            ):
                assert getattr(ours, name) == getattr(theirs, name), name
            assert repr(ours) == repr(theirs)
            assert hash(ours) == hash(theirs)
            names = ("tag", "track", "unit", "chunk", "start", "end", "order")
            assert ChunkSpan(**dict(zip(names, fields)), bytes=ours.bytes) == ours
        first, second = ChunkSpan(*cases[0]), ChunkSpan(*cases[0])
        assert first == second and hash(first) == hash(second) and first is not second
        assert first != ChunkSpan(*cases[0][:6], 1)
        assert first != cases[0] and (first == object()) is False


def _straggler_hub() -> TelemetryHub:
    plan = FaultPlan(
        seed=5,
        iterations=6,
        stragglers=tuple(
            StragglerFault(rank=3, iteration=i, delay_seconds=0.2) for i in range(2, 5)
        ),
    )
    hub = TelemetryHub(enabled=True)
    ChaosRunner(
        make_homo_cluster(num_servers=2, gpus_per_server=4),
        plan, length=512, byte_scale=200_000.0, hub=hub,
    ).run()
    return hub


def _fleet_hubs() -> List[TelemetryHub]:
    runner = FleetRunner(canonical_overlap_workload(seed=11))
    runner.run()
    return [job.hub for job in runner._jobs]


@pytest.mark.parametrize(
    "hubs",
    [
        pytest.param(lambda: [observed_training_hub()], id="observed-training"),
        pytest.param(lambda: [_straggler_hub()], id="chaos-straggler"),
        pytest.param(_fleet_hubs, id="fleet-jobs"),
    ],
)
def test_recorded_runs_report_as_the_oracle_does(hubs):
    for hub in hubs():
        run = parse_jsonl(to_jsonl(hub))
        report = analyze_run(run)
        assert report["span_count"] > 0
        assert report_to_json(report) == report_to_json(oracle.analyze_run(run))


def test_dag_mode_of_a_traced_allreduce_reports_as_the_oracle_does():
    hub, strategy = _allreduce()
    run = parse_jsonl(to_jsonl(hub))
    report = analyze_run(run, strategy=strategy)
    assert report["mode"] == "dag" and report["span_count"] > 0
    assert report_to_json(report) == report_to_json(oracle.analyze_run(run, strategy=strategy))
