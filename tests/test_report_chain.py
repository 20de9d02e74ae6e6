"""The report chain — export, parse, critical-path join — against its references.

Each stage was rewritten to do work proportional to what it reads; each
keeps a slow, obviously-right form here to be held equal to:

* the indexed handoff join vs. the quadratic producer scan (verbatim from
  the engine it replaced), on random span sets;
* the JSONL line renderer vs. ``json.dumps`` of ``ordered_records``;
* the block parser vs. one ``json.loads`` per line, error text included,
  at block edges and over blank, ``\\r`` and unterminated lines;
* ``analyze_hub`` vs. analysing the hub's parsed export;

plus the run-file CLIs on well-formed JSON that is not a well-formed span.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchEnvironment
from repro.chaos import ChaosRunner, FaultPlan
from repro.chaos.plan import StragglerFault
from repro.critpath import (
    ChunkSpan,
    analyze_hub,
    analyze_run,
    analyze_spans,
    engine,
    report_to_json,
)
from repro.critpath.__main__ import main as critpath_cli
from repro.errors import TelemetryError
from repro.fleet import FleetRunner, canonical_overlap_workload
from repro.hardware.presets import make_config, make_homo_cluster
from repro.synthesis.strategy import Primitive
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import (
    PARSE_BLOCK,
    ordered_records,
    parse_jsonl,
    to_jsonl,
)

# -- (a) the handoff join ----------------------------------------------------------


def _scan_predecessors(
    spans: Sequence[ChunkSpan], tol: float
) -> List[List[int]]:
    """The engine's inferred join before it was indexed, kept verbatim."""
    by_sender: Dict[Tuple[str, str, str], Dict[int, List[int]]] = {}
    by_unit: Dict[Tuple[str, str, int], List[int]] = {}
    for index, span in enumerate(spans):
        by_sender.setdefault(
            (span.tag, span.track, span.unit), {}
        ).setdefault(span.chunk, []).append(index)
        by_unit.setdefault((span.tag, span.unit, span.chunk), []).append(index)

    preds: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        chunks = by_sender[(span.tag, span.track, span.unit)]
        occurrence = chunks[span.chunk].index(index)
        prior = chunks.get(span.chunk - 1, [])
        if occurrence < len(prior):
            preds[index].append(prior[occurrence])
        producers = [
            j
            for j in by_unit.get((span.tag, span.unit, span.chunk), [])
            if j != index
            and spans[j].dst == span.src
            and spans[j].end <= span.start + tol
        ]
        if producers:
            preds[index].append(
                max(producers, key=lambda j: (spans[j].end, spans[j].start, spans[j].order))
            )
    return preds


#: A coarse grid so equal ends, zero durations and ``tol``-edge starts are
#: the common case rather than a measure-zero one.
_TICKS = st.integers(min_value=0, max_value=6)
_NUDGE = st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 5e-10, 2e-9])
_TRACKS = st.sampled_from(
    [
        "link:g0->n0",
        "link:n0->n1",
        "link:n1->g1",
        "link:g1->g0",
        "link:g0->g0",  # self-loop: the span sits in its own producer bucket
        "gpu:0",  # non-link tracks: both endpoints are ""
        "net:profile",
    ]
)


@st.composite
def _span_sets(draw) -> List[ChunkSpan]:
    count = draw(st.integers(min_value=0, max_value=40))
    spans = []
    for order in range(count):
        start = draw(_TICKS) * 0.25 + draw(_NUDGE)
        duration = draw(st.sampled_from([0.0, 0.0, 0.25, 0.5]))
        spans.append(
            ChunkSpan(
                tag=draw(st.sampled_from(["red:m0", "bc:m0"])),
                track=draw(_TRACKS),
                unit=draw(st.sampled_from(["u0", "u1"])),
                chunk=draw(st.integers(min_value=0, max_value=2)),
                start=start,
                end=start + duration,
                order=order,
            )
        )
    return spans


class TestHandoffJoin:
    @settings(max_examples=300, deadline=None)
    @given(spans=_span_sets(), tol=st.sampled_from([0.0, 1e-9, 0.25]))
    def test_indexed_join_equals_the_scan(self, spans, tol):
        by_end = engine._by_end(spans)
        assert list(engine._inferred_predecessors(spans, by_end, tol)) == _scan_predecessors(
            spans, tol
        )
        indexed = report_to_json(analyze_spans(spans, tol=tol))

        def scan(spans, by_end, tol):
            return _scan_predecessors(spans, tol)

        with mock.patch.object(engine, "_inferred_predecessors", scan):
            assert report_to_json(analyze_spans(spans, tol=tol)) == indexed

    def test_self_loop_zero_duration_span_is_not_its_own_producer(self):
        spans = [
            ChunkSpan("a", "link:g0->g0", "u", 0, 1.0, 1.0, 0),
            ChunkSpan("a", "link:g0->g0", "u", 0, 1.0, 1.0, 1),
        ]
        assert engine.handoff_producers(spans) == [1, 0]
        assert engine.handoff_producers(spans[:1]) == [None]

    def test_parsed_fields_are_carried_from_construction(self):
        span = ChunkSpan("allreduce-red:m1", "link:g0->n1", "u", 0, 0.0, 1.0, 0)
        assert (span.link, span.src, span.dst, span.stage) == (
            "g0->n1", "g0", "n1", "allreduce-red",
        )
        bare = ChunkSpan("t", "gpu:3", "u", 0, 0.0, 1.0, 0)
        assert (bare.link, bare.src, bare.dst, bare.stage) == ("gpu:3", "", "", "t")

    def test_one_big_bucket_stays_linearithmic(self):
        """6 000 sends of one (tag, unit, chunk): ≈ 0.1 s indexed, ≈ 50 s
        scanned — an order of magnitude of slack on both sides of 5 s."""
        count = 6000
        spans = [
            ChunkSpan(
                "a",
                "link:g0->n0" if index % 2 == 0 else "link:n0->g1",
                "u",
                0,
                index * 1e-3,
                index * 1e-3 + 5e-4,
                index,
            )
            for index in range(count)
        ]
        started = time.perf_counter()
        report = analyze_spans(spans)
        assert time.perf_counter() - started < 5.0
        assert report["span_count"] == count and report["top_link"] is not None


# -- (b) the line renderer ---------------------------------------------------------


def _reference_lines(hub: TelemetryHub) -> List[str]:
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in ordered_records(hub)
    ]


def _awkward_hub(labels=None) -> TelemetryHub:
    """Every field type the renderer has a fast form for, and every one it
    must hand to the encoder instead."""
    hub = TelemetryHub(enabled=True, labels=labels)
    root = hub.begin(
        "näme \"quoted\"\n\ttab   \x00", 0.0, category="cät\\", track="träck:\x1f"
    )
    child = hub.begin(
        "child", 0.5, parent=root, category="chunk", track="link:g0->n1",
        chunk=1, unit="m0", bytes=np.float64(2.5), flag=True, none=None,
        nested={"z": [1, 2.0, {"y": "é"}], "a": float("inf")},
    )
    hub.end(child, 0.75)
    hub.end(root, 1)  # int end
    hub.instant("evt", np.float64(0.25), category="", track="", nan=float("nan"))
    hub.instant("int-start", 2, track="main")
    hub.instant("bool-start", True)
    hub.begin("never-closed", float("-inf"), track="open")  # end: null
    late = hub.begin("non-finite-end", 3.0)
    hub.end(late, float("inf"))
    return hub


class TestLineRenderer:
    @pytest.mark.parametrize("labels", [None, {"job": "jöb", "a": "1"}])
    def test_lines_equal_json_dumps_of_the_records(self, labels):
        hub = _awkward_hub(labels)
        lines = to_jsonl(hub).splitlines()
        assert lines[1:-1] == _reference_lines(hub)
        assert len(lines) == len(hub.tracer) + 2
        assert json.loads(lines[0])["type"] == "meta"
        assert json.loads(lines[-1])["type"] == "metrics"

    @pytest.mark.parametrize("reverse", [False, True])
    def test_equal_values_of_other_types_keep_their_own_text(self, reverse):
        """Values the per-call float text could confuse: ``1.0 == True ==
        1 == np.float64(1.0)`` and ``0.0 == -0.0`` are equal dict keys,
        ``nan`` is no key, and ``%`` is what a format template would eat."""
        ones = [1.0, True, 1, np.float64(1.0)]
        nan, inf = float("nan"), float("inf")
        pairs = list(itertools.permutations(ones, 2)) + [
            (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (nan, nan), (-inf, inf), (inf, inf),
        ]
        if reverse:
            pairs.reverse()
        hub = TelemetryHub(enabled=True, labels={"%s": "100%", "job": "%d%%"})
        for at, (start, end) in enumerate(pairs):
            span = hub.begin(
                f"send %s {at} 50%", start, category="chunk %", track="link:%s->%",
                **{"%s": start, "x%": end, "chunk": end, "%%": "%s"},
            )
            hub.end(span, end)
            hub.instant("%", start, track="%s", **{"v%s": end})
        assert to_jsonl(hub).splitlines()[1:-1] == _reference_lines(hub)

    def test_lines_of_a_real_run(self):
        hub, _ = _traced_allreduce()
        assert to_jsonl(hub).splitlines()[1:-1] == _reference_lines(hub)

    def test_merged_fleet_stream_equals_the_record_merge(self):
        runner = FleetRunner(canonical_overlap_workload(seed=11))
        merged = runner.run().merged_jsonl
        entries = []
        for job in runner._jobs:
            for index, record in enumerate(ordered_records(job.hub)):
                entries.append((record["start"], job.name, index, record))
        entries.sort(key=lambda entry: entry[:3])
        assert len({job.name for job in runner._jobs}) == 2
        assert merged.splitlines()[1:-1] == [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for *_, record in entries
        ]


# -- (c) the block parser ----------------------------------------------------------


def _per_line_outcome(text: str):
    """What one ``json.loads`` per line made of ``text``: records or error."""
    records = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line[:-1] if line.endswith("\r") else line
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"line {line_no}: invalid JSON: {exc}"
        if not isinstance(record, dict):
            return f"line {line_no}: expected an object, got {type(record)}"
        records.append(record)
    return records


def _block_outcome(text: str):
    try:
        run = parse_jsonl(text)
    except TelemetryError as exc:
        return str(exc)
    out = [run.meta] if run.meta else []
    return out + run.records


_BAD_LINES = {
    "malformed": '{"type":"span","id":',
    "non-object": "[1,2]",
    "two-values": '{"a":1},{"b":2}',
    # Fragments that only make sense joined to their neighbours.
    "open-array": '{"k":[1',
    "close-array": "2]}",
    "open-string": '{"k":"x',
}


class TestBlockParser:
    @staticmethod
    def _good(count: int) -> List[str]:
        return [
            json.dumps({"type": "span", "id": str(n), "start": float(n)})
            for n in range(count)
        ]

    @pytest.mark.parametrize("bad", sorted(_BAD_LINES))
    @pytest.mark.parametrize(
        "position",
        [0, 1, PARSE_BLOCK - 1, PARSE_BLOCK, PARSE_BLOCK + 1, 2 * PARSE_BLOCK + 2],
    )
    def test_bad_line_reports_as_per_line_parsing_does(self, bad, position):
        lines = self._good(2 * PARSE_BLOCK + 3)
        lines[position] = _BAD_LINES[bad]
        text = "\n".join(lines) + "\n"
        outcome = _block_outcome(text)
        assert isinstance(outcome, str) and outcome.startswith(f"line {position + 1}: ")
        assert outcome == _per_line_outcome(text)

    @pytest.mark.parametrize(
        "fragments",
        [
            ('{"k":"x', 'y"}'),  # one string, were the joiner a bare comma
            ('{"k":[1', "2]}"),  # one object over two lines: a value short
        ],
    )
    def test_fragments_spanning_two_lines_are_not_glued_together(self, fragments):
        lines = self._good(4)
        lines[1:3] = fragments
        text = "\n".join(lines)
        assert _block_outcome(text) == _per_line_outcome(text)
        assert _block_outcome(text).startswith("line 2: invalid JSON")

    def test_blank_lines_and_missing_trailing_newline_are_accepted(self):
        lines = self._good(PARSE_BLOCK + 2)
        lines.insert(1, "")
        lines.insert(PARSE_BLOCK, "   \t")
        text = "\n\n" + "\n".join(lines)  # no trailing newline
        assert _block_outcome(text) == _per_line_outcome(text)
        assert len(parse_jsonl(text).spans) == PARSE_BLOCK + 2
        # Line numbers count the blank lines, as before.
        lines[5] = "nope"
        text = "\n\n" + "\n".join(lines)
        assert _block_outcome(text) == _per_line_outcome(text)
        assert _block_outcome(text).startswith("line 8: invalid JSON")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_inside_a_string_do_not_split_the_line(self, separator):
        hub = TelemetryHub(enabled=True)
        span = hub.begin(f"a{separator}b:send", 0.0, category="chunk", track="link:g0->n0",
                         chunk=0, unit=f"m{separator}", bytes=1.0)
        hub.end(span, 1.0)
        hub.instant(f"mark{separator}", 0.5)
        text = to_jsonl(hub)
        # The exporter escapes them; any writer with ensure_ascii=False does not.
        raw = "\n".join(
            json.dumps(json.loads(line), ensure_ascii=False) for line in text.splitlines()
            if line
        ) + "\n"
        assert separator in raw and raw.count("\n") == 4
        for source in (text, raw):
            run = parse_jsonl(source)
            assert _block_outcome(source) == _per_line_outcome(source)[:-1]
            assert [record["name"] for record in run.records] == [
                f"a{separator}b:send", f"mark{separator}",
            ]
            assert run.spans[0]["args"]["unit"] == f"m{separator}"
            assert run.metrics == parse_jsonl(text).metrics
            assert report_to_json(analyze_run(run)) == report_to_json(analyze_hub(hub))

    def test_crlf_line_ends_parse_as_lf(self):
        lines = self._good(PARSE_BLOCK + 2)
        lf = "\n".join(lines) + "\n"
        crlf = "\r\n".join(lines) + "\r\n"
        assert _block_outcome(crlf) == _block_outcome(lf) == _per_line_outcome(crlf)
        assert len(parse_jsonl(crlf).spans) == PARSE_BLOCK + 2
        # Only one "\r" is dropped, and line numbers stay the LF count.
        lines[3] = "nope\r"
        crlf = "\r\n".join(lines)
        assert _block_outcome(crlf) == _per_line_outcome(crlf)
        assert _block_outcome(crlf).startswith("line 4: invalid JSON")

    def test_last_line_without_a_newline(self):
        lines = self._good(PARSE_BLOCK + 1)
        for text in ("\n".join(lines), "\r\n".join(lines)):
            assert _block_outcome(text) == _per_line_outcome(text)
            assert parse_jsonl(text).records == [json.loads(line) for line in lines]

    def test_a_lone_carriage_return_is_a_blank_line(self):
        lines = self._good(PARSE_BLOCK + 2)
        lines.insert(PARSE_BLOCK - 1, "\r")
        lines.insert(3, "\r")
        text = "\n".join(lines) + "\n"
        assert _block_outcome(text) == _per_line_outcome(text)
        assert parse_jsonl(text).records == [json.loads(line) for line in lines if line != "\r"]
        lines[6] = "nope"  # line numbers count the "\r" lines
        text = "\n".join(lines) + "\n"
        assert _block_outcome(text) == _per_line_outcome(text)
        assert _block_outcome(text).startswith("line 7: invalid JSON")

    def test_a_block_made_only_of_blank_lines(self):
        blank = ["", "  ", "\t", "\r"] * (PARSE_BLOCK // 2)
        lines = self._good(PARSE_BLOCK) + blank + self._good(3)
        text = "\n".join(lines) + "\n"
        assert _block_outcome(text) == _per_line_outcome(text)
        assert parse_jsonl(text).records == [json.loads(line) for line in lines if line.strip()]
        assert parse_jsonl("\n".join(blank)).records == []

    @pytest.mark.parametrize("bad", ['{"type":"span","id":', "nope", "[1,2]"])
    @pytest.mark.parametrize("blanks", [0, 3])
    def test_malformed_line_right_after_a_block_boundary_names_its_line(self, bad, blanks):
        lines = self._good(PARSE_BLOCK) + [""] * blanks + [bad] + self._good(2)
        text = "\n".join(lines) + "\n"
        outcome = _block_outcome(text)
        assert outcome == _per_line_outcome(text)
        assert outcome.startswith(f"line {PARSE_BLOCK + blanks + 1}: ")

    def test_unknown_and_schemaless_records_are_kept(self):
        text = '{"type":"meta","schema":1}\n{"type":"span","args":null}\n{"weird":7}\n{}\n'
        run = parse_jsonl(text)
        assert run.meta == {"type": "meta", "schema": 1}
        assert run.records == [{"type": "span", "args": None}, {"weird": 7}, {}]
        assert parse_jsonl("").records == []

    def test_round_trip_of_a_real_run(self):
        hub, _ = _traced_allreduce()
        text = to_jsonl(hub)
        assert _block_outcome(text) == _per_line_outcome(text)[:-1]  # minus the metrics tail


# -- (d) analyze_hub ---------------------------------------------------------------


def _traced_allreduce():
    hub = TelemetryHub(enabled=True)
    env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=hub)
    env.backend.verify = False
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    return hub, strategy


def _text_path(hub, strategy=None) -> str:
    return report_to_json(analyze_run(parse_jsonl(to_jsonl(hub)), strategy=strategy))


class TestAnalyzeHub:
    def test_equals_the_text_path_on_the_traced_allreduce(self):
        hub, strategy = _traced_allreduce()
        assert report_to_json(analyze_hub(hub)) == _text_path(hub)
        assert report_to_json(analyze_hub(hub, strategy=strategy)) == _text_path(hub, strategy)
        assert analyze_hub(hub)["span_count"] > 0

    def test_equals_the_text_path_on_a_chaos_straggler_run(self):
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
        report = analyze_hub(hub)
        assert report["readiness_seconds"] > 0.0  # the decision instants were read
        assert report_to_json(report) == _text_path(hub)

    def test_equals_the_text_path_on_one_fleet_job(self):
        runner = FleetRunner(canonical_overlap_workload(seed=11))
        runner.run()
        for job in runner._jobs:
            assert report_to_json(analyze_hub(job.hub)) == _text_path(job.hub)

    def test_out_of_order_timestamps_are_read_in_export_order(self):
        hub = TelemetryHub(enabled=True)
        for start in (2.0, 0.0, 1.0, 0.0):
            span = hub.begin("a:send", start, category="chunk", track="link:g0->n0",
                             chunk=0, unit="u", bytes=1.0)
            hub.end(span, start + 0.5)
        hub.instant("ski-rental-decision", 0.1, ready_delays={0: 0.0, 1: 0.0, 2: 0.4})
        assert report_to_json(analyze_hub(hub)) == _text_path(hub)

    def test_empty_hub_gives_the_zeroed_report(self):
        assert analyze_hub(TelemetryHub(enabled=True))["span_count"] == 0


# -- malformed spans at the run-file CLIs ------------------------------------------


def _span_line(**overrides) -> str:
    record = {
        "type": "span", "id": "1", "parent": None, "name": "a:send", "cat": "chunk",
        "track": "link:g0->n0", "start": 0.0, "end": 1.0,
        "args": {"chunk": 0, "unit": "m0", "bytes": 8.0},
    }
    record.update(overrides)
    return json.dumps({k: v for k, v in record.items() if v != "<absent>"})


_META = '{"type":"meta","schema":1,"clock":"sim","spans":1,"events":0}\n'

_MALFORMED = {
    "string-chunk": (_META + _span_line(args={"chunk": "x", "unit": "m0"}) + "\n").encode(),
    "null-args": (_META + _span_line(args=None) + "\n").encode(),
    "no-start": (_META + _span_line(start="<absent>") + "\n").encode(),
    "int-track": (_META + _span_line(track=7) + "\n").encode(),
    "not-utf8": _META.encode() + b'{"type":"span","name":"\xff\xfe"}\n',
}

_COMMANDS = {
    "critpath": lambda path, out: critpath_cli([path]),
    "summarize": lambda path, out: telemetry_cli(["summarize", path, "--top", "3"]),
    "chrome": lambda path, out: telemetry_cli(["chrome", path, "-o", out]),
}


class TestMalformedSpansAtTheCli:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_reports_an_error_instead_of_a_traceback(self, case, command, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_bytes(_MALFORMED[case])
        code = _COMMANDS[command](str(path), str(tmp_path / "out.json"))
        captured = capsys.readouterr()
        if (case, command) == ("string-chunk", "summarize"):
            # No table reads a chunk index; the record is merely odd here.
            assert code == 0
            return
        assert code == 1
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_the_parser_itself_still_keeps_such_records(self):
        for case in ("string-chunk", "null-args", "no-start", "int-track"):
            assert len(parse_jsonl(_MALFORMED[case].decode()).spans) == 1

    def test_the_constructor_names_the_record(self):
        run = parse_jsonl(_MALFORMED["string-chunk"].decode())
        with pytest.raises(TelemetryError, match=r"record 1: malformed chunk span: ValueError"):
            analyze_run(run)
