"""Critical-path extraction and bottleneck attribution (DESIGN.md §12).

The executor's chunk pipelines export one ``…:send`` span per (stage,
link, traffic-unit, chunk); :func:`chunk_send` is the one reader of that
format, for every consumer of chunk sends. This module joins those spans
back into a per-run execution DAG, walks the critical path on sim-clock
timings, and attributes the elapsed time to links, ranks, and pipeline
stages with slack analysis — the "where did the time go?" answer the
watchdog needs to target its re-probes.

Two join modes:

* **dag** — a :class:`~repro.synthesis.strategy.Strategy` is available:
  :func:`dag_join` matches spans to the senders of
  :func:`repro.runtime.stages.derive_chunk_dag` by ``(tag, track, unit)``
  and the DAG's AND-groups (OR within a group: whichever copy of a unit
  *ends* first releases the slot) become edges. Repeated executions of
  the same strategy (training iterations) match by occurrence index. The
  ``--races`` happens-before check is this join plus one comparison.
* **inferred** — no strategy: edges are inferred from the spans alone.
  The same sender's chunk ``k-1 → k`` serializes; a cross-link handoff
  edge joins the latest-ending producer of the same ``(tag, unit,
  chunk)`` into a consumer's source endpoint.

In both modes a node left without predecessors is *stitched* to the
latest-ending span that closed at or before its start. In a
work-conserving executor that span is exactly what released it — a stage
boundary, the previous iteration's tail — and the gap between them is
*wait time* attributed to the stitched node's source (how stragglers
surface: a delayed rank's first send starts long after everything else
went quiet).

Everything is computed from sim-clock timestamps only and serialized
with sorted keys, so same-seed runs produce byte-identical reports.
"""

from __future__ import annotations

import bisect
import json
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError
from repro.runtime.stages import derive_chunk_dag

#: Version stamp carried by every report; bump on breaking changes.
REPORT_SCHEMA = 1

#: Report envelope type tag.
REPORT_KIND = "critpath_report"

#: Per-span slack when comparing simulator timestamps.
TIME_TOL = 1e-9


class ChunkSpan:
    """One chunk-pipeline ``…:send`` span: a node of the execution DAG.

    Eight fields, ``tag`` … ``bytes``, given positionally or by keyword;
    equality and hash cover exactly those. The derived ``link`` / ``src``
    / ``dst`` are parsed once, at construction: the join and the
    attribution read them per probe; ``stage``, which no bulk reader
    needs, is parsed on read. ``order`` is the span's position among
    extracted spans, in file order — the deterministic tiebreak for every
    choice the engine makes. A slot class, so constructing a span stores
    eleven attributes and nothing else; treat it as immutable.
    """

    __slots__ = (
        "tag", "track", "unit", "chunk", "start", "end", "order", "bytes",
        # The ``"g0->n1"``-style link name (track minus the prefix) and
        # the endpoint node names (``""`` for non-link tracks).
        "link", "src", "dst",
    )

    def __init__(
        self,
        tag: str,
        track: str,
        unit: str,
        chunk: int,
        start: float,
        end: float,
        order: int,
        bytes: float = 0.0,
    ) -> None:
        self.tag = tag
        self.track = track
        self.unit = unit
        self.chunk = chunk
        self.start = start
        self.end = end
        self.order = order
        self.bytes = bytes
        link = self.link = track[5:] if track.startswith("link:") else track
        src, arrow, self.dst = link.partition("->")  # dst is "" without an arrow
        self.src = src if arrow else ""

    def _fields(self) -> tuple:
        return (
            self.tag, self.track, self.unit, self.chunk,
            self.start, self.end, self.order, self.bytes,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"ChunkSpan(tag={self.tag!r}, track={self.track!r}, unit={self.unit!r}, "
            f"chunk={self.chunk!r}, start={self.start!r}, end={self.end!r}, "
            f"order={self.order!r}, bytes={self.bytes!r})"
        )

    @property
    def stage(self) -> str:
        """The pipeline stage: the tag up to the sub-collective suffix."""
        return self.tag.partition(":")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def chunk_send(
    category: Any,
    name: Any,
    track: Any,
    start: Any,
    end: Any,
    args: Any,
    order: int,
    number: int,
) -> Optional[ChunkSpan]:
    """The one chunk-send predicate and :class:`ChunkSpan` constructor.

    A chunk send is a closed ``cat == "chunk"`` span whose name ends
    ``:send`` and whose ``chunk`` arg is ≥ 0; anything else gives
    ``None``. The executor emits them on ``link:{i}->{j}`` tracks only,
    so the track is parsed, never tested. The fields are a JSONL record's
    or a live :class:`~repro.telemetry.core.Span`'s, passed as they come;
    ``number`` is the record's 1-based position in its stream, named when
    a chunk send is well-formed JSON but not a well-formed span.
    """
    if category != "chunk" or end is None:
        return None
    try:
        if not name.endswith(":send"):
            return None
        chunk = int(args.get("chunk", -1))
        if chunk < 0:
            return None
        return ChunkSpan(
            name[: -len(":send")],
            track,
            str(args.get("unit", "")),
            chunk,
            float(start),
            float(end),
            order,
            float(args.get("bytes", 0.0)),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise TelemetryError(
            f"record {number}: malformed chunk span: {type(exc).__name__}: {exc}"
        ) from exc


def extract_chunk_spans(records: Sequence[Dict[str, Any]]) -> List[ChunkSpan]:
    """The chunk ``…:send`` spans of a record stream, in file order."""
    spans: List[ChunkSpan] = []
    for number, record in enumerate(records, start=1):
        # chunk_send's first test, before the type test and the field reads.
        category = record.get("cat")
        if category != "chunk" or record.get("type") != "span":
            continue
        span = chunk_send(
            category,
            record.get("name", ""),
            record.get("track", ""),
            record.get("start"),
            record.get("end"),
            record.get("args", {}),
            len(spans),
            number,
        )
        if span is not None:
            spans.append(span)
    return spans


# -- DAG construction -----------------------------------------------------------------


def _end_keys(spans: Sequence[ChunkSpan]) -> List[Tuple[float, float, int]]:
    """Per span, its ``(end, start, order)``: the key every latest-ending
    and first-ending choice of the engine sorts and compares on."""
    return [(span.end, span.start, span.order) for span in spans]


def dag_join(
    spans: Sequence[ChunkSpan], graph
) -> Tuple[Dict[Any, Dict[int, List[int]]], List[List[int]]]:
    """Join chunk spans onto a chunk DAG, matched by occurrence.

    ``graph`` is a :class:`~repro.runtime.stages.SenderGraph`. A span
    belongs to the sender with its ``(tag, track, unit)``;
    ``slots[sender][chunk]`` lists that sender's span indices in file
    order, and the o-th occurrence of every sender's chunk belongs to the
    o-th execution of the strategy, so repeated iterations line up without
    any iteration label on the spans. A span's predecessors are the same
    occurrence of its sender's chunk ``k-1`` and, per AND-group, the
    member that ended first — whichever copy of a unit lands first
    releases the slot. Returns ``(slots, preds)``.
    """
    wanted = {(s.tag, s.track, s.unit): s for s in graph.senders}
    slots: Dict[Any, Dict[int, List[int]]] = {}
    for index, span in enumerate(spans):
        sender = wanted.get((span.tag, span.track, span.unit))
        if sender is None:
            continue
        slots.setdefault(sender, {}).setdefault(span.chunk, []).append(index)

    end_key = _end_keys(spans).__getitem__
    preds: List[List[int]] = [[] for _ in spans]
    for sender, chunks in slots.items():
        for chunk, occurrences in chunks.items():
            prior = chunks.get(chunk - 1, [])
            for occurrence, index in enumerate(occurrences):
                if occurrence < len(prior):
                    preds[index].append(prior[occurrence])
                for group in graph.preds[sender]:
                    candidates = [
                        slots[p][chunk][occurrence]
                        for p in group
                        if occurrence < len(slots.get(p, {}).get(chunk, []))
                    ]
                    if candidates:
                        preds[index].append(min(candidates, key=end_key))
    return slots, preds


def handoff_producers(
    spans: Sequence[ChunkSpan], tol: float = TIME_TOL
) -> List[Optional[int]]:
    """Per span, its binding cross-link handoff (``None`` if it has none).

    The producer of a send is the latest — by ``(end, start, order)`` —
    *other* send of the same ``(tag, unit, chunk)`` whose link destination
    is this send's source endpoint and which ended by ``start + tol``.
    Producers are bucketed by ``(tag, unit, chunk, dst)`` and each bucket
    sorted by that key once, so the latest qualifying one is the entry
    just left of ``bisect_right(ends, start + tol)`` — the same ``end <=
    start + tol`` comparison and the same tie-break as scanning the
    bucket, in O(n log n). Also what draws the Chrome trace's flow arrows.
    """
    return _handoffs(spans, _end_keys(spans), tol)


def _handoffs(
    spans: Sequence[ChunkSpan], keys: List[Tuple[float, float, int]], tol: float
) -> List[Optional[int]]:
    """:func:`handoff_producers`, given the spans' :func:`_end_keys`."""
    buckets: Dict[Tuple[str, str, int, str], List[int]] = {}
    for index, span in enumerate(spans):
        buckets.setdefault((span.tag, span.unit, span.chunk, span.dst), []).append(index)
    # Per bucket: its members latest-last, and their ends to bisect.
    sorted_buckets = {}
    for key, members in buckets.items():
        members.sort(key=keys.__getitem__)
        sorted_buckets[key] = (members, [keys[i][0] for i in members])

    producers: List[Optional[int]] = [None] * len(spans)
    for index, span in enumerate(spans):
        bucket = sorted_buckets.get((span.tag, span.unit, span.chunk, span.src))
        if bucket is None:
            continue
        members, ends = bucket
        position = bisect.bisect_right(ends, span.start + tol) - 1
        # A self-loop (or endpoint-less) send sits in its own bucket.
        if position >= 0 and members[position] == index:
            position -= 1
        if position >= 0:
            producers[index] = members[position]
    return producers


def _inferred_predecessors(
    spans: Sequence[ChunkSpan], keys: List[Tuple[float, float, int]], tol: float
) -> List[List[int]]:
    """Edges inferred from the spans alone (no strategy available);
    ``keys`` are the spans' :func:`_end_keys`."""
    # Per sender, one dict keyed by (tag, track, unit): its chunks' span
    # indices in file order; a span's occurrence is its position there,
    # counted as it is indexed.
    senders: Dict[Tuple[str, str, str], Dict[int, List[int]]] = {}
    sender_of: List[Dict[int, List[int]]] = []
    occurrences: List[int] = []
    for index, span in enumerate(spans):
        key = (span.tag, span.track, span.unit)
        chunks = senders.get(key)
        if chunks is None:
            chunks = senders[key] = {}
        slot = chunks.get(span.chunk)
        if slot is None:
            slot = chunks[span.chunk] = []
        sender_of.append(chunks)
        occurrences.append(len(slot))
        slot.append(index)

    preds: List[List[int]] = []
    producers = _handoffs(spans, keys, tol)
    for span, chunks, occurrence, producer in zip(spans, sender_of, occurrences, producers):
        node: List[int] = []
        # The same sender's chunk k-1 -> k serializes, per occurrence.
        prior = chunks.get(span.chunk - 1)
        if prior is not None and occurrence < len(prior):
            node.append(prior[occurrence])
        # The binding handoff: the latest producer that could have
        # released this send.
        if producer is not None:
            node.append(producer)
        preds.append(node)
    return preds


def _stitch_orphans(
    spans: Sequence[ChunkSpan], preds: List[List[int]], by_end: List[int], tol: float
) -> int:
    """Give every predecessor-less node the latest span ending by its start.

    ``by_end`` is the span indices sorted by :func:`_end_keys` (equal keys
    in index order). Returns the number of stitched edges. Stitches are
    what carry the path across stage boundaries, iteration boundaries,
    and straggler readiness waits — see the module docstring.
    """
    ends = [spans[i].end for i in by_end]
    stitched = 0
    for index, span in enumerate(spans):
        if preds[index]:
            continue
        limit = span.start + tol
        for k in range(bisect.bisect_right(ends, limit) - 1, -1, -1):
            j = by_end[k]
            if j != index and ends[k] <= limit:
                preds[index].append(j)
                stitched += 1
                break
    return stitched


# -- critical path, waits, slack ------------------------------------------------------


def _walk_critical_path(
    keys: List[Tuple[float, float, int]], preds: Sequence[Sequence[int]]
) -> List[int]:
    """Backward walk from the latest-ending span along binding edges.

    ``keys`` are :func:`_end_keys` of the spans. The binding predecessor
    of a node is the one that *ends last* — the constraint that actually
    held the node's start back. Returns indices in chronological order.
    """
    if not keys:
        return []
    end_key = keys.__getitem__
    current = max(range(len(keys)), key=end_key)
    path = [current]
    visited = {current}
    while preds[current]:
        binding = max(preds[current], key=end_key)
        if binding in visited:  # paranoia: zero-duration tie cycles
            break
        path.append(binding)
        visited.add(binding)
        current = binding
    path.reverse()
    return path


def _slack_seconds(
    starts: List[float],
    ends: List[float],
    preds: Sequence[Sequence[int]],
    makespan_end: float,
) -> List[float]:
    """Per-node slack: how late each span could end without moving the
    makespan, via the reverse DP ``latest_allowed_end(n) = min over
    successors s of (latest_allowed_end(s) - duration(s))``.

    The successors sit in one flat array, node ``n``'s at
    ``succs[first[n]:first[n + 1]]`` in ascending order — the order the
    ``min`` runs in.
    """
    count = len(ends)
    pending = [0] * count  # successors not yet resolved
    for node_preds in preds:
        for pred in node_preds:
            pending[pred] += 1
    first = [0, *accumulate(pending)]
    cursor = first[:count]
    succs = [0] * first[count]
    for index, node_preds in enumerate(preds):
        for pred in node_preds:
            succs[cursor[pred]] = index
            cursor[pred] += 1

    # room[s] = latest_allowed_end(s) - duration(s), set once s resolves.
    durations = [end - start for start, end in zip(starts, ends)]
    latest = [makespan_end] * count
    room = [0.0] * count
    ready = [i for i in range(count) if pending[i] == 0]
    while ready:
        index = ready.pop()
        allowed = makespan_end
        for succ in succs[first[index] : first[index + 1]]:
            if room[succ] < allowed:
                allowed = room[succ]
        latest[index] = allowed
        room[index] = allowed - durations[index]
        for pred in preds[index]:
            pending[pred] -= 1
            if pending[pred] == 0:
                ready.append(pred)
    # Nodes left pending would sit on a (degenerate) cycle: call them
    # critical rather than crash.
    return [
        max(0.0, late - end) if left == 0 else 0.0
        for late, end, left in zip(latest, ends, pending)
    ]


def _rank_of(node_name: str) -> Optional[int]:
    """GPU node name → rank (``"g3"`` → 3); None for NICs/unknowns."""
    if len(node_name) >= 2 and node_name[0] == "g" and node_name[1:].isdigit():
        return int(node_name[1:])
    return None


def ready_delays(name: Any, args: Any) -> Dict[int, float]:
    """One instant's ``{rank: delay_seconds}``; empty unless it is a
    ``ski-rental-decision`` carrying at least one known ready delay."""
    if name != "ski-rental-decision":
        return {}
    return {
        int(rank): float(delay)
        for rank, delay in (args.get("ready_delays") or {}).items()
        if delay is not None
    }


def extract_readiness(records: Sequence[Dict[str, Any]]) -> List[Dict[int, float]]:
    """Per-decision ready delays from ``ski-rental-decision`` instants.

    A straggler's delay happens *before* its first send, so it never shows
    up as a span — but the coordinator's decision instants carry every
    rank's ready delay. Returns one ``{rank: delay_seconds}`` mapping per
    decision, in file order.
    """
    out: List[Dict[int, float]] = []
    for record in records:
        if record.get("type") != "event":
            continue
        delays = ready_delays(record.get("name"), record.get("args", {}))
        if delays:
            out.append(delays)
    return out


def _readiness_excess(readiness: Sequence[Dict[int, float]]) -> Dict[int, float]:
    """Per-rank readiness seconds in excess of each decision's median.

    The same excess-over-median rule the watchdog's straggler detector
    applies (in raw seconds rather than buy-cost units), summed across
    decisions.
    """
    excess: Dict[int, float] = {}
    for delays in readiness:
        ordered = sorted(delays.values())
        median = ordered[len(ordered) // 2]
        for rank, delay in delays.items():
            late = delay - median
            if late > 0.0:
                excess[rank] = excess.get(rank, 0.0) + late
    return excess


# -- the report -----------------------------------------------------------------------


def analyze_spans(
    spans: Sequence[ChunkSpan],
    strategy=None,
    tol: float = TIME_TOL,
    readiness: Sequence[Dict[int, float]] = (),
) -> Dict[str, Any]:
    """Critical path + attribution over extracted chunk spans.

    Returns the JSON-able report dict (see DESIGN.md §12 for the schema).
    With ``strategy`` the execution DAG comes from the strategy's chunk
    dependencies (mode ``"dag"``); without, it is inferred from the spans
    (mode ``"inferred"``). Either way the report's ``path`` tiles
    ``[start_seconds, end_seconds]`` exactly: busy segments are the
    critical spans, wait segments the gaps before them.

    ``readiness`` (per-decision ``{rank: delay_seconds}`` mappings, see
    :func:`extract_readiness`) attributes pre-send straggler delays —
    invisible to spans — to the late rank and its egress link as
    ``readiness_seconds``, which count toward the top-1 pick.
    """
    spans = list(spans)
    report: Dict[str, Any] = {
        "kind": REPORT_KIND,
        "schema": REPORT_SCHEMA,
        "clock": "sim",
        "mode": "dag" if strategy is not None else "inferred",
        "span_count": len(spans),
    }
    if not spans:
        report.update(
            start_seconds=0.0, end_seconds=0.0, total_seconds=0.0,
            busy_seconds=0.0, wait_seconds=0.0, overlap_seconds=0.0,
            readiness_seconds=0.0, inferred_edges=0, path=[], links={},
            ranks={}, stages={}, top_link=None, top_rank=None,
        )
        return report

    keys = _end_keys(spans)
    if strategy is not None:
        _slots, preds = dag_join(spans, derive_chunk_dag(strategy))
    else:
        preds = _inferred_predecessors(spans, keys, tol)
    by_end = sorted(range(len(spans)), key=keys.__getitem__)
    report["inferred_edges"] = _stitch_orphans(spans, preds, by_end, tol)

    starts = [span.start for span in spans]
    ends = [span.end for span in spans]
    start_seconds = min(starts)
    end_seconds = max(ends)
    total = end_seconds - start_seconds
    path = _walk_critical_path(keys, preds)
    slack = _slack_seconds(starts, ends, preds, end_seconds)

    # Tile [start_seconds, end_seconds] with wait/busy segments along the
    # path. Overlaps (a span starting before its binding predecessor
    # ended — a race the ``--races`` pass would flag) are clamped and
    # totalled so the durations still sum.
    segments: List[Dict[str, Any]] = []
    busy_total = wait_total = overlap_total = 0.0
    cursor = start_seconds
    for index in path:
        span = spans[index]
        if span.start > cursor + tol:
            wait = span.start - cursor
            segments.append(
                {
                    "kind": "wait",
                    "link": span.link,
                    "source": span.src,
                    "start": cursor,
                    "end": span.start,
                    "seconds": wait,
                }
            )
            wait_total += wait
            cursor = span.start
        elif span.start < cursor - tol:
            overlap_total += cursor - span.start
        busy_start = max(cursor, span.start)
        busy = max(0.0, span.end - busy_start)
        segments.append(
            {
                "kind": "span",
                "tag": span.tag,
                "link": span.link,
                "unit": span.unit,
                "chunk": span.chunk,
                "start": busy_start,
                "end": span.end,
                "seconds": busy,
                "slack_seconds": slack[index],
            }
        )
        busy_total += busy
        cursor = max(cursor, span.end)

    # Attribution: wait segments charge the waiting span's link/source
    # (that is where readiness was missing); busy segments charge their
    # own link, stage, and both GPU endpoints.
    links: Dict[str, Dict[str, Any]] = {}
    ranks: Dict[str, Dict[str, Any]] = {}
    stages: Dict[str, Dict[str, Any]] = {}

    def _link_entry(link: str) -> Dict[str, Any]:
        return links.setdefault(
            link,
            {
                "critical_seconds": 0.0,
                "wait_seconds": 0.0,
                "readiness_seconds": 0.0,
                "share": 0.0,
                "spans": 0,
                "critical_spans": 0,
                "min_slack_seconds": None,
            },
        )

    def _rank_entry(rank: int) -> Dict[str, Any]:
        return ranks.setdefault(
            f"rank{rank}",
            {
                "critical_seconds": 0.0,
                "wait_seconds": 0.0,
                "readiness_seconds": 0.0,
                "share": 0.0,
            },
        )

    for span, node_slack in zip(spans, slack):
        entry = links.get(span.link)
        if entry is None:
            entry = _link_entry(span.link)
        entry["spans"] += 1
        least = entry["min_slack_seconds"]
        if least is None or node_slack < least:
            entry["min_slack_seconds"] = node_slack

    for segment in segments:
        entry = _link_entry(segment["link"])
        if segment["kind"] == "wait":
            entry["wait_seconds"] += segment["seconds"]
            rank = _rank_of(segment["source"])
            if rank is not None:
                _rank_entry(rank)["wait_seconds"] += segment["seconds"]
            continue
        entry["critical_seconds"] += segment["seconds"]
        entry["critical_spans"] += 1
        stage = stages.setdefault(
            segment["tag"].split(":", 1)[0],
            {"critical_seconds": 0.0, "share": 0.0, "spans": 0},
        )
        stage["critical_seconds"] += segment["seconds"]
        stage["spans"] += 1
        link = segment["link"]
        if "->" in link:
            src, dst = link.split("->", 1)
            for endpoint in (src, dst):
                rank = _rank_of(endpoint)
                if rank is not None:
                    _rank_entry(rank)["critical_seconds"] += segment["seconds"]

    # Readiness excess precedes the late rank's first send, so it charges
    # the rank itself and — deterministically — its smallest egress link
    # among the observed spans (the path its late tensor leaves on).
    # ``links`` holds exactly the spans' links here, and a link's source
    # endpoint is a function of the link, so each distinct link is read
    # once.
    egress: Dict[int, str] = {}
    for link in links:
        src, arrow, _ = link.partition("->")
        rank = _rank_of(src) if arrow else None
        if rank is None:
            continue
        if rank not in egress or link < egress[rank]:
            egress[rank] = link
    readiness_total = 0.0
    for rank, seconds in sorted(_readiness_excess(readiness).items()):
        readiness_total += seconds
        _rank_entry(rank)["readiness_seconds"] += seconds
        link = egress.get(rank)
        if link is not None:
            _link_entry(link)["readiness_seconds"] += seconds

    for entry in links.values():
        entry["share"] = (
            (entry["critical_seconds"] + entry["wait_seconds"]) / total
            if total > 0
            else 0.0
        )
    for entry in ranks.values():
        entry["share"] = (
            (entry["critical_seconds"] + entry["wait_seconds"]) / total
            if total > 0
            else 0.0
        )
    for entry in stages.values():
        entry["share"] = entry["critical_seconds"] / total if total > 0 else 0.0

    def _top(table: Dict[str, Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        scored = [
            (
                entry["critical_seconds"]
                + entry.get("wait_seconds", 0.0)
                + entry.get("readiness_seconds", 0.0),
                name,
            )
            for name, entry in table.items()
        ]
        if not scored:
            return None
        seconds, name = max(scored, key=lambda item: (item[0], item[1]))
        return {
            "name": name,
            "seconds": seconds,
            "share": seconds / total if total > 0 else 0.0,
        }

    report.update(
        start_seconds=start_seconds,
        end_seconds=end_seconds,
        total_seconds=total,
        busy_seconds=busy_total,
        wait_seconds=wait_total,
        overlap_seconds=overlap_total,
        readiness_seconds=readiness_total,
        path=segments,
        links=links,
        ranks=ranks,
        stages=stages,
        top_link=_top(links),
        top_rank=_top(ranks),
    )
    return report


def analyze_run(run, strategy=None, tol: float = TIME_TOL) -> Dict[str, Any]:
    """Analyze a parsed :class:`~repro.telemetry.export.TelemetryRun`."""
    return analyze_spans(
        extract_chunk_spans(run.records),
        strategy=strategy,
        tol=tol,
        readiness=extract_readiness(run.records),
    )


def analyze_hub(hub, strategy=None, tol: float = TIME_TOL) -> Dict[str, Any]:
    """Analyze what a :class:`~repro.telemetry.core.TelemetryHub` holds,
    in process: no JSONL text is rendered or parsed.

    Spans and events are read in export order ``(start, seq)`` from the
    tracer's export rows through :func:`chunk_send` and
    :func:`ready_delays`, and JSON round-trips floats exactly, so the
    report is byte-equal to :func:`analyze_run` over the hub's parsed
    export.
    """
    spans: List[ChunkSpan] = []
    readiness: List[Dict[int, float]] = []
    sites = hub.tracer.sites
    number = 0
    for start, end, event, _, _, site, values in hub.tracer.export_rows():
        name, category, track, keys = sites[site]
        if event:
            delays = ready_delays(name, dict(zip(keys, values)))
            if delays:
                readiness.append(delays)
            continue
        number += 1
        if category == "chunk":  # chunk_send's first test, before the dict
            node = chunk_send(
                category, name, track, start, end,
                dict(zip(keys, values)), len(spans), number,
            )
            if node is not None:
                spans.append(node)
    return analyze_spans(spans, strategy=strategy, tol=tol, readiness=readiness)


def report_to_json(report: Dict[str, Any]) -> str:
    """The report as canonical JSON text (byte-identical per seed)."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_report(report: Dict[str, Any], top: int = 5) -> str:
    """Human-readable summary of a critpath report."""
    lines = [
        f"critical path over {report['span_count']} chunk spans "
        f"({report['mode']} DAG, {report.get('inferred_edges', 0)} stitched "
        "edge(s))",
        f"  window  : {report['start_seconds']:.6f}s -> "
        f"{report['end_seconds']:.6f}s ({report['total_seconds']:.6f}s)",
        f"  on path : busy {report['busy_seconds']:.6f}s, "
        f"wait {report['wait_seconds']:.6f}s",
    ]
    if report.get("readiness_seconds", 0.0) > 0.0:
        lines.append(
            f"  readiness: {report['readiness_seconds']:.6f}s of straggler "
            "excess (pre-send, charged to the late ranks)"
        )
    top_link = report.get("top_link")
    if top_link:
        lines.append(
            f"  top link: {top_link['name']} carries "
            f"{top_link['share'] * 100:.1f}% of the critical path "
            f"({top_link['seconds']:.6f}s)"
        )
    top_rank = report.get("top_rank")
    if top_rank:
        lines.append(
            f"  top rank: {top_rank['name']} "
            f"({top_rank['share'] * 100:.1f}%, {top_rank['seconds']:.6f}s)"
        )
    ordered = sorted(
        report.get("links", {}).items(),
        key=lambda item: (
            -(item[1]["critical_seconds"] + item[1]["wait_seconds"]),
            item[0],
        ),
    )
    if ordered:
        lines.append("  links (critical + wait seconds, min slack):")
        for name, entry in ordered[:top]:
            slack_text = (
                f"{entry['min_slack_seconds']:.6f}s"
                if entry["min_slack_seconds"] is not None
                else "-"
            )
            lines.append(
                f"    {name:<14} {entry['critical_seconds']:.6f}s + "
                f"{entry['wait_seconds']:.6f}s  ({entry['share'] * 100:5.1f}%)"
                f"  slack {slack_text}"
            )
    ordered_stages = sorted(
        report.get("stages", {}).items(),
        key=lambda item: (-item[1]["critical_seconds"], item[0]),
    )
    if ordered_stages:
        lines.append("  stages:")
        for name, entry in ordered_stages:
            lines.append(
                f"    {name:<14} {entry['critical_seconds']:.6f}s "
                f"({entry['share'] * 100:5.1f}%, {entry['spans']} span(s))"
            )
    return "\n".join(lines) + "\n"
