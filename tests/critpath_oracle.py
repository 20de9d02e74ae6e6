"""The critical-path engine before its per-span work was cut, kept verbatim
as the differential oracle of ``repro.critpath.engine``.

``ChunkSpan`` is the frozen dataclass that derived its parsed fields
through ``object.__setattr__``; the joins sort and compare with a
``lambda`` calling ``_end_key`` per comparison; the slack DP builds one
successor list per span. ``tests/test_critpath_differential.py`` holds
``analyze_spans`` and ``analyze_run`` to the functions below byte for
byte, on random span sets and on recorded runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError

#: Version stamp carried by every report; bump on breaking changes.
REPORT_SCHEMA = 1

#: Report envelope type tag.
REPORT_KIND = "critpath_report"

#: Per-span slack when comparing simulator timestamps.
TIME_TOL = 1e-9


@dataclass(frozen=True)
class ChunkSpan:
    """One chunk-pipeline ``…:send`` span: a node of the execution DAG.

    The derived ``link`` / ``src`` / ``dst`` / ``stage`` are parsed once,
    at construction: the join and the attribution read them per probe.
    """

    tag: str
    track: str
    unit: str
    chunk: int
    start: float
    end: float
    #: Position among extracted spans, in file order — the deterministic
    #: tiebreak for every choice the engine makes.
    order: int
    bytes: float = 0.0
    #: The ``"g0->n1"``-style link name (track minus the prefix).
    link: str = field(init=False, compare=False, repr=False)
    #: Endpoint node names (``""`` for non-link tracks).
    src: str = field(init=False, compare=False, repr=False)
    dst: str = field(init=False, compare=False, repr=False)
    #: Pipeline stage: the tag up to the sub-collective suffix.
    stage: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        track = self.track
        link = track[len("link:"):] if track.startswith("link:") else track
        src, arrow, dst = link.partition("->")
        put = object.__setattr__  # the dataclass is frozen
        put(self, "link", link)
        put(self, "src", src if arrow else "")
        put(self, "dst", dst if arrow else "")
        put(self, "stage", self.tag.split(":", 1)[0])

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
        if record.get("type") != "span":
            continue
        span = chunk_send(
            record.get("cat"),
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


def _end_key(spans: Sequence[ChunkSpan], index: int) -> Tuple[float, float, int]:
    span = spans[index]
    return (span.end, span.start, span.order)


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
                        preds[index].append(
                            min(candidates, key=lambda i: _end_key(spans, i))
                        )
    return slots, preds


def handoff_producers(
    spans: Sequence[ChunkSpan], tol: float = TIME_TOL
) -> List[Optional[int]]:
    """Per span, its binding cross-link handoff (``None`` if it has none).

    The producer of a send is the latest — by ``_end_key`` — *other* send
    of the same ``(tag, unit, chunk)`` whose link destination is this
    send's source endpoint and which ended by ``start + tol``. Producers
    are bucketed by ``(tag, unit, chunk, dst)`` and each bucket sorted by
    that key once, so the latest qualifying one is the entry just left of
    ``bisect_right(ends, start + tol)`` — the same ``end <= start + tol``
    comparison and the same tie-break as scanning the bucket, in
    O(n log n). Also what draws the Chrome trace's flow arrows.
    """
    buckets: Dict[Tuple[str, str, int, str], List[int]] = {}
    for index, span in enumerate(spans):
        buckets.setdefault((span.tag, span.unit, span.chunk, span.dst), []).append(index)
    # Per bucket: its members latest-last, and their ends to bisect.
    sorted_buckets = {}
    for key, members in buckets.items():
        members.sort(key=lambda i: _end_key(spans, i))
        sorted_buckets[key] = (members, [spans[i].end for i in members])

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
    spans: Sequence[ChunkSpan], tol: float
) -> List[List[int]]:
    """Edges inferred from the spans alone (no strategy available)."""
    # slots[(sender, chunk)] lists span indices in file order; a span's
    # occurrence is its position there, counted as it is indexed.
    slots: Dict[Tuple[str, str, str, int], List[int]] = {}
    occurrences: List[int] = []
    for index, span in enumerate(spans):
        slot = slots.setdefault((span.tag, span.track, span.unit, span.chunk), [])
        occurrences.append(len(slot))
        slot.append(index)

    preds: List[List[int]] = [[] for _ in spans]
    producers = handoff_producers(spans, tol)
    for index, span in enumerate(spans):
        # The same sender's chunk k-1 -> k serializes, per occurrence.
        prior = slots.get((span.tag, span.track, span.unit, span.chunk - 1), ())
        if occurrences[index] < len(prior):
            preds[index].append(prior[occurrences[index]])
        # The binding handoff: the latest producer that could have
        # released this send.
        if producers[index] is not None:
            preds[index].append(producers[index])
    return preds


def _stitch_orphans(
    spans: Sequence[ChunkSpan], preds: List[List[int]], tol: float
) -> int:
    """Give every predecessor-less node the latest span ending by its start.

    Returns the number of stitched edges. Stitches are what carry the
    path across stage boundaries, iteration boundaries, and straggler
    readiness waits — see the module docstring.
    """
    order_by_end = sorted(range(len(spans)), key=lambda i: _end_key(spans, i))
    ends = [spans[i].end for i in order_by_end]
    stitched = 0
    for index, span in enumerate(spans):
        if preds[index]:
            continue
        position = bisect.bisect_right(ends, span.start + tol)
        for k in range(position - 1, -1, -1):
            j = order_by_end[k]
            if j != index and spans[j].end <= span.start + tol:
                preds[index].append(j)
                stitched += 1
                break
    return stitched


# -- critical path, waits, slack ------------------------------------------------------


def _walk_critical_path(
    spans: Sequence[ChunkSpan], preds: Sequence[Sequence[int]]
) -> List[int]:
    """Backward walk from the latest-ending span along binding edges.

    The binding predecessor of a node is the one that *ends last* — the
    constraint that actually held the node's start back. Returns indices
    in chronological order.
    """
    if not spans:
        return []
    current = max(range(len(spans)), key=lambda i: _end_key(spans, i))
    path = [current]
    visited = {current}
    while preds[current]:
        binding = max(preds[current], key=lambda i: _end_key(spans, i))
        if binding in visited:  # paranoia: zero-duration tie cycles
            break
        path.append(binding)
        visited.add(binding)
        current = binding
    path.reverse()
    return path


def _slack_seconds(
    spans: Sequence[ChunkSpan],
    preds: Sequence[Sequence[int]],
    makespan_end: float,
) -> List[float]:
    """Per-node slack: how late each span could end without moving the
    makespan, via the reverse DP ``latest_allowed_end(n) = min over
    successors s of (latest_allowed_end(s) - duration(s))``."""
    count = len(spans)
    succs: List[List[int]] = [[] for _ in range(count)]
    pending = [0] * count  # successors not yet resolved
    for index in range(count):
        for pred in preds[index]:
            succs[pred].append(index)
            pending[pred] += 1
    latest = [makespan_end] * count
    ready = [i for i in range(count) if pending[i] == 0]
    while ready:
        index = ready.pop()
        allowed = makespan_end
        for succ in succs[index]:
            allowed = min(allowed, latest[succ] - spans[succ].duration)
        latest[index] = allowed
        for pred in preds[index]:
            pending[pred] -= 1
            if pending[pred] == 0:
                ready.append(pred)
    # Nodes left pending would sit on a (degenerate) cycle: call them
    # critical rather than crash.
    return [
        max(0.0, latest[i] - spans[i].end) if pending[i] == 0 else 0.0
        for i in range(count)
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

    if strategy is not None:
        # Imported here: the runtime builds on the hardware layer, which
        # imports telemetry and, through its exporter, this module.
        from repro.runtime.stages import derive_chunk_dag

        _slots, preds = dag_join(spans, derive_chunk_dag(strategy))
    else:
        preds = _inferred_predecessors(spans, tol)
    report["inferred_edges"] = _stitch_orphans(spans, preds, tol)

    start_seconds = min(span.start for span in spans)
    end_seconds = max(span.end for span in spans)
    total = end_seconds - start_seconds
    path = _walk_critical_path(spans, preds)
    slack = _slack_seconds(spans, preds, end_seconds)

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
        entry = _link_entry(span.link)
        entry["spans"] += 1
        if entry["min_slack_seconds"] is None or node_slack < entry["min_slack_seconds"]:
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
    egress: Dict[int, str] = {}
    for span in spans:
        rank = _rank_of(span.src)
        if rank is None:
            continue
        if rank not in egress or span.link < egress[rank]:
            egress[rank] = span.link
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

