"""Structural lint over merged fleet exports (the ``--fleet`` pass's core).

A fleet JSONL stream interleaves several jobs' telemetry into one file;
this lint checks the merge is sound and the cross-job claims it carries
are backed by the stream itself:

* the meta header declares a fleet stream and lists its jobs; every
  span/event record carries a ``labels.job`` stamp naming one of them,
  and the header's span/event counts match the body;
* record identity is collision-free: span/event ids are unique *within*
  a job's stream (ids are per-hub counters, so the (job, id) pair is the
  merged stream's primary key);
* per-job byte conservation: a chunk travelling a multi-hop route keeps
  its byte size at every hop — same ``(tag, unit, chunk)`` *within one
  collective instance* (the job's enclosing collective span; tags and
  unit keys repeat across a job's sequential ops) → same ``bytes`` — so
  no job's traffic is silently inflated or truncated by the merge;
* every ``interference-attribution`` event names an aggressor that (a)
  is another job in the stream and (b) actually occupied the attributed
  link during the claimed window — the stream must contain one of the
  aggressor's chunk sends on that link overlapping it. Attribution
  without wire evidence is a lint error, not a judgement call.

Fairness bounds, ground-truth accuracy, and replay determinism need the
runner (a report or a second run), so they live in the bare-mode pass
body (``repro.analysis.passes.run_fleet_pass``), not here.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Tuple

from repro.critpath.engine import ChunkSpan, chunk_send
from repro.findings import Finding, RuleSpec
from repro.telemetry.export import TelemetryRun, read_jsonl

#: Window/occupancy overlap below this is numerical noise, not evidence.
_TOL = 1e-9

RULES = (
    RuleSpec("fleet-io", "fleet export unreadable"),
    RuleSpec("fleet-schema", "merged stream header/label schema malformed"),
    RuleSpec("fleet-identity", "record ids collide within a job's stream"),
    RuleSpec("fleet-conservation", "a job's chunk changed size across hops"),
    RuleSpec("fleet-attribution", "attribution not backed by wire evidence"),
)


def _job_of(record: dict) -> str:
    labels = record.get("labels")
    if isinstance(labels, dict):
        return str(labels.get("job", ""))
    return ""


def lint_fleet_run(run: TelemetryRun) -> List[Finding]:
    """Check one parsed merged fleet stream."""
    violations: List[Finding] = []
    meta = run.meta
    if not meta.get("fleet"):
        violations.append(
            Finding(
                "fleet-schema",
                "meta",
                "meta header does not declare a fleet stream (fleet: true)",
            )
        )
    jobs = meta.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        violations.append(
            Finding("fleet-schema", "meta", "meta header lists no jobs")
        )
        jobs = []
    job_set = {str(job) for job in jobs}
    spans_declared = meta.get("spans")
    if spans_declared is not None and spans_declared != len(run.spans):
        violations.append(
            Finding(
                "fleet-schema",
                "meta",
                f"meta declares {spans_declared} span(s), stream has "
                f"{len(run.spans)}",
            )
        )
    events_declared = meta.get("events")
    if events_declared is not None and events_declared != len(run.events):
        violations.append(
            Finding(
                "fleet-schema",
                "meta",
                f"meta declares {events_declared} event(s), stream has "
                f"{len(run.events)}",
            )
        )

    seen: Dict[Tuple[str, str], int] = {}
    for index, record in enumerate(run.records):
        subject = f"record{index}"
        job = _job_of(record)
        if not job:
            violations.append(
                Finding(
                    "fleet-schema",
                    subject,
                    f"{record.get('type')} record carries no labels.job stamp",
                )
            )
            continue
        if job_set and job not in job_set:
            violations.append(
                Finding(
                    "fleet-schema",
                    subject,
                    f"record labeled job {job!r} which the meta header "
                    "does not list",
                )
            )
        identity = (job, str(record.get("id")))
        if identity in seen:
            violations.append(
                Finding(
                    "fleet-identity",
                    subject,
                    f"duplicate record id {identity[1]!r} within job "
                    f"{job!r} (first at record{seen[identity]})",
                )
            )
        else:
            seen[identity] = index

    violations.extend(_lint_conservation(run))
    violations.extend(_lint_attributions(run))
    return violations


def _chunk_sends(run: TelemetryRun) -> Iterator[Tuple[str, ChunkSpan]]:
    """``(job, send)`` per chunk send (:func:`~repro.critpath.engine.chunk_send`)."""
    for number, record in enumerate(run.records, start=1):
        if record.get("type") != "span":
            continue
        send = chunk_send(
            record.get("cat"), record.get("name", ""), record.get("track", ""),
            record.get("start"), record.get("end"), record.get("args", {}), 0, number,
        )
        if send is not None:
            yield _job_of(record), send


def collective_windows(run: TelemetryRun) -> Dict[str, List[Tuple[float, float, str]]]:
    """job → sorted ``(start, end, id)`` of its collective-category spans.

    A job's ops replay serially (one outstanding collective per job), so
    these windows are disjoint and locate which collective instance any
    chunk span belongs to.
    """
    windows: Dict[str, List[Tuple[float, float, str]]] = {}
    for span in run.spans:
        if span.get("cat") != "collective" or span.get("end") is None:
            continue
        windows.setdefault(_job_of(span), []).append(
            (float(span["start"]), float(span["end"]), str(span.get("id")))
        )
    for intervals in windows.values():
        intervals.sort()
    return windows


def _enclosing(
    windows: List[Tuple[float, float, str]], start: float
) -> str:
    index = bisect_right(windows, (start, float("inf"), "")) - 1
    if index >= 0 and windows[index][1] >= start - _TOL:
        return windows[index][2]
    return ""


def _lint_conservation(run: TelemetryRun) -> List[Finding]:
    """Per-job byte conservation of each chunk across its hops.

    A job replays many collectives and tags/unit keys repeat across
    them, so chunk identity is scoped to one collective instance — the
    job's collective span enclosing the chunk's start time. (Chunk
    spans outside any collective window — e.g. watchdog probe traffic —
    key on their own id, i.e. are exempt.)
    """
    violations: List[Finding] = []
    windows = collective_windows(run)
    sizes: Dict[Tuple[str, str, str, str, int], float] = {}
    for job, send in _chunk_sends(run):
        owner = _enclosing(windows.get(job, []), send.start)
        key = (job, owner or f"@{send.start}:{send.link}", send.tag, send.unit, send.chunk)
        known = sizes.get(key)
        if known is None:
            sizes[key] = send.bytes
        elif send.bytes != known:
            violations.append(
                Finding(
                    "fleet-conservation",
                    f"{job}:{send.tag}:{send.unit}:chunk{send.chunk}",
                    f"chunk changed size across hops: {known} vs {send.bytes} "
                    f"byte(s) (hop {send.link})",
                )
            )
    return violations


def _lint_attributions(run: TelemetryRun) -> List[Finding]:
    """Every attribution's aggressor really occupied the named link."""
    violations: List[Finding] = []
    #: (job, link) -> [(start, end)] of that job's sends on the link.
    occupancy: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for job, send in _chunk_sends(run):
        occupancy.setdefault((job, send.link), []).append((send.start, send.end))
    jobs_in_stream = {_job_of(record) for record in run.records} - {""}

    for index, event in enumerate(run.events):
        if event.get("name") != "interference-attribution":
            continue
        subject = f"attribution@{event.get('start')}"
        args = event.get("args", {})
        victim = str(args.get("victim", ""))
        aggressor = str(args.get("aggressor", ""))
        link = str(args.get("link", ""))
        if _job_of(event) != victim:
            violations.append(
                Finding(
                    "fleet-attribution",
                    subject,
                    f"attribution stamped job {_job_of(event)!r} but claims "
                    f"victim {victim!r}",
                )
            )
        if aggressor == victim:
            violations.append(
                Finding(
                    "fleet-attribution", subject, "job attributed to itself"
                )
            )
            continue
        if aggressor not in jobs_in_stream:
            violations.append(
                Finding(
                    "fleet-attribution",
                    subject,
                    f"aggressor {aggressor!r} has no records in the stream",
                )
            )
            continue
        window_start = float(args.get("window_start", 0.0))
        window_end = float(args.get("window_end", 0.0))
        intervals = occupancy.get((aggressor, link), [])
        backed = any(
            min(end, window_end) - max(start, window_start) > _TOL
            for start, end in intervals
        )
        if not backed:
            violations.append(
                Finding(
                    "fleet-attribution",
                    subject,
                    f"aggressor {aggressor!r} has no chunk send on link "
                    f"{link!r} overlapping [{window_start}, {window_end}]",
                )
            )
    return violations


def lint_fleet_file(path: str) -> List[Finding]:
    """Load and lint a merged fleet JSONL export."""
    try:
        run = read_jsonl(path)
    except Exception as exc:  # TelemetryError or OSError
        return [Finding("fleet-io", path, f"unreadable fleet export: {exc}")]
    return lint_fleet_run(run)
