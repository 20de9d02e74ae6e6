"""The columnar span store against the object-per-span tracer it replaced.

``tests/span_oracle.py`` keeps the old ``Tracer`` / ``Span`` verbatim,
with the exporters of that time. A hypothesis property drives both with
the same random begin / end / instant sequence — nesting through
``parent=``, args at begin and at close (a key given at close replaces
the begin value), spans left open, timestamps of every odd type — and
holds the store's JSONL, records, critical-path report, ids, views,
open spans, length and error texts to the oracle's. A scripted pass
sends one value of every class down every path into the store, across a
``reset()``, and holds args, export rows, JSONL and the Chrome trace to
the oracle's. A tracemalloc guard pins what one chunk-send record and
one flow record cost to keep.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.critpath import analyze_hub, report_to_json, to_chrome_trace
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import TelemetryRun, ordered_records, to_jsonl

from . import span_oracle

_NAN = float("nan")

#: Every timestamp type a caller can hand the tracer: exact floats, and
#: ints, bools, numpy scalars and non-finite values that keep their object.
_TIMES = st.sampled_from(
    [0.0, 0.5, 1.0, 1.0, 2.5, -0.0, 2, 0, True, False, np.float64(0.5), np.float64(1.0),
     float("inf"), float("-inf"), _NAN]
)
_NAMES = st.sampled_from(["a:send", "b:send", "ski-rental-decision", "x", 'q"é\t%s'])
_CATEGORIES = st.sampled_from(["", "chunk", "net", 1, True])  # 1 and True stay apart
_TRACKS = st.sampled_from(["", "link:g0->n1", "link:n1->g2", "träck"])
_VALUES = st.one_of(
    st.sampled_from(
        [0, 1, 2, 7, 300, -1, 0.25, 1e300, "u0", "u1", "%d", True, None, np.float64(2.5),
         float("inf"), _NAN, [1, "a"], {"z": 1, "a": [2.0]}]
    ),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
_ARGS = st.dictionaries(
    st.sampled_from(["chunk", "unit", "bytes", "a%b", "é", "z", "ready_delays"]),
    _VALUES,
    max_size=4,
)
_REF = st.integers(min_value=0, max_value=10_000)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), _NAMES, _TIMES, _CATEGORIES, _TRACKS,
                  st.one_of(st.none(), _REF), _ARGS),
        st.tuples(st.just("instant"), _NAMES, _TIMES, _CATEGORIES, _TRACKS,
                  st.one_of(st.none(), _REF), _ARGS),
        st.tuples(st.just("end"), _REF, _TIMES, _ARGS),
    ),
    max_size=40,
)


def _same(left, right) -> bool:
    """Equal values of one type, NaN equal to NaN."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float) and left != left:
        return right != right
    return left == right


def _outcome(call, *args, **kwargs):
    """A call's result, or the type and text of what it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # the text is what is compared
        return f"{type(exc).__name__}: {exc}"


def _close_with_args(tracer, span, when, args):
    """The old way to close with arguments: dict writes, which here land
    only when the close succeeds, as ``end(span, t, **args)`` does."""
    tracer.end(span, when)
    span.args.update(args)


def _drive(ops):
    """Replay ``ops`` on a hub's store and on the oracle; the two handle
    lists line up index for index, and so do the ``end`` error texts."""
    hub = TelemetryHub(enabled=True)
    oracle = span_oracle.Tracer()
    handles = []
    for op in ops:
        if op[0] == "end":
            _, ref, when, args = op
            if not handles:
                continue
            mine, theirs = handles[ref % len(handles)]
            assert _outcome(hub.end, mine, when, **args) == _outcome(
                _close_with_args, oracle, theirs, when, args
            )
            continue
        kind, name, when, category, track, ref, args = op
        mine_parent = theirs_parent = None
        if ref is not None and handles:
            mine_parent, theirs_parent = handles[ref % len(handles)]
        record = hub.begin if kind == "begin" else hub.instant
        replay = oracle.begin if kind == "begin" else oracle.instant
        handles.append(
            (
                record(name, when, category=category, track=track, parent=mine_parent, **args),
                replay(name, when, category=category, track=track, parent=theirs_parent,
                       **dict(args)),
            )
        )
    return hub, oracle, handles


class TestStoreAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS, labels=st.sampled_from([None, {"job": "j%1"}]))
    def test_every_reading_equals_the_object_tracer(self, ops, labels):
        hub, oracle, handles = _drive(ops)
        hub.labels = dict(labels or {})
        tracer = hub.tracer
        assert len(tracer) == len(oracle)
        assert (tracer.span_count, tracer.event_count) == (len(oracle.spans), len(oracle.events))

        for view, span in handles:
            assert (view.span_id, view.parent_id, view.seq) == (
                span.span_id, span.parent_id, span.seq,
            )
            for field in ("name", "category", "track", "start", "end", "duration"):
                assert _same(getattr(view, field), getattr(span, field)), field
            assert list(view.args) == list(span.args)
            assert all(_same(view.args[key], span.args[key]) for key in span.args)

        def ids(spans):
            return [span.span_id for span in spans]

        assert ids(tracer.spans) == ids(oracle.spans)
        assert ids(tracer.events) == ids(oracle.events)
        assert ids(tracer.open_spans()) == ids(oracle.open_spans())
        assert ids(tracer.of_category("chunk")) == ids(oracle.of_category("chunk"))
        assert ids(tracer.events_named("x")) == ids(oracle.events_named("x"))

        snapshot = hub.metrics.snapshot()
        assert to_jsonl(hub) == span_oracle.jsonl(oracle, snapshot, labels)
        mine = ordered_records(hub)
        theirs = span_oracle.records(oracle, labels)
        assert [json.dumps(r, sort_keys=True) for r in mine] == [
            json.dumps(r, sort_keys=True) for r in theirs
        ]
        # The old analyzer sorted spans and events apart; the store reads
        # the one export order, as the text path always did. The two differ
        # only where no order exists: a NaN start.
        if all(record.start == record.start for record in oracle.spans + oracle.events):
            assert _outcome(lambda: report_to_json(analyze_hub(hub))) == _outcome(
                lambda: report_to_json(span_oracle.analyze(oracle))
            )

    def test_errors_name_the_span_as_before(self):
        hub, oracle, handles = _drive(
            [
                ("begin", "x", 2.0, "", "", None, {}),
                ("begin", "y", True, "", "", 0, {}),
                ("end", 0, 1.5, {}),  # before its start
                ("end", 1, np.float64(0.5), {}),  # before a bool start
                ("end", 0, 3.0, {}),
                ("end", 0, 4.0, {}),  # double close
            ]
        )
        (mine, theirs), (child, oracle_child) = handles
        for view, span, when in ((mine, theirs, 5.0), (child, oracle_child, 0.5)):
            mine_error = _outcome(hub.end, view, when)
            assert mine_error == _outcome(oracle.end, span, when)
            assert mine_error.startswith("TelemetryError: span 1")

    def test_a_key_given_at_close_replaces_the_begin_value(self):
        hub = TelemetryHub(enabled=True)
        span = hub.begin("s", 0.0, keep=1, late=2)
        hub.end(span, 1.0, late=3, extra="e")
        assert dict(span.args) == {"keep": 1, "late": 3, "extra": "e"}
        assert '"args":{"extra":"e","keep":1,"late":3}' in to_jsonl(hub)


class TestViewArgsAreReadOnly:
    def test_writing_args_raises_instead_of_dropping_the_value(self):
        span = TelemetryHub(enabled=True).begin("s", 0.0, bytes=1.0)
        with pytest.raises(TypeError):
            span.args["cancelled"] = True
        with pytest.raises(AttributeError):
            span.args.update(cancelled=True)
        assert dict(span.args) == {"bytes": 1.0}


#: One value of every class a record's args can carry: the exact ints,
#: floats and strs the typed columns hold (int64's ends, ``-0.0``, NaN,
#: ±inf, non-ASCII and surrogate text among them) and what keeps its
#: tuple in the side table (``bool``, ints beyond int64, numpy scalars,
#: ``None``, containers).
_VALUE_CLASSES = {
    "int": 7,
    "int64-max": 2**63 - 1,
    "int64-min": -(2**63),
    "above-int64": 2**63,
    "below-int64": -(2**63) - 1,
    "huge-int": 10**30,
    "bool": True,
    "float": 0.1,
    "negative-zero": -0.0,
    "nan": _NAN,
    "inf": float("inf"),
    "-inf": float("-inf"),
    "np.float64": np.float64(2.5),
    "np.int64": np.int64(3),
    "none": None,
    "empty-str": "",
    "non-ascii": "é日本\u2028",
    "surrogate": "\ud800x",
    "list": [1, "a", 2.0],
    "dict": {"z": 1, "a": [True, None]},
}


def _fingerprint(value):
    """A value as its types and reprs, recursively: equal iff the values
    are, with NaN equal to NaN and ``-0.0`` apart from ``0.0``."""
    if isinstance(value, (dict, MappingProxyType)):
        return ("dict", tuple((key, _fingerprint(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(_fingerprint, value)))
    return (type(value).__name__, repr(value))


class _Both:
    """One hub and the object tracer, driven op for op; a pair of handles
    per record. ``reset`` swaps in a fresh oracle as the hub drops its
    store."""

    def __init__(self):
        self.hub = TelemetryHub(enabled=True)
        self.oracle = span_oracle.Tracer()
        self.handles = []
        self.sites = {}

    def _keep(self, mine, theirs):
        self.handles.append((mine, theirs))
        return mine, theirs

    def begin(self, name, when, parent=None, **args):
        return self._keep(
            self.hub.begin(name, when, category="c", track="k",
                           parent=parent and parent[0], **args),
            self.oracle.begin(name, when, category="c", track="k",
                              parent=parent and parent[1], **dict(args)),
        )

    def site_begin(self, name, keys, when, values):
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = self.hub.site(name, category="s", track="t", keys=keys)
        return self._keep(
            site.begin(when, values),
            self.oracle.begin(name, when, category="s", track="t", **dict(zip(keys, values))),
        )

    def instant(self, name, when, parent=None, **args):
        return self._keep(
            self.hub.instant(name, when, parent=parent and parent[0], **args),
            self.oracle.instant(name, when, parent=parent and parent[1], **dict(args)),
        )

    def end(self, pair, when, **args):
        self.hub.end(pair[0], when, **args)
        _close_with_args(self.oracle, pair[1], when, args)

    def reset(self):
        self.hub.reset()
        self.oracle = span_oracle.Tracer()
        self.handles = []

    def assert_same(self):
        hub, oracle = self.hub, self.oracle
        for mine, theirs in self.handles:
            assert (mine.span_id, mine.parent_id) == (theirs.span_id, theirs.parent_id)
            assert _fingerprint(mine.args) == _fingerprint(theirs.args)
        sites = hub.tracer.sites
        rows = [
            (start, end, event, span_id, parent_id, *sites[site][:3],
             dict(zip(sites[site][3], values)))
            for start, end, event, span_id, parent_id, site, values in hub.tracer.export_rows()
        ]
        records = [
            (record["start"], record["end"], record["type"] == "event", record["id"],
             record["parent"], record["name"], record["cat"], record["track"], record["args"])
            for record in span_oracle.records(oracle)
        ]
        assert _fingerprint(rows) == _fingerprint(records)
        assert _outcome(to_jsonl, hub) == _outcome(
            span_oracle.jsonl, oracle, hub.metrics.snapshot()
        )
        theirs = TelemetryRun(records=span_oracle.records(oracle))
        assert repr(to_chrome_trace(hub)) == repr(to_chrome_trace(theirs))


def _every_path(both, value):
    """``value`` through each way into the store: a bound site's typed
    columns (each column in turn) and a site bound by it, ``begin`` with
    a child, ``instant``, and ``end(**args)`` adding and replacing keys."""
    keys = ("chunk", "bytes", "unit")
    both.site_begin("send", keys, 0.0, (1, 2.0, "u"))
    for at in range(3):
        row = [1, 2.0, "u"]
        row[at] = value
        both.site_begin("send", keys, 0.25 * at, tuple(row))
    both.site_begin("first", ("v",), 1.0, (value,))
    both.site_begin("first", ("v",), 1.0, (3,))
    both.site_begin("first", ("v",), 1.5, (value,))
    parent = both.begin("b", 2.0, v=value, n=1)
    child = both.begin("c", 2.0, parent=parent, v=value)
    both.instant("i", 2.5, parent=child, v=value)
    both.instant("j", 2.5, w=value)
    both.end(child, 3.0, v=0, extra=value)
    both.end(parent, 3.5, v=value)
    for mine, theirs in list(both.handles):
        if theirs.end is None:
            both.end((mine, theirs), 4.0)


class TestValueClassesAgainstTheOracle:
    """Every value class, on every path into the store and across a
    ``reset()``, reads back as the object tracer holds it: views' args,
    export rows, JSONL text and the Chrome trace."""

    @pytest.mark.parametrize("value", list(_VALUE_CLASSES.values()), ids=list(_VALUE_CLASSES))
    def test_every_path_and_reset(self, value):
        both = _Both()
        _every_path(both, value)
        both.assert_same()
        both.reset()
        _every_path(both, value)
        both.assert_same()

    def test_all_classes_in_one_store(self):
        both = _Both()
        for value in _VALUE_CLASSES.values():
            _every_path(both, value)
        both.assert_same()


#: What the executor's chunk sends look like: one name and track per
#: sender, args ``chunk`` / ``bytes`` / ``unit`` with the byte counts and
#: the unit label shared across the chunk loop.
_CHUNKS = 64
_CHUNK_BYTES = [float(1 << 20) + k for k in range(_CHUNKS)]


def _chunk_sends(hub, count):
    name, track, unit = "allreduce-red:m0:send", "link:g0->n1", "agg:g3"
    for record in range(count):
        k = record % _CHUNKS
        span = hub.begin(
            name, record * 1e-3, category="chunk", track=track,
            chunk=k, bytes=_CHUNK_BYTES[k], unit=unit,
        )
        hub.end(span, record * 1e-3 + 5e-4)


def _flows(hub, count):
    """What the bridge's flow spans look like: a unique flow number and a
    unique byte count per record, begun at a bound site."""
    site = hub.site("allreduce-red:m0", category="net", track="link:g0->n1",
                    keys=("flow", "bytes"))
    for record in range(count):
        span = site.begin(record * 1e-3, (record + 1, 1048576.0 + record * 0.5))
        hub.end(span, record * 1e-3 + 5e-4)


@pytest.mark.parametrize("emit", [_chunk_sends, _flows], ids=["chunk-send", "flow"])
def test_a_record_retains_at_most_56_bytes(emit):
    """≈ 560 B each as ``Span`` + args dict + id string, and 104 B (chunk
    send) / 152 B (flow) with one args tuple and its value objects per
    record; typed arg columns keep it under 56 B."""
    hub = TelemetryHub(enabled=True)
    count = 20_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit(hub, count)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hub.tracer) == count
    assert retained / count <= 56, f"{retained / count:.0f} B per record"
