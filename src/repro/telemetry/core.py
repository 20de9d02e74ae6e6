"""Zero-dependency tracing core: the span store, its views, and the hub.

Observability of one simulated world hangs off the :class:`TelemetryHub`
its ``Cluster`` owns: a :class:`Tracer` recording spans and instant
events, plus a :class:`~repro.telemetry.metrics.MetricsRegistry`.
The hub is a **no-op unless enabled** — every instrumentation site guards
on ``hub.enabled`` (a single attribute read) before building spans or
argument dicts, so the chunk-pipeline hot path pays nothing by default.

Timestamps are *explicit*: callers pass the simulator clock (``sim.now``)
or, for offline bookkeeping, any monotonic float. The tracer never reads
the host wall clock itself, which is what makes same-seed runs export
byte-identical traces (see ``tests/test_telemetry.py``).

Span ids are hierarchical dotted strings (``"3"``, ``"3.1"``, ``"3.1.2"``):
a child's id extends its parent's, so exporters and the ``--telemetry``
lint can check nesting without reconstructing a tree.

The tracer keeps its records in columns (DESIGN.md §7), not as one object
per span: a :class:`Span` is a two-slot view of one record, arg values
sit in typed per-site columns, and exporters read the store through
:meth:`Tracer.export_rows` or :meth:`Tracer.export_table`. Nothing outside
this module knows the column layout. A hot call site binds its name,
category, track and argument keys once with :meth:`TelemetryHub.site` and
then passes only a start and a value tuple per span.

Enable telemetry per session (``AdapCCSession(telemetry=True)``) or
capture programmatically by passing your own hub (``Cluster(..., hub=mine)``,
``AdapCCSession(telemetry=mine)``). :func:`hub` / :func:`set_hub` are the
process default a ``Cluster`` built without one captures, disabled until
replaced (DESIGN.md "State ownership").
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import TelemetryError
from repro.telemetry.metrics import MetricsRegistry

#: One export row (see :meth:`Tracer.export_rows`).
Row = Tuple[Any, Any, bool, str, Optional[str], int, tuple]
#: One row of :meth:`Tracer.export_table`: an export row with the
#: record's position in its site's arg columns in place of its values.
TableRow = Tuple[Any, Any, bool, str, Optional[str], int, int]
#: What a record shares with every record of its call site:
#: ``(name, category, track, arg keys)``.
Site = Tuple[Any, Any, Any, Tuple[str, ...]]


class Span:
    """A view of one named interval (or instant) on one track.

    Two slots — the :class:`Tracer` and the record's index — and every
    field read from the tracer's columns. ``end`` is ``None`` while the
    span is open; instants have ``end == start``. ``track`` names the
    timeline the span belongs to (one per rank/link/subsystem —
    Chrome-trace threads). ``args`` is read-only: arguments known only at
    close go to ``end(span, t, **args)``.
    """

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    @property
    def span_id(self) -> str:
        return self._tracer._dotted(self._index)

    @property
    def parent_id(self) -> Optional[str]:
        parent = self._tracer._link(self._index)[0]
        return None if parent < 0 else self._tracer._dotted(parent)

    @property
    def name(self) -> Any:
        return self._tracer._site_fields(self._index)[0]

    @property
    def category(self) -> Any:
        return self._tracer._site_fields(self._index)[1]

    @property
    def track(self) -> Any:
        return self._tracer._site_fields(self._index)[2]

    @property
    def start(self) -> Any:
        return self._tracer._start_of(self._index)

    @property
    def end(self) -> Any:
        return self._tracer._end_of(self._index)

    @property
    def seq(self) -> int:
        """Emission order within the tracer, from 1."""
        return self._index + 1

    @property
    def args(self) -> Mapping[str, Any]:
        tracer = self._tracer
        keys = tracer._site_fields(self._index)[3]
        return MappingProxyType(dict(zip(keys, tracer._values_of(self._index))))

    @property
    def duration(self) -> Optional[Any]:
        """Seconds from start to end, or ``None`` while open."""
        end = self.end
        return None if end is None else end - self.start

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Span)
            and other._tracer is self._tracer
            and other._index == self._index
        )

    def __hash__(self) -> int:
        return hash((id(self._tracer), self._index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.3g}s"
        return f"<Span {self.span_id} {self.name!r} on {self.track!r} {state}>"


def _field_key(value: Any) -> Any:
    """A site field's part of the site key: a ``str`` is keyed by itself,
    any other value by ``(type, value)``, so ``1`` and ``True`` stay apart."""
    return value if type(value) is str else (type(value), value)


#: Record flag bits: closed, instant event, and child (has a parent).
_CLOSED, _EVENT, _CHILD = 1, 2, 4
#: ``flags.translate(_ROOT_BITS)``: 1 for each root record, 0 for a child.
_ROOT_BITS = bytes(0 if flags & _CHILD else 1 for flags in range(256))

#: The ``array`` type code of each arg value type a column holds: exact
#: int64 ints, exact floats, and exact strs as ids into the string table.
_CODES = {int: "q", float: "d", str: "i"}


class _Strings(dict):
    """One tracer's string table: ``strings[text]`` is the id of an exact
    ``str``, assigned on first sight; ``texts[id]`` is the text. Id 0 is
    ``""``, so a placeholder row's zero reads as a text."""

    __slots__ = ("texts",)

    def __init__(self) -> None:
        super().__init__({"": 0})
        self.texts: List[str] = [""]

    def __missing__(self, text: str) -> int:
        ident = self[text] = len(self.texts)
        self.texts.append(text)
        return ident


def _binder_source(kinds: Tuple[type, ...]) -> str:
    """Source of ``bind(columns, strings, tracer, site)`` for one signature
    of arg types, every one of them in :data:`_CODES`.

    ``bind`` returns three functions over one site's columns.
    ``add(values)`` appends a row whose values have exactly these types
    and returns its position, or returns -1 and appends nothing.
    ``emit(start, values)`` records a whole root span at the site when the
    row fits and ``start`` is an exact, non-NaN float, and returns its
    view, or returns ``None`` and appends nothing. Both raise
    ``OverflowError`` for an int beyond int64, with only part of the row
    appended (:meth:`_ArgStore.trim` drops it), and ``emit`` raises
    ``ValueError`` for a wrong number of values. ``row(position)`` reads
    one row's values back as a tuple.
    """
    count = len(kinds)
    names = [f"v{at}" for at in range(count)]
    if kinds:
        unpack = [f"        {', '.join(names)}, = values"]
        test = " and ".join(f"type({name}) is {kind.__name__}" for name, kind in zip(names, kinds))
        position = "len(c0) - 1"
    else:
        unpack, test, position = [], "not values", "0"
    appends = [
        f"            a{at}(strings[{name}])" if kind is str else f"            a{at}({name})"
        for at, (name, kind) in enumerate(zip(names, kinds))
    ]
    reads = [
        f"texts[c{at}[position]]" if kind is str else f"c{at}[position]"
        for at, kind in enumerate(kinds)
    ]
    lines = ["def bind(columns, strings, tracer, site):"]
    if kinds:
        lines += [
            f"    {', '.join(f'c{at}' for at in range(count))}, = columns",
            f"    {', '.join(f'a{at}' for at in range(count))}, = "
            "[column.append for column in columns]",
        ]
    lines += [
        "    texts = strings.texts",
        "    flags = tracer._flags",
        "    add_position, add_site = tracer._position.append, tracer._site.append",
        "    add_start, add_end, add_flags = tracer._start.append, tracer._end.append, "
        "flags.append",
        "    def add(values):",
        *unpack,
        f"        if {test}:",
        *appends,
        f"            return {position}",
        "        return -1",
        "    def emit(start, values):",
        *unpack,
        f"        if {test} and type(start) is float and start == start:",
        *appends,
        "            index = len(flags)",
        f"            add_position({position})",
        "            add_site(site)",
        "            add_start(start)",
        "            add_end(start)",
        "            add_flags(0)",
        "            return Span(tracer, index)",
        "        return None",
        "    def row(position):",
        f"        return ({''.join(read + ', ' for read in reads)})",
        "    return add, emit, row",
    ]
    return "\n".join(lines) + "\n"


def _never_add(values: tuple) -> int:
    return -1


def _never_emit(start: Any, values: tuple) -> None:
    return None


#: ``bind`` of each signature of column types seen (:func:`_binder_source`).
_BINDERS: Dict[Tuple[type, ...], Any] = {}


def _binder(kinds: Tuple[type, ...]) -> Any:
    """The compiled ``bind`` of one signature, built on first sight."""
    bind = _BINDERS.get(kinds)
    if bind is None:
        namespace: Dict[str, Any] = {"Span": Span}
        exec(_binder_source(kinds), namespace)
        bind = _BINDERS[kinds] = namespace["bind"]
    return bind


class _ArgStore:
    """The argument columns of one site: one ``array`` per arg key, typed
    by the site's first row (``q`` for an ``int``, ``d`` for a ``float``,
    a string id for a ``str``).

    ``add``, ``emit`` and ``row`` are specialised to that row's signature
    (see :func:`_binder_source`); a row ``add`` and ``emit`` reject keeps
    its tuple in the tracer's side table at a placeholder position
    (:meth:`pad`). A site whose first row has a value of any other type
    stores every row so, and has no ``row``.
    """

    __slots__ = ("columns", "add", "emit", "row")

    def __init__(self, values: tuple, tracer: "Tracer", site: int):
        kinds = tuple(map(type, values))
        self.columns = tuple(array(_CODES.get(kind, "b")) for kind in kinds)
        if all(kind in _CODES for kind in kinds):
            bind = _binder(kinds)
            self.add, self.emit, self.row = bind(self.columns, tracer._strings, tracer, site)
        else:
            self.add, self.emit, self.row = _never_add, _never_emit, None

    def pad(self) -> int:
        """Append a placeholder row and return its position."""
        columns = self.columns
        for column in columns:
            column.append(0)
        return len(columns[0]) - 1 if columns else 0

    def trim(self) -> None:
        """Drop a partly appended row."""
        size = min(map(len, self.columns))
        for column in self.columns:
            del column[size:]

    def lists(self, texts: List[str]) -> List[list]:
        """The values of every row as one list per column, by position."""
        text = _CODES[str]
        return [
            list(map(texts.__getitem__, column)) if column.typecode == text else column.tolist()
            for column in self.columns
        ]


class Tracer:
    """Append-only columnar store of spans and instant events.

    One record per :meth:`begin` / :meth:`instant`, index = emission
    order. Columns: the id of the record's interned *site* — its
    ``(name, category, track, arg keys)`` — ``start`` and ``end``
    (``array('d')``), one flag byte (closed, event, child), and the
    record's position in its site's argument columns (:class:`_ArgStore`).
    A root stores no parent or ordinal: roots are numbered in emission
    order when read. A child's parent index and ordinal among its
    siblings sit in three arrays sorted by the child's index; the dotted
    id is derived from these, never stored. Arg values that do not fit
    their site's columns keep their exact tuple in a side table, and a
    timestamp that is not an exact, non-NaN ``float`` keeps its exact
    object in another, so exports render every value as given (NaN
    included: sorting compares NaN objects by identity).
    """

    def __init__(self) -> None:
        self._sites: List[Site] = []
        self._site_ids: Dict[tuple, int] = {}
        #: One shared tuple per distinct arg-key sequence.
        self._key_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: Each site's argument columns, bound on its first row.
        self._stores: List[Optional[_ArgStore]] = []
        self._strings = _Strings()
        self._site = array("i")
        self._position = array("i")
        self._start = array("d")
        self._end = array("d")
        self._flags = bytearray()
        self._side: Dict[int, tuple] = {}
        self._exact_start: Dict[int, Any] = {}
        self._exact_end: Dict[int, Any] = {}
        self._child_rows = array("i")
        self._child_parent = array("i")
        self._child_ordinal = array("i")
        self._children: Dict[int, int] = {}
        self._events = 0

    # -- creation -------------------------------------------------------------

    @staticmethod
    def _foreign(span: Span) -> TelemetryError:
        """The error for a view of another tracer's store."""
        return TelemetryError(
            f"span {span.span_id} was not recorded by this tracer "
            "(another hub's, or from before a reset)"
        )

    def _site_of(self, name: Any, category: Any, track: Any, keys: Tuple[str, ...]) -> int:
        """The id of a site, interned on first sight."""
        key = (_field_key(name), _field_key(category), _field_key(track), keys)
        site = self._site_ids.get(key)
        if site is None:
            keys = self._key_tuples.setdefault(keys, keys)
            site = self._site_ids[key] = len(self._sites)
            self._sites.append((name, category, track, keys))
            self._stores.append(None)
        return site

    def _site_fields(self, index: int) -> Site:
        return self._sites[self._site[index]]

    def _store_of(self, site: int, values: tuple) -> _ArgStore:
        """The site's argument columns, bound from ``values`` on first use."""
        store = self._stores[site]
        if store is None:
            store = self._stores[site] = _ArgStore(values, self, site)
        return store

    def _record(
        self,
        name: Any,
        start: Any,
        category: Any,
        track: Any,
        parent: Optional[Span],
        args: Dict[str, Any],
        event: bool,
    ) -> Span:
        if parent is not None and parent._tracer is not self:
            raise self._foreign(parent)
        site = self._site_of(name, category, track, tuple(args))
        return self._append(site, start, tuple(args.values()), parent, event)

    def _append(
        self, site: int, start: Any, values: tuple, parent: Optional[Span], event: bool
    ) -> Span:
        # Nothing from here on raises, so every column stays the same length.
        index = len(self._flags)
        store = self._stores[site] or self._store_of(site, values)
        try:
            position = store.add(values)
        except OverflowError:
            store.trim()
            position = -1
        if position < 0:
            position = store.pad()
            self._side[index] = tuple(values)
        self._position.append(position)
        self._site.append(site)
        flags = _CLOSED | _EVENT if event else 0
        if parent is not None:
            owner = parent._index
            ordinal = self._children[owner] = self._children.get(owner, 0) + 1
            self._child_rows.append(index)
            self._child_parent.append(owner)
            self._child_ordinal.append(ordinal)
            flags |= _CHILD
        if type(start) is not float or start != start:
            self._exact_start[index] = start
            if event:
                self._exact_end[index] = start
            start = 0.0  # a placeholder: the side table holds the value
        self._start.append(start)
        self._end.append(start)
        self._flags.append(flags)
        if event:
            self._events += 1
        return Span(self, index)

    def begin(
        self,
        name: str,
        start: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Open a span at ``start`` (explicit clock; usually ``sim.now``)."""
        return self._record(name, start, category, track, parent, args, False)

    def end(self, span: Span, end: float, /, **args: Any) -> Span:
        """Close ``span`` at ``end``; rejects double-closes and time travel.

        ``args`` are the span's arguments known only at close: a key given
        here replaces the value given at :meth:`begin`, and the record's
        merged values move to the side table.
        """
        self._close(span, end)
        if not args:
            return span
        index = span._index
        name, category, track, keys = self._site_fields(index)
        merged = dict(zip(keys, self._values_of(index)))
        merged.update(args)
        site = self._site_of(name, category, track, tuple(merged))
        values = tuple(merged.values())
        self._site[index] = site
        self._position[index] = self._store_of(site, values).pad()
        self._side[index] = values
        return span

    def _close(self, span: Span, end: Any) -> Span:
        if span._tracer is not self:
            raise self._foreign(span)
        index = span._index
        flags = self._flags
        if flags[index] & _CLOSED:
            raise TelemetryError(f"span {span.span_id} already closed")
        exact = self._exact_start
        start = exact[index] if exact and index in exact else self._start[index]
        if end < start:
            raise TelemetryError(
                f"span {span.span_id} would end at {end} before its start {start}"
            )
        if type(end) is float and end == end:
            self._end[index] = end
        else:
            self._exact_end[index] = end
        flags[index] |= _CLOSED
        return span

    def instant(
        self,
        name: str,
        ts: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Record a zero-duration event at ``ts``."""
        return self._record(name, ts, category, track, parent, args, True)

    # -- reading the columns --------------------------------------------------

    def _start_of(self, index: int) -> Any:
        exact = self._exact_start
        return exact[index] if exact and index in exact else self._start[index]

    def _end_of(self, index: int) -> Any:
        if not self._flags[index] & _CLOSED:
            return None
        exact = self._exact_end
        return exact[index] if exact and index in exact else self._end[index]

    def _values_of(self, index: int) -> tuple:
        values = self._side.get(index)
        if values is None:
            values = self._stores[self._site[index]].row(self._position[index])
        return values

    def _link(self, index: int) -> Tuple[int, int]:
        """``(parent index, ordinal)`` of a record; a root's parent is -1."""
        rows = self._child_rows
        at = bisect_left(rows, index)
        if self._flags[index] & _CHILD:
            return self._child_parent[at], self._child_ordinal[at]
        return -1, index + 1 - at

    def _dotted(self, index: int) -> str:
        parts = []
        while index >= 0:
            index, ordinal = self._link(index)
            parts.append(str(ordinal))
        return ".".join(reversed(parts))

    @property
    def sites(self) -> Tuple[Site, ...]:
        """Every interned site's ``(name, category, track, arg keys)``,
        indexed by the site id :meth:`export_rows` yields."""
        return tuple(self._sites)

    def export_rows(self) -> Iterator[Row]:
        """Every record, in export order ``(start, seq)``, as one tuple:

        ``(start, end, is_event, span_id, parent_id, site, arg_values)`` —
        timestamps as given (``end`` is ``None`` while open), ids derived
        once per parent, the record's interned site id (its fields are
        ``sites[site]``, so a reader resolves each site once, not each
        row) and the arg value tuple in that site's key order. The order
        is a stable sort of record indices by start; a NaN start makes it
        the ``(start, seq)`` sort of spans-then-events the exporters
        always did, which is the only order NaN comparisons reproduce.
        """
        rows, args, side = self.export_table()
        values = [
            None if columns is None else list(zip(*columns)) if columns else [()]
            for columns in args
        ]
        for (site, position), row in side.items():
            values[site][position] = row
        for start, end, event, span_id, parent_id, site, position in rows:
            yield start, end, event, span_id, parent_id, site, values[site][position]

    def export_table(
        self,
    ) -> Tuple[Iterator[TableRow], List[Optional[List[list]]], Dict[Tuple[int, int], tuple]]:
        """What :meth:`export_rows` reads, for a reader that takes arg
        values a column at a time: ``(rows, args, side)``.

        ``rows`` yields every record in export order as ``(start, end,
        is_event, span_id, parent_id, site, position)``. ``args[site]``
        holds the site's arg values as one list per key, in key order,
        indexed by position (``[]`` for a site without keys, whose one
        position is 0), or is ``None`` for a site with no record; every
        value in one list has one exact type, ``int``, ``float`` or
        ``str``. ``side[site, position]`` is the value tuple of a record
        whose values those lists do not hold (theirs at its position is a
        placeholder).
        """
        site_of, position = self._site, self._position
        texts = self._strings.texts
        args = [None if store is None else store.lists(texts) for store in self._stores]
        side = {(site_of[index], position[index]): row for index, row in self._side.items()}
        return self._table_rows(), args, side

    def _table_rows(self) -> Iterator[TableRow]:
        flags = self._flags
        count = len(flags)
        starts = self._start.tolist()
        for index, value in self._exact_start.items():
            starts[index] = value
        if any(value != value for value in self._exact_start.values()):
            order = [index for index in range(count) if not flags[index] & _EVENT]
            order += [index for index in range(count) if flags[index] & _EVENT]
            order.sort(key=lambda index: (starts[index], index))
        else:
            order = sorted(range(count), key=starts.__getitem__)
        ends = self._end.tolist()
        for index, value in self._exact_end.items():
            ends[index] = value
        site_of, position = self._site, self._position
        links = dict(zip(self._child_rows, zip(self._child_parent, self._child_ordinal)))
        roots: Any = range(1, count + 1)
        if links:
            roots = list(accumulate(flags.translate(_ROOT_BITS)))
        parent_ids: Dict[int, str] = {}
        for index in order:
            flag = flags[index]
            if flag & _CHILD:
                parent, ordinal = links[index]
                parent_id = parent_ids.get(parent)
                if parent_id is None:
                    parent_id = parent_ids[parent] = self._dotted(parent)
                span_id = f"{parent_id}.{ordinal}"
            else:
                parent_id = None
                span_id = str(roots[index])
            yield (
                starts[index],
                ends[index] if flag & _CLOSED else None,
                flag & _EVENT != 0,
                span_id,
                parent_id,
                site_of[index],
                position[index],
            )

    # -- inspection -----------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Views of every span, in begin order."""
        return [Span(self, index) for index, flag in enumerate(self._flags) if not flag & _EVENT]

    @property
    def events(self) -> List[Span]:
        """Views of every instant event, in emission order."""
        return [Span(self, index) for index, flag in enumerate(self._flags) if flag & _EVENT]

    @property
    def span_count(self) -> int:
        return len(self._flags) - self._events

    @property
    def event_count(self) -> int:
        return self._events

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (should be empty after a run)."""
        return [
            Span(self, index) for index, flag in enumerate(self._flags) if not flag & _CLOSED
        ]

    def of_category(self, category: str) -> List[Span]:
        """All spans with the given category, in begin order."""
        return [span for span in self.spans if span.category == category]

    def events_named(self, name: str) -> List[Span]:
        """All instant events with the given name, in emission order."""
        return [event for event in self.events if event.name == name]

    def __len__(self) -> int:
        return len(self._flags)


class SpanSite:
    """A span call site bound once: name, category, track and arg keys.

    Made by :meth:`TelemetryHub.site`. :meth:`begin` takes only a start
    and the arg values in key order, so a call site that opens thousands
    of spans builds no kwargs dict and interns nothing per span. The site
    re-resolves against the hub's current tracer, so spans begun after a
    :meth:`TelemetryHub.reset` land in the new store.
    """

    __slots__ = ("_hub", "_fields", "_tracer", "_site", "_emit")

    def __init__(
        self, target: "TelemetryHub", name: Any, category: Any, track: Any, keys: Tuple[str, ...]
    ):
        if any(type(key) is not str for key in keys) or len(set(keys)) != len(keys):
            raise TelemetryError(f"span site {name!r}: arg keys {keys!r} are not distinct str")
        self._hub = target
        self._fields: Site = (name, category, track, keys)
        self._tracer: Optional[Tracer] = None
        self._site = -1
        #: The site's ``emit`` in ``_tracer``, once its columns are bound.
        self._emit: Any = _never_emit

    def begin(self, start: float, values: tuple) -> Optional[Span]:
        """Open a span at ``start`` with these arg values, or return
        ``None`` when the hub is disabled (as :meth:`TelemetryHub.begin`)."""
        target = self._hub
        if not target.enabled:
            return None
        tracer = target.tracer
        if tracer is self._tracer:
            try:
                span = self._emit(start, values)
            except (ValueError, OverflowError):  # the general path decides
                span = None
            if span is not None:
                return span
        if len(values) != len(self._fields[3]):
            raise TelemetryError(
                f"span site {self._fields[0]!r}: {len(values)} values "
                f"for keys {self._fields[3]!r}"
            )
        if tracer is not self._tracer:
            self._site = tracer._site_of(*self._fields)
            self._tracer = tracer
        span = tracer._append(self._site, start, values, None, False)
        self._emit = tracer._stores[self._site].emit
        return span


class TelemetryConsumer:
    """Base class for live subscribers to a hub's record stream.

    Exporters read a hub *after* a run; a consumer sees each record the
    moment it is complete — closed spans via :meth:`on_span`, instants via
    :meth:`on_event` — which is what lets the observe watchdog maintain
    rolling statistics online instead of re-parsing exports. Consumers
    never see open spans (a span is streamed only once its ``end`` is
    known) and are never called while the hub is disabled: a span opened
    while enabled and closed after :meth:`TelemetryHub.disable` is closed
    in the store but not streamed.
    """

    def on_span(self, span: Span) -> None:
        """One span, delivered at the instant it closes."""

    def on_event(self, event: Span) -> None:
        """One instant event, delivered as it is recorded."""


class TelemetryHub:
    """One bundle of tracer + metrics behind an enable flag.

    All recording entry points return early when disabled; call sites on
    hot paths additionally guard with ``if hub.enabled`` so they never
    build the argument dict at all.
    """

    def __init__(
        self,
        enabled: bool = False,
        labels: Optional[Dict[str, str]] = None,
    ):
        self.enabled = bool(enabled)
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: Labels stamped onto every exported record (``{}`` = no-op).
        #: Fleet replay tags per-job hubs with ``{"job": name}`` so merged
        #: streams stay attributable without touching span ids.
        self.labels: Dict[str, str] = dict(labels or {})
        #: Live streaming consumers (see :class:`TelemetryConsumer`).
        self._consumers: List[TelemetryConsumer] = []

    # -- streaming subscriptions -----------------------------------------------

    def subscribe(self, consumer: TelemetryConsumer) -> TelemetryConsumer:
        """Attach a live consumer to the record stream (idempotent)."""
        if not hasattr(consumer, "on_span") or not hasattr(consumer, "on_event"):
            raise TelemetryError(
                f"subscribe() needs a TelemetryConsumer-shaped object, "
                f"got {type(consumer).__name__}"
            )
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return consumer

    def unsubscribe(self, consumer: TelemetryConsumer) -> None:
        """Detach a consumer; unknown consumers are ignored."""
        try:
            self._consumers.remove(consumer)
        except ValueError:
            pass

    @property
    def consumers(self) -> List[TelemetryConsumer]:
        """The currently subscribed consumers (copy)."""
        return list(self._consumers)

    # -- switches -------------------------------------------------------------

    def enable(self) -> "TelemetryHub":
        """Turn recording on (idempotent)."""
        self.enabled = True
        return self

    def disable(self) -> "TelemetryHub":
        """Turn recording off; already-collected data is kept."""
        self.enabled = False
        return self

    def reset(self) -> "TelemetryHub":
        """Drop all collected spans, events, and metrics (consumers stay).

        Spans begun before the reset can no longer be ended here.
        """
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        return self

    # -- recording (no-ops when disabled) -------------------------------------

    def begin(
        self,
        name: str,
        start: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Open a span (see :meth:`Tracer.begin`), or return ``None`` when
        disabled."""
        if not self.enabled:
            return None
        return self.tracer._record(name, start, category, track, parent, args, False)

    def site(
        self,
        name: Any,
        *,
        category: Any = "",
        track: Any = "",
        keys: Tuple[str, ...] = (),
    ) -> SpanSite:
        """Bind a span call site once; see :class:`SpanSite`.

        ``site(name, category=c, track=t, keys=k).begin(start, values)``
        records what ``begin(name, start, category=c, track=t,
        **dict(zip(k, values)))`` would.
        """
        return SpanSite(self, name, category, track, tuple(keys))

    def end(self, span: Optional[Span], end: float, /, **args: Any) -> None:
        """Close a span returned by :meth:`begin` (``None`` is ignored).

        ``args`` are merged into the span's arguments (see
        :meth:`Tracer.end`). The span is closed even while the hub is
        disabled, so none is left open, but streamed to consumers only
        while it is enabled. A span of another hub's tracer, or of one a
        :meth:`reset` discarded, raises :class:`TelemetryError`.
        """
        if span is None:
            return
        if args:
            self.tracer.end(span, end, **args)
        else:
            self.tracer._close(span, end)
        if self.enabled and self._consumers:
            # Snapshot: a consumer that (un)subscribes during dispatch must
            # not make its neighbours skip or double-receive this record,
            # and a consumer subscribed mid-dispatch must not see it.
            for consumer in tuple(self._consumers):
                consumer.on_span(span)

    def instant(
        self,
        name: str,
        ts: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record an instant event (see :meth:`Tracer.instant`), or return
        ``None`` when disabled."""
        if not self.enabled:
            return None
        event = self.tracer._record(name, ts, category, track, parent, args, True)
        for consumer in tuple(self._consumers):
            consumer.on_event(event)
        return event


#: The process-default hub, created on first use.
_HUB: Optional[TelemetryHub] = None


def hub() -> TelemetryHub:
    """The process-default hub, created on first use.

    What a ``Cluster`` built without ``hub=`` captures. It starts
    disabled; callers that build their world afterwards flip it with
    :meth:`TelemetryHub.enable` or replace it with :func:`set_hub`.
    """
    global _HUB
    if _HUB is None:
        _HUB = TelemetryHub(enabled=False)
    return _HUB


def set_hub(new_hub: TelemetryHub) -> TelemetryHub:
    """Install ``new_hub`` as the process default; returns the previous one."""
    global _HUB
    if not isinstance(new_hub, TelemetryHub):
        raise TelemetryError(f"set_hub() requires a TelemetryHub, got {type(new_hub).__name__}")
    previous = hub()
    _HUB = new_hub
    return previous
