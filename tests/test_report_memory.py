"""The report chain's memory, held flat as a run grows.

``parse_jsonl`` walks the text a block at a time and keeps one ``str`` per
distinct ``type``/``cat``/``name``/``track``/``unit`` value; the
critical-path analysis keeps its working set in flat lists and arrays.
These bounds are measured with ``tracemalloc`` on the short observed
training run the tap pins already build (10 562 records, 4 608 chunk
sends); each fails on the chain they replaced (Python 3.11 readings):

============================================  =====  ====  ========
quantity                                      bound  now   replaced
============================================  =====  ====  ========
bytes ``parse_jsonl`` keeps per record        800    614   873
its peak over what it keeps, 512-line blocks  1.15   1.04  1.35
``analyze_run``'s peak bytes per chunk send   550    448   926
============================================  =====  ====  ========

Python 3.9 and 3.10 keep ≈ 750 bytes per record (their dicts are larger)
where the replaced parser kept ≈ 1 010; the other two read the same there.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import pytest

from repro.critpath import analyze_run
from repro.telemetry import export
from repro.telemetry.export import parse_jsonl, to_jsonl

from .test_tap_path import observed_training_hub

MAX_KEPT_BYTES_PER_RECORD = 800
MAX_PARSE_PEAK_OVER_KEPT = 1.15
MAX_ANALYZE_BYTES_PER_SPAN = 550


def _traced(call):
    """``(result, bytes kept, peak bytes)`` of one call, over what was
    allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


@pytest.fixture(scope="module")
def observed_text():
    return to_jsonl(observed_training_hub())


def test_parse_keeps_few_bytes_per_record_and_no_copy_of_the_text(observed_text):
    records = observed_text.count("\n")  # the spans and events, the header, the tail
    # Blocks of 512 lines: a run twenty blocks long, as the benchmark's
    # 44 000 records are ten blocks of 4 096.
    with mock.patch.object(export, "PARSE_BLOCK", 512):
        run, kept, peak = _traced(lambda: parse_jsonl(observed_text))
    assert len(run.records) == records - 2 == 10_562
    assert kept / records <= MAX_KEPT_BYTES_PER_RECORD, kept / records
    assert peak / kept <= MAX_PARSE_PEAK_OVER_KEPT, peak / kept


def test_analysis_working_set_per_chunk_send(observed_text):
    run = parse_jsonl(observed_text)
    report, _, peak = _traced(lambda: analyze_run(run))
    assert report["span_count"] == 4_608
    assert peak / report["span_count"] <= MAX_ANALYZE_BYTES_PER_SPAN, (
        peak / report["span_count"]
    )
