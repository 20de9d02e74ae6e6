"""Shared test configuration, and a wall-time report at the end of a run.

The report lists the session's wall time and every test whose setup,
call and teardown together took longer than :data:`SLOW_TEST_SECONDS`.
It only reports: a slower machine changes the numbers, never the verdict.
"""

import importlib.util
import time
from collections import defaultdict
from pathlib import Path

import pytest

#: A test over this many seconds is named in the end-of-run report.
SLOW_TEST_SECONDS = 5.0

_started = time.perf_counter()
_durations = defaultdict(float)


@pytest.fixture(scope="session")
def synthesis_golden():
    """The generator module kept beside ``fixtures/synthesis_golden.json``
    (its record builders, its random-strategy generator, the JSON's path)."""
    path = Path(__file__).parent / "fixtures" / "synthesis_golden.py"
    spec = importlib.util.spec_from_file_location("synthesis_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_runtest_logreport(report):
    _durations[report.nodeid] += report.duration


def pytest_terminal_summary(terminalreporter):
    wall = time.perf_counter() - _started
    slow = sorted(
        ((seconds, nodeid) for nodeid, seconds in _durations.items()
         if seconds > SLOW_TEST_SECONDS),
        reverse=True,
    )
    terminalreporter.write_sep(
        "-", f"wall time {wall:.1f} s; {len(slow)} test(s) over {SLOW_TEST_SECONDS:g} s"
    )
    for seconds, nodeid in slow:
        terminalreporter.write_line(f"{seconds:7.1f} s  {nodeid}")
