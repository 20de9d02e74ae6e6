"""Shared test configuration, a wall-time ceiling and a wall-time report.

A test whose setup and call together take longer than
:data:`TEST_CEILING_SECONDS` fails, unless it carries the ``slow`` marker
(registered in ``pyproject.toml``) with a stated reason:
``@pytest.mark.slow(reason="...")``. The ceiling is about 3x the slowest
test's time, so a slower machine changes the report, not the verdict.

The report lists the session's wall time and every test whose setup,
call and teardown together took longer than :data:`SLOW_TEST_SECONDS`.
"""

import importlib.util
import time
from collections import defaultdict
from pathlib import Path

import pytest

#: A test over this many seconds is named in the end-of-run report.
SLOW_TEST_SECONDS = 5.0
#: A test over this many seconds (setup and call) fails unless exempted.
TEST_CEILING_SECONDS = 20.0

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


def ceiling_failure(item, seconds: float):
    """Why a test that took ``seconds`` fails the ceiling, or None when it
    is under it or exempted by a ``slow`` marker that states a reason."""
    if seconds <= TEST_CEILING_SECONDS:
        return None
    marker = item.get_closest_marker("slow")
    reason = marker.kwargs.get("reason") if marker is not None else None
    if isinstance(reason, str) and reason.strip():
        return None
    return (
        f"{item.nodeid} took {seconds:.1f} s, over the {TEST_CEILING_SECONDS:g} s ceiling; "
        'make it cheaper or mark it @pytest.mark.slow(reason="...")'
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call" and report.passed:
        failure = ceiling_failure(item, _durations[item.nodeid] + report.duration)
        if failure is not None:
            report.outcome = "failed"
            report.longrepr = failure
    return report


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
