"""Shared test configuration."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _isolated_analysis_cache(tmp_path, monkeypatch):
    """Keep analysis-CLI invocations from writing a cache into the repo.

    ``python -m repro.analysis`` caches findings under
    ``.repro-analysis-cache/`` by default; tests that call ``main()``
    directly would otherwise create that directory in the working tree.
    """
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE", str(tmp_path / "analysis-cache"))


@pytest.fixture(scope="session")
def synthesis_golden():
    """The generator module kept beside ``fixtures/synthesis_golden.json``
    (its record builders, its random-strategy generator, the JSON's path)."""
    path = Path(__file__).parent / "fixtures" / "synthesis_golden.py"
    spec = importlib.util.spec_from_file_location("synthesis_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
