"""Shared test configuration."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def synthesis_golden():
    """The generator module kept beside ``fixtures/synthesis_golden.json``
    (its record builders, its random-strategy generator, the JSON's path)."""
    path = Path(__file__).parent / "fixtures" / "synthesis_golden.py"
    spec = importlib.util.spec_from_file_location("synthesis_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
