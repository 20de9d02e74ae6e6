"""Content-addressed incremental cache for analysis passes (DESIGN.md §10).

The runner hashes the whole ``src/repro`` tree (path + content, sorted —
a Merkle-style tree hash) together with each pass's name and version into
one fingerprint per pass. A cache hit replays the stored findings without
running the pass, so re-running the suite on an unchanged tree (CI's
second invocation, a pre-commit hook) costs one hash.

The same idiom fingerprints synthesized strategies
(:func:`fingerprint_strategy` hashes the canonical XML serialization) —
this is the content-addressed key the ROADMAP's strategy-cache service
tier builds on, exercised here first.

The store is a directory of ``<fingerprint>.json`` files (default
``.repro-analysis-cache/`` under the working tree, override with
``REPRO_ANALYSIS_CACHE``). Entries are self-describing and versioned;
a schema bump invalidates everything at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.findings import Finding

#: Bump to invalidate every cache entry (finding schema changes, …).
CACHE_SCHEMA = 1

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_ANALYSIS_CACHE"

#: Default cache directory name, created under the current working tree.
DEFAULT_CACHE_DIR = ".repro-analysis-cache"


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment or the default."""
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


# -- fingerprints ---------------------------------------------------------------------


def _hash() -> "hashlib._Hash":
    return hashlib.sha256()


def fingerprint_paths(root: Path, relative: Iterable[str]) -> str:
    """Content hash of the files selected by ``relative`` entries under ``root``.

    Each entry names either a single file or a directory (hashed
    recursively over its ``*.py`` files). Files are folded in sorted
    relative-path order, each as ``path\\0content``, so the fingerprint is
    independent of filesystem enumeration order and changes iff any
    selected file's path set or bytes change. Missing entries contribute
    a marker rather than failing — a deleted input is itself a change.
    """
    root = Path(root)
    files: List[Path] = []
    for entry in sorted(set(relative)):
        path = root / entry
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            files.append(path)
    digest = _hash()
    for path in sorted(set(files)):
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    for entry in sorted(set(relative)):
        if not (root / entry).exists():
            digest.update(f"missing:{entry}".encode("utf-8"))
    return digest.hexdigest()


def fingerprint_strategy(strategy) -> str:
    """Content-addressed fingerprint of a synthesized strategy.

    Hashes the canonical XML serialization, so two strategies with the
    same routed flows, chunking, aggregation flags and participants share
    a fingerprint regardless of how they were produced — the key shape the
    strategy-cache service tier needs.
    """
    from repro.synthesis.strategy import strategy_to_xml

    digest = _hash()
    digest.update(strategy_to_xml(strategy).encode("utf-8"))
    return digest.hexdigest()


def pass_fingerprint(name: str, version: int, input_fingerprint: str) -> str:
    """The cache key of one pass run over one input state."""
    digest = _hash()
    digest.update(f"schema={CACHE_SCHEMA};pass={name};v={version};".encode("utf-8"))
    digest.update(input_fingerprint.encode("utf-8"))
    return digest.hexdigest()


# -- the store ------------------------------------------------------------------------


class AnalysisCache:
    """Directory-backed findings cache keyed by content fingerprints."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[List[Finding]]:
        """Stored findings for ``key``, or ``None`` on a miss."""
        path = self._entry_path(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            return None
        try:
            return [Finding.from_dict(f) for f in payload["findings"]]
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, pass_name: str, findings: Sequence[Finding]) -> None:
        """Persist ``findings`` under ``key`` (atomic rename)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "pass": pass_name,
            "fingerprint": key,
            "findings": [f.to_dict() for f in findings],
        }
        path = self._entry_path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
