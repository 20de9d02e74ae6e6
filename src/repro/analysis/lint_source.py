"""Determinism and convention lint over the ``repro`` source tree.

AST-based checks enforcing repo conventions that keep the reproduction
deterministic and its units unambiguous:

* **no ambient randomness** — the stdlib ``random`` module and
  ``numpy.random.seed`` global state are banned everywhere; randomness is
  threaded through explicit ``numpy.random.Generator`` objects (seeded at
  the session boundary), so any run is reproducible from its seed.
* **no wall-clock reads in deterministic code** — ``time.time()`` and
  friends inside ``simulation/``, ``runtime/`` or ``synthesis/`` would
  leak host time into simulated results. ``time.perf_counter`` /
  ``monotonic`` remain allowed: the synthesizer's solve-time bookkeeping
  (Fig. 19c) measures real optimizer wall-clock by design.
* **SI unit suffixes** — public parameters and module constants name their
  unit in SI terms (``_seconds``, ``_bytes``, ``_bps``); abbreviated
  suffixes (``_ms``, ``_gbps``, ``_mib``, …) are rejected because mixed
  abbreviations caused exactly the silent 1000× bugs this repo's
  conventions exist to prevent.
* **no ambient observers** — the process-default telemetry hub and
  data-plane tap (``hub()``, ``set_hub()``, ``data_plane()``) may be read
  only to fill the ``None`` default of a constructor argument
  (``default() if arg is None else arg`` inside ``__init__``); everything
  else reaches them through the ``Cluster`` it already holds (DESIGN.md
  "State ownership"). ``set_hub()`` is never allowed under ``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence

from repro.analysis.findings import Finding, RuleSpec

#: Sub-packages whose code runs under (or feeds) the simulator clock.
#: ``telemetry`` is held to the same bar: it must never stamp records with
#: host time, or same-seed runs stop exporting byte-identical traces.
DETERMINISTIC_DIRS = (
    "simulation",
    "runtime",
    "synthesis",
    "telemetry",
    "recovery",
    "observe",
)

#: ``time`` module attributes that read the host wall clock.
_WALL_CLOCK_TIME = {"time", "time_ns", "localtime", "gmtime", "ctime", "asctime"}
#: ``datetime``/``date`` constructors that read the host wall clock.
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
#: Fully-qualified callables that read the host wall clock. Matching runs
#: on *resolved* names, so ``from time import time``, ``import time as t``
#: and ``from datetime import datetime as dt; dt.now()`` are all caught,
#: not just the literal ``time.time()`` attribute form.
_WALL_CLOCK_QUALIFIED = (
    {f"time.{attr}" for attr in _WALL_CLOCK_TIME}
    | {f"datetime.datetime.{attr}" for attr in _WALL_CLOCK_DATETIME}
    | {f"datetime.date.{attr}" for attr in _WALL_CLOCK_DATETIME}
)

#: The process-default observers' accessors, by every importable spelling.
#: Their defining modules never match: a local name resolves to itself.
_AMBIENT_OBSERVERS = {
    f"{module}.{name}"
    for module, names in (
        ("repro.telemetry.core", ("hub", "set_hub")),
        ("repro.telemetry", ("hub", "set_hub")),
        ("repro.integrity.channel", ("data_plane",)),
        ("repro.integrity", ("data_plane",)),
    )
    for name in names
}

#: Banned abbreviated unit suffixes -> the SI spelling to use instead.
BANNED_SUFFIXES = {
    "ms": "seconds",
    "us": "seconds",
    "ns": "seconds",
    "msec": "seconds",
    "msecs": "seconds",
    "secs": "seconds",
    "hrs": "seconds",
    "hours": "seconds",
    "gbps": "bps",
    "mbps": "bps",
    "kbps": "bps",
    "kb": "bytes",
    "mb": "bytes",
    "gb": "bytes",
    "kib": "bytes",
    "mib": "bytes",
    "gib": "bytes",
}


SYNTAX_RULE = RuleSpec("syntax", "file does not parse")

RULES = (
    SYNTAX_RULE,
    RuleSpec("ambient-random", "stdlib random / numpy global seed used"),
    RuleSpec("ambient-observer", "process-default hub/tap read outside a constructor default"),
    RuleSpec("wall-clock", "host wall clock read inside deterministic code"),
    RuleSpec("unit-suffix", "abbreviated unit suffix on a public name"),
)

#: The ``repro`` package directory — the default tree of both AST passes.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def visit_sources(paths: Iterable[Path], root: Path, checker: Callable) -> List[Finding]:
    """Walk each file's AST with a fresh ``checker(rel)``; pool the findings.

    ``rel`` is the file's posix path relative to ``root`` — the ``file`` of
    every finding anchored in it. A file that does not parse yields one
    ``syntax`` finding instead. Shared with the race detector's static half.
    """
    findings: List[Finding] = []
    root = root.resolve()
    for path in paths:
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding.at("syntax", rel, exc.lineno, str(exc.msg)))
            continue
        visitor = checker(rel)
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return findings


def lint_source(
    root: Optional[Path] = None, files: Optional[Sequence[Path]] = None
) -> List[Finding]:
    """Lint every ``*.py`` file under ``root`` (default: the repro package)."""
    root = Path(root) if root is not None else PACKAGE_ROOT
    targets = [Path(f) for f in files] if files is not None else sorted(root.rglob("*.py"))
    return visit_sources(targets, root, _Checker)


class _Checker(ast.NodeVisitor):
    def __init__(self, rel: str):
        self.rel = rel
        self.in_deterministic = rel.split("/", 1)[0] in DETERMINISTIC_DIRS
        self.findings: List[Finding] = []
        #: Local alias -> fully-qualified origin, filled from import
        #: statements (``{"t": "time", "now": "time.time"}``), so wall
        #: clock matching resolves aliased and ``from``-imported names.
        self._imports: dict = {}
        #: Parameter names of the enclosing functions, innermost last
        #: (``None`` for anything but an ``__init__``).
        self._init_params: List[Optional[set]] = []
        #: ``id`` of calls sitting in a constructor's None-default slot.
        self._default_fills: set = set()

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding.at(code, self.rel, getattr(node, "lineno", 0), message)
        )

    # -- ambient randomness ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._add(
                    "ambient-random",
                    node,
                    "stdlib `random` is banned; thread a numpy Generator instead",
                )
            if alias.asname:
                self._imports[alias.asname] = alias.name
            else:
                top = alias.name.split(".", 1)[0]
                self._imports[top] = top
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" or (node.module or "").startswith("random."):
            self._add(
                "ambient-random",
                node,
                "stdlib `random` is banned; thread a numpy Generator instead",
            )
        if node.module and node.level == 0:
            for alias in node.names:
                self._imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Fully-qualified dotted name of an expression, via import aliases."""
        if isinstance(node, ast.Name):
            return self._imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # numpy.random.seed(...) / np.random.seed(...): global RNG state.
            if (
                func.attr == "seed"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
            ):
                self._add(
                    "ambient-random",
                    node,
                    "numpy.random.seed mutates global state; use np.random.default_rng",
                )
        resolved = self._resolve(func)
        if resolved in _AMBIENT_OBSERVERS and (
            id(node) not in self._default_fills or resolved.endswith(".set_hub")
        ):
            self._add(
                "ambient-observer",
                node,
                f"`{resolved}` reaches for the process-default observer; read "
                "`cluster.hub` / `cluster.data_plane`, or take it as a "
                "constructor argument defaulting to None",
            )
        if self.in_deterministic:
            # ``from datetime import datetime; datetime.now()`` resolves to
            # ``datetime.datetime.now``; the bare ``datetime.now``/``date.now``
            # spellings cover direct module-style access.
            if resolved is not None and (
                resolved in _WALL_CLOCK_QUALIFIED
                or f"datetime.{resolved}" in _WALL_CLOCK_QUALIFIED
            ):
                self._add(
                    "wall-clock",
                    node,
                    f"`{resolved}` reads the host clock inside deterministic "
                    "code; use the simulator clock or perf_counter",
                )
        self.generic_visit(node)

    # -- ambient observers ------------------------------------------------------

    def visit_IfExp(self, node: ast.IfExp) -> None:
        # ``default() if arg is None else arg`` (either orientation) on a
        # parameter of the enclosing __init__: the one sanctioned read.
        params = self._init_params[-1] if self._init_params else None
        test = node.test
        if (
            params
            and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id in params
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            self._default_fills.update(id(branch) for branch in (node.body, node.orelse))
        self.generic_visit(node)

    # -- unit suffixes ----------------------------------------------------------

    def _check_name(self, name: str, node: ast.AST, what: str) -> None:
        if name.startswith("_"):
            return
        suffix = name.rsplit("_", 1)[-1].lower() if "_" in name else None
        if suffix in BANNED_SUFFIXES:
            self._add(
                "unit-suffix",
                node,
                f"{what} `{name}` uses abbreviated unit `_{suffix}`; "
                f"spell it `_{BANNED_SUFFIXES[suffix]}`",
            )

    def _check_function(self, node) -> None:
        args = node.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if not node.name.startswith("_"):
            for arg in params:
                self._check_name(arg.arg, arg, f"parameter of {node.name}()")
        self._init_params.append(
            {arg.arg for arg in params} if node.name == "__init__" else None
        )
        self.generic_visit(node)
        self._init_params.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self._check_name(target.id, target, "module constant")
        self.generic_visit(node)
