"""Offline import hygiene: no unread imports, no stale ``__all__`` entries.

A stdlib stand-in for ruff's F401, which only CI runs. It honours
``# noqa: F401``, ``__all__``, names read inside string annotations and
the pyproject per-file-ignores.
"""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(source):
    lines = source.splitlines()
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "noqa: F401" not in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in [
            getattr(target, "id", None) for target in node.targets
        ]:
            read.update(element.value for element in node.value.elts)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for const in ast.walk(annotation) if annotation else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    parsed = ast.parse(const.value, mode="eval")
                    read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def _f401_exempt():
    config = (ROOT / "pyproject.toml").read_text()
    ignores = config.split("[tool.ruff.lint.per-file-ignores]")[1].split("\n[")[0]
    return {path for path, codes in re.findall(r'^"(.+)" = \[(.*)\]', ignores, re.M)
            if "F401" in codes}


def test_no_unread_imports():
    exempt = _f401_exempt()
    files = {p.relative_to(ROOT).as_posix(): p
             for folder in ("src", "tests", "benchmarks") for p in (ROOT / folder).rglob("*.py")}
    unread = {name: _unread_imports(path.read_text())
              for name, path in sorted(files.items()) if name not in exempt}
    assert {name: found for name, found in unread.items() if found} == {}


def test_every_f401_exemption_names_a_file():
    exempt = _f401_exempt()
    assert exempt and all((ROOT / path).is_file() for path in exempt)


def _stale_exports(packages):
    return [f"{p.__name__}.{name}" for p in packages for name in p.__all__
            if not hasattr(p, name)]


def test_every_package_export_resolves():
    walk = pkgutil.walk_packages(repro.__path__, "repro.")
    packages = [repro] + [importlib.import_module(i.name) for i in walk if i.ispkg]
    assert packages and _stale_exports(packages) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os  # noqa: F401\n", []),
        ("import os.path\nos.sep\n", []),
        ("from x import y as z\ny\n", ["z (line 1)"]),
        ("from x import y\n__all__ = ['y']\n", []),
        ("from typing import List\ndef f() -> 'List[int]': ...\n", []),
        ("from __future__ import annotations\n", []),
        ("from x import (\n    a,  # noqa: F401\n    b,\n)\n", ["b (line 3)"]),
    ],
    ids=["unread", "noqa", "dotted", "alias", "all", "string-annotation", "future",
         "per-alias-noqa"],
)
def test_guard_flags_only_unread_imports(source, unread):
    assert _unread_imports(source) == unread


def test_guard_flags_a_stale_export():
    package = types.ModuleType("repro.fake")
    package.__all__ = ["kept", "gone"]
    package.kept = object()
    assert _stale_exports([package]) == ["repro.fake.gone"]
