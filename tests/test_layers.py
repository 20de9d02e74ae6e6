"""The package import graph is a DAG that runs down one layer table.

A stdlib ``ast`` walk over every module under ``src/repro`` except the
``__main__`` CLIs, which nothing imports. Function-local imports count:
an import deferred into a function body still ties the two packages
together. The layer of a module is its top-level package (``repro.errors``
and ``repro.findings`` are packages of one module; ``repro`` itself is
the package root).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Lowest layer first. An import may stay inside its own package or go to
#: a package in the same or an earlier row; the cycle check keeps the
#: same-row edges one-way.
LAYERS = [
    ("errors", "findings"),
    ("simulation", "telemetry"),
    ("integrity",),
    ("hardware",),
    ("network",),
    ("topology",),
    ("profiling", "synthesis"),
    ("runtime",),
    ("baselines", "critpath", "relay"),
    ("observe", "recovery", "training"),
    ("adapcc", "chaos", "fleet"),
    ("repro", "bench"),
    ("analysis",),
]
RANK = {package: rank for rank, row in enumerate(LAYERS) for package in row}


def _module_name(path, src):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(source, module, is_package, known):
    """Every ``repro`` module *source* imports, at any depth of its body."""
    here = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                submodule = f"{target}.{alias.name}"
                yield submodule if submodule in known else target


def _package(module):
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def import_edges(src=SRC):
    """``{(importer, imported)}`` over the modules under *src*/repro."""
    paths = {_module_name(p, src): p for p in (src / "repro").rglob("*.py")}
    edges = set()
    for module, path in paths.items():
        if module.endswith(".__main__"):
            continue
        is_package = path.name == "__init__.py"
        for target in _imported_modules(path.read_text(), module, is_package, paths):
            if target == "repro" or target.startswith("repro."):
                edges.add((module, target))
    return edges


def package_graph(edges):
    graph = {}
    for importer, imported in edges:
        source, target = _package(importer), _package(imported)
        graph.setdefault(source, set())
        graph.setdefault(target, set())
        if source != target:
            graph[source].add(target)
    return graph


def cycles(graph):
    """The strongly connected components of more than one package (Tarjan)."""
    index, low, stack, on_stack, found = {}, {}, [], set(), []

    def visit(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph[node]):
            if successor not in index:
                visit(successor)
                low[node] = min(low[node], low[successor])
            elif successor in on_stack:
                low[node] = min(low[node], index[successor])
        if low[node] == index[node]:
            component = set()
            while not component or member != node:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sorted(found, key=len)


def upward_edges(edges):
    return sorted(
        f"{importer} -> {imported}"
        for importer, imported in edges
        if RANK[_package(imported)] > RANK[_package(importer)]
    )


def test_every_package_has_a_layer():
    assert set(package_graph(import_edges())) - set(RANK) == set()


def test_package_graph_is_acyclic():
    assert cycles(package_graph(import_edges())) == []


def test_every_import_goes_down_the_layer_table():
    assert upward_edges(import_edges()) == []


def test_no_module_imports_a_cli():
    assert sorted(f"{a} -> {b}" for a, b in import_edges() if b.endswith(".__main__")) == []


def _tree(tmp_path, files):
    for name, text in files.items():
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return import_edges(tmp_path)


@pytest.mark.parametrize(
    "files, edge",
    [
        ({"runtime/a.py": "def f():\n    from repro.analysis import x\n"},
         ("repro.runtime.a", "repro.analysis")),
        ({"runtime/__init__.py": "from ..relay import y\n"},
         ("repro.runtime", "repro.relay")),
        ({"runtime/a.py": "from .. import errors\n", "errors.py": ""},
         ("repro.runtime.a", "repro.errors")),
        ({"runtime/a.py": "import repro.bench.grid\n"},
         ("repro.runtime.a", "repro.bench.grid")),
    ],
    ids=["function-local", "relative-package", "relative-submodule", "plain-import"],
)
def test_walk_sees_every_import_form(tmp_path, files, edge):
    assert edge in _tree(tmp_path, files)


def test_guard_flags_a_cycle_and_an_upward_edge(tmp_path):
    edges = _tree(tmp_path, {
        "runtime/a.py": "def f():\n    from repro.analysis import x\n",
        "analysis/b.py": "from repro.runtime import a\n",
    })
    assert cycles(package_graph(edges)) == [["analysis", "runtime"]]
    assert upward_edges(edges) == ["repro.runtime.a -> repro.analysis"]


def test_cli_modules_are_neither_walked_nor_importable(tmp_path):
    edges = _tree(tmp_path, {
        "bench/__main__.py": "from repro.analysis import x\n",
        "bench/a.py": "from repro.bench.__main__ import main\n",
    })
    assert edges == {("repro.bench.a", "repro.bench.__main__")}
