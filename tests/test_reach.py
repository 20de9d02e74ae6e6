"""The reach map's static side (``tools/reach.py``) and its committed output.

The probe keys a recorded call by ``(file, co_firstlineno)``, which for a
decorated function is its first decorator's line, so the static side must
start a function there, and name methods and nested functions by their
``__qualname__``. Every entry of ``tools/unreached.txt`` carries a reason
from the fixed set.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
import functools


@functools.lru_cache(maxsize=None)
@functools.wraps(print)
def decorated():
    return 1


class Outer:
    def method(self):
        def nested():
            return 2

        return nested

    class Inner:
        async def run(self):
            return 3


def unused():
    def inner():
        return 4

    return inner
'''


def _tree(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    module = package / "mod.py"
    module.write_text(SOURCE, encoding="utf-8")
    return package, os.path.realpath(module)


def _names(missed):
    return {name: lines for (_path, name), lines in missed.items()}


def test_qualnames_and_first_lines(tmp_path):
    package, module = _tree(tmp_path)
    found = {
        name: first
        for name, _node, first, _outer in reach.functions(
            reach.ast.parse((package / "mod.py").read_text())
        )
    }
    assert found == {
        "decorated": 4,
        "Outer.method": 11,
        "Outer.method.<locals>.nested": 12,
        "Outer.Inner.run": 18,
        "unused": 22,
        "unused.<locals>.inner": 23,
    }


def test_a_decorated_function_is_reached_by_its_first_decorator(tmp_path):
    package, module = _tree(tmp_path)
    at_decorator = {(module, 4), (module, 11), (module, 12), (module, 18), (module, 22)}
    assert _names(reach.unreached(package, at_decorator)) == {"unused.<locals>.inner": 2}
    at_def = (at_decorator - {(module, 4)}) | {(module, 6)}
    assert "decorated" in _names(reach.unreached(package, at_def))


def test_only_the_outermost_unreached_function_is_listed(tmp_path):
    package, module = _tree(tmp_path)
    assert _names(reach.unreached(package, {(module, 11)})) == {
        "decorated": 4,
        "Outer.method.<locals>.nested": 2,
        "Outer.Inner.run": 2,
        "unused": 5,
    }


def test_every_committed_entry_carries_a_reason_from_the_fixed_set():
    path = ROOT / "tools" / "unreached.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == sorted(lines)
    for key, reason in reach.read_reasons(path).items():
        module, _, qualname = key.partition(":")
        assert (ROOT / module).is_file() and module.startswith("src/repro/"), key
        assert qualname and " " not in qualname, key
        assert reach.REASON.fullmatch(reason), key


def test_a_class_inside_a_function_is_named_under_its_locals():
    source = "def make():\n    class Local:\n        def run(self):\n            pass\n"
    tree = reach.ast.parse(source)
    assert [(name, first, outer) for name, _node, first, outer in reach.functions(tree)] == [
        ("make", 1, ""),
        ("make.<locals>.Local.run", 3, "make"),
    ]


def test_the_probe_records_what_a_process_calls(tmp_path):
    package, module = _tree(tmp_path)
    probe, hits = tmp_path / "probe", tmp_path / "hits"
    for folder in (probe, hits):
        folder.mkdir()
    (probe / "sitecustomize.py").write_text(reach.PROBE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(probe), str(package)]),
               REACH_HITS=str(hits), REACH_PACKAGE=os.path.realpath(package) + os.sep)
    subprocess.run([sys.executable, "-c", "import mod; mod.decorated(); mod.Outer().method()()"],
                   cwd=tmp_path, env=env, check=True, timeout=60)
    seen = {(path, int(first)) for part in hits.iterdir()
            for path, first in (line.split("\t") for line in part.read_text().splitlines())}
    # The module and class bodies run too (lines 1, 10, 17); they match no function.
    assert seen == {(module, line) for line in (1, 4, 10, 11, 12, 17)}
    assert _names(reach.unreached(package, seen)) == {"Outer.Inner.run": 2, "unused": 5}


def test_read_reasons_keeps_each_reason_whole(tmp_path):
    assert reach.read_reasons(tmp_path / "absent.txt") == {}
    listed = tmp_path / "unreached.txt"
    listed.write_text("src/repro/a.py:f paper §IV-C.2 fault exclusion\n"
                      "src/repro/b.py:C.g repr\n", encoding="utf-8")
    assert reach.read_reasons(listed) == {
        "src/repro/a.py:f": "paper §IV-C.2 fault exclusion",
        "src/repro/b.py:C.g": "repr",
    }


@pytest.mark.parametrize("reason", ["UNTRIAGED", "unused", "paper", "paper IV-A", "reprs",
                                    "oracle:tests/x.py", ""])
def test_the_reason_set_refuses_anything_else(reason):
    assert reach.REASON.fullmatch(reason) is None


def test_entry_points_run_the_examples_first_and_every_perfbench_workload_twice():
    runs = reach.entry_points()
    examples = sorted(str(path) for path in (ROOT / "examples").glob("*.py"))
    assert [run[0] for run in runs[:len(examples)]] == examples
    assert all(run[0] == "-m" or run[0].endswith(".py") for run in runs)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    perf = [(run[run.index("--workload") + 1], run[run.index("--trace") + 1])
            for run in runs if "--workload" in run]
    assert sorted(perf) == sorted((w["name"], t) for w in spec["workloads"] for t in "01")


def test_every_committed_entry_names_a_function_of_its_file():
    by_file = {}
    for key in reach.read_reasons(ROOT / "tools" / "unreached.txt"):
        module, _, qualname = key.partition(":")
        by_file.setdefault(module, set()).add(qualname)
    for module, names in by_file.items():
        tree = reach.ast.parse((ROOT / module).read_text(encoding="utf-8"))
        defined = {name for name, _node, _first, _outer in reach.functions(tree)}
        assert names <= defined, (module, sorted(names - defined))
