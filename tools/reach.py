"""Reach map of ``src/repro``: the functions that no product path runs.

``python tools/reach.py`` (stdlib, no flags) runs the product paths of
``entry_points`` under a ``sys.setprofile`` probe, loaded as ``sitecustomize``
so spawned processes count too, and matches the code objects seen to the
functions in ``src/repro`` by file and first line (a decorator's, if any). It
rewrites ``tools/unreached.txt``: one sorted ``path:qualname reason`` line per
outermost function none of them ran; reasons carry over, a new one reads
``UNTRIAGED``. The probe sees Python calls only, not code compiled from strings.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
OUTPUT = REPO / "tools" / "unreached.txt"

#: ``tag [detail]``; ``paper`` names a section, a detail names a test or caller.
REASON = re.compile(r"(repr|hook|error|oracle|pinned)( \S.*)?|paper §\S.*")

PROBE = """\
import atexit, os, sys, threading
seen = set()
def probe(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
def dump():
    sys.setprofile(None)
    hits = {f"{os.path.realpath(c.co_filename)}\\t{c.co_firstlineno}\\n" for c in seen}
    hits = {hit for hit in hits if hit.startswith(os.environ["REACH_PACKAGE"])}
    with open(os.path.join(os.environ["REACH_HITS"], f"{os.getpid()}.txt"), "a") as out:
        out.writelines(sorted(hits))
atexit.register(dump)
sys.setprofile(probe)
threading.setprofile(probe)
"""


def entry_points() -> List[List[str]]:
    """Interpreter arguments of every product path, in run order: the examples
    first, because the file lints and the CLIs read what they write. The figure
    benchmarks run with ``--benchmark-disable``: pytest-benchmark clears
    ``sys.setprofile`` while it times a body."""
    lints = (("integrity", "sdc_quarantine.jsonl"), ("telemetry", "chaos_straggler.jsonl"),
             ("observe", "adaptive_interference.jsonl"), ("fleet", "fleet_replay.jsonl"),
             ("critpath", "bottleneck_report.json"))
    runs = [[str(path)] for path in sorted((REPO / "examples").glob("*.py"))]
    runs += [
        ["-m", "repro.bench", "--check", str(REPO / "BENCH_fig11_13.json"),
         "--output", "bench.json"],
        ["-m", "repro.analysis", "--format", "sarif", "--output", "analysis.sarif"],
        ["-m", "repro.analysis"],
        *(["-m", "repro.analysis", f"--{lint}", path] for lint, path in lints),
        ["-m", "repro.telemetry", "summarize", "chaos_straggler.jsonl"],
        ["-m", "repro.telemetry", "summarize", "fleet_replay.jsonl",
         "--group-by", "job", "--top", "3"],
        ["-m", "repro.telemetry", "chrome", "chaos_straggler.jsonl", "-o", "run.trace.json"],
        ["-m", "repro.critpath", "bottleneck_report.jsonl"],
        ["-m", "repro.critpath", "bottleneck_report.jsonl", "--json"],
        ["-m", "repro.fleet", "--scenario", "canonical"],
        ["-m", "repro.fleet", "--scenario", "generated", "--json"],
        ["-m", "pytest", str(REPO / "benchmarks"), "-q", "--benchmark-disable",
         "-p", "no:cacheprovider", f"--rootdir={REPO}"],
    ]
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return runs + [[str(REPO / "perfbench" / "run.py"), "--workload", workload["name"],
                    "--seed", "11", "--seconds", "1", "--trace", trace]
                   for workload in spec["workloads"] for trace in "01"]


def record_hits() -> Set[Tuple[str, int]]:
    """Run every entry point under the probe; the ``(file, line)`` pairs seen."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        probe, hits = Path(scratch, "probe"), Path(scratch, "hits")
        for folder in (probe, hits):
            folder.mkdir()
        (probe / "sitecustomize.py").write_text(PROBE, encoding="utf-8")
        path = [str(probe), str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   REACH_HITS=str(hits), REACH_PACKAGE=str(PACKAGE) + os.sep)
        for args in entry_points():
            print("reach:", " ".join(args), flush=True)
            done = subprocess.run([sys.executable, *args], cwd=scratch, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.exit(f"{done.stdout}\nreach: exit {done.returncode} from {args}")
        lines = (line.split("\t") for part in hits.iterdir()
                 for line in part.read_text(encoding="utf-8").splitlines())
        return {(path, int(first)) for path, first in lines}


def functions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST, int, str]]:
    """``(qualname, node, first line, enclosing function's qualname)`` of
    every function in ``tree``, outer before inner."""
    def walk(node: ast.AST, prefix: str, outer: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child, min([d.lineno for d in child.decorator_list]
                                       + [child.lineno]), outer
                yield from walk(child, name + ".<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", outer)
            else:
                yield from walk(child, prefix, outer)

    return walk(tree, "", "")


def unreached(root: Path, seen: Set[Tuple[str, int]]) -> Dict[Tuple[Path, str], int]:
    """Outermost functions under ``root`` whose ``(file, first line)`` is not
    in ``seen``, as ``{(path, qualname): lines}``."""
    found: Dict[Tuple[Path, str], int] = {}
    for path in sorted(root.rglob("*.py")):
        real, missed = os.path.realpath(path), set()
        for name, node, first, outer in functions(ast.parse(path.read_text(encoding="utf-8"))):
            if outer in missed or (real, first) not in seen:
                missed.add(name)
                if outer not in missed:
                    found[path, name] = found.get((path, name), 0) + node.end_lineno - first + 1
    return found


def read_reasons(path: Path) -> Dict[str, str]:
    """``{key: reason}`` of an existing ``unreached.txt``."""
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return dict(line.split(" ", 1) for line in text.splitlines())


def main() -> int:
    missed, reasons = unreached(PACKAGE, record_hits()), read_reasons(OUTPUT)
    keys = sorted(f"{path.relative_to(REPO).as_posix()}:{name}" for path, name in missed)
    OUTPUT.write_text("".join(f"{key} {reasons.get(key, 'UNTRIAGED')}\n" for key in keys),
                      encoding="utf-8")
    print(f"reach: {len(keys)} unreached functions, {sum(missed.values())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
