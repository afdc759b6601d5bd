"""The documents name code that exists.

Every backticked ``repro.<dotted.name>`` in README, DESIGN, EXPERIMENTS and
``docs/*.md`` (not ``docs/history/``, which records what was) must resolve
by import plus ``getattr``, and every backticked ``<file>.py::<symbol>``
must name a file under the repository root, ``src/repro/``, ``tests/``,
``bench/`` or ``benchmarks/`` that defines the symbol.  A rename or a
deletion that leaves a document behind fails here.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BASES = ("", "src/repro", "tests", "bench", "benchmarks")
_FENCE = re.compile(r"^\s*```.*?^\s*```", re.S | re.M)
_SPAN = re.compile(r"`([^`]+)`")
#: a dotted name, not a schema tag such as ``repro.resilience/1``
_DOTTED = re.compile(r"^repro(?:\.[A-Za-z_]\w*)+(?![\w/])")
_FILE_SYMBOL = re.compile(r"([\w./-]+\.py)::\s*([A-Za-z_][\w.]*)")


def _documents():
    yield from (ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"))
    yield from sorted((ROOT / "docs").glob("*.md"))


def _references():
    """``(document, kind, reference)`` for every backticked code reference
    outside fenced blocks (an inline span may wrap a line)."""
    for path in _documents():
        for span in _SPAN.findall(_FENCE.sub("", path.read_text())):
            dotted = _DOTTED.match(span)
            if dotted:
                yield path.name, "import", dotted.group(0)
            for file, symbol in _FILE_SYMBOL.findall(span):
                yield path.name, "file", f"{file}::{symbol}"


def _imports(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def _defines(body, names: list[str]) -> bool:
    """Does ``body`` (a module's or class's statements) define the dotted
    ``names`` — a function, class or assigned name, then its members?"""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = node.name == names[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = any(
                isinstance(t, ast.Name) and t.id == names[0] for t in targets
            )
        else:
            continue
        if found:
            return len(names) == 1 or (
                isinstance(node, ast.ClassDef) and _defines(node.body, names[1:])
            )
    return False


def _file_defines(reference: str) -> bool:
    file, symbol = reference.split("::")
    for base in _BASES:
        path = ROOT / base / file
        if path.is_file():
            tree = ast.parse(path.read_text(), filename=str(path))
            return _defines(tree.body, symbol.split("."))
    return False


def _resolves(kind: str, reference: str) -> bool:
    return _imports(reference) if kind == "import" else _file_defines(reference)


def test_every_reference_resolves():
    unresolved = [
        f"{document}: {reference}"
        for document, kind, reference in _references()
        if not _resolves(kind, reference)
    ]
    assert unresolved == []


def test_scan_sees_both_kinds_and_rejects_what_is_gone():
    kinds = {kind for _, kind, _ in _references()}
    assert kinds == {"import", "file"}
    assert sum(1 for _ in _references()) > 100
    assert _resolves("import", "repro.obs.perf.PhaseProfiler.tree")
    assert _resolves("file", "maui/staticpass.py::StaticPass._free_start")
    assert not _resolves("import", "repro.obs.tracing")
    assert not _resolves("import", "repro.obs.Telemetry.disabled")
    assert not _resolves("file", "obs/instruments.py::SchedulerInstruments")
    assert not _resolves("file", "tests/test_shards.py::no_such_test")
