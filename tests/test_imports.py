"""Every name a ``meancurv`` module imports is used in that module, every
name it defines is referenced somewhere in the repository, the package's
modules import each other at their top level only and without a cycle,
every module stays below the parser's token limit, and importing the package
loads no ``scipy.signal``."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "meancurv"
# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no other name node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_detector_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nsys.exit(d)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> tuple:
    """The package modules that ``source`` imports at its top level, and the
    lines of the package imports inside a function or class body.  A package
    import is a relative one (``from .x import y``, ``from . import x``);
    imports of other packages may sit anywhere."""
    tree = ast.parse(source)

    def modules(node):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            return set()
        return {node.module} if node.module else {alias.name for alias in node.names}

    bodies = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nested = sorted({node.lineno for scope in ast.walk(tree) if isinstance(scope, bodies)
                     for node in ast.walk(scope) if modules(node)})
    return set().union(*map(modules, tree.body)), nested


def import_cycle(graph: dict) -> list:
    """One cycle of the module graph {module: modules it imports}, [] if none."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return []


def test_detector_finds_nested_package_imports():
    source = ("from . import a\nfrom .b import c\nimport numpy\n"
              "def f():\n    from scipy.spatial import cKDTree\n    from .d import e\n"
              "class K:\n    from .. import g\n    def m(self):\n        from .h import i\n")
    assert package_imports(source) == ({"a", "b"}, [6, 8, 10])


def test_detector_finds_an_import_cycle():
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    cycle = import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]


def test_package_imports_are_top_level():
    nested = {path.name: package_imports(path.read_text())[1] for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in nested.items() if lines} == {}


def test_package_imports_form_a_dag():
    graph = {path.stem: package_imports(path.read_text())[0] for path in SRC.glob("*.py")}
    assert import_cycle(graph) == []


ROOT = SRC.parent.parent
# every file that may use a private name of the package
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
                 if "out" not in p.relative_to(ROOT).parts)


def private_definitions(source: str) -> set:
    """Single-underscore names that a module defines at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def public_definitions(source: str) -> set:
    """Public functions and classes that a module defines at its top level,
    and the public methods of those classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names |= {m.name for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {n for n in names if not n.startswith("_")}


def references(source: str) -> set:
    """Names a source reads: loaded names, attributes, imported names, and
    strings that are exactly a name (``getattr`` and the benchmark tracer
    look attributes up by string, and ``__all__`` lists the kept API)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_detector_finds_an_unreferenced_private_name():
    module = "_A = 1\n_b, c = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
    reader = "getattr(m, '_K')\n"
    used = references(module) | references(reader)
    assert sorted(private_definitions(module) - used) == ["_b", "_f"]


def repository_references() -> set:
    used = set()
    for path in READERS:
        used |= references(path.read_text())
    return used


def test_every_private_name_is_referenced():
    used = repository_references()
    unused = {path.name: sorted(private_definitions(path.read_text()) - used)
              for path in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_detector_finds_an_unreferenced_public_name():
    module = ("__all__ = ['kept']\ndef kept():\n    pass\ndef unused():\n    pass\n"
              "class K:\n    def used(self):\n        pass\n    def dropped(self):\n"
              "        pass\n    def _own(self):\n        pass\n")
    reader = "K().used()\n"
    used = references(module) | references(reader)
    assert sorted(public_definitions(module) - used) == ["dropped", "unused"]


def test_every_public_name_is_referenced():
    used = repository_references()
    unused = {path.name: sorted(public_definitions(path.read_text()) - used)
              for path in SRC.glob("*.py")}
    assert {name: names for name, names in unused.items() if names} == {}


# CPython 3.11's parser holds a module's tokens in an array that doubles when
# it fills: a module of 8,192 tokens or more costs twice the array while it is
# imported, which raised the benchmark's peak RSS by over 1 MB
TOKEN_LIMIT = 8192


def parser_tokens(source: str) -> int:
    """Tokens the parser reads from ``source``: every token but comments,
    non-logical newlines and the encoding marker."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    tokens = tokenize.tokenize(io.BytesIO(source.encode()).readline)
    return sum(1 for t in tokens if t.type not in skip)


def test_token_counter_skips_comments_and_blank_lines():
    # x, =, 1, NEWLINE and ENDMARKER
    assert parser_tokens("# note\n\nx = 1  # one\n") == 5


def test_every_module_is_below_the_token_limit():
    counts = {path.name: parser_tokens(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n >= TOKEN_LIMIT} == {}


def test_import_loads_no_scipy_signal():
    # scipy.signal was half of the package's import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, meancurv; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
