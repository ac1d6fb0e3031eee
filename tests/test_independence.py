"""The verifiers must not share code with what they verify.

``gf2n``, ``lines`` and ``designs`` hold the field tables, the line
keys and the cover and balance verifiers.  A design is only checked
independently if none of them imports, at any depth, the constructions,
orbit expansion, searches, datasets or exact-cover engine that produce
the designs.  The modules are read as source and never imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tridesign"
VERIFIERS = ("gf2n", "lines", "designs")
PRODUCERS = {"construct", "orbits", "search", "datasets", "xcover"}


def _package_imports(name):
    """The package modules that module ``name`` imports, anywhere in it."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:          # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:                        # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "tridesign":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1
                             else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tridesign" and len(parts) > 1:
                    found.add(parts[1])
    return found


def _closure(name):
    seen, todo = set(), [name]
    while todo:
        mod = todo.pop()
        for dep in _package_imports(mod) - seen:
            if (PACKAGE / f"{dep}.py").exists():
                seen.add(dep)
                todo.append(dep)
    return seen


@pytest.mark.parametrize("name", VERIFIERS)
def test_verifier_imports_no_producer(name):
    assert not _closure(name) & PRODUCERS, \
        f"{name} imports {sorted(_closure(name) & PRODUCERS)}"


def test_import_scan_sees_producers():
    # the scan itself finds the imports it guards against
    assert {"designs", "gf2n", "lines"} <= _closure("orbits")
    assert {"orbits", "xcover"} <= _package_imports("search")
    assert "search" in _package_imports("cli")
