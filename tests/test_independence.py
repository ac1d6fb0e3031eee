"""The verifiers must not share code with what they verify.

``gf2n``, ``lines`` and ``designs`` hold the field tables, the line
keys and the cover and balance verifiers.  A design is only checked
independently if none of them imports, at any depth, the constructions,
orbit expansion, searches, datasets or exact-cover engine that produce
the designs.  The modules are read as source and never imported.

Output has one channel as well: only the command line writes to the
terminal, and the library reports progress on the ``tridesign`` logger.
Importing or calling the library leaves process-wide settings as it
found them: no module loads ``ctypes`` (the C library's allocator, for
one, is left alone) or sets interpreter or numpy globals.  And the
package holds no helper that nothing uses.
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


def _terminal_writes(path):
    """``print`` calls and ``stderr`` names of module ``path``, by line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr == "stderr":
            found.append((node.lineno, "stderr"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" \
                and any(alias.name == "stderr" for alias in node.names):
            found.append((node.lineno, "stderr"))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "cli.py"), ids=lambda p: p.stem)
def test_only_the_cli_writes_to_the_terminal(path):
    assert not _terminal_writes(path), f"{path.name}: {_terminal_writes(path)}"


def test_terminal_write_scan_sees_the_cli():
    kinds = {kind for _, kind in _terminal_writes(PACKAGE / "cli.py")}
    assert kinds == {"print", "stderr"}


_GLOBAL_SETTERS = {"sys": {"setrecursionlimit", "setswitchinterval"},
                   "np": {"seterr", "set_printoptions"},
                   "numpy": {"seterr", "set_printoptions"}}


def _global_state_changes(source):
    """``ctypes`` imports and calls of process-wide setters in ``source``,
    by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "ctypes") for alias in node.names
                      if alias.name.split(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root == "ctypes":
                found.append((node.lineno, "ctypes"))
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _GLOBAL_SETTERS.get(root, ())]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.attr in _GLOBAL_SETTERS.get(node.value.id, ()):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_process_wide_settings(path):
    found = _global_state_changes(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name}: {found}"


def test_global_state_scan_sees_setters():
    source = ("import ctypes\nfrom ctypes import CDLL\nimport sys\n"
              "import numpy as np\nfrom sys import setswitchinterval\n"
              "sys.setrecursionlimit(10**6)\nnp.seterr(all='ignore')\n"
              "np.set_printoptions(precision=3)\n")
    assert _global_state_changes(source) == [
        (1, "ctypes"), (2, "ctypes"), (5, "setswitchinterval"),
        (6, "sys.setrecursionlimit"), (7, "np.seterr"), (8, "np.set_printoptions")]


# Every top-level function and class of the package is used: referenced
# somewhere in the package outside its own definition, exported by
# ``__init__`` or used by the benchmark, which also names the functions
# it times as strings.
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _references(tree):
    """The names that ``tree`` loads, reads as attributes, imports or
    holds as string constants."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unreferenced(package, others):
    """``module.name`` of each top-level function or class of the
    ``package`` sources ({module: source}) that neither they, outside
    its own definition, nor the ``others`` sources reference."""
    # the references of each top-level statement, by module
    refs = {mod: [(node, _references(node)) for node in ast.parse(src).body]
            for mod, src in package.items()}
    outside = set().union(*(_references(ast.parse(src)) for src in others))
    unused = []
    for mod, statements in refs.items():
        elsewhere = outside.union(*(r for other, body in refs.items() if other != mod
                                    for _, r in body))
        for node, _ in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name not in elsewhere.union(
                        *(r for other, r in statements if other is not node)):
                unused.append(f"{mod}.{node.name}")
    return unused


def test_no_helper_goes_unreferenced():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    bench = [p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")]
    assert _unreferenced(package, bench) == []


def test_unreferenced_scan_sees_unused_helpers():
    package = {"a": "def used():\n    return 1\n\n\ndef recursive(k):\n"
                    "    return recursive(k - 1)\n\n\nclass Exported:\n    pass\n"
                    "\n\ndef timed():\n    pass\n\n\ndef unused():\n    used()\n",
               "__init__": "from .a import Exported\n"}
    assert _unreferenced(package, ["SPANS = [('a', 'timed')]\n"]) == \
        ["a.recursive", "a.unused"]
