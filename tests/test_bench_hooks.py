"""The benchmark's calls into the package must match the package.

``perfbench/spans.py`` wraps package functions by name for its traced
pass, and ``perfbench/workloads.py`` calls the package through ``td``
attribute chains and methods of the objects they return; a name or a
keyword removed or renamed in the package would only fail there.
spans.py imports the standard library only, so it is loaded here from
its file; workloads.py is read as source and never imported.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import tridesign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(f"tridesign.{module_name}")
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert name in vars(owner), f"{module_name}.{attr} is not defined on the class"
    return getattr(owner, name)


def test_traced_names_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TRACED and spans.TRACED_GENERATORS
    for module_name, attr, _ in spans.TRACED:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"
    for module_name, attr in spans.TRACED_GENERATORS:
        assert inspect.isgeneratorfunction(_resolve(module_name, attr)), \
            f"{module_name}.{attr}"


def _workloads_tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _chain(node):
    """["td", "a", "b"] for the expression td.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *reversed(parts)]
    return None


def _resolve_chain(parts):
    owner = tridesign
    for i, name in enumerate(parts):
        if not hasattr(owner, name) and inspect.ismodule(owner):
            try:   # a submodule perfbench imports itself
                importlib.import_module(f"{owner.__name__}.{name}")
            except ModuleNotFoundError:
                pass
        assert hasattr(owner, name), f"td.{'.'.join(parts[:i + 1])} does not exist"
        owner = getattr(owner, name)
    return owner


def _package_methods():
    """Method name -> the methods of that name on the package's classes."""
    methods = {}
    for info in pkgutil.iter_modules(tridesign.__path__):
        module = importlib.import_module(f"tridesign.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, fn in vars(cls).items():
                    if inspect.isfunction(fn):
                        methods.setdefault(name, []).append(fn)
    return methods


def _accepts(fn, keyword):
    params = inspect.signature(fn).parameters
    return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_workload_chains_resolve():
    chains = {tuple(c[1:]) for node in ast.walk(_workloads_tree())
              if isinstance(node, ast.Attribute)
              and (c := _chain(node)) and c[0] == "td"}
    assert len(chains) > 20
    for c in sorted(chains):
        _resolve_chain(list(c))


def test_workload_keywords_are_parameters():
    tree = _workloads_tree()
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names} - {"td"}
    methods = _package_methods()
    checked = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        chain = _chain(node.func)
        if chain and chain[0] == "td":
            where, targets = "td." + ".".join(chain[1:]), [_resolve_chain(chain[1:])]
        elif chain and chain[0] in foreign:
            continue
        else:   # a method of an object the package returned, if the package has one
            where, targets = f"<obj>.{node.func.attr}", methods.get(node.func.attr, [])
        for kw in keywords if targets else ():
            assert any(_accepts(fn, kw) for fn in targets), \
                f"perfbench passes {kw}= to {where}, which takes no such parameter"
            checked.add((where, kw))
    # the package calls perfbench makes with keywords, method calls included
    assert {("<obj>.plane_triangles", "canonical"), ("<obj>.sample_line_check", "seed"),
            ("td.search_frobenius", "allow_long")} <= checked
