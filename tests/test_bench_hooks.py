"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps package functions by name for its traced
pass; a name removed or renamed in the package would only fail there.
The module imports the standard library only, so it is loaded here
from its file.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
