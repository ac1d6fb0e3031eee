"""In-memory span recorder and the traced wrappers around tridesign's
public functions.

A span is ``(name, start, end, parent, run_id)`` plus a dict of counts
taken at the same boundary.  Spans are only ever opened by this
benchmark's own code: either around a workload step, or by a wrapper
that ``install`` puts in place of a public function, at every name the
package binds it under, for the length of the traced pass.  The
library itself is not edited, and an untraced pass runs it unwrapped.

Self time of a span is its duration minus the durations of its direct
children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer names are the package's module names; "bench" is this benchmark.
MODULES = ("gf2n", "orbits", "designs", "lines", "fileio", "cli", "search",
           "xcover", "construct", "datasets")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans for one pass; ``run_id`` tags every span of it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent, run_id=self.run_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException as e:
            sp.counts["raised"] = type(e).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.dur

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def top_level_s(self) -> float:
        return sum(s.dur for s in self.spans if s.parent is None)

    def self_by_module(self) -> dict[str, float]:
        out = {m: 0.0 for m in ("bench",) + MODULES}
        for s in self.spans:
            out[s.module] = out.get(s.module, 0.0) + s.self_s
        return out


def dump(path: str, *tracers: Tracer) -> None:
    """Write spans as tab-separated text, one per line; a parent is the
    index of another span of the same run_id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("idx\tname\tstart\tend\tparent\trun_id\tcounts\n")
        for tracer in tracers:
            for i, s in enumerate(tracer.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                         f"{parent}\t{s.run_id}\t{s.counts}\n")


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# -- what each wrapper counts at its boundary ---------------------------------


def _count_rss(sp, args, kwargs, result, before):
    # Resident memory the call leaves behind (cached tables, the result).
    # A per-call peak is not measurable from outside: the process
    # high-water mark only moves when a call exceeds every earlier peak.
    sp.counts["rss_rise_mb"] = rss_mb() - before


def _count_expand(sp, args, kwargs, result, before):
    sp.counts["triangles"] = int(result.tri.shape[0])
    _count_rss(sp, args, kwargs, result, before)


def _count_cover(sp, args, kwargs, result, before):
    sp.counts["ok"] = bool(result.ok)
    sp.counts["lines"] = 3 * int(args[0].tri.shape[0])
    sp.counts["witnesses"] = (len(result.uncovered) + len(result.multiply_covered)
                              + len(result.group_line_hits))


def _count_balance(sp, args, kwargs, result, before):
    sp.counts["ok"] = bool(result.ok)


def _count_file(sp, args, kwargs, result, before):
    sp.counts["bytes"] = os.path.getsize(args[1] if len(args) > 1 else args[0])


def _count_cli(sp, args, kwargs, result, before):
    argv = args[0] if args else kwargs.get("argv") or []
    sp.counts["command"] = next((a for a in argv if not a.startswith("-")), "")
    sp.counts["exit"] = result


def _count_inst(sp, args, kwargs, result, before):
    inst = result[0] if isinstance(result, tuple) else result
    sp.counts["candidates"] = len(inst.subsets)


def _count_solve(sp, args, kwargs, result, before):
    sp.counts["nodes"] = int(result.nodes)
    sp.counts["chosen"] = len(getattr(result, "chosen", ()))


def _count_plane(sp, args, kwargs, result, before):
    sp.counts["rows"] = int(result.shape[0])
    sp.counts["bytes"] = int(result.nbytes)


def _count_sample(sp, args, kwargs, result, before):
    sp.counts["lines"] = int(result)


# (module, attribute, counter).  "Class.method" names patch the class.
TRACED = (
    ("gf2n", "build_field", _count_rss),
    ("orbits", "expand_certificate", _count_expand),
    ("designs", "Design.__post_init__", None),
    ("designs", "verify_design", _count_cover),
    ("designs", "verify_gdd", _count_cover),
    ("designs", "verify_balanced", _count_balance),
    ("lines", "enumerate_line_keys_np", None),
    ("lines", "canonical_plane_basis", None),
    ("fileio", "write_design", _count_file),
    ("fileio", "read_design", _count_file),
    ("cli", "main", _count_cli),
    ("search", "search_singer", None),
    ("search", "search_frobenius", None),
    ("search", "singer_problem", _count_inst),
    ("search", "frobenius_problem", _count_inst),
    ("xcover", "XCoverInstance.__post_init__", None),
    ("xcover", "solve", _count_solve),
    ("xcover", "check_solution", None),
    ("construct", "product", None),
    ("construct", "balanced_extension", None),
    ("construct", "gdd_6k_6", None),
    ("construct", "fill_groups", None),
    ("construct", "GddStream.plane_triangles", _count_plane),
    ("construct", "GddStream.sample_line_check", _count_sample),
    ("datasets", "load_dataset", None),
    ("datasets", "expand_special", None),
)

# Generators: one span per item drawn, so the caller's pacing is not counted.
TRACED_GENERATORS = (("lines", "enumerate_ext_planes"),)


def _wrap(tracer: Tracer, name: str, fn, counter):
    def traced(*args, **kwargs):
        before = rss_mb() if counter in (_count_rss, _count_expand) else 0.0
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(sp, args, kwargs, result, before)
            return result
    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span(name) as sp:
                try:
                    item = next(it)
                except StopIteration:
                    sp.counts["items"] = 0
                    return
                sp.counts["items"] = 1
            yield item
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Put traced wrappers in place; returns a function that undoes it."""
    pkg = sys.modules["tridesign"]
    bound = [m for k, m in sys.modules.items()
             if m is not None and (k == "tridesign" or k.startswith("tridesign."))]
    undo = []

    def rebind(owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    specs = [(m, a, c, False) for m, a, c in TRACED] + \
            [(m, a, None, True) for m, a in TRACED_GENERATORS]
    for mod_name, attr, counter, is_gen in specs:
        mod = getattr(pkg, mod_name)
        name = f"{mod_name}.{attr.replace('.__post_init__', '')}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            rebind(cls, meth, _wrap(tracer, name, cls.__dict__[meth], counter))
            continue
        fn = getattr(mod, attr)
        new = (_wrap_generator(tracer, name, fn) if is_gen
               else _wrap(tracer, name, fn, counter))
        for owner in bound:
            for key, val in list(vars(owner).items()):
                if val is fn:
                    rebind(owner, key, new)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore
