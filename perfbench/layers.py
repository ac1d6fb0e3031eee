"""Per-layer metrics from the spans of one traced pass.

Each metric is taken at the boundary of one public call (see spans.py);
a layer that a workload never calls reads 0.
"""

from __future__ import annotations

from spans import MODULES, Span, Tracer


def _tot(spans: list[Span], pred=lambda s: True) -> float:
    return sum(s.dur for s in spans if pred(s))


def _sum(spans: list[Span], key: str, pred=lambda s: True) -> float:
    return sum(s.counts.get(key, 0) for s in spans if pred(s))


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _ok(s: Span) -> bool:
    return "raised" not in s.counts and s.counts.get("ok", True)


def _refused(s: Span) -> bool:
    return not _ok(s)


def per_layer(setup: Tracer, traced: Tracer, attempted: int,
              untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit).  Setup spans count only toward the
    datasets metrics; everything else comes from the traced pass."""

    def named(name: str) -> list[Span]:
        return traced.named(name)

    m: dict[str, tuple[float, str]] = {}
    bf = named("gf2n.build_field")
    m["gf2n.build_field.s"] = (_tot(bf), "s")
    m["gf2n.build_field.rss_rise_mb"] = (_sum(bf, "rss_rise_mb"), "MB")

    ex = named("orbits.expand_certificate")
    ex_s = _tot(ex, _ok)
    m["orbits.expand_certificate.s"] = (ex_s, "s")
    m["orbits.expand_certificate.triangles_per_s"] = (_rate(_sum(ex, "triangles", _ok), ex_s), "1/s")
    m["orbits.expand_certificate.rss_rise_mb"] = (_sum(ex, "rss_rise_mb", _ok), "MB")
    m["orbits.expand_certificate.reject_s"] = (_tot(ex, _refused), "s")

    vd, vg = named("designs.verify_design"), named("designs.verify_gdd")
    vd_s = _tot(vd, _ok)
    m["designs.Design.normalize_s"] = (_tot(named("designs.Design")), "s")
    m["designs.verify_design.s"] = (vd_s, "s")
    m["designs.verify_design.lines_per_s"] = (_rate(_sum(vd, "lines", _ok), vd_s), "1/s")
    m["designs.verify_gdd.s"] = (_tot(vg, _ok), "s")
    m["designs.verify_balanced.s"] = (_tot(named("designs.verify_balanced")), "s")
    m["designs.verify_design.reject_s"] = (_tot(vd, _refused), "s")
    m["designs.verify_gdd.reject_s"] = (_tot(vg, _refused), "s")
    m["designs.witnesses"] = (_sum(vd + vg, "witnesses"), "count")

    planes = [s for s in named("lines.enumerate_ext_planes") if s.counts.get("items")]
    m["lines.enumerate_line_keys_np.s"] = (_tot(named("lines.enumerate_line_keys_np")), "s")
    m["lines.enumerate_ext_planes.s_per_plane"] = (_rate(_tot(planes), len(planes)), "s")
    m["lines.canonical_plane_basis.s"] = (_tot(named("lines.canonical_plane_basis")), "s")

    wr, rd = named("fileio.write_design"), named("fileio.read_design")
    wr_s, rd_s = _tot(wr, _ok), _tot(rd, _ok)
    m["fileio.write_design.s"] = (wr_s, "s")
    m["fileio.write_design.mb_per_s"] = (_rate(_sum(wr, "bytes", _ok) / 1e6, wr_s), "MB/s")
    m["fileio.read_design.s"] = (rd_s, "s")
    m["fileio.read_design.mb_per_s"] = (_rate(_sum(rd, "bytes", _ok) / 1e6, rd_s), "MB/s")
    m["fileio.design_bytes"] = (_sum(wr, "bytes", _ok), "count")
    m["fileio.read_design.reject_s"] = (_tot(rd, _refused), "s")

    cli = named("cli.main")
    m["cli.main.verify.self_s"] = (sum(s.self_s for s in cli
                                       if s.counts.get("command") == "verify"), "s")
    m["cli.main.exit2_frac"] = (_rate(sum(s.counts.get("exit") == 2 for s in cli),
                                      attempted), "ratio")

    sp = named("search.singer_problem")
    sp_s = _tot(sp)
    fp = named("search.frobenius_problem")
    materialized = {s.parent for s in fp}
    m["search.search_singer.self_s"] = (sum(s.self_s for s in named("search.search_singer")), "s")
    m["search.singer_problem.s"] = (sp_s, "s")
    m["search.singer_problem.candidates"] = (_sum(sp, "candidates"), "count")
    m["search.singer_problem.candidates_per_s"] = (_rate(_sum(sp, "candidates"), sp_s), "1/s")
    m["search.frobenius_problem.s"] = (_tot(fp), "s")
    m["search.frobenius_problem.candidates"] = (_sum(fp, "candidates"), "count")
    m["search.search_frobenius.lazy_s"] = (
        sum(s.dur for i, s in enumerate(traced.spans)
            if s.name == "search.search_frobenius" and i not in materialized), "s")

    sv = named("xcover.solve")
    m["xcover.XCoverInstance.s"] = (_tot(named("xcover.XCoverInstance")), "s")
    m["xcover.solve.s"] = (_tot(sv), "s")
    m["xcover.solve.nodes"] = (_sum(sv, "nodes"), "count")
    m["xcover.solve.useful_ratio"] = (_rate(_sum(sv, "chosen"), _sum(sv, "nodes")), "ratio")
    m["xcover.check_solution.s"] = (_tot(named("xcover.check_solution")), "s")

    for fn in ("product", "balanced_extension", "gdd_6k_6", "fill_groups"):
        m[f"construct.{fn}.s"] = (_tot(named(f"construct.{fn}")), "s")
    pt = named("construct.GddStream.plane_triangles")
    pt_s = _tot(pt)
    m["construct.plane_triangles.s_per_plane"] = (_rate(pt_s, len(pt)), "s")
    m["construct.plane_triangles.mb_per_s_computed"] = (_rate(_sum(pt, "bytes") / 1e6, pt_s), "MB/s")
    sl = named("construct.GddStream.sample_line_check")
    m["construct.sample_line_check.s_per_line"] = (_rate(_tot(sl), _sum(sl, "lines")), "s")

    both = setup.spans + traced.spans
    m["datasets.load_dataset.s"] = (_tot([s for s in both if s.name == "datasets.load_dataset"]), "s")
    m["datasets.expand_special.s"] = (_tot([s for s in both if s.name == "datasets.expand_special"]), "s")

    wall = traced.top_level_s()
    for mod, self_s in traced.self_by_module().items():
        m[f"{mod}.self_s"] = (self_s, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_s"] = (wall - untraced_wall_s, "s")
    return m


def self_time_table(traced: Tracer) -> list[str]:
    """The per-module self-time table, its reconciliation with the traced
    wall time, and the search_singer split."""
    wall = traced.top_level_s()
    by_mod = traced.self_by_module()
    lines = [f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    for mod in ("bench",) + MODULES:
        lines.append(f"{mod:<10} {by_mod[mod]:>10.4f} {by_mod[mod] / wall:>7.1%}")
    modules_s = sum(by_mod[mod] for mod in MODULES)
    leftover = wall - modules_s
    lines.append(f"modules account for {modules_s:.4f} s of traced wall_s {wall:.4f} s; "
                 f"leftover {leftover:.4f} s is the benchmark's own work "
                 f"(bench self time {by_mod['bench']:.4f} s: seeded inputs, "
                 "relabelling, mutants, argument lists)")
    for i, s in enumerate(traced.spans):
        if s.name != "search.search_singer":
            continue
        parts: dict[str, float] = {}
        children = {j for j, c in enumerate(traced.spans) if c.parent == i}
        for j in children:
            c = traced.spans[j]
            parts[c.name] = parts.get(c.name, 0.0) + c.dur
        validation = sum(c.dur for c in traced.spans
                         if c.name == "xcover.XCoverInstance" and c.parent in children)
        split = " + ".join(f"{k} {v:.4f}" for k, v in parts.items())
        lines.append(f"search_singer {s.dur:.4f} s = {split} + self {s.self_s:.4f} "
                     f"(sum {sum(parts.values()) + s.self_s:.4f}); singer_problem "
                     f"includes xcover.XCoverInstance {validation:.4f}")
    return lines


def reconciles(traced: Tracer) -> bool:
    """Self times of all spans, the benchmark's included, add up to the
    traced wall time."""
    wall = traced.top_level_s()
    total = sum(traced.self_by_module().values())
    return abs(total - wall) <= 1e-6 * max(wall, 1.0)
