"""Explicit constructions: direct product, balanced +6 extension,
the GF(2^6)-tower of group-divisible designs, and group filling.

The product views GF(2)^(m+n) as GF(2)^m x GF(2)^n and covers the six
types of product lines with six triangle families; each family's size
is checked against its closed-form census during generation.  The
balanced extension reruns the product against a fixed 6-dimensional
right factor, regrouping families so the per-vector charge ledger
cancels exactly; its correctness gate is the verifier, not the
generation bookkeeping.  The tower transports a fixed (12,6) design
through every 2-dimensional extension-field plane, and group filling
transplants a small design into every group of a spread.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .datasets import as_certificate, expand_special, load_dataset
from .designs import (ChargeLedger, Design, Gdd, charge_ledger, verify_balanced,
                      verify_design, verify_gdd)
from .gf2n import FieldCtx, build_field, embed_subfield
from .orbits import expand_certificate
from .lines import (PlaneBasis, Spread, canonical_plane_basis, desarguesian_spread,
                    enumerate_ext_planes, enumerate_lines, ext_plane_count,
                    line_count, validate_spread)


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class ProductLayout:
    """Bit layout of GF(2)^(m+n) = GF(2)^m x GF(2)^n, left factor high."""

    m: int
    n: int

    def inject_left(self, x: int) -> int:
        return x << self.n

    def inject_right(self, u: int) -> int:
        return u

    def split(self, v: int) -> tuple[int, int]:
        return v >> self.n, v & ((1 << self.n) - 1)


def _lines_array(n: int) -> np.ndarray:
    return np.array([l.pts for l in enumerate_lines(n)], dtype=np.int64)


_PERMS3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _product_families(tm: Design, tn: Design, spread: Spread,
                      inj_m, inj_n) -> dict[str, list[np.ndarray]]:
    """The six triangle families; inj_m/inj_n place the two factors."""
    nm, nn = tm.n, tn.n
    lines_n = _lines_array(nn) if nn >= 2 else np.empty((0, 3), dtype=np.int64)
    lines_m = _lines_array(nm) if nm >= 2 else np.empty((0, 3), dtype=np.int64)

    spread_keys = {tuple(sorted(g.tolist())) for g in spread.groups}
    in_spread = np.array([tuple(row) in spread_keys for row in lines_n.tolist()],
                         dtype=bool) if lines_n.size else np.empty(0, dtype=bool)
    lines_n_out = lines_n[~in_spread] if lines_n.size else lines_n
    fam: dict[str, list[np.ndarray]] = {k: [] for k in "ABCDEF"}

    # (A) the M-side design embedded on component zero
    if tm.tri.shape[0]:
        fam["A"].append(np.vectorize(inj_m, otypes=[np.int64])(tm.tri))
    # (B) the N-side design embedded on component zero
    if tn.tri.shape[0]:
        fam["B"].append(np.vectorize(inj_n, otypes=[np.int64])(tn.tri))
    # (C) corner bijections: each triangle of T_m against each line of N,
    # one triangle per matching of corners to line points
    if tm.tri.shape[0] and lines_n.size:
        lu = np.array([inj_n(int(u)) for u in lines_n[:, 0]], dtype=np.int64)
        lv = np.array([inj_n(int(u)) for u in lines_n[:, 1]], dtype=np.int64)
        lw = np.array([inj_n(int(u)) for u in lines_n[:, 2]], dtype=np.int64)
        cols = (lu, lv, lw)
        for x, y, z in tm.tri.tolist():
            xi, yi, zi = inj_m(x), inj_m(y), inj_m(z)
            for p in _PERMS3:
                fam["C"].append(np.column_stack([xi | cols[p[0]],
                                                 yi | cols[p[1]],
                                                 zi | cols[p[2]]]))
    # (D) each M-line lifted to a constant nonzero N-component
    if lines_m.size:
        lx = np.array([inj_m(int(x)) for x in lines_m[:, 0]], dtype=np.int64)
        ly = np.array([inj_m(int(x)) for x in lines_m[:, 1]], dtype=np.int64)
        lz = np.array([inj_m(int(x)) for x in lines_m[:, 2]], dtype=np.int64)
        for v in range(1, 1 << nn):
            vi = inj_n(v)
            fam["D"].append(np.column_stack([lx | vi, ly | vi, lz | vi]))
    # (E) each non-spread N-line lifted to a constant nonzero M-component
    if lines_n_out.size:
        eu = np.array([inj_n(int(u)) for u in lines_n_out[:, 0]], dtype=np.int64)
        ev = np.array([inj_n(int(u)) for u in lines_n_out[:, 1]], dtype=np.int64)
        ew = np.array([inj_n(int(u)) for u in lines_n_out[:, 2]], dtype=np.int64)
        for y in range(1, 1 << nm):
            yi = inj_m(y)
            fam["E"].append(np.column_stack([yi | eu, yi | ev, yi | ew]))
    # (F) two triangles per spread line and nonzero M-component, the
    # pair that also covers the mixed two-component lines
    su = np.array([inj_n(int(g[0])) for g in spread.groups], dtype=np.int64)
    sv = np.array([inj_n(int(g[1])) for g in spread.groups], dtype=np.int64)
    sw = np.array([inj_n(int(g[2])) for g in spread.groups], dtype=np.int64)
    for y in range(1, 1 << nm):
        yi = inj_m(y)
        fam["F"].append(np.column_stack([np.full_like(su, yi), sv, yi | su]))
        fam["F"].append(np.column_stack([sw, yi | sv, yi | sw]))
    return fam


def product_census(tm: Design, tn: Design, spread_size: int) -> dict[str, int]:
    """Closed-form family sizes for the product construction."""
    um, un = line_count(tm.n), line_count(tn.n)
    return {
        "A": tm.triangle_count,
        "B": tn.triangle_count,
        "C": 2 * um * un,
        "D": ((1 << tn.n) - 1) * um,
        "E": ((1 << tm.n) - 1) * (un - spread_size),
        "F": 2 * ((1 << tm.n) - 1) * spread_size,
    }


def product(tm: Design, tn: Design, spread: Spread | None = None,
            with_census: bool = False):
    """Design over GF(2)^(m+n) from designs over the two factors.

    One factor dimension must be even; that factor carries a spread
    of lines (default: the GF(4)-coset spread).  The left factor
    always occupies the high bits of the product space.
    """
    layout = ProductLayout(tm.n, tn.n)
    if tn.n % 2 == 0:
        swap = False
    elif tm.n % 2 == 0:
        swap = True
    else:
        raise ConstructionError(
            f"factor dimensions {tm.n}, {tn.n} are both odd; "
            "the product needs an even factor to carry a line spread")
    a, b = (tn, tm) if swap else (tm, tn)   # b is the even/spread factor
    if spread is None:
        spread = desarguesian_spread(build_field(b.n), 2)
    if spread.dim_m != 2:
        raise ConstructionError("spread must consist of lines (dimension 2)")
    validate_spread(spread, b.n)

    if swap:
        inj_m = layout.inject_right          # odd factor = right
        inj_n = layout.inject_left           # spread factor = left
    else:
        inj_m = layout.inject_left
        inj_n = layout.inject_right
    fam = _product_families(a, b, spread, inj_m, inj_n)
    census = {k: int(sum(blk.shape[0] for blk in blocks))
              for k, blocks in fam.items()}
    expected = product_census(a, b, len(spread.groups))
    if census != expected:
        raise ConstructionError(f"family census mismatch: {census} != {expected}")

    blocks = [blk for k in "ABCDEF" for blk in fam[k]]
    tri = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    n_out = tm.n + tn.n
    out = Design(n=n_out, poly=build_field(n_out).poly, tri=tri,
                 provenance=f"product {tm.n}+{tn.n}")
    if with_census:
        return out, census
    return out


def trivial_design() -> Design:
    """The empty design on GF(2)^1 (no lines to cover)."""
    return Design(n=1, poly=build_field(1).poly,
                  tri=np.empty((0, 3), dtype=np.int64), provenance="trivial")


# -- balanced +6 extension -------------------------------------------------------


def _rho_tables(f5: FieldCtx) -> np.ndarray:
    """rho[t][v]: multiply the low-5 component of a 6-bit vector by xi^t."""
    ord5 = f5.order
    exp5, log5 = f5.exp_table, f5.log_table
    rho = np.zeros((ord5, 64), dtype=np.int64)
    for t in range(ord5):
        for v in range(64):
            low = v & 31
            if low:
                low = exp5[(log5[low] + t) % ord5]
            rho[t, v] = (v & 32) | low
    return rho


def _spread_role_orders(spread: Spread) -> tuple[np.ndarray, np.ndarray]:
    """Role orders for the fixed right-factor spread.

    Returns (base, special): (21, 3) arrays of ordered line points.
    ``base`` is the sorted order used (rotated) for the bulk values of
    the left component; ``special`` is the order used for the 31
    compensating values, where the first slot receives the -2 charge:
    the line through the top unit keeps its bottom point first, five
    mixed lines keep their bottom point first, the other ten lead with
    a top point.
    """
    base = np.array([sorted(g.tolist()) for g in spread.groups], dtype=np.int64)
    special_rows = []
    mixed_seen = 0
    for row in base.tolist():
        pts = set(row)
        tops = sorted(p for p in pts if p & 32)
        bottoms = sorted(p for p in pts if not p & 32)
        if 32 in pts:
            w0 = bottoms[0]
            special_rows.append((w0, 32, 32 ^ w0))
        elif len(tops) == 2:
            a, (b, c) = bottoms[0], tops
            if mixed_seen < 5:
                special_rows.append((a, b, c))
            else:
                special_rows.append((b, a, c))
            mixed_seen += 1
        else:
            special_rows.append(tuple(sorted(pts)))
    if mixed_seen != 15:
        raise ConstructionError(f"spread shape unexpected: {mixed_seen} mixed lines")
    return base, np.array(special_rows, dtype=np.int64)


def balanced_extension(tm: Design, return_trace: bool = False):
    """Balanced design over GF(2)^(m+6) from a balanced one over GF(2)^m.

    The right factor is covered by the fixed 6-dimensional design
    (whole-space part) and the balanced (6,2) group-divisible design
    (line-grouping part); role choices in the spread-line family are
    rotated so all charges cancel.  The result must pass the full
    design and balance verifiers or the construction fails.
    """
    m = tm.n
    if m < 7 or m % 2 == 0:
        raise ConstructionError(f"left factor dimension {m} must be odd and >= 7")
    if not verify_design(tm).ok:
        raise ConstructionError("left factor does not verify as a design")
    bal = verify_balanced(tm)
    if not bal.balanced:
        raise ConstructionError("left factor design is unbalanced")

    d6 = expand_special(load_dataset("design6"))
    g62 = expand_special(load_dataset("gdd6-2"))
    rho = _rho_tables(build_field(5))
    base_order, special_order = _spread_role_orders(g62.groups)

    blocks: list[np.ndarray] = []
    # (A) balanced left design on component zero
    blocks.append(tm.tri << 6)
    # (B) right-factor design on component zero; its known charge
    # profile is compensated by the special rows of part (F)
    blocks.append(d6.tri.copy())
    profile = charge_ledger(d6.tri, 6).counts
    # (C) corner bijections, unchanged from the plain product
    lines6 = _lines_array(6)
    cols = (lines6[:, 0], lines6[:, 1], lines6[:, 2])
    for x, y, z in tm.tri.tolist():
        xi, yi, zi = x << 6, y << 6, z << 6
        for p in _PERMS3:
            blocks.append(np.column_stack([xi | cols[p[0]],
                                           yi | cols[p[1]],
                                           zi | cols[p[2]]]))
    # (D) left lines grouped by left triangles: per triangle and right
    # vector, drop each corner to component zero once
    vv = np.arange(1, 64, dtype=np.int64)
    for x, y, z in tm.tri.tolist():
        xi, yi, zi = x << 6, y << 6, z << 6
        blocks.append(np.column_stack([np.full_like(vv, xi), yi | vv, zi | vv]))
        blocks.append(np.column_stack([xi | vv, np.full_like(vv, yi), zi | vv]))
        blocks.append(np.column_stack([xi | vv, yi | vv, np.full_like(vv, zi)]))
    # (E) right non-spread lines grouped by the balanced (6,2) design;
    # the grouping design is rotated in step with part (F)'s spreads
    ys = np.arange(1, 1 << m, dtype=np.int64)
    special_y = {int(y): t for t, y in enumerate(range(1, 32))}
    g62_tri = g62.tri
    for y in ys.tolist():
        t = special_y.get(y)
        tri_y = g62_tri if t is None else rho[t][g62_tri]
        p, q, r = tri_y[:, 0], tri_y[:, 1], tri_y[:, 2]
        yi = y << 6
        blocks.append(np.column_stack([p, yi | q, yi | r]))
        blocks.append(np.column_stack([yi | p, q, yi | r]))
        blocks.append(np.column_stack([yi | p, yi | q, r]))

    trace_ledger = None
    if return_trace:
        partial = np.concatenate(blocks)
        led = charge_ledger(partial, m + 6)
        trace_ledger = ChargeLedger(m + 6, led.counts.copy())

    # (F) spread lines: two triangles per line and left vector; the
    # first slot of the role order collects -2, the others +1.  Plain
    # left vectors rotate roles in blocks of three; the 31 special
    # ones use the rotated special order that cancels part (B).
    plain = [y for y in range(32, 1 << m)]
    assert len(plain) % 3 == 0
    orders = (base_order,
              base_order[:, (1, 2, 0)],
              base_order[:, (2, 0, 1)])
    for pos, y in enumerate(plain):
        u, v, w = (orders[pos % 3][:, 0], orders[pos % 3][:, 1],
                   orders[pos % 3][:, 2])
        yi = y << 6
        blocks.append(np.column_stack([np.full_like(u, yi), v, yi | u]))
        blocks.append(np.column_stack([w, yi | v, yi | w]))
    for y in range(1, 32):
        t = special_y[y]
        rows = rho[t][special_order]
        u, v, w = rows[:, 0], rows[:, 1], rows[:, 2]
        yi = y << 6
        blocks.append(np.column_stack([np.full_like(u, yi), v, yi | u]))
        blocks.append(np.column_stack([w, yi | v, yi | w]))

    tri = np.concatenate(blocks)
    n_out = m + 6
    led = charge_ledger(tri, n_out)
    if not led.is_zero:
        bad = dict(list(led.as_dict().items())[:10])
        raise ConstructionError(f"charge ledger did not cancel: {bad}")
    out = Design(n=n_out, poly=build_field(n_out).poly, tri=tri,
                 provenance=f"balanced extension {m}+6")
    rep = verify_design(out)
    if not rep.ok:
        raise ConstructionError("balanced extension failed verification:\n"
                                + rep.to_text())
    brep = verify_balanced(out)
    if not brep.ok:
        raise ConstructionError("balanced extension is not balanced: "
                                + brep.to_text())
    if return_trace:
        expected_profile = np.zeros_like(trace_ledger.counts)
        expected_profile[:64] = profile
        return out, {"ledger_after_ABCDE": trace_ledger,
                     "part_b_profile_matched":
                         bool((trace_ledger.counts == expected_profile).all())}
    return out


# -- GF(2^6) tower ----------------------------------------------------------------


def _gdd12_coordinates() -> tuple[np.ndarray, np.ndarray, Gdd]:
    """Subfield coordinates (alpha, beta) of the (12,6) design's corners
    with respect to the basis (1, xi) over the order-64 subfield."""
    g12 = expand_certificate(as_certificate(load_dataset("gdd12-6")))
    f12 = build_field(12)
    f6 = build_field(6)
    emb12 = embed_subfield(f6, f12)
    alpha_of = np.full(1 << 12, -1, dtype=np.int64)
    beta_of = np.full(1 << 12, -1, dtype=np.int64)
    xi = f12.exp_table[1]
    for a6 in range(64):
        ea = emb12[a6]
        for b6 in range(64):
            w = ea ^ f12.mul(emb12[b6], xi)
            alpha_of[w] = a6
            beta_of[w] = b6
    return alpha_of[g12.tri], beta_of[g12.tri], g12


class GddStream:
    """A (6k, 6) group-divisible design streamed plane by plane.

    Each 2-dimensional extension-field plane carries an isomorphic
    copy of the embedded (12,6) design, transported through the
    plane's canonical basis; triangles are generated per plane and
    never materialized together.
    """

    def __init__(self, k: int):
        if k < 3:
            raise ValueError("GddStream is for k >= 3; smaller towers materialize")
        self.k = k
        self.n = 6 * k
        self.m = 6
        self.ctx = build_field(self.n)
        self.poly = self.ctx.poly
        self.f6 = build_field(6)
        self.emb = embed_subfield(self.f6, self.ctx)
        self.alpha6, self.beta6, self.gdd12 = _gdd12_coordinates()
        self.per_plane = self.gdd12.tri.shape[0]
        self.plane_count = ext_plane_count(6, k)
        self._gdd12_keys: np.ndarray | None = None
        self._emb_inv = {e: i for i, e in enumerate(self.emb)}
        self._f12 = build_field(12)
        self._emb12 = embed_subfield(self.f6, self._f12)

    @property
    def groups(self) -> Spread:
        return desarguesian_spread(self.ctx, 6)

    def planes(self) -> Iterator[PlaneBasis]:
        return enumerate_ext_planes(self.ctx, 6)

    def plane_triangles(self, plane: PlaneBasis, canonical: bool = True) -> np.ndarray:
        cu = np.array([self.ctx.mul(e, plane.u) for e in self.emb], dtype=np.int64)
        cv = np.array([self.ctx.mul(e, plane.v) for e in self.emb], dtype=np.int64)
        tri = cu[self.alpha6] ^ cv[self.beta6]
        return np.sort(tri, axis=1) if canonical else tri

    def stream_count(self, progress: bool = False) -> int:
        total = 0
        for idx, plane in enumerate(self.planes()):
            total += int(self.plane_triangles(plane, canonical=False).shape[0])
            if progress and (idx + 1) % 500 == 0:
                print(f"  plane {idx + 1}/{self.plane_count}", file=sys.stderr,
                      flush=True)
        return total

    # -- plane-local lookup -------------------------------------------------

    def _keys12(self) -> np.ndarray:
        if self._gdd12_keys is None:
            from .designs import _line_keys
            self._gdd12_keys = np.sort(_line_keys(self.gdd12.tri, 12))
        return self._gdd12_keys

    def _coords_in_plane(self, w: int, plane: PlaneBasis) -> tuple[int, int]:
        ctx = self.ctx
        gq = ctx.order // 63
        logv = ctx.log(plane.v)
        for a6 in range(64):
            resid = w ^ ctx.mul(self.emb[a6], plane.u)
            if resid == 0:
                return a6, 0
            ln = (ctx.log(resid) - logv) % ctx.order
            if ln % gq == 0:
                b_big = ctx.exp_table[ln]
                b6 = self._emb_inv[b_big]
                return a6, b6
        raise ConstructionError(f"vector {w} is not in the given plane")

    def line_covered_once(self, x: int, y: int) -> bool:
        """Pull a non-group line back to the (12,6) design and look it up."""
        plane = canonical_plane_basis(self.ctx, self.emb, x, y)
        f12, emb12 = self._f12, self._emb12
        xi12 = f12.exp_table[1]
        pulled = []
        for w in (x, y):
            a6, b6 = self._coords_in_plane(w, plane)
            pulled.append(emb12[a6] ^ f12.mul(emb12[b6], xi12))
        p, q = pulled
        z = p ^ q
        lo, _, hi = sorted((p, q, z))
        mid = lo ^ hi
        key = (lo << 12) | mid
        keys = self._keys12()
        i = int(np.searchsorted(keys, key))
        hitcount = 0
        while i + hitcount < keys.size and keys[i + hitcount] == key:
            hitcount += 1
        return hitcount == 1

    def sample_line_check(self, samples: int, seed: int = 0,
                          progress: bool = False) -> int:
        """Check ``samples`` uniformly-drawn non-group lines; returns
        the number verified (raises on the first failure)."""
        rng = np.random.default_rng(seed)
        ctx = self.ctx
        gq = ctx.order // 63
        done = 0
        while done < samples:
            x = int(rng.integers(1, ctx.order + 1))
            y = int(rng.integers(1, ctx.order + 1))
            if x == y or (ctx.log(x) - ctx.log(y)) % gq == 0:
                continue  # same multiplicative ray: a group line
            if not self.line_covered_once(x, y):
                raise ConstructionError(
                    f"sampled line through ({x}, {y}) not covered exactly once")
            done += 1
            if progress and done % 20000 == 0:
                print(f"  sampled {done}/{samples}", file=sys.stderr, flush=True)
        return done


def gdd_6k_6(k: int):
    """The (6k, 6) group-divisible design: materialized for k <= 2,
    streamed plane by plane for k >= 3."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        f6 = build_field(6)
        return Gdd(n=6, poly=f6.poly, tri=np.empty((0, 3), dtype=np.int64),
                   m=6, groups=desarguesian_spread(f6, 6),
                   provenance="tower k=1")
    if k == 2:
        alpha6, beta6, gdd12 = _gdd12_coordinates()
        ctx = build_field(12)
        emb = embed_subfield(build_field(6), ctx)
        plane = next(enumerate_ext_planes(ctx, 6))
        cu = np.array([ctx.mul(e, plane.u) for e in emb], dtype=np.int64)
        cv = np.array([ctx.mul(e, plane.v) for e in emb], dtype=np.int64)
        tri = np.sort(cu[alpha6] ^ cv[beta6], axis=1)
        return Gdd(n=12, poly=ctx.poly, tri=tri, m=6,
                   groups=desarguesian_spread(ctx, 6), provenance="tower k=2")
    return GddStream(k)


# -- group filling ----------------------------------------------------------------


def fill_groups(g: Gdd, filler: Design):
    """Fill every group of a GDD with an isomorphic copy of ``filler``.

    The filler must live on GF(2)^m for the group dimension m and must
    itself verify; each group is reached by the subfield coordinate
    map followed by multiplication with the group's coset
    representative.  Plain-design fillers yield a design; GDD fillers
    yield a GDD with the transported fine groups.
    """
    if filler.n != g.m:
        raise ConstructionError(
            f"filler dimension {filler.n} does not match group dimension {g.m}")
    if isinstance(filler, Gdd):
        if not verify_gdd(filler).ok:
            raise ConstructionError("filler fails GDD verification")
    else:
        if not verify_design(filler).ok:
            raise ConstructionError("filler fails design verification")

    ctx = build_field(g.n, g.poly)
    sub = build_field(g.m)
    emb = embed_subfield(sub, ctx)
    gq = ctx.order // ((1 << g.m) - 1)

    blocks = [g.tri]
    fine_groups: list[np.ndarray] = []
    for idx, grp in enumerate(g.groups.groups):
        logs = np.array([ctx.log(int(v)) for v in grp], dtype=np.int64)
        e = int(logs[0]) % gq
        if ((logs - e) % gq).any():
            raise ConstructionError(
                f"group {idx} is not a multiplicative coset; cannot fill")
        mult = ctx.exp_table[e]
        tmap = np.array([ctx.mul(mult, emb[w]) for w in range(1 << g.m)],
                        dtype=np.int64)
        blocks.append(np.sort(tmap[filler.tri], axis=1))
        if isinstance(filler, Gdd):
            fine_groups.extend(np.sort(tmap[fg]) for fg in filler.groups.groups)

    tri = np.concatenate(blocks)
    if isinstance(filler, Gdd):
        return Gdd(n=g.n, poly=g.poly, tri=tri, m=filler.m,
                   groups=Spread(filler.m, fine_groups),
                   provenance=f"fill {g.provenance or 'gdd'} with {filler.m}-gdd")
    return Design(n=g.n, poly=g.poly, tri=tri,
                  provenance=f"fill {g.provenance or 'gdd'} with design")
