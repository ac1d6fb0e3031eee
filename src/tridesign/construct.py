"""Explicit constructions: direct product, balanced +6 extension,
the GF(2^6)-tower of group-divisible designs, and group filling.

The product views GF(2)^(m+n) as GF(2)^m x GF(2)^n, the left factor on
the high bits, and covers the six types of product lines with six
triangle families.  Every family is one broadcast OR ``L[:, None, :] |
R`` of left rows L with right rows R, both already in ambient
coordinates; R is shared by every left row or, where the rows rotate
with the left vector, one block per left row.  With T_a, T_b the two
factor designs (b the factor carrying a spread of lines), the product
families are:

  A  triangles of T_a              | zero
  B  zero                          | triangles of T_b
  C  triangles of T_a              | lines of b, in all 6 corner orders
  D  lines of a                    | (v, v, v), v nonzero in b
  E  (y, y, y), y nonzero in a     | lines of b outside the spread
  F  (y, 0, y) and (0, y, y)       | spread lines (u, v, w) as (0, v, u)
                                     and (w, v, w)

Family sizes are checked against their closed-form census before the
output is allocated.  The balanced extension runs the same families
against the fixed 6-dimensional right factor with the left factor
balanced: D ORs each left triangle with (0, v, v), (v, 0, v), (v, v, 0),
E ORs those masks of each left vector y with the balanced (6,2)
design's triangles, and E and F take their right rows rotated per y so
that the per-vector charge ledger cancels exactly; its correctness
gate is the verifier, not the generation bookkeeping.  The tower
transports a fixed (12,6) design through every 2-dimensional
extension-field plane, and group filling transplants a small design
into every group of a spread.
"""

from __future__ import annotations

import logging
from itertools import permutations
from typing import Iterator

import numpy as np

from .datasets import as_certificate, expand_special, load_dataset, multiplier_table
from .designs import (MAX_MATERIALIZED_TRIANGLES, Design, Gdd, _line_keys,
                      ascending_rows, expected_triangle_count, verify_balanced,
                      verify_design, verify_gdd)
from .gf2n import FieldCtx, build_field, embed_subfield
from .orbits import expand_certificate
from .lines import (PlaneBasis, coset_exponents, desarguesian_spread,
                    enumerate_ext_planes, ext_plane_count, group_ids, line_count,
                    line_keys, line_rows, plane_bases, span_grids, subfield_tables)


logger = logging.getLogger(__name__)


class ConstructionError(ValueError):
    pass


_PERMS3 = np.array(list(permutations(range(3))))
_DROP = np.array([(0, 1, 1), (1, 0, 1), (1, 1, 0)])   # one corner at zero


def _or_families(terms, census: dict[str, int] | None = None):
    """All rows ``L[:, None, :] | R`` of the ``(family, L, R)`` terms, in
    term order, as one (T, 3) array; returns it with the family sizes.

    R is (r, 3), shared by every row of L, or (l, r, 3), one block per
    row.  The sizes are totalled, and must equal ``census`` when it is
    given, before the output is allocated; each term is then written
    straight into its slice of it.  The rows are int32, which the size
    guards allow (every output has n <= 14), the dtype of the canonical
    rows ``Design`` normalizes them into.
    """
    sizes: dict[str, int] = {}
    for fam, left, right in terms:
        sizes[fam] = sizes.get(fam, 0) + left.shape[0] * right.shape[-2]
    if census is not None and sizes != census:
        raise ConstructionError(f"family census mismatch: {sizes} != {census}")
    tri = np.empty((sum(sizes.values()), 3), dtype=np.int32)
    at = 0
    for _, left, right in terms:
        shape = (left.shape[0], right.shape[-2], 3)
        np.bitwise_or(left[:, None, :], right,
                      out=tri[at:at + shape[0] * shape[1]].reshape(shape))
        at += shape[0] * shape[1]
    return tri, sizes


def _spread_terms(ys: np.ndarray, uvw: np.ndarray) -> list:
    """Family F: per left vector y and spread line (u, v, w), the pair
    (y, v, y|u), (w, y|v, y|w) that also covers the mixed lines."""
    return [("F", ys[:, None] * (1, 0, 1), uvw[..., (1, 1, 0)] * (0, 1, 1)),
            ("F", ys[:, None] * (0, 1, 1), uvw[..., (2, 1, 2)])]


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


def _refuse_oversized(what: str, n: int) -> None:
    size = expected_triangle_count(n)
    if size > MAX_MATERIALIZED_TRIANGLES:
        raise ConstructionError(
            f"{what} to n={n} ({size} triangles) is too large "
            f"to materialize (limit {MAX_MATERIALIZED_TRIANGLES})")


def product(tm: Design, tn: Design, with_census: bool = False):
    """Design over GF(2)^(m+n) from designs over the two factors.

    One factor dimension must be even; that factor carries the
    GF(4)-coset line spread, ``desarguesian_spread(build_field(n), 2)``.
    The left factor always occupies the high bits of the product space.
    Both factors must verify as designs, and the output must fit
    MAX_MATERIALIZED_TRIANGLES; the size is checked first.
    """
    if tn.n % 2 == 0:
        swap = False
    elif tm.n % 2 == 0:
        swap = True
    else:
        raise ConstructionError(
            f"factor dimensions {tm.n}, {tn.n} are both odd; "
            "the product needs an even factor to carry a line spread")
    n_out = tm.n + tn.n
    _refuse_oversized("product", n_out)
    a, b = (tn, tm) if swap else (tm, tn)   # b is the even/spread factor
    sa, sb = (0, tn.n) if swap else (tn.n, 0)
    spread = desarguesian_spread(build_field(b.n), 2)
    for side, factor in (("left", tm), ("right", tn)):
        if not verify_design(factor).ok:
            raise ConstructionError(f"{side} factor does not verify as a design")

    lines_b = line_rows(b.n)
    gid = group_ids(spread, b.n)
    outside = lines_b[gid[lines_b[:, 0]] != gid[lines_b[:, 1]]] << sb
    ya = np.arange(1, 1 << a.n, dtype=np.int64) << sa
    yb = np.arange(1, 1 << b.n, dtype=np.int64) << sb
    zero = np.zeros((1, 3), dtype=np.int64)
    tri, census = _or_families([
        ("A", a.tri << sa, zero),
        ("B", zero, b.tri << sb),
        ("C", a.tri << sa, (lines_b << sb)[:, _PERMS3].reshape(-1, 3)),
        ("D", line_rows(a.n) << sa, yb[:, None] * (1, 1, 1)),
        ("E", ya[:, None] * (1, 1, 1), outside),
        *_spread_terms(ya, spread << sb),
    ], product_census(a, b, len(spread)))

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


def _special_role_order(spread: np.ndarray) -> np.ndarray:
    """The (21, 3) role order of the right-factor line spread for the 31
    compensating values, whose first slot receives the -2 charge: the
    spread's ascending rows, except that ten mixed lines, all but the
    first five, lead with a top point."""
    # rows ascend, so a line with two top points has them last; the line
    # through 32 is (w0, 32, 32 ^ w0) already
    mixed = ((spread[:, 1] & 32) != 0) & (spread[:, 1] != 32)
    if np.count_nonzero(mixed) != 15:
        raise ConstructionError(f"spread shape unexpected: "
                                f"{np.count_nonzero(mixed)} mixed lines")
    late = mixed & (np.cumsum(mixed) > 5)
    return np.where(late[:, None], spread[:, (1, 0, 2)], spread)


def _extension_rows(tm: Design) -> tuple[np.ndarray, dict[str, int]]:
    """The unnormalized rows of the +6 extension of ``tm`` with their
    family sizes, families A-F in that order.

    The right factor is covered by the fixed 6-dimensional design
    (whole-space part) and the balanced (6,2) group-divisible design
    (line-grouping part); role choices in the spread-line family are
    rotated so all charges cancel.
    """
    m = tm.n
    d6 = expand_special(load_dataset("design6"))
    g62 = expand_special(load_dataset("gdd6-2"))
    mu = multiplier_table(build_field(5))
    base_order, special_order = g62.groups, _special_role_order(g62.groups)
    # Left vectors y = 1..31 are the special ones: their rows are turned
    # by mu[y - 1], and their spread lines take the special order that
    # cancels the charge profile of family B.  The plain y >= 32 rotate
    # the spread roles in blocks of three, so each slot collects -2
    # (first) or +1 equally often.
    ys = np.arange(1, 1 << m, dtype=np.int64)
    plain = ys.size - 31
    assert plain % 3 == 0
    turn = np.where(ys < 32, ys - 1, 0)
    rotated = np.array([base_order, base_order[:, (1, 2, 0)], base_order[:, (2, 0, 1)]])
    spread_orders = np.concatenate([mu[:31, special_order],
                                    rotated[np.arange(plain) % 3]])
    grouping = mu[turn[:, None, None], g62.tri]   # (6,2) design turned per y
    left, y6 = tm.tri << 6, ys << 6
    vv = np.arange(1, 64, dtype=np.int64)
    zero = np.zeros((1, 3), dtype=np.int64)
    return _or_families([
        ("A", left, zero),
        ("B", zero, d6.tri),
        ("C", left, line_rows(6)[:, _PERMS3].reshape(-1, 3)),
        *[("D", left, vv[:, None] * mask) for mask in _DROP],
        *[("E", y6[:, None] * mask, grouping) for mask in _DROP],
        *_spread_terms(y6, spread_orders),
    ])


def balanced_extension(tm: Design) -> Design:
    """Balanced design over GF(2)^(m+6) from a balanced one over GF(2)^m.

    The rows come from ``_extension_rows``.  The result must pass the
    design and balance verifiers (on an exact cover, balance is the
    charge ledger cancelling) or the construction fails.
    """
    m = tm.n
    if m < 7 or m % 2 == 0:
        raise ConstructionError(f"left factor dimension {m} must be odd and >= 7")
    n_out = m + 6
    _refuse_oversized("balanced extension", n_out)
    if not verify_design(tm).ok:
        raise ConstructionError("left factor does not verify as a design")
    bal = verify_balanced(tm)
    if not bal.balanced:
        raise ConstructionError("left factor design is unbalanced")

    tri, _ = _extension_rows(tm)
    out = Design(n=n_out, poly=build_field(n_out).poly, tri=tri,
                 provenance=f"balanced extension {m}+6")
    del tri   # only the normalized copy in ``out`` is checked from here on
    rep = verify_design(out)
    if not rep.ok:
        raise ConstructionError("balanced extension failed verification:\n"
                                + rep.to_text())
    brep = verify_balanced(out)
    if not brep.ok:
        raise ConstructionError("balanced extension is not balanced: "
                                + brep.to_text())
    return out


# -- GF(2^6) tower ----------------------------------------------------------------


def _gdd12_coordinates() -> tuple[np.ndarray, np.ndarray, Gdd]:
    """The (12,6) design in subfield coordinates over the basis (1, xi).

    Returns (table, idx, gdd12): ``table[a << 6 | b]`` is the 12-bit
    vector a + b*xi for a, b in the order-64 subfield, and ``idx`` holds
    each corner of gdd12 as its coordinate index a << 6 | b.
    """
    g12 = expand_certificate(as_certificate(load_dataset("gdd12-6")))
    f12 = build_field(12)
    table = span_grids(f12, embed_subfield(build_field(6), f12), [1], [f12.exp(1)])[0]
    index = np.empty(1 << 12, dtype=np.intp)
    index[table] = np.arange(1 << 12)
    return table, index[g12.tri], g12


def _plane_copy(ctx: FieldCtx, emb: np.ndarray, plane: PlaneBasis,
                idx: np.ndarray) -> np.ndarray:
    """The (12,6) design carried into ``plane``: the corner with subfield
    coordinates (a, b) goes to a*u + b*v, read from the plane's
    4096-point table, as int32, in one gather.  Rows unsorted."""
    table = span_grids(ctx, emb, [plane.u], [plane.v])[0].astype(np.int32)
    return table.take(idx)


# Sampled lines are drawn one at a time and checked in batches of this many.
_SAMPLE_BATCH = 4000


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
        self.coords12, self.idx, self.gdd12 = _gdd12_coordinates()
        self.per_plane = self.gdd12.tri.shape[0]
        self.plane_count = ext_plane_count(6, k)
        self._gdd12_keys: np.ndarray | None = None

    def planes(self) -> Iterator[PlaneBasis]:
        return enumerate_ext_planes(self.ctx, 6)

    def plane_triangles(self, plane: PlaneBasis, canonical: bool = True) -> np.ndarray:
        tri = _plane_copy(self.ctx, self.emb, plane, self.idx)
        return ascending_rows(tri) if canonical else tri

    def stream_count(self) -> int:
        """Triangles in the stream, ``plane_count * per_plane``, once the
        enumerated planes are checked to be exactly ``plane_count``
        distinct ones (by their canonical bases); builds no triangle."""
        def plane_keys():
            for idx, plane in enumerate(self.planes()):
                yield (plane.u << self.n) | plane.v
                if (idx + 1) % 500 == 0:
                    logger.info("  plane %d/%d", idx + 1, self.plane_count)

        keys = np.fromiter(plane_keys(), dtype=np.int64)
        distinct = np.unique(keys).size
        if keys.size != self.plane_count or distinct != keys.size:
            raise ConstructionError(f"{keys.size} planes enumerated, {distinct} "
                                    f"distinct; expected {self.plane_count}")
        return self.plane_count * self.per_plane

    # -- plane-local lookup -------------------------------------------------

    def _keys12(self) -> np.ndarray:
        if self._gdd12_keys is None:
            self._gdd12_keys = np.sort(_line_keys(self.gdd12.tri, 12))
        return self._gdd12_keys

    def _pulled_keys(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Key, in the (12,6) design, of each non-group line {x, y}
        pulled back from its plane.

        (u, v) = M (x, y) for the 2x2 subfield matrix M of the canonical
        basis, so the coordinates of x and y over (u, v) are the rows of
        M^-1 = det^-1 [[b_v, b_u], [a_v, a_u]].
        """
        mul, inv = subfield_tables(self.ctx, self.emb)
        _, _, coef = plane_bases(self.ctx, self.emb, x, y)
        au, bu, av, bv = coef.T
        d = inv[mul[au, bv] ^ mul[bu, av]]
        p = self.coords12[mul[d, bv] << 6 | mul[d, bu]]
        q = self.coords12[mul[d, av] << 6 | mul[d, au]]
        return line_keys(np.minimum(p, q), np.maximum(p, q), 12)

    def sample_line_check(self, samples: int, seed: int = 0) -> int:
        """Check ``samples`` uniformly-drawn non-group lines; returns
        the number verified (raises on the first failure in draw order)."""
        rng = np.random.default_rng(seed)
        log, order = self.ctx.log, self.ctx.order
        gq = order // 63
        done = 0
        while done < samples:
            pairs = []
            while len(pairs) < min(_SAMPLE_BATCH, samples - done):
                x = int(rng.integers(1, order + 1))
                y = int(rng.integers(1, order + 1))
                if x == y or (log(x) - log(y)) % gq == 0:
                    continue  # same multiplicative ray: a group line
                pairs.append((x, y))
            xs, ys = np.array(pairs, dtype=np.int64).T
            key, keys = self._pulled_keys(xs, ys), self._keys12()
            hits = (np.searchsorted(keys, key, side="right")
                    - np.searchsorted(keys, key, side="left"))
            bad = np.flatnonzero(hits != 1)
            good = int(bad[0]) if bad.size else len(pairs)
            for mark in range(done // 20000 * 20000 + 20000, done + good + 1, 20000):
                logger.info("  sampled %d/%d", mark, samples)
            done += good
            if bad.size:
                raise ConstructionError(f"sampled line through ({pairs[good][0]}, "
                                        f"{pairs[good][1]}) not covered exactly once")
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
        # GF(2^12) is its own only GF(64)-plane, and its canonical basis
        # (1, xi) is the one the (12,6) design is written over
        g12 = expand_certificate(as_certificate(load_dataset("gdd12-6")))
        g12.provenance = "tower k=2"
        return g12
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
    try:   # the host spread is checked, then read as cosets
        exps = coset_exponents(ctx, g.m, g.groups)
    except ValueError as e:
        raise ConstructionError(f"{e}; cannot fill") from None
    # tmaps[i, w]: the filler's vector w carried into group i, xi^e_i * emb[w],
    # int32 like the rows it fills
    tmaps = ctx.mul_np(ctx.exp_np[exps][:, None],
                       embed_subfield(build_field(g.m), ctx)).astype(np.int32)
    tri = np.concatenate([g.tri, tmaps[:, filler.tri].reshape(-1, 3)])
    if isinstance(filler, Gdd):
        fine = tmaps[:, filler.groups].reshape(-1, filler.groups.shape[1])
        return Gdd(n=g.n, poly=g.poly, tri=tri, m=filler.m, groups=fine,
                   provenance=f"fill {g.provenance or 'gdd'} with {filler.m}-gdd")
    return Design(n=g.n, poly=g.poly, tri=tri,
                  provenance=f"fill {g.provenance or 'gdd'} with design")
