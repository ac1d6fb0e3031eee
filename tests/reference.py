"""Scalar reference objects for the tests.

One frozen object per line (``Line``) and per triangle (``TriangleV``),
the triangle test on three such lines, the gamma-set, 2-cyclotomic class
and cy_gamma-set of a single exponent, and the gamma-key and
triangle-orbit predicates, a group-by-group spread validator, and the
binary-search witness search over a prefix of all line keys.  The
package works on line keys, (T, 3) corner rows, gamma rows and (G, q)
spread arrays; these per-object forms are the independent definitions
the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from tridesign.gf2n import FieldCtx


@dataclass(frozen=True)
class Line:
    """Canonical projective line: sorted triple with x ^ y ^ z = 0."""

    pts: tuple[int, int, int]

    @property
    def x(self) -> int:
        return self.pts[0]

    @property
    def y(self) -> int:
        return self.pts[1]

    @property
    def z(self) -> int:
        return self.pts[2]

    def __contains__(self, v: int) -> bool:
        return v in self.pts

    def key(self, n: int) -> int:
        return (self.pts[0] << n) | self.pts[1]


def canonical_line(x: int, y: int) -> Line:
    """The line through x and y in canonical (sorted) form."""
    if x == 0 or y == 0 or x == y:
        raise ValueError(f"degenerate line: generators {x}, {y}")
    z = x ^ y
    a, b, c = sorted((x, y, z))
    return Line((a, b, c))


def enumerate_lines(n: int) -> Iterator[Line]:
    """All canonical lines of GF(2)^n, ascending by (x, y)."""
    top = 1 << n
    for x in range(1, top):
        for y in range(x + 1, top):
            if x ^ y > y:
                yield Line((x, y, x ^ y))


@dataclass(frozen=True)
class TriangleV:
    """A triangle at the vector level, canonically the sorted corner triple."""

    gens: tuple[int, int, int]

    @staticmethod
    def from_gens(a: int, b: int, c: int) -> "TriangleV":
        if a == 0 or b == 0 or c == 0 or len({a, b, c}) != 3 or a ^ b ^ c == 0:
            raise ValueError(f"generators ({a}, {b}, {c}) are not independent")
        x, y, z = sorted((a, b, c))
        return TriangleV((x, y, z))

    @property
    def corners(self) -> tuple[int, int, int]:
        return self.gens

    @property
    def noncorners(self) -> tuple[int, int, int]:
        a, b, c = self.gens
        return (a ^ b, b ^ c, c ^ a)

    @property
    def lines(self) -> tuple[Line, Line, Line]:
        a, b, c = self.gens
        return (canonical_line(a, b), canonical_line(b, c), canonical_line(c, a))


def is_triangle(l1: Line, l2: Line, l3: Line) -> bool:
    """True iff the three lines form a triangle.

    Pairwise intersections must be single distinct vectors; the
    triple intersection is then automatically trivial.
    """
    s1, s2, s3 = set(l1.pts), set(l2.pts), set(l3.pts)
    if s1 == s2 or s2 == s3 or s1 == s3:
        return False
    p12, p23, p31 = s1 & s2, s2 & s3, s3 & s1
    if len(p12) != 1 or len(p23) != 1 or len(p31) != 1:
        return False
    return len(p12 | p23 | p31) == 3


def gamma(ctx: FieldCtx, k: int) -> tuple[int, ...]:
    """Closure of k under negation and Zech, sorted.

    Size 6 whenever 3k != 0 mod 2^n - 1; the degenerate 3k = 0 case
    (even n only) collapses to {k, -k}.
    """
    M = ctx.order
    k %= M
    if k == 0:
        raise ValueError("gamma undefined at 0")
    z = ctx.zech(k)
    zm = ctx.zech(M - k)
    return tuple(sorted({k, z, zm, (M - zm) % M, (M - z) % M, M - k}))


def cyclotomic_class(n: int, k: int) -> tuple[int, ...]:
    """Orbit of k under doubling mod 2^n - 1, sorted."""
    M = (1 << n) - 1
    return tuple(sorted({(k << j) % M for j in range(n)}))


def cy_gamma(ctx: FieldCtx, k: int) -> tuple[int, ...]:
    """Union of the 2-cyclotomic classes of gamma(k)'s elements."""
    out: set[int] = set()
    for s in gamma(ctx, k):
        out.update(cyclotomic_class(ctx.n, s))
    return tuple(sorted(out))


def gamma_key(ctx: FieldCtx, k: int) -> int:
    return gamma(ctx, k)[0]


def cy_gamma_key(ctx: FieldCtx, k: int) -> int:
    return cy_gamma(ctx, k)[0]


def orbit_key_of_line(ctx: FieldCtx, line: Line) -> int:
    """Canonical key (min of the gamma-set) of the line's orbit.

    Dividing by an endpoint lands a representative {1, xi^k, xi^Z(k)}
    containing 1; the key is constant across the orbit.
    """
    x, y = line.pts[0], line.pts[1]
    k = (ctx.log(y) - ctx.log(x)) % ctx.order
    return gamma(ctx, k)[0]


def is_triangle_orbit(ctx: FieldCtx, k1: int, k2: int, k3: int) -> bool:
    """Do the three (distinct) orbits assemble into triangles?

    True iff s1 + s2 + s3 = 0 for some si in gamma(ki); s3 is forced
    by (s1, s2), so at most 36 combinations are checked.
    """
    g1, g2, g3 = gamma(ctx, k1), gamma(ctx, k2), gamma(ctx, k3)
    if g1[0] == g2[0] or g2[0] == g3[0] or g1[0] == g3[0]:
        raise ValueError("orbit keys must be pairwise distinct "
                         f"(got {g1[0]}, {g2[0]}, {g3[0]})")
    M = ctx.order
    set3 = set(g3)
    for s1 in g1:
        for s2 in g2:
            if (-s1 - s2) % M in set3:
                return True
    return False


def closure_items(key: np.ndarray, inside: np.ndarray, size: int):
    """Items of the residues ``inside`` by sorting their keys: the distinct
    keys, residue -> item index (-1 outside) and each item's residues
    ascending, as an (items, size) array."""
    keys = np.unique(key[inside])
    owner = np.searchsorted(keys, key[inside])
    item_of = np.full(key.size, -1, dtype=np.int32)    # item indices, like residues, fit int32
    item_of[inside] = owner
    members = np.flatnonzero(inside)[np.argsort(owner, kind="stable")]
    return keys, item_of, members.reshape(-1, size)


def item_triples(M: int, item_of: np.ndarray, first: np.ndarray,
                 second: np.ndarray, a: int, partners: np.ndarray):
    """Item a's triples (a, p, c), p from the ascending ``partners`` and
    c > p, in (p, c) order, as arrays p, c, s1, s2 with (s1, s2) the
    first witness in the (partner, x, y) C order of the block where
    ``first[a]`` (s1) and ``second[partners]`` (s2) broadcast; s3 =
    -s1 - s2 lies in item ``item_of[s3]`` (-1 outside the problem).
    Each (partner, third) pair keeps its first hit by ``np.unique``.
    """
    s1, s2 = first[a], second[partners]
    third = item_of[(-s1 - s2) % M]
    block = third[0].size
    hit = np.flatnonzero(third > partners[:, None, None])
    p = partners[hit // block]
    c = third.ravel()[hit]
    _, at = np.unique(p * len(first) + c, return_index=True)
    hit = hit[at]
    # s1 and s2 spread over the cells; s1 repeats with every partner
    x = (s1 + 0 * s2[0]).ravel()[hit % block]
    y = (s2 + 0 * s1).ravel()[hit]
    return p[at], c[at], x, y


def _rank_gf2(vectors) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def validate_spread(groups, m: int, n: int) -> None:
    """Raise unless the groups partition GF(2)^n \\ {0} into m-subspaces,
    one group at a time: its size, distinctness, range, overlap with the
    earlier groups and GF(2) rank; the cover is checked last."""
    size = (1 << m) - 1
    seen = np.zeros(1 << n, dtype=bool)
    total = 0
    for i, g in enumerate(groups):
        arr = np.asarray(g, dtype=np.int64)
        if arr.size != size or np.unique(arr).size != size:
            raise ValueError(f"group {i} is not {size} distinct vectors")
        if arr.min() < 1 or arr.max() >= (1 << n):
            raise ValueError(f"group {i} has out-of-range vectors")
        if seen[arr].any():
            raise ValueError(f"group {i} overlaps an earlier group")
        seen[arr] = True
        total += arr.size
        if _rank_gf2(arr.tolist()) != m:
            raise ValueError(f"group {i} does not span an {m}-dimensional subspace")
    if total != (1 << n) - 1:
        raise ValueError("groups do not cover all nonzero vectors")


def line_key_prefix(n: int, limit: int | None = None) -> np.ndarray:
    """The ``limit`` smallest line keys (x << n) | y of GF(2)^n (all of
    them for None), ascending, built one smallest point x at a time."""
    limit = (1 << 2 * n) if limit is None else limit
    keys, have = [np.empty(0, dtype=np.int64)], 0
    for x in range(1, 1 << n):
        if have >= limit:
            break
        y = np.arange(x + 1, 1 << n, dtype=np.int64)
        keys.append((x << n) | y[(x ^ y) > y][:limit - have])
        have += keys[-1].size
    return np.concatenate(keys)


def searched_uncovered(tri, n: int, groups=None, limit: int = 10) -> list:
    """The first ``limit`` lines outside the groups that no triangle of
    ``tri`` covers, as (lo, mid, hi) tuples in ascending key order.

    One binary search per line of a prefix of all lines in the sorted
    distinct line keys of the corners.  At most as many of the smallest
    lines are covered as there are distinct keys, so the prefix that
    also holds every group line and ``limit`` more lines holds the
    witnesses.
    """
    tri = np.asarray(tri, dtype=np.int64)
    sides = [np.sort(np.column_stack([p, q, p ^ q]), axis=1)
             for p, q in ((tri[:, 0], tri[:, 1]), (tri[:, 1], tri[:, 2]),
                          (tri[:, 0], tri[:, 2]))]
    have = np.sort(np.concatenate([(s[:, 0] << n) | s[:, 1] for s in sides]))
    have = have[np.diff(have, prepend=-1) != 0]
    gid = np.arange(1 << n)    # no groups: every vector its own
    internal = 0
    if groups is not None:
        for i, g in enumerate(np.asarray(groups).tolist()):
            gid[g] = -1 - i
            internal += len(g) * (len(g) - 1) // 6
    wanted = line_key_prefix(n, have.size + internal + limit)
    if have.size:
        pos = np.minimum(np.searchsorted(have, wanted), have.size - 1)
        wanted = wanted[have[pos] != wanted]
    lo, mid = wanted >> n, wanted & ((1 << n) - 1)
    keep = gid[lo] != gid[mid]
    return [(a, b, a ^ b) for a, b in zip(lo[keep][:limit].tolist(),
                                          mid[keep][:limit].tolist())]
