"""Exponent-level orbit machinery for designs invariant under the
multiplicative group of GF(2^n) (and optionally the squaring
automorphism).

Scaling a line <1, xi^k> by field elements sweeps a full orbit; the
exponents that reproduce the same orbit form the 6-element closure of
k under negation and the Zech logarithm:

    gamma(k) = {k, Z(k), Z(-k), -Z(-k), -Z(k), -k}      (Z = Zech)

Three orbits assemble into triangles exactly when representatives
s1 + s2 + s3 = 0 exist, so a multiplicative-invariant design is the
same thing as a partition of the exponent ring into such 18-sets.
Adding the squaring automorphism coarsens gamma-sets into unions of
2-cyclotomic classes (cy_gamma), shrinking the search by a factor n.

Certificates are the compact generator-exponent encodings of those
partitions; ``expand_certificate`` turns them back into full designs
and re-checks the orbit structure while doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design, Gdd, distinct_row_count
from .gf2n import FieldCtx, build_field
from .lines import Line, desarguesian_spread


class OrbitCollisionError(ValueError):
    pass


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
    elems = {k, z, zm, (M - zm) % M, (M - z) % M, M - k}
    return tuple(sorted(elems))


def gamma_key(ctx: FieldCtx, k: int) -> int:
    return gamma(ctx, k)[0]


def cyclotomic_class(n: int, k: int) -> tuple[int, ...]:
    """Orbit of k under doubling mod 2^n - 1, sorted."""
    M = (1 << n) - 1
    k %= M
    out = []
    v = k
    while True:
        out.append(v)
        v = (v * 2) % M
        if v == k:
            break
    return tuple(sorted(out))


def cy_gamma(ctx: FieldCtx, k: int) -> tuple[int, ...]:
    """Union of the 2-cyclotomic classes of gamma(k)'s elements."""
    out: set[int] = set()
    for s in gamma(ctx, k):
        out.update(cyclotomic_class(ctx.n, s))
    return tuple(sorted(out))


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


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCertificate:
    """Generator-exponent pairs (i, j): the triangle with corners
    (1, xi^i, xi^j), expanded by the full multiplicative group."""

    n: int
    m: int
    poly: int
    reps: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {"kind": "singer", "n": self.n, "m": self.m,
                "poly": hex(self.poly), "reps": [list(r) for r in self.reps]}


@dataclass(frozen=True)
class FrobeniusCertificate:
    """Pairs (a, b): the triangle with corners (1, xi^a, xi^-b),
    expanded by the multiplicative group and the squaring map."""

    n: int
    poly: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return 1

    def to_json_dict(self) -> dict:
        return {"kind": "frobenius", "n": self.n, "m": 1,
                "poly": hex(self.poly), "pairs": [list(p) for p in self.pairs]}


def certificate_from_json_dict(d: dict) -> OrbitCertificate | FrobeniusCertificate:
    kind = d["kind"]
    poly = d["poly"]
    poly = int(poly, 16) if isinstance(poly, str) else int(poly)
    n = int(d["n"])
    if kind == "singer":
        reps = tuple((int(i), int(j)) for i, j in d["reps"])
        return OrbitCertificate(n=n, m=int(d.get("m", 1)), poly=poly, reps=reps)
    if kind == "frobenius":
        pairs = tuple((int(a), int(b)) for a, b in d["pairs"])
        return FrobeniusCertificate(n=n, poly=poly, pairs=pairs)
    raise ValueError(f"unknown certificate kind {kind!r}")


def frobenius_reps(ctx: FieldCtx, pairs) -> list[tuple[int, int]]:
    """Normalize (a, b) pairs to Singer reps (2^j a, -2^j b).

    The squaring sweep runs over the cyclotomic class size of the
    pair, so each line orbit is produced exactly once.
    """
    M = ctx.order
    reps = []
    for a, b in pairs:
        t = len(cyclotomic_class(ctx.n, a))
        tb = len(cyclotomic_class(ctx.n, b))
        tc = len(cyclotomic_class(ctx.n, (a + b) % M))
        if not t == tb == tc:
            raise OrbitCollisionError(
                f"pair ({a},{b}): class sizes differ ({t},{tb},{tc})")
        p = 1
        for _ in range(t):
            reps.append(((a * p) % M, (-b * p) % M))
            p = (p * 2) % M
    return reps


def _rep_keys(ctx: FieldCtx, i: int, j: int) -> tuple[int, int, int]:
    return (gamma_key(ctx, i), gamma_key(ctx, j), gamma_key(ctx, j - i))


def expand_certificate(cert: OrbitCertificate | FrobeniusCertificate,
                       with_groups: bool | None = None) -> Design | Gdd:
    """Expand a certificate into the full design / GDD it encodes.

    Every generator triangle is scaled through all 2^n - 1 field
    elements; each orbit must contribute exactly that many distinct
    triangles, and no line of a representative may sit inside a
    spread group.  Violations raise rather than silently merging.
    """
    n, m = cert.n, cert.m
    if (n - m) % 6:
        raise ValueError(f"(n={n}, m={m}) rejected: n - m = {n - m} is not "
                         "divisible by 6, no such invariant design exists")
    M = (1 << n) - 1
    rep_count = len(cert.pairs) * n if isinstance(cert, FrobeniusCertificate) \
        else len(cert.reps)
    if rep_count * M > 50_000_000:
        raise ValueError(
            f"expansion of {rep_count} orbits over 2^{n}-1 multipliers "
            f"({rep_count * M} triangles) is too large to materialize; "
            "verify at the orbit level instead")
    ctx = build_field(n, cert.poly)
    if isinstance(cert, FrobeniusCertificate):
        reps = frobenius_reps(ctx, cert.pairs)
        provenance = f"expand frobenius n={n} ({len(cert.pairs)} pairs)"
    else:
        reps = [(i % M, j % M) for i, j in cert.reps]
        provenance = f"expand singer n={n} m={m} ({len(reps)} reps)"

    g = M // ((1 << m) - 1) if m > 1 else 1
    seen_keys: set[int] = set()
    for i, j in reps:
        k1, k2, k3 = _rep_keys(ctx, i, j)
        if len({k1, k2, k3}) != 3:
            raise OrbitCollisionError(
                f"rep ({i},{j}): line orbits not distinct (keys {k1},{k2},{k3})")
        for k in (k1, k2, k3):
            if m > 1 and k % g == 0:
                raise ValueError(f"rep ({i},{j}): group line in triangle (key {k})")
            if k in seen_keys:
                raise OrbitCollisionError(
                    f"rep ({i},{j}): orbit collision on key {k}")
            seen_keys.add(k)

    exp = ctx.exp_np
    blocks = []
    for i, j in reps:
        col_a = exp
        col_b = np.roll(exp, -i)
        col_c = np.roll(exp, -j)
        blocks.append(np.column_stack([col_a, col_b, col_c]))
    tri = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    del blocks  # would double the footprint while the rows are sorted

    if with_groups is None:
        with_groups = m > 1
    if with_groups:
        d = Gdd(n=n, poly=ctx.poly, tri=tri, m=m,
                groups=desarguesian_spread(ctx, m), provenance=provenance)
    else:
        d = Design(n=n, poly=ctx.poly, tri=tri, provenance=provenance)
    distinct = distinct_row_count(d.tri)
    if distinct != len(reps) * M:
        raise OrbitCollisionError(
            f"orbit collision: {len(reps)} orbits yield {distinct} distinct "
            f"triangles, expected {len(reps) * M}")
    return d
