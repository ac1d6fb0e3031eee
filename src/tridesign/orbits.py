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
``gamma_rows`` computes the gamma-sets of given residues from the Zech
table; no table of every residue's gamma-set is kept (the searches
take the gamma key of every residue as one int32 running minimum).

Certificates are the compact generator-exponent encodings of those
partitions.  Every certificate answers ``reps``, the partition's Singer
reps (a Frobenius certificate unfolds its pairs by the squaring map);
``expand_certificate`` turns them back into full designs and re-checks
the orbit structure while doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import (MAX_MATERIALIZED_TRIANGLES, Design, Gdd,
                      distinct_row_count)
from .gf2n import MAX_DEGREE, FieldCtx, build_field
from .lines import desarguesian_spread


class OrbitCollisionError(ValueError):
    pass


def gamma_rows(ctx: FieldCtx, k) -> np.ndarray:
    """(len(k), 6) array: row i is gamma(k[i]) sorted, for residues k in
    [0, 2^n - 1).

    A degenerate row (3k = 0, even n only) keeps its repeats,
    [k, k, k, -k, -k, -k], and a row of k = 0 is zeros (gamma is
    undefined at 0).
    """
    M, z = ctx.order, ctx.zech_np
    k = np.asarray(k, dtype=np.int64)
    zk, zm = z[k], z[-k % M]
    rows = np.sort(np.column_stack([k, zk, zm, M - zm, M - zk, M - k]), axis=1)
    rows[k == 0] = 0
    return rows


def cyclotomic_class_sizes(n: int, r) -> np.ndarray:
    """Size of the 2-cyclotomic class of each residue r mod 2^n - 1.

    The size divides every d | n with 2^d r = r, that is with r a
    multiple of (2^n - 1) / (2^d - 1) (r in the subfield GF(2^d)), and
    is the least such d; so one modulo per divisor gives it, with no
    doubling walk.  Sizes come in the residues' dtype: int32 residues
    stay int32, any other input is taken as int64.
    """
    M = (1 << n) - 1
    r = np.asarray(r)
    r = r if r.dtype == np.int32 else r.astype(np.int64, copy=False)
    size = np.full(r.shape, n, dtype=r.dtype)
    for d in range(n - 1, 0, -1):   # the least divisor is written last
        if n % d == 0:
            size[r % (M // ((1 << d) - 1)) == 0] = d
    return size


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

    @property
    def reps(self) -> tuple[tuple[int, int], ...]:
        """The Singer reps (2^j a, -2^j b) mod 2^n - 1 of the pairs, in
        pair order, j below each pair's cyclotomic class size, so each
        line orbit is produced exactly once.  A pair whose residues a,
        -b and a + b lie in classes of different sizes is refused."""
        M = (1 << self.n) - 1
        res = np.array([(a % M, -b % M, (a + b) % M) for a, b in self.pairs],
                       dtype=np.int64).reshape(-1, 3)
        sizes = cyclotomic_class_sizes(self.n, res)
        bad = np.flatnonzero((sizes != sizes[:, :1]).any(axis=1))
        if bad.size:
            (a, b), (t, tb, tc) = self.pairs[bad[0]], sizes[bad[0]].tolist()
            raise OrbitCollisionError(
                f"pair ({a},{b}): class sizes differ ({t},{tb},{tc})")
        # pair i sweeps j = 0 .. t_i - 1, pairs in their given order
        t = sizes[:, 0]
        pair = np.repeat(np.arange(len(res)), t)
        j = np.arange(pair.size) - np.repeat(np.cumsum(t) - t, t)
        a = (res[pair, 0] << j) % M
        b = (res[pair, 1] << j) % M
        return tuple(zip(a.tolist(), b.tolist()))

    def to_json_dict(self) -> dict:
        return {"kind": "frobenius", "n": self.n, "m": 1,
                "poly": hex(self.poly), "pairs": [list(p) for p in self.pairs]}


def _json_int(v, what: str) -> int:
    # JSON true/false load as bool, an int subclass; they are no integers
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"malformed certificate entry: {what} {v!r} is not an integer")


def _json_pairs(rows, what: str) -> tuple[tuple[int, int], ...]:
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError(f"malformed certificate entry: {what} row {k} {row!r} "
                             "is not a pair")
    return tuple((_json_int(i, what), _json_int(j, what)) for i, j in rows)


def certificate_from_json_dict(d: dict) -> OrbitCertificate | FrobeniusCertificate:
    """``n``, ``m`` and the rep or pair entries must be JSON integers,
    ``poly`` one or a hex string."""
    if not isinstance(d, dict):
        raise ValueError("certificate must be a JSON object, not a "
                         f"{type(d).__name__}")
    try:
        kind = d["kind"]
        poly = d["poly"]
        try:
            poly = int(poly, 16) if isinstance(poly, str) else _json_int(poly, "poly")
        except ValueError:
            raise ValueError(f"malformed certificate entry: poly {poly!r} "
                             "is not an integer") from None
        n = _json_int(d["n"], "n")
        if kind == "singer":
            return OrbitCertificate(n=n, m=_json_int(d.get("m", 1), "m"), poly=poly,
                                    reps=_json_pairs(d["reps"], "reps"))
        if kind == "frobenius":
            if _json_int(d.get("m", 1), "m") != 1:
                raise ValueError(f"frobenius certificate m {d['m']} is not 1")
            return FrobeniusCertificate(n=n, poly=poly,
                                        pairs=_json_pairs(d["pairs"], "pairs"))
    except KeyError as e:
        raise ValueError(f"certificate has no {e.args[0]!r} entry") from None
    except TypeError as e:
        raise ValueError(f"malformed certificate entry: {e}") from None
    raise ValueError(f"unknown certificate kind {kind!r}")


def check_admissible(n: int, m: int) -> None:
    """Refuse (n, m) unless m divides n and 6 divides n - m, the
    conditions for a Singer-invariant (n, m) design to exist."""
    if m < 1 or n % m:
        raise ValueError(f"group dimension {m} must divide {n}")
    if (n - m) % 6:
        raise ValueError(f"(n={n}, m={m}) rejected: n - m = {n - m} is not "
                         "divisible by 6, no such invariant design exists")


def exponent_universe(M: int, m: int) -> np.ndarray:
    """Residues mod M = 2^n - 1 off the spread of m-dimensional groups,
    i.e. not multiples of M / (2^m - 1); for m = 1 all but 0."""
    return np.arange(M, dtype=np.int32) % (M // ((1 << m) - 1)) != 0


def _rep_gamma_rows(ctx: FieldCtx, reps) -> np.ndarray:
    """(R, 3, 6) ``gamma_rows`` of the line residues i, j, j - i of the
    reps (i, j); the field's whole gamma table is not built."""
    r = np.asarray(reps, dtype=np.int64).reshape(-1, 2)
    lines = np.column_stack([r, r[:, 1] - r[:, 0]]) % ctx.order
    if not lines.all():
        i, j = r[np.argmin(lines.all(axis=1))].tolist()
        raise ValueError(f"rep ({i},{j}): a line has residue 0 (gamma undefined)")
    return gamma_rows(ctx, lines.ravel()).reshape(-1, 3, 6)


def orbit_cover_counts(ctx: FieldCtx, reps) -> np.ndarray:
    """How often each residue mod 2^n - 1 lies in the gamma-sets of the
    three lines of the reps (i, j): residues i, j and j - i.

    The reps' 18-sets partition a set of residues exactly when that set
    counts 1 and every other residue 0.  A degenerate gamma-set counts
    each of its residues three times, so it never passes for a part.
    A rep with a repeated corner (a line residue 0) is refused.
    """
    return np.bincount(_rep_gamma_rows(ctx, reps).ravel(), minlength=ctx.order)


def expand_certificate(cert: OrbitCertificate | FrobeniusCertificate) -> Design | Gdd:
    """Expand a certificate into the full design it encodes, a GDD over
    the spread of m-dimensional groups when m > 1.

    Every Singer rep of the certificate (``cert.reps``) is scaled
    through all 2^n - 1 field elements; each orbit must contribute
    exactly that many distinct triangles, and no line of a rep may sit
    inside a spread group.  Violations raise rather than silently
    merging.
    """
    n, m = cert.n, cert.m
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} out of range 1..{MAX_DEGREE}")
    check_admissible(n, m)
    M = (1 << n) - 1
    reps = cert.reps
    if len(reps) * M > MAX_MATERIALIZED_TRIANGLES:
        raise ValueError(
            f"expansion of {len(reps)} orbits over 2^{n}-1 multipliers "
            f"({len(reps) * M} triangles) is too large to materialize; "
            "verify at the orbit level instead")
    ctx = build_field(n, cert.poly)
    reps = [(i % M, j % M) for i, j in reps]
    provenance = f"expand n={n} m={m} ({len(reps)} reps)"

    counts = orbit_cover_counts(ctx, reps)
    for bad, error, fault in (
            ((counts > 0) & ~exponent_universe(M, m), ValueError,
             "group line in triangle"),
            (counts > 1, OrbitCollisionError, "orbit collision on")):
        if bad.any():   # name the first rep with a line on a bad residue
            rows = _rep_gamma_rows(ctx, reps)
            r, line = divmod(int(np.argmax(bad[rows].any(axis=2))), 3)
            i, j = reps[r]
            raise error(f"rep ({i},{j}): {fault} key {rows[r, line, 0]}")

    # rep (i, j) scaled by xi^k is the row (xi^k, xi^(k+i), xi^(k+j)): the
    # orbit's rows read three windows of the doubled exp table.  Corners
    # lie below 2^MAX_DEGREE, so the rows Design sorts are int32.
    exp2 = np.concatenate([ctx.exp_np, ctx.exp_np]).astype(np.int32)
    tri = np.empty((len(reps) * M, 3), dtype=np.int32)
    for r, (i, j) in enumerate(reps):
        rows = tri[r * M:(r + 1) * M]
        rows[:, 0] = exp2[:M]
        rows[:, 1] = exp2[i:i + M]
        rows[:, 2] = exp2[j:j + M]

    if m > 1:
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
