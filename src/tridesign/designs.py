"""Triangle designs, group-divisible triangle designs, and their
construction-agnostic verifiers.

A design is stored as an (T, 3) array of corner triples (each row
sorted ascending; rows sorted lexicographically).  That order comes
from one sort of packed int64 row keys (``_normalize_triangles``), and
it is the only whole-design sort: repeated triangles are then adjacent
rows (``distinct_row_count``), which is how expansions test that their
orbits are distinct.

Verifiers never trust construction metadata: they recompute every
line key from the corner vectors, sort the 3T keys once, and check
exact coverage.  Multiply covered lines are adjacent equal keys;
uncovered lines are found by binary search of the ascending list of
lines in the sorted keys, so refusing a design costs about as much as
accepting one.  That list stops as soon as it must hold the first
MAX_WITNESSES uncovered lines, so it never outgrows the design.  Each
witness list holds the first MAX_WITNESSES lines in ascending key
order.

The counting identities enforced here: a design over GF(2)^n has
(2^n-1)(2^n-2)/18 triangles covering the (2^n-1)(2^n-2)/6 lines; an
(n,m)-GDD has (2^n-1)(2^n-2^m)/18 triangles covering exactly the
lines not inside a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lines import (Spread, enumerate_line_keys_np, key_rows, line_count,
                    line_keys, validate_spread)

MAX_WITNESSES = 10
# Largest triangle count a construction or an expansion builds in memory
# (a (T, 3) int64 array of 50M rows is 1.2 GB, before it is sorted).
MAX_MATERIALIZED_TRIANGLES = 50_000_000


def _normalize_triangles(tri: np.ndarray) -> np.ndarray:
    """Canonical form of a (T, 3) corner array: each row ascending, rows
    in lexicographic order.

    When every value fits in w <= 21 bits, a row (a, b, c) packs into
    one int64 key (a << 2w) | (b << w) | c whose order is the row order,
    so one in-place sort of T keys replaces a three-column lexsort and
    its gather; the keys are unpacked back into the row-sorted copy.
    Keys that already ascend, as in a design file read back, skip the
    sort and the unpacking.  Wider, negative and empty inputs take the
    lexsort path.  All paths return the same array.
    """
    tri = np.asarray(tri, dtype=np.int64)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ValueError("triangle array must have shape (T, 3)")
    tri = np.sort(tri, axis=1)
    bits = int(tri[:, 2].max()).bit_length() if tri.shape[0] else 0
    if tri.shape[0] == 0 or 3 * bits > 63 or tri[:, 0].min() < 0:
        order = np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))
        return tri[order]
    key = tri[:, 0] << (2 * bits)
    key |= tri[:, 1] << bits
    key |= tri[:, 2]
    if (key[1:] >= key[:-1]).all():
        return tri
    key.sort()
    mask = (1 << bits) - 1
    np.bitwise_and(key, mask, out=tri[:, 2])
    key >>= bits
    np.bitwise_and(key, mask, out=tri[:, 1])
    key >>= bits
    tri[:, 0] = key
    return tri


def distinct_row_count(tri: np.ndarray) -> int:
    """Number of distinct rows of a normalized (T, 3) triangle array.

    Equal rows are adjacent after normalization, so this is T minus the
    number of rows equal to their predecessor; no second sort is needed.
    """
    if tri.shape[0] == 0:
        return 0
    same = tri[1:, 0] == tri[:-1, 0]
    same &= tri[1:, 1] == tri[:-1, 1]
    same &= tri[1:, 2] == tri[:-1, 2]
    return int(tri.shape[0] - np.count_nonzero(same))


@dataclass
class Design:
    """A set of triangles over GF(2)^n.

    ``poly`` records the ambient field polynomial used by
    constructions and the file format; the triangle data itself is
    polynomial-agnostic.
    """

    n: int
    poly: int
    tri: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.tri = _normalize_triangles(self.tri)

    @property
    def triangle_count(self) -> int:
        return int(self.tri.shape[0])

    @property
    def kind(self) -> str:
        return "design"


@dataclass
class Gdd(Design):
    """A design plus a spread of m-dimensional groups."""

    m: int = 0
    groups: Spread = field(default=None)  # type: ignore[assignment]

    @property
    def kind(self) -> str:
        return "gdd"


def expected_triangle_count(n: int, m: int = 1) -> int:
    """Triangles needed to cover every line outside the groups."""
    N = (1 << n) - 1
    return N * ((1 << n) - (1 << m)) // 18


def _structural_check(tri: np.ndarray, n: int) -> None:
    if tri.shape[0] == 0:
        return
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    bad = (a <= 0) | (b <= 0) | (c <= 0) | (a == b) | (b == c) | (a == c) \
        | ((a ^ b ^ c) == 0) | (c >= (1 << n))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"malformed triangle at row {i}: {tuple(tri[i].tolist())}")


# The corner pairs spanning a triangle's lines <a,b>, <b,c>, <a,c>: line
# s of triangle t has index 3t + s among the 3T line keys.
_SIDES = ((0, 1), (1, 2), (0, 2))


_KEY_CHUNK = 1 << 20    # triangles per block: bounds the temporaries


def _line_keys(tri: np.ndarray, n: int) -> np.ndarray:
    """Line key of each of the 3T lines, in ``_SIDES`` order per triangle."""
    keys = np.empty(3 * tri.shape[0], dtype=np.int64)
    for lo in range(0, tri.shape[0], _KEY_CHUNK):
        block = tri[lo:lo + _KEY_CHUNK]
        out = keys[3 * lo:3 * (lo + block.shape[0])]
        for s, (i, j) in enumerate(_SIDES):
            out[s::3] = line_keys(block[:, i], block[:, j], n)
    return keys


def _describe_keys(keys: np.ndarray, n: int) -> list[tuple[int, int, int]]:
    return [tuple(r) for r in key_rows(keys[:MAX_WITNESSES], n).tolist()]


@dataclass
class CoverReport:
    """Result of an exact-cover verification."""

    ok: bool
    kind: str
    n: int
    m: int
    triangle_count: int
    expected_triangles: int
    line_total: int
    lines_seen: int
    uncovered: list = field(default_factory=list)
    multiply_covered: list = field(default_factory=list)
    group_line_hits: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "report": "cover",
            "ok": self.ok,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "triangle_count": self.triangle_count,
            "expected_triangles": self.expected_triangles,
            "line_total": self.line_total,
            "lines_seen": self.lines_seen,
            "witnesses": {
                "uncovered": [list(w) for w in self.uncovered],
                "multiply_covered": [list(w) for w in self.multiply_covered],
                "group_line_hits": [list(w) for w in self.group_line_hits],
            },
        }

    def to_text(self) -> str:
        lines = [f"{self.kind} n={self.n} m={self.m}: "
                 f"{'OK' if self.ok else 'FAIL'} "
                 f"({self.triangle_count} triangles, expected {self.expected_triangles}; "
                 f"{self.lines_seen}/{self.line_total} lines covered)"]
        for name, wit in (("uncovered", self.uncovered),
                          ("multiply covered", self.multiply_covered),
                          ("group line in triangle", self.group_line_hits)):
            if wit:
                lines.append(f"  {name} (up to {MAX_WITNESSES}): "
                             + ", ".join(str(w) for w in wit))
        return "\n".join(lines)


@dataclass
class BalanceReport:
    balanced: bool
    lam: int | None
    histogram: dict[int, int]
    expected_lambda: int | None = None
    lambda_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.balanced and self.lambda_ok is not False

    def to_json_dict(self) -> dict:
        return {
            "report": "balance",
            "ok": self.ok,
            "balanced": self.balanced,
            "lambda": self.lam,
            "expected_lambda": self.expected_lambda,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def to_text(self) -> str:
        if self.balanced:
            extra = ""
            if self.expected_lambda is not None:
                extra = f" (expected {self.expected_lambda}: " \
                        f"{'ok' if self.lambda_ok else 'MISMATCH'})"
            return f"balanced, lambda={self.lam}{extra}"
        hist = ", ".join(f"{k}x{v}" for k, v in sorted(self.histogram.items()))
        return f"unbalanced; coverage histogram: {hist}"


def _absent_keys(wanted: np.ndarray, have: np.ndarray) -> np.ndarray:
    """Keys of ascending ``wanted`` that do not occur in sorted ``have``.

    One binary search per wanted key against the already sorted line
    keys; ascending needles keep the searches cache-friendly.
    """
    if have.size == 0:
        return wanted
    pos = np.searchsorted(have, wanted)
    np.minimum(pos, have.size - 1, out=pos)
    return wanted[have[pos] != wanted]


def _verify_cover(d: Design, m: int, gid: np.ndarray | None,
                  internal: int) -> CoverReport:
    """Exact cover of the lines of GF(2)^n outside the groups of the
    vector -> group table ``gid``, ``internal`` lines lying inside them.

    ``gid`` None is the plain design: every vector its own group, so no
    line lies inside one and no group lookup is made.
    """
    n = d.n
    keys = _line_keys(d.tri, n)
    hits = np.empty(0, dtype=np.int64)
    if gid is not None:
        # a line lies inside a group iff two of its points do
        g = gid[d.tri]
        inside = np.column_stack([g[:, i] == g[:, j] for i, j in _SIDES])
        hits = np.unique(keys[inside.ravel()])
    keys.sort()
    dup_mask = np.zeros(keys.shape, dtype=bool)
    if keys.size:
        dup_mask[1:] = keys[1:] == keys[:-1]
    dups = np.unique(keys[dup_mask])
    distinct = keys.size - int(dup_mask.sum())
    outside_total = line_count(n) - internal
    uncovered: list = []
    if distinct != outside_total or hits.size:
        # At most ``distinct`` of the smallest outside lines are covered, so
        # the first MAX_WITNESSES uncovered ones lie in this prefix, which
        # also makes room for every group line it may hold.
        wanted = enumerate_line_keys_np(n, distinct + internal + MAX_WITNESSES)
        absent = _absent_keys(wanted, keys)
        if gid is not None:  # drop the group lines among them
            rows = key_rows(absent, n)
            absent = absent[gid[rows[:, 0]] != gid[rows[:, 1]]]
        uncovered = _describe_keys(absent, n)
    expected = expected_triangle_count(n, m)
    ok = (hits.size == 0 and dups.size == 0 and distinct == outside_total
          and not uncovered and d.triangle_count == expected)
    return CoverReport(ok=ok, kind="design" if gid is None else "gdd", n=n, m=m,
                       triangle_count=d.triangle_count,
                       expected_triangles=expected,
                       line_total=outside_total, lines_seen=distinct,
                       uncovered=uncovered,
                       multiply_covered=_describe_keys(dups, n),
                       group_line_hits=_describe_keys(hits, n))


def verify_design(d: Design) -> CoverReport:
    """Check that the triangles cover every line of GF(2)^n exactly once."""
    _structural_check(d.tri, d.n)
    return _verify_cover(d, 1, None, 0)


def verify_gdd(g: Gdd) -> CoverReport:
    """Check the group-divisibility contract.

    (i) groups form a valid spread, (ii) no triangle line lies inside
    a group, (iii) lines outside groups are covered exactly once,
    (iv) the triangle count matches the counting identity.
    """
    if g.m < 1:
        raise ValueError("group dimension must be >= 1")
    _structural_check(g.tri, g.n)
    validate_spread(g.groups, g.n)
    if g.groups.dim_m != g.m:
        raise ValueError(f"spread dimension {g.groups.dim_m} != declared m={g.m}")
    return _verify_cover(g, g.m, g.groups.group_id_table(g.n),
                         g.groups.internal_line_count())


def _incidence_counts(tri: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector counts of corner and of non-corner appearances."""
    tri = np.asarray(tri, dtype=np.int64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    corner = np.bincount(tri.ravel(), minlength=1 << n)
    noncorner = np.bincount(np.concatenate([a ^ b, b ^ c, a ^ c]), minlength=1 << n)
    return corner, noncorner


def coverage_counts(tri: np.ndarray, n: int) -> np.ndarray:
    """Per-vector count of triangles covering it (index = vector)."""
    corner, noncorner = _incidence_counts(tri, n)
    return corner + noncorner


def verify_balanced(t: Design) -> BalanceReport:
    """Count triangle coverage per nonzero vector; balanced iff constant.

    For a plain design the balanced count must be (2^n - 2)/3, which
    forces n odd; the report carries that cross-check.
    """
    cov = coverage_counts(t.tri, t.n)[1:]
    values, counts = np.unique(cov, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    balanced = values.size == 1
    lam = int(values[0]) if balanced else None
    expected = None
    lambda_ok = None
    if isinstance(t, Gdd):
        pass  # constancy is the whole contract for a GDD
    elif balanced:
        if t.n % 2 == 1:
            expected = ((1 << t.n) - 2) // 3
            lambda_ok = lam == expected
        else:
            lambda_ok = False  # even dimension cannot carry a balanced design
    return BalanceReport(balanced=balanced, lam=lam, histogram=hist,
                         expected_lambda=expected, lambda_ok=lambda_ok)


@dataclass
class ChargeLedger:
    """Signed corner-minus-noncorner count per vector."""

    n: int
    counts: np.ndarray

    def charge(self, v: int) -> int:
        return int(self.counts[v])

    def as_dict(self) -> dict[int, int]:
        nz = np.flatnonzero(self.counts)
        return {int(v): int(self.counts[v]) for v in nz}

    @property
    def is_zero(self) -> bool:
        return not self.counts.any()

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def charge_ledger(tri: np.ndarray, n: int) -> ChargeLedger:
    """+1 per corner appearance, -1 per non-corner appearance.

    For an exact cover, an all-zero ledger is equivalent to balance:
    2*corners + noncorners at a vector is the number of lines through
    it, a constant.
    """
    corner, noncorner = _incidence_counts(tri, n)
    return ChargeLedger(n, corner - noncorner)
