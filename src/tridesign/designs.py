"""Triangle designs, group-divisible triangle designs, and their
construction-agnostic verifiers.

A design is stored as an (T, 3) C-contiguous int64 array of corner
triples (each row sorted ascending; rows sorted lexicographically).
That order comes from one sort of packed int64 row keys
(``_normalize_triangles``), and it is the only whole-design sort:
repeated triangles are then adjacent rows (``distinct_row_count``),
which is how expansions test that their orbits are distinct.

The hot kernels do not work on the strided columns of that array.
They copy the three columns once into one contiguous (3, T) block in
the narrowest dtype that holds the values, and make every later pass
over its rows.  For the verifiers that dtype is the line-key dtype
``key_dtype(n)``: int32 while a key fits (2n <= 31), int64 above.  The
block is released as soon as the keys are built.

Verifiers never trust construction metadata: they recompute every
line key from the corner vectors, sort the 3T keys once, and check
exact coverage.  The keys are laid out side-major: key s*T + t is side
s of triangle t, the sides in ``_SIDES`` order.  Multiply covered
lines are adjacent equal keys.  Uncovered lines are found from the
sorted keys by ``lines.uncovered_line_keys``: it counts the covered
lines per smallest point against a closed form and lists lines only
at the points that lack some.  So refusing a design costs what
accepting it costs: at n = 13, frob13 less one row is refused in
0.22 s and accepted whole in 0.21 s, both at a 99.5 MiB traced peak.
Each witness list holds the first MAX_WITNESSES lines in ascending
key order.

The counting identities enforced here: a design over GF(2)^n has
(2^n-1)(2^n-2)/18 triangles covering the (2^n-1)(2^n-2)/6 lines; an
(n,m)-GDD has (2^n-1)(2^n-2^m)/18 triangles covering exactly the
lines not inside a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lines import (group_ids, key_dtype, key_rows, line_count, line_keys,
                    spread_rows, uncovered_line_keys, validate_spread)

MAX_WITNESSES = 10
# Largest triangle count a construction or an expansion builds in memory
# (a (T, 3) int64 array of 50M rows is 1.2 GB, before it is sorted).
MAX_MATERIALIZED_TRIANGLES = 50_000_000


def _sort_rows(cols: np.ndarray) -> None:
    """Sort each column of a (3, T) block in place: afterwards
    cols[0] <= cols[1] <= cols[2] elementwise.  A three-element min/max
    network with one spare row, so no element is copied."""
    a, b, c = cols
    t = np.minimum(a, b)
    np.maximum(a, b, out=b)
    np.minimum(b, c, out=a)
    np.maximum(b, c, out=c)     # the largest
    np.maximum(t, a, out=b)     # the median
    np.minimum(t, a, out=a)     # the smallest


def _normalize_triangles(tri: np.ndarray) -> np.ndarray:
    """Canonical form of a (T, 3) corner array: each row ascending, rows
    in lexicographic order, as a new C-contiguous int64 array.

    The columns are copied once into a (3, T) block, int32 when every
    value lies in [0, 2^31), and each row is sorted there.  When every
    value fits in w <= 21 bits, a row (a, b, c) packs into one int64
    key (a << 2w) | (b << w) | c whose order is the row order, so one
    in-place sort of T keys replaces a three-column lexsort and its
    gather; the block is released and the keys are unpacked into the
    output.  Keys that already ascend, as in a design file read back,
    skip the sort.  Wider, negative and empty inputs take the lexsort
    path.  All paths return the same array.
    """
    tri = np.asarray(tri)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ValueError("triangle array must have shape (T, 3)")
    if not np.can_cast(tri.dtype, np.int64):
        tri = tri.astype(np.int64)
    T = tri.shape[0]
    lo, hi = (int(tri.min()), int(tri.max())) if T else (0, 0)
    cols = np.empty((3, T), dtype=np.int32 if 0 <= lo and hi < 1 << 31 else np.int64)
    cols[...] = tri.T
    _sort_rows(cols)
    bits = hi.bit_length()
    if T == 0 or 3 * bits > 63 or lo < 0:
        order = np.lexsort(cols[::-1])
        return np.ascontiguousarray(cols[:, order].T, dtype=np.int64)
    key = cols[0].astype(np.int64)
    key <<= bits
    key |= cols[1]
    key <<= bits
    key |= cols[2]
    del cols
    if not (key[1:] >= key[:-1]).all():
        key.sort()
    out = np.empty((T, 3), dtype=np.int64)
    mask = (1 << bits) - 1
    np.bitwise_and(key, mask, out=out[:, 2])
    key >>= bits
    np.bitwise_and(key, mask, out=out[:, 1])
    key >>= bits
    out[:, 0] = key
    return out


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
    groups: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.groups = spread_rows(self.groups)
        super().__post_init__()

    @property
    def kind(self) -> str:
        return "gdd"


def expected_triangle_count(n: int, m: int = 1) -> int:
    """Triangles needed to cover every line outside the groups."""
    N = (1 << n) - 1
    return N * ((1 << n) - (1 << m)) // 18


def _triangle_columns(tri: np.ndarray, n: int) -> np.ndarray:
    """The rows of a design's ``tri`` as one (3, T) block in
    ``key_dtype(n)``, once every row is checked to be a triangle of
    GF(2)^n; raises ValueError naming the first row that is not.

    Rows ascend (a <= b <= c), so a row is malformed iff a <= 0, a == b,
    b == c, a ^ b ^ c == 0 or c >= 2^n.  Values outside [1, 2^n) would
    not survive the narrowing copy, so they are found on ``tri`` itself.
    """
    cols = np.empty((3, tri.shape[0]), dtype=key_dtype(n))
    exact = tri.size == 0 or (tri.min() > 0 and tri.max() < 1 << n)
    if exact:
        cols[...] = tri.T
    a, b, c = cols if exact else tri.T
    bad = a <= 0
    bad |= a == b
    bad |= b == c
    x = a ^ b
    x ^= c
    bad |= x == 0
    bad |= c >= 1 << n
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"malformed triangle at row {i}: {tuple(tri[i].tolist())}")
    return cols


# The corner pairs spanning a triangle's lines <a,b>, <b,c>, <a,c>: key
# s*T + t of the 3T line keys is side s of triangle t.
_SIDES = ((0, 1), (1, 2), (0, 2))


def _line_keys(tri: np.ndarray, n: int) -> np.ndarray:
    """Line key of each of the 3T lines of the ascending-row triangles
    ``tri`` (any (T, 3) array, e.g. the transposed column block), side
    by side, in ``key_dtype(n)``."""
    T = tri.shape[0]
    keys = np.empty(3 * T, dtype=key_dtype(n))
    for s, (i, j) in enumerate(_SIDES):
        line_keys(tri[:, i], tri[:, j], n, out=keys[s * T:(s + 1) * T])
    return keys


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending ``keys``: those unequal to
    their predecessor.  (``np.unique`` hashes them again: on 2.8M keys,
    60 times the cost of one sort.)"""
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


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


def _verify_cover(d: Design, m: int, groups: np.ndarray | None) -> CoverReport:
    """Exact cover of the lines of GF(2)^n outside the groups of the
    spread ``groups``, after the structural and spread checks.

    ``groups`` None is the plain design: every vector its own group, so
    no line lies inside one and no group lookup is made.
    """
    n = d.n
    cols = _triangle_columns(d.tri, n)
    gid, internal, inside = None, 0, None
    if groups is not None:
        validate_spread(groups, n)
        G, q = groups.shape
        if q.bit_length() != m:
            raise ValueError(f"spread dimension {q.bit_length()} != declared m={m}")
        gid = group_ids(groups, n)
        internal = G * q * (q - 1) // 6
        # a line lies inside a group iff two of its points do
        g = [gid[col] for col in cols]
        inside = np.concatenate([g[i] == g[j] for i, j in _SIDES])
        del g
    keys = _line_keys(cols.T, n)
    del cols
    hits = _distinct(np.sort(keys[inside])) if inside is not None else keys[:0]
    del inside
    keys.sort()
    dup_mask = np.zeros(keys.shape, dtype=bool)
    np.equal(keys[1:], keys[:-1], out=dup_mask[1:])
    repeats = keys[dup_mask]
    distinct = keys.size - repeats.size
    del dup_mask
    uncovered = _describe_keys(uncovered_line_keys(
        keys, n, MAX_WITNESSES, (repeats, hits), groups, gid), n)
    dups = _distinct(repeats)
    outside_total = line_count(n) - internal
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
    return _verify_cover(d, 1, None)


def verify_gdd(g: Gdd) -> CoverReport:
    """Check the group-divisibility contract.

    (i) groups form a valid spread, (ii) no triangle line lies inside
    a group, (iii) lines outside groups are covered exactly once,
    (iv) the triangle count matches the counting identity.
    """
    return _verify_cover(g, g.m, g.groups)


def _incidence_counts(tri: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector counts of corner and of non-corner appearances: one
    ``bincount`` over all corners and one per side's XOR, summed into
    the 2^n accumulators."""
    tri = np.asarray(tri, dtype=np.int64)
    corner = np.bincount(tri.ravel(), minlength=1 << n)
    if corner.size > 1 << n:
        raise ValueError("triangle vector out of range for declared dimension")
    noncorner = np.zeros_like(corner)
    side = np.empty(tri.shape[0], dtype=np.int64)
    for i, j in _SIDES:
        np.bitwise_xor(tri[:, i], tri[:, j], out=side)
        noncorner += np.bincount(side, minlength=1 << n)
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


def charge_ledger(tri: np.ndarray, n: int) -> np.ndarray:
    """Per-vector charge, as a (2^n,) int64 array: +1 per corner
    appearance, -1 per non-corner appearance.

    For an exact cover, an all-zero ledger is equivalent to balance:
    2*corners + noncorners at a vector is the number of lines through
    it, a constant.
    """
    corner, noncorner = _incidence_counts(tri, n)
    return corner - noncorner
