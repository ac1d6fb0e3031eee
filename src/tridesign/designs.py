"""Triangle designs, group-divisible triangle designs, and their
construction-agnostic verifiers.

A design is stored as an (T, 3) C-contiguous int32 array of corner
triples (each row sorted ascending; rows sorted lexicographically).
Every vector of GF(2)^n with n <= 31 fits an int32, so a corner
outside the int32 range is refused, its row named, before any row is
stored.  The order comes from one sort of packed int64 row keys
(``_normalize_triangles``), and it is the only whole-design sort:
repeated triangles are then adjacent rows (``distinct_row_count``),
which is how expansions test that their orbits are distinct.

The hot kernels make no pass over that whole array: at n = 13 it is
45 MB, and a pass over it runs at DRAM speed.  They share one
row-block walk (``_row_blocks``): it copies ``_BLOCK_ROWS`` rows at a
time into one small contiguous (3, B) scratch block, int32 where the
values allow it, and the kernel makes its passes there, in cache.  For
the verifiers that dtype is the line-key dtype ``key_dtype(n)``: int32
while a key fits (2n <= 31), int64 above.
Only the outputs are full-size: the 3T line keys, the canonical form
(whose row keys are packed and sorted in its own buffer), the
incidence counts.

Verifiers never trust construction metadata: they recompute every
line key from the corner vectors, sort the 3T keys once, and check
exact coverage.  The keys are laid out side-major: key s*T + t is side
s of triangle t, the sides in ``_SIDES`` order.  Multiply covered
lines are adjacent equal keys.  Uncovered lines are found from the
sorted keys by ``lines.uncovered_line_keys``: it counts the covered
lines per smallest point against a closed form and lists lines only
at the points that lack some.  So refusing a design costs what
accepting it costs: at n = 13, frob13 less one row is refused in
0.13-0.15 s and accepted whole in 0.145 s, both at a 53.3 MiB traced
peak (the line keys and their repeat mask).
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
# (a (T, 3) int32 array of 50M rows is 600 MB).
MAX_MATERIALIZED_TRIANGLES = 50_000_000


# Rows per block of the row-block walk (``_row_blocks``): a (3, B) block
# in int64 is 768 KiB, so it and the few (B,) temporaries a kernel makes
# over it stay in a 2 MiB L2 cache, while a pass over a full (T, 3)
# array of tens of MB runs at DRAM speed.
_BLOCK_ROWS = 1 << 15


def _row_blocks(tri: np.ndarray, dtype, rows: int | None = None):
    """Walk the rows of a (T, 3) array in blocks of ``_BLOCK_ROWS`` (or
    ``rows``) rows: yield (lo, cols), cols the block's rows lo, lo + 1, ...
    as a (3, b) array in ``dtype``.  Every block is copied once into the
    same scratch array, so a block is valid only until the next step."""
    T = tri.shape[0]
    step = rows or _BLOCK_ROWS
    scratch = np.empty((3, min(T, step)), dtype=dtype)
    for lo in range(0, T, step):
        cols = scratch[:, :min(step, T - lo)]
        cols[...] = tri[lo:lo + step].T
        yield lo, cols


def _sort_rows(cols: np.ndarray) -> None:
    """Sort each column of a (3, B) block in place: afterwards
    cols[0] <= cols[1] <= cols[2] elementwise.  A three-element min/max
    network with one spare row, so no element is copied."""
    a, b, c = cols
    t = np.minimum(a, b)
    np.maximum(a, b, out=b)
    np.minimum(b, c, out=a)
    np.maximum(b, c, out=c)     # the largest
    np.maximum(t, a, out=b)     # the median
    np.minimum(t, a, out=a)     # the smallest


def _value_range(tri: np.ndarray) -> tuple[int, int]:
    """(min, max) of the values of ``tri``, (0, 0) when it is empty;
    ValueError naming the first row with a value outside the int32 range."""
    lo, hi = (int(tri.min()), int(tri.max())) if tri.size else (0, 0)
    if lo < -(1 << 31) or hi >= 1 << 31:
        r = int(np.argmax(((tri < -(1 << 31)) | (tri >= 1 << 31)).any(axis=1)))
        raise ValueError(f"triangle row {r} {tuple(tri[r].tolist())} has a "
                         "corner outside the int32 range")
    return lo, hi


def ascending_rows(tri: np.ndarray) -> np.ndarray:
    """A (T, 3) int32 copy of ``tri`` with each row sorted ascending
    (``np.sort(tri, axis=1)``, which sorts one 3-element row at a time),
    by the min/max network on the row-block walk."""
    tri = np.asarray(tri)
    if not np.can_cast(tri.dtype, np.int32):
        _value_range(tri)
    out = np.empty(tri.shape, dtype=np.int32)
    for lo, cols in _row_blocks(tri, np.int32):
        _sort_rows(cols)
        out[lo:lo + cols.shape[1]] = cols.T
    return out


def _normalize_triangles(tri: np.ndarray) -> np.ndarray:
    """Canonical form of a (T, 3) corner array: each row ascending, rows
    in lexicographic order, as a new C-contiguous int32 array.  A value
    outside the int32 range is refused, its row named.

    When every value lies in [0, 2^w) for w <= 21, a row (a, b, c)
    packs into one int64 key (a << 2w) | (b << w) | c whose order is the
    row order, and the rows are int32.  Each block of the row-block walk
    is copied in as int32, its rows sorted and packed into its slice of
    the T keys, which are held in the output's own buffer; one in-place
    sort of the keys replaces a three-column lexsort and its gather, and
    a second walk unpacks them into the output rows, so the output is
    the one full-size array made.  Keys that already ascend, as in a
    design file read back, skip the sort.  Wider, negative and empty
    inputs take a lexsort of one int32 (3, T) copy of the columns.  All
    paths return the same array.
    """
    tri = np.asarray(tri)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ValueError("triangle array must have shape (T, 3)")
    if not np.can_cast(tri.dtype, np.int64):
        tri = tri.astype(np.int64)
    T = tri.shape[0]
    lo, hi = _value_range(tri)
    bits = hi.bit_length()
    if T == 0 or 3 * bits > 63 or lo < 0:
        cols = np.empty((3, T), dtype=np.int32)
        cols[...] = tri.T
        _sort_rows(cols)
        order = np.lexsort(cols[::-1])
        return np.ascontiguousarray(cols[:, order].T)
    # The 12T-byte int32 rows share one buffer with the 8T bytes of keys,
    # which fill its end, 8-byte aligned (one spare int32 when T is odd):
    # key j starts at byte 4T + 8j or later.  Unpacking blocks in
    # ascending order writes rows [s, e) to bytes below 12e <= 4T + 8e,
    # short of every key still to be read.
    buf = np.empty(3 * T + T % 2, dtype=np.int32)
    out = buf[:3 * T].reshape(T, 3)
    key = buf[T + T % 2:].view(np.int64)
    ascending = True
    for start, cols in _row_blocks(tri, np.int32):
        _sort_rows(cols)
        k = key[start:start + cols.shape[1]]
        k[...] = cols[0]
        k <<= bits
        k |= cols[1]
        k <<= bits
        k |= cols[2]
        ascending = ascending and bool((k[1:] >= k[:-1]).all()) \
            and (start == 0 or k[0] >= key[start - 1])
    if not ascending:
        key.sort()
    mask = (1 << bits) - 1
    scratch = np.empty(min(T, _BLOCK_ROWS), dtype=np.int64)
    for start in range(0, T, _BLOCK_ROWS):
        rows = out[start:start + _BLOCK_ROWS]
        k = scratch[:rows.shape[0]]
        k[...] = key[start:start + rows.shape[0]]
        np.bitwise_and(k, mask, out=rows[:, 2])
        k >>= bits
        np.bitwise_and(k, mask, out=rows[:, 1])
        k >>= bits
        rows[:, 0] = k
    return out


def distinct_row_count(tri: np.ndarray) -> int:
    """Number of distinct rows of a normalized (T, 3) triangle array.

    Equal rows are adjacent after normalization, so this is T minus the
    number of rows equal to their predecessor; no second sort is needed.
    A block's first row is compared with the last row of the block
    before it.  The blocks keep the input's dtype.
    """
    tri = np.asarray(tri)
    same = 0
    for lo, cols in _row_blocks(tri, tri.dtype):
        eq = cols[0, 1:] == cols[0, :-1]
        eq &= cols[1, 1:] == cols[1, :-1]
        eq &= cols[2, 1:] == cols[2, :-1]
        same += int(np.count_nonzero(eq))
        if lo:
            same += bool((tri[lo] == tri[lo - 1]).all())
    return int(tri.shape[0] - same)


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


# The corner pairs spanning a triangle's lines <a,b>, <b,c>, <a,c>: key
# s*T + t of the 3T line keys is side s of triangle t.
_SIDES = ((0, 1), (1, 2), (0, 2))


def _cover_keys(tri: np.ndarray, n: int, gid: np.ndarray | None = None):
    """(keys, inside) for the ascending rows ``tri`` of a design, once
    every row is checked to be a triangle of GF(2)^n; raises ValueError
    naming the first row that is not.  ``keys`` holds the line key of
    each of the 3T lines, side by side, in ``key_dtype(n)``; ``inside``
    whether each line lies inside a group of the spread with
    ``group_ids`` ``gid`` (two of its points do), None without ``gid``.

    One row-block walk in the key dtype builds both; the rows are int32
    and the key dtype no narrower, so the block copy is exact.  A row is
    malformed iff a <= 0, a == b, b == c, a ^ b ^ c == 0 or c >= 2^n.
    """
    T = tri.shape[0]
    keys = np.empty(3 * T, dtype=key_dtype(n))
    inside = None if gid is None else np.empty(3 * T, dtype=bool)
    for lo, cols in _row_blocks(tri, keys.dtype):
        a, b, c = cols
        bad = a <= 0
        bad |= a == b
        bad |= b == c
        x = a ^ b
        x ^= c
        bad |= x == 0
        bad |= c >= 1 << n
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"malformed triangle at row {lo + i}: "
                             f"{tuple(cols[:, i].tolist())}")
        g = None if gid is None else gid.take(cols)
        for s, (i, j) in enumerate(_SIDES):
            at = slice(s * T + lo, s * T + lo + cols.shape[1])
            line_keys(cols[i], cols[j], n, out=keys[at])
            if g is not None:
                np.equal(g[i], g[j], out=inside[at])
    return keys, inside


def _line_keys(tri: np.ndarray, n: int) -> np.ndarray:
    """Line key of each of the 3T lines of the ascending-row triangles
    ``tri``, side by side, in ``key_dtype(n)``."""
    return _cover_keys(tri, n)[0]


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
    gid, internal = None, 0
    if groups is not None:
        try:
            validate_spread(groups, n)
            G, q = groups.shape
            if q.bit_length() != m:
                raise ValueError(f"spread dimension {q.bit_length()} != declared m={m}")
        except ValueError:
            _cover_keys(d.tri, n)   # a malformed row is named before the spread
            raise
        gid = group_ids(groups, n)
        internal = G * q * (q - 1) // 6
    keys, inside = _cover_keys(d.tri, n, gid)
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
    """Per-vector counts of corner and of non-corner appearances, added
    up block by block on the row-block walk: one ``bincount`` of a
    block's corners and one of its three side XORs.  A block holds at
    least 2^n rows, so adding its counts costs no more than making them.
    The 2^n-entry counters are refused, before they exist, past the
    element budget of the other materializations.
    """
    tri = np.asarray(tri)
    size = 1 << n
    if size > MAX_MATERIALIZED_TRIANGLES:
        raise ValueError(f"balance counters for n={n} need 2^{n} entries each, "
                         f"more than {MAX_MATERIALIZED_TRIANGLES}")
    corner = np.zeros(size, dtype=np.int64)
    noncorner = np.zeros(size, dtype=np.int64)
    step = max(_BLOCK_ROWS, size)
    side = np.empty((3, min(tri.shape[0], step)), dtype=np.int64)
    for _, cols in _row_blocks(tri, np.int64, step):
        counts = np.bincount(cols.ravel(), minlength=size)
        if counts.size != size:
            raise ValueError("triangle vector out of range for declared dimension")
        corner += counts
        x = side[:, :cols.shape[1]]
        for s, (i, j) in enumerate(_SIDES):
            np.bitwise_xor(cols[i], cols[j], out=x[s])
        noncorner += np.bincount(x.ravel(), minlength=size)
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
