"""Lines (2-dimensional GF(2)-subspaces), spreads and extension-field
planes.

A 2-dimensional subspace {0, x, y, x^y} is a projective line, the
three nonzero vectors lo < mid < lo ^ mid.  This module owns its two
array forms: the key (lo << n) | mid, whose order is the order of the
sorted rows, and the (L, 3) int64 row (lo, mid, lo ^ mid).  A key
takes 2n bits, so it is held in ``key_dtype(n)``: int32 while
2n <= 31, int64 above.  ``line_keys`` packs the line through each
pair of points, ``key_rows`` unpacks keys into rows and
``uncovered_line_keys`` finds the lines missing from sorted keys; no
other module reads the key layout.  A triangle is stored elsewhere as its
sorted corner triple (a, b, c), the lines <a,b>, <b,c>, <a,c>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gf2n import FieldCtx, build_field, embed_subfield


def line_count(n: int) -> int:
    N = (1 << n) - 1
    return N * (N - 1) // 6


def key_dtype(n: int) -> np.dtype:
    """The narrowest integer dtype that holds every line key of GF(2)^n."""
    return np.dtype(np.int32 if 2 * n <= 31 else np.int64)


def _partners(h: int, n: int, count: int, dtype) -> np.ndarray:
    """The ``count`` smallest partners y of any x with top bit h, in
    ``dtype``, ascending.

    x < y are the two smallest points of the line {x, y, x ^ y} exactly
    when y >= 2^(h+1) and bit h of y is clear, a set that does not
    depend on x: each x has 2^(n-1) - 2^h lines (``per_point_lines``).
    """
    j = np.arange(count, dtype=dtype)
    return (2 << h) + (((j >> h) << (h + 1)) | (j & ((1 << h) - 1)))


def per_point_lines(n: int, h: int) -> int:
    """Lines of GF(2)^n whose smallest point has top bit h."""
    return (1 << (n - 1)) - (1 << h)


def enumerate_line_keys_np(n: int) -> np.ndarray:
    """Sorted int64 array of all line keys (x << n) | y.  The keys with x
    in [2^h, 2^(h+1)) are one ascending outer product of those x and
    their common partners (``_partners``)."""
    blocks = [np.empty(0, dtype=np.int64)]
    for h in range(n - 1):
        x = np.arange(1 << h, 2 << h, dtype=np.int64)
        y = _partners(h, n, per_point_lines(n, h), np.int64)
        blocks.append(((x[:, None] << n) | y).ravel())
    return np.concatenate(blocks)


def line_keys(p, q, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Key (lo << n) | mid of the line through each pair of nonzero
    points p[i] < q[i], in ``key_dtype(n)`` or written into ``out``.

    lo < mid are the two smallest of p, q and z = p ^ q; since p < q,
    lo = min(p, z) and the largest is max(q, z).
    """
    z = p ^ q
    if out is None:
        out = np.empty(z.shape, dtype=key_dtype(n))
    lo = np.minimum(p, z, out=out)
    hi = np.maximum(q, z, out=z)
    hi ^= lo  # mid, since lo ^ mid ^ hi = 0
    lo <<= n
    lo |= hi
    return out


def key_rows(keys, n: int) -> np.ndarray:
    """(K, 3) int64 rows (lo, mid, lo ^ mid) of the line keys."""
    keys = np.asarray(keys, dtype=np.int64)
    lo, mid = keys >> n, keys & ((1 << n) - 1)
    return np.column_stack([lo, mid, lo ^ mid])


def line_rows(n: int) -> np.ndarray:
    """All lines of GF(2)^n as (L, 3) rows, in ascending key order."""
    return key_rows(enumerate_line_keys_np(n), n)


# -- spreads ------------------------------------------------------------------


def spread_rows(groups) -> np.ndarray:
    """``groups`` as a spread: one read-only int64 array of shape
    (G, 2^m - 1), G >= 1, a row per group in the given order, each row
    ascending.  Copies unless ``groups`` is one already; ValueError for
    no groups, ragged rows (numpy's) or another shape."""
    if groups is None:
        raise ValueError("a GDD needs its groups")
    arr = np.asarray(groups, dtype=np.int64)
    q = arr.shape[1] if arr.ndim == 2 and arr.size else 0
    if q == 0 or q & (q + 1):
        raise ValueError(f"groups of shape {arr.shape} are not G >= 1 rows of 2^m - 1")
    if arr.flags.writeable or (arr[:, 1:] < arr[:, :-1]).any():
        arr = np.sort(arr, axis=1)
        arr.setflags(write=False)
    return arr


def group_ids(groups: np.ndarray, n: int) -> np.ndarray:
    """Vector -> group index lookup (int32, -1 for 0 and unassigned)."""
    gid = np.full(1 << n, -1, dtype=np.int32)
    gid[groups] = np.arange(groups.shape[0], dtype=np.int32)[:, None]
    return gid


def validate_spread(groups, n: int) -> None:
    """Raise unless the groups partition GF(2)^n \\ {0} into m-subspaces.

    Names the first group with a vector outside 1..2^n - 1, a vector
    that occurs twice in the spread, or one that is no m-subspace less
    0: that holds iff the m pivots at sorted positions 2^k - 1 have
    strictly increasing top bits (so are independent) and the group is
    closed under XOR by each.  Sound groups cover iff G (2^m - 1) = 2^n - 1.
    """
    groups = spread_rows(groups)
    G, q = groups.shape
    inside = (groups >= 1) & (groups < 1 << n)
    vec = groups if inside.all() else np.where(inside, groups, 0)
    gid, own = group_ids(vec, n), np.arange(G, dtype=np.int32)[:, None]
    # a vector in two groups is assigned to only one of them; rows ascend
    shared = (gid[vec] != own).any(axis=1) | (vec[:, 1:] == vec[:, :-1]).any(axis=1)
    pivots = vec[:, (1 << np.arange(q.bit_length())) - 1]
    top = np.frexp(pivots.astype(np.float64))[1]
    unclosed = (top[:, 1:] <= top[:, :-1]).any(axis=1)
    for k in range(pivots.shape[1]):
        x = vec ^ pivots[:, k:k + 1]    # 0 at the pivot itself
        unclosed |= ((gid[x] != own) & (x != 0)).any(axis=1)
    faulty = np.flatnonzero(~inside.all(axis=1) | shared | unclosed)
    if faulty.size:
        i = int(faulty[0])
        raise ValueError(f"group {i} " + (
            f"has a vector outside 1..{(1 << n) - 1}" if not inside[i].all()
            else "repeats a vector or overlaps another group" if shared[i]
            else f"is not closed under XOR: no {q.bit_length()}-dimensional subspace"))
    if G * q != (1 << n) - 1:
        raise ValueError("groups do not cover all nonzero vectors")


def group_line_counts(x, groups: np.ndarray, gid: np.ndarray, n: int) -> np.ndarray:
    """Number of lines inside a group of the spread ``groups`` (``gid``
    its ``group_ids``) whose smallest point is x, for each x.

    With h the top bit of x, those lines pair up the points of x's group
    at or above 2^(h+1): (2^m - 1 - #{g in group(x) : g < 2^(h+1)}) / 2.
    The rows ascend, so row r shifted by r << n makes one ascending
    array, and one ``searchsorted`` counts the points below 2^(h+1) in
    every x's row; no group line is listed.
    """
    x = np.asarray(x, dtype=np.int64)
    G, q = groups.shape
    rows = ((np.arange(G, dtype=np.int64)[:, None] << n) | groups).ravel()
    g = gid[x].astype(np.int64)
    top = 2 << (np.frexp(x.astype(np.float64))[1] - 1).astype(np.int64)
    return (q - (np.searchsorted(rows, (g << n) + top) - g * q)) // 2


def desarguesian_spread(ctx: FieldCtx, m: int) -> np.ndarray:
    """Multiplicative cosets of the order-2^m subfield of GF(2^n)."""
    if ctx.n % m:
        raise ValueError(f"group dimension {m} does not divide {ctx.n}")
    return coset_groups(ctx, m, np.arange(ctx.order // ((1 << m) - 1)))


def coset_groups(ctx: FieldCtx, m: int, exps) -> np.ndarray:
    """The spread array of the cosets xi^e * GF(2^m)^* for the exponents
    e, one row per exponent: xi^(e + g*j) for g = (2^n - 1)/(2^m - 1),
    j < 2^m - 1, sorted."""
    g = ctx.order // ((1 << m) - 1)
    j = np.arange((1 << m) - 1, dtype=np.int64)
    e = np.asarray(exps, dtype=np.int64).reshape(-1, 1)
    return spread_rows(ctx.exp_np[(e + g * j) % ctx.order])


def coset_exponents(ctx: FieldCtx, m: int, groups: np.ndarray) -> np.ndarray:
    """The exponent e mod (2^n - 1)/(2^m - 1) of each row of a spread
    array of width 2^m - 1, read as the coset xi^e * GF(2^m)^*.  Raises
    the ``validate_spread`` error, or a ValueError naming the first group
    whose logarithms do not all agree mod that modulus."""
    validate_spread(groups, ctx.n)
    res = ctx.log_np[groups] % (ctx.order // ((1 << m) - 1))
    bad = (res != res[:, :1]).any(axis=1) | (groups.shape[1] != (1 << m) - 1)
    if bad.any():
        raise ValueError(f"group {int(np.argmax(bad))} is not a multiplicative coset")
    return res[:, 0]


# -- uncovered lines -------------------------------------------------------------

# Smallest points per block of the uncovered-line scan.
_X_BLOCK = 1 << 12


def uncovered_line_keys(keys: np.ndarray, n: int, limit: int, skip=(),
                        groups: np.ndarray | None = None,
                        gid: np.ndarray | None = None) -> np.ndarray:
    """The ``limit`` smallest keys of the lines of GF(2)^n outside the
    groups of the spread ``groups`` (``gid`` its ``group_ids``; None for
    no groups) that the sorted ``keys`` miss, ascending, in their dtype.

    ``skip`` holds sorted arrays of the entries of ``keys`` that are no
    further distinct line outside the groups: the repeats and the group
    lines among them.  The lines with smallest point x are the keys in
    [x << n, (x + 1) << n), so one ``searchsorted`` of those bounds per
    array counts the outside lines covered at every x of a block.  x
    misses lines exactly when that count is below its outside line
    count, ``per_point_lines`` less ``group_line_counts``.  Only those
    x, ascending, list their partners, and only as many as their keys,
    their group lines and the witnesses still wanted; the scan stops
    once it has ``limit`` keys or has met every missing line.
    """
    missing = line_count(n) - keys.size + sum(s.size for s in skip)
    if groups is not None:
        G, q = groups.shape
        missing -= G * q * (q - 1) // 6
    found = [keys[:0]]
    need = limit
    if need <= 0 or missing <= 0:
        return found[0]
    for h in range(n - 1):
        per_x = per_point_lines(n, h)
        for start in range(1 << h, 2 << h, _X_BLOCK):
            # needles in the keys' dtype, so no search casts the keys
            x = np.arange(start, min(start + _X_BLOCK, 2 << h) + 1, dtype=keys.dtype)
            bounds = x << n
            at = np.searchsorted(keys, bounds)
            seen = np.diff(at)
            for s in skip:
                seen -= np.diff(np.searchsorted(s, bounds))
            inner = np.zeros_like(seen) if groups is None else \
                group_line_counts(x[:-1], groups, gid, n)
            short = per_x - inner - seen
            for i in np.flatnonzero(short > 0).tolist():
                own = keys[at[i]:at[i + 1]]
                # among these many partners lie ``need`` missing outside lines
                y = _partners(h, n, min(per_x, own.size + int(inner[i]) + need),
                              keys.dtype)
                cand = y | (int(x[i]) << n)
                pos = np.minimum(np.searchsorted(own, cand), max(own.size - 1, 0))
                gap = own[pos] != cand if own.size else np.ones(cand.size, dtype=bool)
                if gid is not None:
                    gap &= gid[y] != gid[x[i]]
                found.append(cand[gap][:need])
                need -= found[-1].size
                missing -= int(short[i])
                if need <= 0 or missing <= 0:
                    return np.concatenate(found)
    return np.concatenate(found)


# -- 2-dimensional subspaces over an extension field ---------------------------


@dataclass(frozen=True)
class PlaneBasis:
    """Canonical ordered basis of a 2-dim subspace over GF(2^m).

    ``u`` is the minimal vector of the plane, ``v`` the minimal vector
    outside the GF(2^m)-span of u.
    """

    u: int
    v: int


# Pairs per batch of span grids: each pair's grid holds q^2 int64 points,
# so a batch over GF(64) is at most 8 MB.
_GRID_CELLS = 1 << 20


def subfield_tables(ctx: FieldCtx, emb: np.ndarray):
    """The (q, q) multiplication table and the inverse table of GF(2^m)
    on the m-bit elements of the embedding ``emb``.

    Products come from the big field's logarithms of the embedded
    elements, so they agree with ``emb`` whatever polynomial built it.
    """
    q = emb.size
    logs = np.zeros(q, dtype=np.int64)
    logs[1:] = ctx.log_np[emb[1:]] // (ctx.order // (q - 1))
    elem = np.empty(q - 1, dtype=np.int64)
    elem[logs[1:]] = np.arange(1, q)
    mul = elem[(logs[:, None] + logs[None, :]) % (q - 1)]
    mul[0, :] = mul[:, 0] = 0
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = elem[-logs[1:] % (q - 1)]
    return mul, inv


def span_grids(ctx: FieldCtx, emb: np.ndarray, x, y) -> np.ndarray:
    """Row i lists the GF(2^m)-span of (x[i], y[i]): its cell a*q + b is
    emb[a]*x[i] + emb[b]*y[i].  Shape (B, q*q)."""
    rx = ctx.mul_np(emb, np.asarray(x, dtype=np.int64)[:, None])
    ry = ctx.mul_np(emb, np.asarray(y, dtype=np.int64)[:, None])
    return (rx[:, :, None] ^ ry[:, None, :]).reshape(rx.shape[0], -1)


def plane_bases(ctx: FieldCtx, emb: np.ndarray, x, y):
    """Canonical bases of the GF(2^m)-spans of the pairs (x[i], y[i]).

    Returns (u, v, coef): int64 arrays u, v and the (B, 4) subfield
    coordinates (a_u, b_u, a_v, b_v) with u = a_u*x + b_u*y and
    v = a_v*x + b_v*y.  u is the plane's least nonzero point, found
    with cell 0 masked; v the least point once u's ray, the cells
    (c*a_u, c*b_u), is masked too.
    """
    mul, _ = subfield_tables(ctx, emb)
    q = emb.size
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    top = np.iinfo(np.int64).max
    step = max(1, _GRID_CELLS // (q * q))
    u, v = np.empty(x.size, dtype=np.int64), np.empty(x.size, dtype=np.int64)
    coef = np.empty((x.size, 4), dtype=np.int64)
    for lo in range(0, x.size, step):
        grid = span_grids(ctx, emb, x[lo:lo + step], y[lo:lo + step])
        rows = np.arange(grid.shape[0])
        grid[:, 0] = top
        iu = grid.argmin(axis=1)
        u[lo:lo + step] = grid[rows, iu]
        au, bu = iu // q, iu % q
        grid[rows[:, None], mul[au] * q + mul[bu]] = top
        iv = grid.argmin(axis=1)
        v[lo:lo + step] = grid[rows, iv]
        coef[lo:lo + step] = np.column_stack([au, bu, iv // q, iv % q])
    if (u == 0).any():
        i = int(np.flatnonzero(u == 0)[0])
        raise ValueError(f"generators {x[i]}, {y[i]} are not independent "
                         f"over GF(2^{q.bit_length() - 1})")
    return u, v, coef


def canonical_plane_basis(ctx: FieldCtx, emb: np.ndarray, x: int, y: int) -> PlaneBasis:
    """Canonical basis of the GF(2^m)-span of independent x, y."""
    u, v, _ = plane_bases(ctx, emb, [x], [y])
    return PlaneBasis(int(u[0]), int(v[0]))


def _echelon_vectors(cols: np.ndarray, lead: int, free: list[int],
                     lo: int, hi: int) -> np.ndarray:
    """xi^lead + sum_t c_t xi^free[t] for the coefficient tuples lo..hi-1
    in lexicographic order (first coordinate most significant);
    ``cols[j, c]`` is c * xi^j."""
    m = cols.shape[1].bit_length() - 1
    i = np.arange(lo, hi, dtype=np.int64)
    acc = np.full(i.size, cols[lead, 1], dtype=np.int64)
    for t, c in enumerate(free):
        acc ^= cols[c][(i >> (m * (len(free) - 1 - t))) & (cols.shape[1] - 1)]
    return acc


def enumerate_ext_planes(ctx: FieldCtx, m: int) -> Iterator[PlaneBasis]:
    """All 2-dimensional GF(2^m)-subspaces of GF(2^n), each exactly once.

    Subspaces are enumerated through reduced-echelon bases over the
    subfield and emitted in canonical (minimal-vector) form; the whole
    stream is deterministic and restartable.  The bases of one first
    row's block of second rows are computed together.
    """
    n = ctx.n
    if n % m:
        raise ValueError(f"{m} does not divide {n}")
    s = n // m
    if s < 2:
        raise ValueError(f"need extension degree >= 2 over GF(2^{m}), got {s}")
    emb = embed_subfield(build_field(m), ctx)
    q = 1 << m
    # basis of GF(2^n) over GF(2^m): powers of xi; cols[j, c] = c * xi^j
    cols = ctx.mul_np(emb, ctx.exp_np[:s, None])
    step = max(1, _GRID_CELLS // (q * q))
    for j1 in range(s):
        for j2 in range(j1 + 1, s):
            free1 = [c for c in range(j1 + 1, s) if c != j2]
            free2 = list(range(j2 + 1, s))
            for a in range(q ** len(free1)):
                v1 = _echelon_vectors(cols, j1, free1, a, a + 1)
                for lo in range(0, q ** len(free2), step):
                    v2 = _echelon_vectors(cols, j2, free2, lo,
                                          min(lo + step, q ** len(free2)))
                    u, v, _ = plane_bases(ctx, emb, np.repeat(v1, v2.size), v2)
                    for pu, pv in zip(u.tolist(), v.tolist()):
                        yield PlaneBasis(pu, pv)


def ext_plane_count(m: int, s: int) -> int:
    """Number of 2-dim subspaces of an s-dim space over GF(2^m)."""
    q = 1 << m
    num = (q**s - 1) * (q**s - q)
    den = (q**2 - 1) * (q**2 - q)
    return num // den
