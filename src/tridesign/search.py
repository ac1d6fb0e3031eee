"""Search for orbit certificates by exact cover.

Two reductions are built here.  The multiplicative-group problem
partitions the gamma-sets outside the spread exponents into triples
with a zero-sum representative; solving it yields generator pairs
(i, j) whose orbits tile all non-group lines.  The finer problem adds
the squaring automorphism: items become cy_gamma-sets, one stratum
per 2-cyclotomic class size t, and a solution is a pair list (a, b)
whose combined sweep tiles the exponent ring.  The first problem is
the stratum t = 1 of the gamma-sets themselves.

One builder, ``_orbit_items``, makes the items of every stratum from
one int32 column of gamma keys, ``_gamma_keys``: a running minimum over
the six residues of each gamma-set, read from the Zech table, so no
whole-field table of gamma rows is built; the full rows are read for
the item keys only (``orbits.gamma_rows``).  The cy_gamma keys come
from doubling residues, which maps the key column onto two strided
halves of itself, and the class sizes by arithmetic
(``orbits.cyclotomic_class_sizes``).  An item's key is a residue, so
``_closure_items`` numbers the keys by a dense rank (a cumulative sum
over a mark per residue) with no sort.  Every residue array of the
build is int32.

One int32 kernel, ``_item_triples``, gives the triples of a run of item
pairs (a, p), each with its first witness: the third residue of every
cell is one add into a doubled residue -> item table, each cell packs
as ``item << bits | cell``, and one row sort per pair brings each third
item's first witness to the front.  ``_candidate_triples`` runs it over
every pair a < p, in chunks of bounded size, to build an exact-cover
instance; above ``LAZY_STRATUM_THRESHOLD`` items ``_LazySource`` runs
it on demand over an item and its uncovered partners, one fixed window
of partners at a time, offering the same candidates in the same order.
``_solve_strata`` makes that choice for every stratum of both searches,
and logs each stratum's progress as ``stratum (m=M, t=T): ...`` on this
module's logger.

Both searches re-check the orbit-level partition on their own output
with ``orbits.orbit_cover_counts`` before returning a certificate.
"""

from __future__ import annotations

import logging

import numpy as np

from .gf2n import FieldCtx, build_field
from .orbits import (FrobeniusCertificate, OrbitCertificate, check_admissible,
                     cyclotomic_class_sizes, exponent_universe, gamma_rows,
                     orbit_cover_counts)
from .xcover import (LimitExceeded, Unsatisfiable, XCoverInstance,
                     check_solution, dfs, solve)

logger = logging.getLogger(__name__)


class SearchUnsatisfiable(RuntimeError):
    def __init__(self, detail: str, result: Unsatisfiable):
        super().__init__(detail)
        self.result = result


class SearchLimitExceeded(RuntimeError):
    def __init__(self, detail: str, result: LimitExceeded):
        super().__init__(detail)
        self.result = result


class InfeasibleStratumError(RuntimeError):
    """A cyclotomic-class-size stratum cannot split into 18-sets."""

    def __init__(self, n: int, strata: dict[int, int], bad: dict[int, int]):
        super().__init__(
            f"n={n}: stratum infeasible (class count not divisible by 18): "
            + ", ".join(f"t={t} (N_t={c})" for t, c in sorted(bad.items())))
        self.n = n
        self.strata = strata
        self.bad = bad


# -- items and candidate triples ------------------------------------------------


def stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integers in [0, bound): values cast to uint16,
    which numpy sorts by radix, when they fit, else a comparison sort."""
    return np.argsort(values.astype(np.uint16) if bound <= 1 << 16 else values,
                      kind="stable")


def _gamma_keys(ctx: FieldCtx) -> np.ndarray:
    """The gamma key, the least residue of gamma(k), of every residue k
    as one int32 array, 0 at k = 0 (gamma is undefined there).

    A running minimum over the columns k, M - k, Z(k), Z(M - k), M - Z(k)
    and M - Z(M - k): over the residues 1..M - 1 the column of M - k is
    that of k reversed, so Z(M - k) is the reversed Zech column and one
    int32 copy of it serves all four Zech columns.
    """
    M = ctx.order
    key = np.arange(M, dtype=np.int32)
    k = key[1:]
    np.minimum(k, M - k, out=k)
    zech = ctx.zech_np[1:].astype(np.int32)
    for _ in range(2):      # Z(k) and Z(M - k), then M - Z(k) and M - Z(M - k)
        np.minimum(k, zech, out=k)
        np.minimum(k, zech[::-1], out=k)
        np.subtract(M, zech, out=zech)
    return key


def _closure_items(key: np.ndarray, inside: np.ndarray, size: int):
    """One item per distinct ``key`` of the residues ``inside``: the keys,
    residue -> item index (-1 outside), and each item's residues sorted,
    as an (items, size) array."""
    # keys are residues: a dense rank over a mark array, with no sort
    mark = np.zeros(key.size, dtype=bool)
    mark[key[inside]] = True
    keys = np.flatnonzero(mark).astype(key.dtype, copy=False)
    rank = np.cumsum(mark, dtype=np.int32)
    rank -= 1
    owner = rank[key[inside]]
    if (np.bincount(owner, minlength=keys.size) != size).any():
        raise AssertionError(f"a closure set is not {size} residues")
    item_of = np.full(key.size, -1, dtype=np.int32)
    item_of[inside] = owner
    members = np.flatnonzero(inside)[stable_argsort(owner, keys.size)]
    return keys, item_of, members.reshape(-1, size)


def _orbit_items(ctx: FieldCtx, inside: np.ndarray, t: int):
    """Items of the residues ``inside``: unions of gamma-sets along t
    doublings, so the cy_gamma-sets when ``inside`` holds the residues of
    class size t, and the gamma-sets for t = 1.  Returns residue -> item
    index (-1 outside), the gamma row of each item's key as ``first`` (items, 6,
    1) and its sorted members as ``second`` (items, 1, 6t), so the
    witnesses of a triple are ordered by (partner, a, b).

    cy_gamma(r) is the union of gamma(2^j r) over j, so its key is the
    least gamma key along the doubling orbit.  Doubling mod 2^n - 1 maps
    the even residues onto the first half and the odd ones onto the
    second, so the key column of 2r is two strided copies of that of r.
    Class size is constant on a cy_gamma-set, and t - 1 doublings sweep
    the orbit.
    """
    col = _gamma_keys(ctx)
    key = col.copy()
    nxt = np.empty_like(col)
    half = (ctx.order + 1) // 2
    for _ in range(t - 1):
        nxt[:half] = col[::2]
        nxt[half:] = col[1::2]
        col, nxt = nxt, col
        np.minimum(key, col, out=key)
    del col, nxt    # only the key column is read from here on
    keys, item_of, members = _closure_items(key, inside, 6 * t)
    return item_of, gamma_rows(ctx, keys)[:, :, None], members[:, None, :]


class _Kernel:
    """One problem's int32 arrays for ``_item_triples``.

    The residue -s1 - s2 of a cell is the sum of the negated residues
    M - s1 and M - s2, at most 2M; ``table`` holds residue -> item twice
    plus one entry, so that sum indexes it with no modulo.  An item is
    stored as ``c << bits``, ``bits`` being what the cell indices of a
    block need, so OR-ing in the cell index packs a cell's item above it;
    -1 (outside the problem) stays negative.
    """

    def __init__(self, M: int, item_of: np.ndarray, first: np.ndarray,
                 second: np.ndarray):
        self.shape = np.broadcast_shapes(first.shape[1:], second.shape[1:])
        self.cells = np.arange(int(np.prod(self.shape)), dtype=np.int32)
        self.bits = (self.cells.size - 1).bit_length()
        self.M = M
        wide = len(first) << self.bits >= 1 << 31
        self.items = item_of.astype(np.int64 if wide else np.int32) << self.bits
        self.table = np.concatenate([self.items, self.items, self.items[:1]])
        self.neg_first = (M - first).astype(np.int32)
        self.neg_second = (M - second).astype(np.int32)
        # each item's residues, and which of them is s1 and s2 in a cell
        # (sized by shape: a problem may have no items)
        self.first = first.reshape(len(first), np.prod(first.shape[1:]))
        self.second = second.reshape(len(second), np.prod(second.shape[1:]))
        self.at_first, self.at_second = (
            np.broadcast_to(np.arange(np.prod(x.shape[1:])).reshape(x.shape[1:]),
                            self.shape).ravel() for x in (first, second))

    def witness(self, a, p, cell):
        """The residues (s1, s2) of ``cell`` in the block of pair (a, p)."""
        return self.first[a, self.at_first[cell]], self.second[p, self.at_second[cell]]


def _item_triples(k: _Kernel, neg_sum: np.ndarray, p: np.ndarray):
    """The triples (a[i], p[i], c) of a run of item pairs with c > p[i],
    in (i, c) order, each with its first witness cell.

    ``neg_sum[i]`` holds (M - s1) + (M - s2) over the cells of pair i's
    block, s1 from item a[i] and s2 from p[i].  Returns the pair index i
    of each triple and ``c << k.bits | cell``.  Sorting a pair's packed
    cells orders them by (c, cell), so the first entry of each c is its
    first witness.
    """
    v = np.take(k.table, neg_sum).reshape(len(p), -1)
    v |= k.cells
    v.sort(axis=1)
    c = v >> k.bits
    keep = c > p[:, None]
    keep[:, 1:] &= c[:, 1:] != c[:, :-1]
    hit = np.flatnonzero(keep)
    return hit // k.cells.size, v.ravel()[hit]


# Cells per kernel call of ``_candidate_triples``: bounds its transient
# arrays (about 1 MB each) whatever the problem size.
_CHUNK_CELLS = 1 << 18


def _candidate_triples(M: int, item_of: np.ndarray, first: np.ndarray,
                       second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All item triples with a zero-sum witness, as sorted ascending (S, 3)
    rows, with one witness (s1, s2) each.

    A triple a < p < c with a witness from any item has one from a with
    partner p (permute the residues, or double all three until s1 is in
    first[a]), and that block comes first: so each triple is taken
    there, with its first witness in item a's kernel block.
    """
    k = _Kernel(M, item_of, first, second)
    N, block, mask = len(first), k.cells.size, (1 << k.bits) - 1
    # each item's negated residues over a whole block, one row per item
    full_first = np.broadcast_to(k.neg_first, (N, *k.shape)).reshape(N, block)
    full_second = np.broadcast_to(k.neg_second, (N, *k.shape)).reshape(N, block)
    a_all, p_all = np.triu_indices(N, 1)    # every pair a < p, in order
    step = max(1, _CHUNK_CELLS // block)
    # int32 halves the instance; residues lie below 2^MAX_DEGREE - 1
    triples, tags = [np.empty((0, 3), dtype=np.int32)], [np.empty((0, 2), dtype=np.int32)]
    for lo in range(0, a_all.size, step):
        a, p = a_all[lo:lo + step], p_all[lo:lo + step]
        neg_sum = np.take(full_first, a, axis=0)
        neg_sum += np.take(full_second, p, axis=0)
        i, v = _item_triples(k, neg_sum, p)
        a, p, cell = a[i], p[i], v & mask
        rows = np.empty((v.size, 3), dtype=np.int32)
        rows[:, 0], rows[:, 1], rows[:, 2] = a, p, v >> k.bits
        tag = np.empty((v.size, 2), dtype=np.int32)
        tag[:, 0], tag[:, 1] = k.witness(a, p, cell)
        triples.append(rows)
        tags.append(tag)
    return np.concatenate(triples), np.concatenate(tags)


# Above this many items the candidate triples are not materialized
# (the triple set is ~90% dense: gigabytes at n=19); the same DFS runs
# first-fit over candidates generated on demand instead.  All
# acceptance-scale problems (up to 672 items) stay on the materialized
# source.
LAZY_STRATUM_THRESHOLD = 1000

# Residue pairs per kernel call of the lazy source: its partners are
# scanned in batches of about this many cells.
_LAZY_CELLS = 1 << 10


class _LazySource:
    """First-fit candidate source over lazily generated triples.

    The candidates ``((a, p, c), (s1, s2))`` of item a are the triples
    of a from ``_candidate_triples``, in order and with their witnesses,
    less those touching a covered item; they are generated one batch of
    uncovered partners at a time, by the same kernel on a table in which
    the residues of covered items read as outside the problem, and the
    partners are read from the ``covered`` flags one window of
    ``window`` items at a time.  The item branched on is the smallest
    uncovered one; a cursor per open node remembers where the scan for
    it stopped, since covering only ever moves it forward.  The triple
    set is dense enough that the first fit almost always extends;
    backtracking handles the rare dead end.
    """

    def __init__(self, M: int, item_of: np.ndarray, first: np.ndarray,
                 second: np.ndarray):
        self.kernel = _Kernel(M, item_of, first, second)
        self.n_items = len(first)
        self.batch = max(1, _LAZY_CELLS // self.kernel.cells.size)
        # items per scan of the covered flags: an open node holds the
        # uncovered partners of one window, not of every item past its own
        self.window = 64 * self.batch
        self.covered = np.zeros(self.n_items, dtype=bool)
        self.cursor = [0]

    def next_item(self) -> int | None:
        covered, pos = self.covered, self.cursor[-1]
        while pos < covered.size and covered[pos]:
            pos += 1
        self.cursor[-1] = pos
        return pos if pos < covered.size else None

    def candidates(self, a: int):
        # the generator only resumes while this node's own state is
        # applied, so each window reads the flags the first one read
        k, covered = self.kernel, self.covered
        bits, mask, neg_first = k.bits, (1 << k.bits) - 1, k.neg_first[a]
        for start in range(a + 1, covered.size, self.window):  # items before a are covered
            free = np.flatnonzero(~covered[start:start + self.window]) + start
            for lo in range(0, free.size, self.batch):
                p = free[lo:lo + self.batch]
                i, v = _item_triples(k, neg_first + k.neg_second[p], p)
                for j in range(v.size):     # first fit mostly takes the first
                    q, x = int(p[i[j]]), int(v[j])
                    s1, s2 = k.witness(a, q, x & mask)
                    yield (a, q, x >> bits), (int(s1), int(s2))

    def cover(self, cand) -> None:
        items = list(cand[0])
        self.covered[items] = True
        k = self.kernel
        residues = k.second[items]
        k.table[residues] = k.table[residues + k.M] = -1
        self.cursor.append(self.cursor[-1])

    def uncover(self, cand) -> None:
        items = list(cand[0])
        self.covered[items] = False
        k = self.kernel
        residues = k.second[items]
        k.table[residues] = k.table[residues + k.M] = k.items[residues]
        self.cursor.pop()


def _stratum_items(ctx: FieldCtx, m: int, t: int):
    """(item_of, first, second) of a stratum: t > 1 a Frobenius one (m =
    1); t = 1 the gamma-sets off the spread of m-dimensional groups, with
    ``first`` and ``second`` swapped so witnesses run (partner, s2, s1)."""
    if t == 1:
        item_of, gam, members = _orbit_items(ctx, exponent_universe(ctx.order, m), 1)
        return item_of, members, gam
    sizes = cyclotomic_class_sizes(ctx.n, np.arange(ctx.order, dtype=np.int32))
    return _orbit_items(ctx, sizes == t, t)


def _instance(ctx: FieldCtx, m: int, t: int) -> XCoverInstance:
    """A stratum's item triples with a zero-sum witness, each tagged with
    its first witness."""
    item_of, first, second = _stratum_items(ctx, m, t)
    logger.info("stratum (m=%d, t=%d): %d items", m, t, len(first))
    subsets, tags = _candidate_triples(ctx.order, item_of, first, second)
    logger.info("stratum (m=%d, t=%d): %d candidate triples", m, t, len(subsets))
    return XCoverInstance(n_items=len(first), subsets=subsets, tags=tags)


def _solve_strata(ctx: FieldCtx, m: int, strata: dict[int, int],
                  node_limit: int | None, time_limit: float | None
                  ) -> list[tuple[int, int]]:
    """The witness (s1, s2) of each triple of the first exact cover of
    each stratum (m, t) of ``strata[t]`` items, t ascending, or the search
    error of the first failed one, each under the limits: lazy above
    ``LAZY_STRATUM_THRESHOLD`` items, else on the instance built by the
    module-level ``singer_problem`` (t = 1) or ``frobenius_problem``."""
    witnesses: list[tuple[int, int]] = []
    for t, expected in sorted(strata.items()):
        what = f"stratum (m={m}, t={t})"
        lazy = expected > LAZY_STRATUM_THRESHOLD
        source = (_LazySource(ctx.order, *_stratum_items(ctx, m, t)) if lazy
                  else singer_problem(ctx, m) if t == 1 else frobenius_problem(ctx, t))
        if source.n_items != expected:
            raise AssertionError(f"{what}: {source.n_items} items, expected {expected}")
        if lazy:
            logger.info("%s: %d items, lazy search", what, expected)
        result = (dfs if lazy else solve)(source, node_limit=node_limit, time_limit=time_limit)
        if isinstance(result, Unsatisfiable):
            raise SearchUnsatisfiable(
                f"{what}: no exact cover after {result.nodes} nodes", result)
        if isinstance(result, LimitExceeded):
            raise SearchLimitExceeded(
                f"{what} stopped: {result.reason} after {result.nodes} nodes", result)
        logger.info("%s: solved in %d nodes", what, result.nodes)
        if lazy:
            witnesses.extend(pair for _, pair in result.chosen)
        else:
            assert check_solution(source, result)
            witnesses.extend(map(tuple, source.tags[list(result.chosen)].tolist()))
    return witnesses


# -- multiplicative-group (gamma-set) problem -----------------------------------


def singer_problem(ctx: FieldCtx, m: int) -> XCoverInstance:
    """Exact-cover instance over the gamma-sets off the spread, tagged
    with witnesses (s1, s2)."""
    return _instance(ctx, m, 1)


def _check_partition(ctx: FieldCtx, reps, m: int) -> None:
    """The reps' 18-sets must tile the exponent universe exactly."""
    counts = orbit_cover_counts(ctx, reps)
    bad = np.flatnonzero(counts != exponent_universe(ctx.order, m))
    if bad.size:
        r = int(bad[0])
        raise AssertionError(f"orbit partition covers residue {r} "
                             f"{counts[r]} times")


def _check_long_run(n: int, allow_long: bool) -> None:
    """Refuse n >= 19 unless ``allow_long``: such a search runs long."""
    if n >= 19 and not allow_long:
        raise ValueError(f"n={n} is a long run; pass allow_long=True "
                         "(CLI: --allow-long) to proceed")


def search_singer(n: int, m: int, node_limit: int | None = None,
                  time_limit: float | None = None,
                  allow_long: bool = False) -> OrbitCertificate:
    """Find generator reps whose multiplicative orbits tile the non-group lines.

    n >= 19 is refused, before any field is built, unless ``allow_long``.
    """
    check_admissible(n, m)
    _check_long_run(n, allow_long)
    ctx = build_field(n)
    witnesses = _solve_strata(ctx, m, {1: ((1 << n) - (1 << m)) // 6},
                              node_limit, time_limit)
    reps = sorted((s1, (s1 + s2) % ctx.order) for s1, s2 in witnesses)
    cert = OrbitCertificate(n=n, m=m, poly=ctx.poly, reps=tuple(reps))
    _check_partition(ctx, cert.reps, cert.m)
    return cert


# -- multiplicative + squaring (cy_gamma) problem -------------------------------


def frobenius_strata(n: int) -> dict[int, int]:
    """Number of 2-cyclotomic classes of each size t dividing n.

    Counted arithmetically (no enumeration): the residues whose class
    size divides t are the 2^t - 1 of the subfield GF(2^t), and taking
    away those of the smaller subfields leaves the exact-size counts.
    """
    exact: dict[int, int] = {}
    for t in (d for d in range(1, n + 1) if n % d == 0):
        exact[t] = (1 << t) - 1 - sum(c for d, c in exact.items() if t % d == 0)
    return {t: c // t for t, c in exact.items()}


def frobenius_problem(ctx: FieldCtx, t: int) -> XCoverInstance:
    """Exact-cover instance over the cy_gamma-sets of class size t.

    A candidate is a key triple {K(a), K(b), K(a+b)} of pairwise
    distinct cy_gamma-sets inside the stratum, with a in the gamma-set
    of the first key and b anywhere in the second set; the witness pair
    (a, b) rides along as the tag.
    """
    return _instance(ctx, 1, t)


def search_frobenius(n: int, node_limit: int | None = None,
                     time_limit: float | None = None,
                     allow_long: bool = False) -> FrobeniusCertificate:
    """Find pairs (a, b) whose multiplicative+squaring sweep tiles Z_{2^n-1}*.

    Strata (one per cyclotomic class size > 1) are checked for the
    18-divisibility obstruction up front and solved independently; n >=
    19 is refused, before any field is built, unless ``allow_long``.
    """
    if n % 6 != 1:
        raise ValueError(f"n={n} rejected: need n congruent to 1 mod 6")
    strata = frobenius_strata(n)
    bad = {t: c for t, c in strata.items() if t > 1 and c % 18}
    if bad:
        raise InfeasibleStratumError(n, strata, bad)
    _check_long_run(n, allow_long)
    ctx = build_field(n)
    pairs = _solve_strata(ctx, 1, {t: c // 18 * 3 for t, c in strata.items() if t > 1},
                          node_limit, time_limit)
    cert = FrobeniusCertificate(n=n, poly=ctx.poly, pairs=tuple(sorted(pairs)))
    _check_partition(ctx, cert.reps, cert.m)
    return cert
