"""Search for orbit certificates by exact cover.

Two reductions are built here.  The multiplicative-group problem
partitions the gamma-sets outside the spread exponents into triples
with a zero-sum representative; solving it yields generator pairs
(i, j) whose orbits tile all non-group lines.  The finer problem adds
the squaring automorphism: items become cy_gamma-sets, one stratum
per 2-cyclotomic class size, and a solution is a pair list (a, b)
whose combined sweep tiles the exponent ring.

Both read their items from the field's one gamma table
(``orbits.gamma_table``); the cy_gamma-sets and class sizes come from
rotating residues, since doubling mod 2^n - 1 is an n-bit rotation.
An item's key is a residue, so ``_closure_items`` numbers the keys by a
dense rank (a cumulative sum over a mark per residue) with no sort.
One kernel, ``_item_triples``, gives an item's triples over a run of
partners, each with its first witness.  ``_candidate_triples`` calls it
over all later partners to build an exact-cover instance; above
``LAZY_STRATUM_THRESHOLD`` items ``_LazySource`` calls it on demand over
the uncovered ones, offering the same candidates in the same order.

Both searches re-check the orbit-level partition on their own output
with ``orbits.orbit_cover_counts`` before returning a certificate.
"""

from __future__ import annotations

import sys

import numpy as np

from .gf2n import FieldCtx, build_field
from .orbits import (FrobeniusCertificate, OrbitCertificate, exponent_universe,
                     frobenius_reps, gamma_table, orbit_cover_counts)
from .xcover import (LimitExceeded, Unsatisfiable, XCoverInstance,
                     check_solution, dfs, solve, stable_argsort)


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

    def __init__(self, n: int, strata: dict[int, int]):
        bad = {t: c for t, c in strata.items() if t > 1 and c % 18}
        super().__init__(
            f"n={n}: stratum infeasible (class count not divisible by 18): "
            + ", ".join(f"t={t} (N_t={c})" for t, c in sorted(bad.items())))
        self.n = n
        self.strata = strata
        self.bad = bad


def _progress(msg: str, verbose: bool) -> None:
    if verbose:
        print(msg, file=sys.stderr, flush=True)


# -- items and candidate triples ------------------------------------------------


def _closure_items(key: np.ndarray, inside: np.ndarray, size: int):
    """One item per distinct ``key`` of the residues ``inside``: the keys,
    residue -> item index (-1 outside), and each item's residues sorted,
    as an (items, size) array."""
    # keys are residues: a dense rank over a mark array, with no sort
    mark = np.zeros(key.size, dtype=bool)
    mark[key[inside]] = True
    keys = np.flatnonzero(mark)
    owner = (np.cumsum(mark) - 1)[key[inside]]
    if (np.bincount(owner, minlength=keys.size) != size).any():
        raise AssertionError(f"a closure set is not {size} residues")
    item_of = np.full(key.size, -1, dtype=np.int64)
    item_of[inside] = owner
    members = np.flatnonzero(inside)[stable_argsort(owner, keys.size)]
    return keys, item_of, members.reshape(-1, size)


def _singer_items(ctx: FieldCtx, m: int):
    """Gamma-set items off the spread exponents: keys, residue -> item, and
    the sorted residues as ``first`` (items, 1, 6) and ``second`` (items,
    6, 1), so witnesses are ordered by (partner, s2, s1)."""
    keys, item_of, rows = _closure_items(gamma_table(ctx)[:, 0],
                                         exponent_universe(ctx.order, m), 6)
    return keys, item_of, rows[:, None, :], rows[:, :, None]


def _frobenius_items(ctx: FieldCtx, t: int):
    """cy_gamma-set items of class size t: residue -> item index (-1 outside
    the stratum), the gamma row of each item's key as ``first`` (items,
    6, 1) and its sorted members as ``second`` (items, 1, 6t), so the
    witnesses of a triple are ordered by (partner, a, b).

    cy_gamma(r) is the union of gamma(2^j r) over j, so its key is the
    least gamma key along the doubling orbit; doubling mod 2^n - 1 is an
    n-bit rotation.  Class size is constant on a cy_gamma-set.
    """
    n, M = ctx.n, ctx.order
    table = gamma_table(ctx)
    r = np.arange(M, dtype=np.int64)
    v = r
    cy_key = table[:, 0].copy()
    size = np.zeros(M, dtype=np.int64)
    for step in range(1, n + 1):
        v = ((v << 1) | (v >> (n - 1))) & M
        np.minimum(cy_key, table[v, 0], out=cy_key)
        size[(size == 0) & (v == r)] = step
    keys, item_of, members = _closure_items(cy_key, size == t, 6 * t)
    return item_of, table[keys][:, :, None], members[:, None, :]


def _item_triples(M: int, item_of: np.ndarray, first: np.ndarray,
                  second: np.ndarray, a: int, partners: np.ndarray):
    """Item a's triples (a, p, c), p from the ascending ``partners`` and
    c > p, in (p, c) order, as arrays p, c, s1, s2 with (s1, s2) the
    first witness in the (partner, x, y) C order of the block where
    ``first[a]`` (s1) and ``second[partners]`` (s2) broadcast; s3 =
    -s1 - s2 lies in item ``item_of[s3]`` (-1 outside the problem).
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


def _candidate_triples(M: int, item_of: np.ndarray, first: np.ndarray,
                       second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All item triples with a zero-sum witness, as sorted ascending (S, 3)
    rows, with one witness (s1, s2) each.

    A triple a < p < c with a witness from any item has one from a with
    partner p (permute the residues, or double all three until s1 is in
    first[a]), and that block comes first: so each triple is taken
    there, with its first witness in item a's kernel block.
    """
    N = len(first)
    # int32 halves the instance; residues lie below 2^MAX_DEGREE - 1
    triples, tags = [np.empty((0, 3), dtype=np.int32)], [np.empty((0, 2), dtype=np.int32)]
    for a in range(N - 1):
        p, c, s1, s2 = _item_triples(M, item_of, first, second, a,
                                     np.arange(a + 1, N))
        triples.append(np.column_stack([np.full(p.size, a), p, c]).astype(np.int32))
        tags.append(np.column_stack([s1, s2]).astype(np.int32))
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
    uncovered partners at a time.  The item branched on is the smallest
    uncovered one; a cursor per open node remembers where the scan for
    it stopped, since covering only ever moves it forward.  The triple
    set is dense enough that the first fit almost always extends;
    backtracking handles the rare dead end.
    """

    def __init__(self, M: int, item_of: np.ndarray, first: np.ndarray,
                 second: np.ndarray):
        self.M = M
        self.item_of = item_of
        self.live_of = item_of.copy()   # -1 also on the residues of covered items
        self.first = first
        self.second = second
        self.n_items = len(first)
        self.batch = max(1, _LAZY_CELLS // (first[0].size * second[0].size))
        self.covered = np.zeros(self.n_items, dtype=bool)
        self.cursor = [0]

    def next_item(self) -> int | None:
        covered, pos = self.covered, self.cursor[-1]
        while pos < covered.size and covered[pos]:
            pos += 1
        self.cursor[-1] = pos
        return pos if pos < covered.size else None

    def candidates(self, a: int):
        # the generator only runs while this node's own state is applied,
        # so the flags read here stay valid across its batches
        free = np.flatnonzero(~self.covered[a + 1:]) + (a + 1)  # items before a are covered
        for lo in range(0, free.size, self.batch):
            p, c, s1, s2 = _item_triples(self.M, self.live_of, self.first,
                                         self.second, a, free[lo:lo + self.batch])
            for i in range(p.size):     # first fit mostly takes the first
                yield (a, int(p[i]), int(c[i])), (int(s1[i]), int(s2[i]))

    def cover(self, cand) -> None:
        items = list(cand[0])
        self.covered[items] = True
        self.live_of[self.second[items]] = -1
        self.cursor.append(self.cursor[-1])

    def uncover(self, cand) -> None:
        items = list(cand[0])
        self.covered[items] = False
        residues = self.second[items]
        self.live_of[residues] = self.item_of[residues]
        self.cursor.pop()


def _witnesses(problem: XCoverInstance | _LazySource, what: str,
               node_limit: int | None, time_limit: float | None,
               verbose: bool) -> list[tuple[int, int]]:
    """The witness (s1, s2) of each triple of the first exact cover of a
    materialized instance (its solution re-checked) or a lazy source, or
    the search error for a failed run."""
    if isinstance(problem, XCoverInstance):
        result = solve(problem, node_limit=node_limit, time_limit=time_limit)
    else:
        _progress(f"{what}: {problem.n_items} items, lazy search", verbose)
        result = dfs(problem, node_limit=node_limit, time_limit=time_limit)
    if isinstance(result, Unsatisfiable):
        raise SearchUnsatisfiable(
            f"{what}: no exact cover after {result.nodes} nodes", result)
    if isinstance(result, LimitExceeded):
        raise SearchLimitExceeded(
            f"{what} stopped: {result.reason} after {result.nodes} nodes", result)
    _progress(f"{what} solved in {result.nodes} nodes", verbose)
    if isinstance(problem, _LazySource):
        return [pair for _, pair in result.chosen]
    assert check_solution(problem, result)
    return list(map(tuple, problem.tags[list(result.chosen)].tolist()))


# -- multiplicative-group (gamma-set) problem -----------------------------------


def singer_problem(ctx: FieldCtx, m: int, verbose: bool = False) -> XCoverInstance:
    """Exact-cover instance over gamma-set keys outside the spread.

    Candidate subsets are all key triples admitting a zero-sum
    representative; tags carry one witness (s1, s2) per triple for the
    later conversion to generator reps.  Witnesses of one triple are
    ordered by (partner, s2, s1).
    """
    keys, item_of, first, second = _singer_items(ctx, m)
    _progress(f"gamma items: {keys.size} (universe {6 * keys.size})", verbose)
    subsets, tags = _candidate_triples(ctx.order, item_of, first, second)
    _progress(f"candidate triples: {len(subsets)}", verbose)
    return XCoverInstance(n_items=keys.size, subsets=subsets, tags=tags)


def _check_partition(ctx: FieldCtx, reps, m: int) -> None:
    """The reps' 18-sets must tile the exponent universe exactly."""
    counts = orbit_cover_counts(ctx, reps)
    bad = np.flatnonzero(counts != exponent_universe(ctx.order, m))
    if bad.size:
        r = int(bad[0])
        raise AssertionError(f"orbit partition covers residue {r} "
                             f"{counts[r]} times")


def search_singer(n: int, m: int, node_limit: int | None = None,
                  time_limit: float | None = None,
                  verbose: bool = False) -> OrbitCertificate:
    """Find generator reps whose multiplicative orbits tile the non-group lines."""
    if m < 1 or n % m:
        raise ValueError(f"group dimension {m} must divide {n}")
    if (n - m) % 6:
        raise ValueError(f"(n={n}, m={m}) rejected: n - m = {n - m} "
                         "not divisible by 6, no invariant design exists")
    ctx = build_field(n)
    if ((1 << n) - (1 << m)) // 6 > LAZY_STRATUM_THRESHOLD:
        problem = _LazySource(ctx.order, *_singer_items(ctx, m)[1:])
    else:
        problem = singer_problem(ctx, m, verbose=verbose)
    witnesses = _witnesses(problem, f"search (n={n}, m={m})", node_limit,
                           time_limit, verbose)
    reps = sorted((s1, (s1 + s2) % ctx.order) for s1, s2 in witnesses)
    cert = OrbitCertificate(n=n, m=m, poly=ctx.poly, reps=tuple(reps))
    _check_partition(ctx, cert.reps, m)
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


def frobenius_problem(ctx: FieldCtx, t: int, verbose: bool = False
                      ) -> XCoverInstance:
    """Exact-cover instance over the cy_gamma-sets of class size t.

    A candidate is a key triple {K(a), K(b), K(a+b)} of pairwise
    distinct cy_gamma-sets inside the stratum, with a in the gamma-set
    of the first key and b anywhere in the second set; the witness pair
    (a, b) rides along as the tag.  Witnesses of one triple are ordered
    by (partner, a, b).
    """
    item_of, first, second = _frobenius_items(ctx, t)
    _progress(f"stratum t={t}: {len(first)} cy-gamma items", verbose)
    subsets, tags = _candidate_triples(ctx.order, item_of, first, second)
    _progress(f"stratum t={t}: {len(subsets)} candidate triples", verbose)
    return XCoverInstance(n_items=len(first), subsets=subsets, tags=tags)


def search_frobenius(n: int, node_limit: int | None = None,
                     time_limit: float | None = None,
                     allow_long: bool = False,
                     verbose: bool = False) -> FrobeniusCertificate:
    """Find pairs (a, b) whose multiplicative+squaring sweep tiles Z_{2^n-1}*.

    Strata (one per cyclotomic class size > 1) are checked for the
    18-divisibility obstruction up front and solved independently.
    """
    if n % 6 != 1:
        raise ValueError(f"n={n} rejected: need n congruent to 1 mod 6")
    strata = frobenius_strata(n)
    if any(t > 1 and c % 18 for t, c in strata.items()):
        raise InfeasibleStratumError(n, strata)
    if n >= 19 and not allow_long:
        raise ValueError(f"n={n} is a long run; pass allow_long=True "
                         "(CLI: --allow-long) to proceed")
    ctx = build_field(n)
    pairs: list[tuple[int, int]] = []
    for t in sorted(strata):
        if t == 1:
            continue  # only k = 0 fixed by squaring
        expected = strata[t] // 18 * 3
        if expected > LAZY_STRATUM_THRESHOLD:
            problem = _LazySource(ctx.order, *_frobenius_items(ctx, t))
        else:
            problem = frobenius_problem(ctx, t, verbose=verbose)
        if problem.n_items != expected:
            raise AssertionError(
                f"stratum t={t}: {problem.n_items} items, expected {expected}")
        pairs.extend(_witnesses(problem, f"stratum t={t}", node_limit,
                                time_limit, verbose))
    pairs.sort()
    cert = FrobeniusCertificate(n=n, poly=ctx.poly, pairs=tuple(pairs))
    _check_partition(ctx, frobenius_reps(ctx, cert.pairs), 1)
    return cert
