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
One builder, ``_candidate_triples``, produces either problem's
candidates as an (S, 3) array of item triples with an (S, 2) array of
witnesses, one numpy block per item, and the exact-cover instance
holds them as arrays.  Above ``LAZY_STRATUM_THRESHOLD`` items the
candidates are generated on demand by ``_LazySource`` instead.

Both searches re-check the orbit-level partition on their own output
with ``orbits.orbit_cover_counts`` before returning a certificate.
"""

from __future__ import annotations

import sys

import numpy as np

from .gf2n import FieldCtx, build_field
from .orbits import (FrobeniusCertificate, OrbitCertificate, exponent_universe,
                     frobenius_reps, gamma_table, orbit_cover_counts)
from .xcover import (CoverSolution, LimitExceeded, Unsatisfiable,
                     XCoverInstance, check_solution, dfs, solve)


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


def _solved(result: CoverSolution | Unsatisfiable | LimitExceeded, what: str
            ) -> CoverSolution:
    """The solution of an exact-cover run, or the search error for its failure."""
    if isinstance(result, Unsatisfiable):
        raise SearchUnsatisfiable(
            f"{what}: no exact cover after {result.nodes} nodes", result)
    if isinstance(result, LimitExceeded):
        raise SearchLimitExceeded(
            f"{what} stopped: {result.reason} after {result.nodes} nodes", result)
    return result


# -- items and candidate triples ------------------------------------------------


def _closure_items(key: np.ndarray, inside: np.ndarray, size: int):
    """One item per distinct ``key`` of the residues ``inside``: the keys,
    residue -> item index (-1 outside), and each item's residues sorted,
    as an (items, size) array."""
    keys = np.unique(key[inside])
    owner = np.searchsorted(keys, key[inside])
    if (np.bincount(owner, minlength=keys.size) != size).any():
        raise AssertionError(f"a closure set is not {size} residues")
    item_of = np.full(key.size, -1, dtype=np.int64)
    item_of[inside] = owner
    members = np.flatnonzero(inside)[np.argsort(owner, kind="stable")]
    return keys, item_of, members.reshape(-1, size)


def _singer_items(ctx: FieldCtx, m: int):
    """Gamma-set items off the spread exponents: keys, residue -> item, rows."""
    return _closure_items(gamma_table(ctx)[:, 0],
                          exponent_universe(ctx.order, m), 6)


def _frobenius_items(ctx: FieldCtx, t: int):
    """cy_gamma-set items of class size t: residue -> item index (-1 outside
    the stratum), the gamma row of each item's key and its sorted members.

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
    return item_of, table[keys], members


def _candidate_triples(M: int, item_of: np.ndarray, first: np.ndarray,
                       second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All item triples with a zero-sum witness, as sorted ascending (S, 3)
    rows, with one witness (s1, s2) each.

    Item a offers the residues ``first[a]`` as s1, a later item p the
    residues ``second[p]`` as s2, and s3 = -s1 - s2 lies in item
    ``item_of[s3]`` (-1 outside the problem).  ``first[a]`` and
    ``second[a + 1:]`` broadcast into one (partner, x, y) block whose C
    order is the tie-break between witnesses.  A triple a < p < c with a
    witness from any item has one from a with partner p (permute the
    residues, or double all three until s1 is in first[a]), and that
    block comes first: so each triple is taken there, at its first hit.
    """
    N = len(first)
    triples, tags = [np.empty((0, 3), dtype=np.int64)], [np.empty((0, 2), dtype=np.int64)]
    for a in range(N - 1):
        s1, s2 = np.broadcast_arrays(first[a], second[a + 1:])
        third = item_of[(-s1 - s2) % M]
        hit = np.flatnonzero(third > np.arange(a + 1, N).reshape(-1, 1, 1))
        block = s1[0].size
        p = hit // block + a + 1
        c = third.ravel()[hit]
        _, at = np.unique(p * N + c, return_index=True)
        at_hit = hit[at]
        triples.append(np.column_stack([np.full(at.size, a), p[at], c[at]]))
        tags.append(np.column_stack([s1.ravel()[at_hit], s2.ravel()[at_hit]]))
    return np.concatenate(triples), np.concatenate(tags)


# -- multiplicative-group (gamma-set) problem -----------------------------------


def singer_problem(ctx: FieldCtx, m: int, verbose: bool = False
                   ) -> tuple[XCoverInstance, list[int]]:
    """Exact-cover instance over gamma-set keys outside the spread.

    Candidate subsets are all key triples admitting a zero-sum
    representative; tags carry one witness (s1, s2) per triple for the
    later conversion to generator reps.  Witnesses of one triple are
    ordered by (partner, s2, s1).
    """
    keys, item_of, rows = _singer_items(ctx, m)
    _progress(f"gamma items: {keys.size} (universe {6 * keys.size})", verbose)
    subsets, tags = _candidate_triples(ctx.order, item_of, rows[:, None, :],
                                       rows[:, :, None])
    _progress(f"candidate triples: {len(subsets)}", verbose)
    inst = XCoverInstance(n_items=keys.size, subsets=subsets, tags=tags)
    return inst, keys.tolist()


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
    M = ctx.order
    what = f"search (n={n}, m={m})"
    if ((1 << n) - (1 << m)) // 6 > LAZY_STRATUM_THRESHOLD:
        keys, item_of, rows = _singer_items(ctx, m)
        _progress(f"gamma items: {keys.size}, lazy search", verbose)
        sol = _solved(dfs(_LazySource(M, item_of, rows, rows),
                          node_limit=node_limit, time_limit=time_limit), what)
        witnesses = [pair for _, pair in sol.chosen]
    else:
        inst, _ = singer_problem(ctx, m, verbose=verbose)
        sol = _solved(solve(inst, node_limit=node_limit, time_limit=time_limit),
                      what)
        assert check_solution(inst, sol)
        witnesses = inst.tags[list(sol.chosen)].tolist()
    _progress(f"solved in {sol.nodes} nodes", verbose)
    reps = sorted((s1, (s1 + s2) % M) for s1, s2 in witnesses)
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
    item_of, first, members = _frobenius_items(ctx, t)
    _progress(f"stratum t={t}: {len(first)} cy-gamma items", verbose)
    subsets, tags = _candidate_triples(ctx.order, item_of, first[:, :, None],
                                       members[:, None, :])
    _progress(f"stratum t={t}: {len(subsets)} candidate triples", verbose)
    return XCoverInstance(n_items=len(first), subsets=subsets, tags=tags)


# Above this many items the candidate triples are not materialized
# (the triple set is ~90% dense: gigabytes at n=19); the same DFS runs
# first-fit over candidates generated on demand instead.  All
# acceptance-scale problems (up to 672 items) stay on the materialized
# source.
LAZY_STRATUM_THRESHOLD = 1000


class _LazySource:
    """First-fit candidate source over lazily generated triples.

    Items are indexed as in ``_candidate_triples``: item a offers the
    residues ``first[a]``, a partner p the residues ``second[p]``, and
    ``item_of`` names the item of each residue (-1 outside the problem).
    The item branched on is the smallest uncovered one; a cursor per
    open node remembers where the scan for it stopped, since covering
    only ever moves it forward.  Candidates for an item are produced in
    ascending (partner, third item) order as ``((a, p, c), (s1, s2))``,
    each with its least witness, so the search is as deterministic as
    the materialized one.  The triple set is dense enough that the first
    fit almost always extends; backtracking handles the rare dead end.
    """

    def __init__(self, M: int, item_of: np.ndarray, first: np.ndarray,
                 second: np.ndarray):
        self.M = M
        self.item_of = item_of
        self.first = first
        self.second = second
        self.covered = np.zeros(len(first), dtype=bool)
        self.cursor = [0]

    def next_item(self) -> int | None:
        covered, pos = self.covered, self.cursor[-1]
        while pos < covered.size and covered[pos]:
            pos += 1
        self.cursor[-1] = pos
        return pos if pos < covered.size else None

    def candidates(self, a: int):
        covered = self.covered
        s1 = self.first[a][:, None]
        for p in range(a + 1, covered.size):    # items before a are covered
            if covered[p]:
                continue
            s2 = self.second[p]
            third = self.item_of[(-s1 - s2) % self.M]
            hit = third > p
            hit[hit] = ~covered[third[hit]]
            flat = np.flatnonzero(hit)
            cs, at = np.unique(third.ravel()[flat], return_index=True)
            i, j = np.divmod(flat[at], s2.size)
            for c, x, y in zip(cs.tolist(), s1[i, 0].tolist(), s2[j].tolist()):
                yield (a, p, c), (x, y)

    def cover(self, cand) -> None:
        self.covered[list(cand[0])] = True
        self.cursor.append(self.cursor[-1])

    def uncover(self, cand) -> None:
        self.covered[list(cand[0])] = False
        self.cursor.pop()


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
        what = f"stratum t={t}"
        if expected > LAZY_STRATUM_THRESHOLD:
            item_of, first, members = _frobenius_items(ctx, t)
            if len(first) != expected:
                raise AssertionError(
                    f"stratum t={t}: {len(first)} items, expected {expected}")
            _progress(f"stratum t={t}: {expected} items, lazy search", verbose)
            sol = _solved(dfs(_LazySource(ctx.order, item_of, first, members),
                              node_limit=node_limit, time_limit=time_limit), what)
            pairs.extend(pair for _, pair in sol.chosen)
        else:
            inst = frobenius_problem(ctx, t, verbose=verbose)
            if inst.n_items != expected:
                raise AssertionError(
                    f"stratum t={t}: {inst.n_items} items, expected {expected}")
            sol = _solved(solve(inst, node_limit=node_limit,
                                time_limit=time_limit), what)
            assert check_solution(inst, sol)
            pairs.extend(map(tuple, inst.tags[list(sol.chosen)].tolist()))
        _progress(f"stratum t={t} solved in {sol.nodes} nodes", verbose)
    pairs.sort()
    cert = FrobeniusCertificate(n=n, poly=ctx.poly, pairs=tuple(pairs))
    _check_partition(ctx, frobenius_reps(ctx, cert.pairs), 1)
    return cert
