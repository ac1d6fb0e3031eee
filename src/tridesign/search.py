"""Search for orbit certificates by exact cover.

Two reductions are built here.  The multiplicative-group problem
partitions the gamma-sets outside the spread exponents into triples
with a zero-sum representative; solving it yields generator pairs
(i, j) whose orbits tile all non-group lines.  The finer problem adds
the squaring automorphism: items become cy_gamma-sets, one stratum
per 2-cyclotomic class size, and a solution is a pair list (a, b)
whose combined sweep tiles the exponent ring.

Both searches re-check the orbit-level partition on their own output
before returning a certificate.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .gf2n import FieldCtx, build_field
from .orbits import (FrobeniusCertificate, OrbitCertificate, cy_gamma, gamma,
                     frobenius_reps)
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


# -- multiplicative-group (gamma-set) problem -----------------------------------


def _gamma_key_table(ctx: FieldCtx, g: int) -> np.ndarray:
    """key_of[r] = min of gamma(r) for r outside the spread exponents, else -1."""
    M = ctx.order
    key_of = np.full(M, -1, dtype=np.int64)
    for r in range(1, M):
        if g > 1 and r % g == 0:
            continue
        if key_of[r] >= 0:
            continue
        gam = gamma(ctx, r)
        key = gam[0]
        for s in gam:
            key_of[s] = key
    return key_of


def singer_problem(ctx: FieldCtx, m: int, verbose: bool = False
                   ) -> tuple[XCoverInstance, list[int]]:
    """Exact-cover instance over gamma-set keys outside the spread.

    Candidate subsets are all key triples admitting a zero-sum
    representative; tags carry one witness (s1, s2) per triple for the
    later conversion to generator reps.
    """
    n = ctx.n
    M = ctx.order
    g = M // ((1 << m) - 1) if m > 1 else 1
    key_of = _gamma_key_table(ctx, g)
    keys = np.unique(key_of[key_of >= 0])
    universe = int(np.count_nonzero(key_of >= 0))
    if keys.size * 6 != universe:
        raise AssertionError(
            f"degenerate closure sets in the universe: {keys.size} items "
            f"over {universe} residues")
    key_index = np.full(M, -1, dtype=np.int64)
    key_index[keys] = np.arange(keys.size)
    gammas = np.array([gamma(ctx, int(k)) for k in keys], dtype=np.int64)
    _progress(f"gamma items: {keys.size} (universe {universe})", verbose)

    found: dict[int, tuple[int, int]] = {}
    for a_idx in range(keys.size):
        s1 = gammas[a_idx]                      # (6,)
        s2 = gammas[a_idx + 1:]                 # (P, 6)
        if s2.size == 0:
            continue
        s3 = (-s1[None, None, :] - s2[:, :, None]) % M    # (P, 6, 6)
        k3 = np.where(s3 > 0, key_of[s3], -1)
        own = keys[a_idx]
        partner = keys[a_idx + 1:][:, None, None]
        valid = (k3 >= 0) & (k3 != own) & (k3 != partner)
        for p, i2, i1 in zip(*np.nonzero(valid)):
            trip = tuple(sorted((own, int(keys[a_idx + 1 + p]), int(k3[p, i2, i1]))))
            packed = (trip[0] << 26) | (trip[1] << 13) | trip[2] if n <= 13 else trip
            if packed not in found:
                found[packed] = (int(s1[i1]), int(s2[p, i2]))
    triples = sorted(found)
    subsets = []
    tags = []
    for packed in triples:
        if isinstance(packed, tuple):
            trip = packed
        else:
            trip = (packed >> 26, (packed >> 13) & 0x1FFF, packed & 0x1FFF)
        subsets.append(tuple(sorted(int(key_index[k]) for k in trip)))
        tags.append(found[packed])
    _progress(f"candidate triples: {len(subsets)}", verbose)
    inst = XCoverInstance(n_items=keys.size, subsets=subsets, tags=tags)
    return inst, [int(k) for k in keys]


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
    g = M // ((1 << m) - 1) if m > 1 else 1
    kbar_size = (M - 1) - (M // g - 1 if g > 1 else 0)
    n_items = kbar_size // 6
    what = f"search (n={n}, m={m})"
    if n_items > LAZY_STRATUM_THRESHOLD:
        key_of = _gamma_key_table(ctx, g)
        keys = sorted(int(k) for k in np.unique(key_of[key_of >= 0]))
        gammas = {k: np.array(gamma(ctx, k), dtype=np.int64) for k in keys}
        _progress(f"gamma items: {len(keys)}, lazy search", verbose)
        sol = _solved(dfs(_LazySource(M, keys, key_of, gammas, gammas),
                          node_limit=node_limit, time_limit=time_limit), what)
        witnesses = [pair for _, pair in sol.chosen]
    else:
        inst, _ = singer_problem(ctx, m, verbose=verbose)
        sol = _solved(solve(inst, node_limit=node_limit, time_limit=time_limit),
                      what)
        assert check_solution(inst, sol)
        witnesses = [inst.tags[s] for s in sol.chosen]
    _progress(f"solved in {sol.nodes} nodes", verbose)
    reps = sorted((s1, (s1 + s2) % M) for s1, s2 in witnesses)
    cert = OrbitCertificate(n=n, m=m, poly=ctx.poly, reps=tuple(reps))
    _verify_singer_partition(ctx, m, cert)
    return cert


def _verify_singer_partition(ctx: FieldCtx, m: int, cert: OrbitCertificate) -> None:
    M = ctx.order
    g = M // ((1 << m) - 1) if m > 1 else 1
    covered: set[int] = set()
    for i, j in cert.reps:
        for k in (i, j, (j - i) % M):
            gam = gamma(ctx, k)
            if covered.intersection(gam):
                raise AssertionError(f"orbit partition overlap at rep ({i},{j})")
            covered.update(gam)
    universe = {r for r in range(1, M) if g == 1 or r % g}
    if covered != universe:
        raise AssertionError("orbit partition does not cover the exponent universe")


# -- multiplicative + squaring (cy_gamma) problem -------------------------------


def frobenius_strata(n: int) -> dict[int, int]:
    """Number of 2-cyclotomic classes of each size t dividing n.

    Counted arithmetically (no enumeration): residues whose class size
    divides t number 2^gcd(n,t) - 1, and Moebius inversion over the
    divisors of n isolates the exact-size counts.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    size_le = {t: (1 << math.gcd(n, t)) - 1 for t in divisors}

    def moebius(x: int) -> int:
        out, rem, p = 1, x, 2
        while p * p <= rem:
            if rem % p == 0:
                rem //= p
                if rem % p == 0:
                    return 0
                out = -out
            p += 1
        if rem > 1:
            out = -out
        return out

    strata = {}
    for t in divisors:
        total = sum(moebius(t // d) * size_le[d] for d in divisors if t % d == 0)
        if total:
            strata[t] = total // t
    return strata


def frobenius_problem(ctx: FieldCtx, t: int, verbose: bool = False
                      ) -> XCoverInstance:
    """Exact-cover instance over the cy_gamma-sets of class size t.

    A candidate is a key triple {K(a), K(b), K(a+b)} of pairwise
    distinct cy_gamma-sets inside the stratum; the witness pair (a, b)
    rides along as the tag.
    """
    M = ctx.order
    stratum_keys, key_of, gamma_of_key, members = _stratum_tables(ctx, t)
    key_index = {k: i for i, k in enumerate(stratum_keys)}
    _progress(f"stratum t={t}: {len(stratum_keys)} cy-gamma items", verbose)

    found: dict[tuple[int, int, int], tuple[int, int]] = {}
    for ka in stratum_keys:
        ga = gamma_of_key[ka]                              # (6,)
        for kb in stratum_keys:
            if kb <= ka:
                continue
            mb = members[kb]                               # (6t,)
            s3 = (-ga[:, None] - mb[None, :]) % M          # (6, 6t)
            k3 = np.where(s3 > 0, key_of[s3], -1)
            valid = (k3 >= 0) & (k3 != ka) & (k3 != kb)
            for i1, i2 in zip(*np.nonzero(valid)):
                kc = int(k3[i1, i2])
                if kc not in key_index:
                    continue  # witness sum lands outside the stratum
                trip = tuple(sorted((ka, kb, kc)))
                if trip not in found:
                    found[trip] = (int(ga[i1]), int(mb[i2]))
    subsets, tags = [], []
    for trip in sorted(found):
        subsets.append(tuple(sorted(key_index[k] for k in trip)))
        tags.append(found[trip])
    _progress(f"stratum t={t}: {len(subsets)} candidate triples", verbose)
    return XCoverInstance(n_items=len(stratum_keys), subsets=subsets, tags=tags)


def _class_size(n: int, k: int) -> int:
    M = (1 << n) - 1
    v = (2 * k) % M
    size = 1
    while v != k:
        v = (2 * v) % M
        size += 1
    return size


# Above this many items the candidate triples are not materialized
# (the triple set is ~90% dense: gigabytes at n=19); the same DFS runs
# first-fit over candidates generated on demand instead.  All
# acceptance-scale problems (up to 672 items) stay on the materialized
# source.
LAZY_STRATUM_THRESHOLD = 1000


def _stratum_tables(ctx: FieldCtx, t: int):
    """cy_gamma keys of class size t, plus lookup tables for the solver."""
    n, M = ctx.n, ctx.order
    key_of = np.full(M, -1, dtype=np.int64)
    stratum_keys: list[int] = []
    gamma_of_key: dict[int, np.ndarray] = {}
    members: dict[int, np.ndarray] = {}
    for r in range(1, M):
        if key_of[r] >= 0:
            continue
        cg = cy_gamma(ctx, r)
        key = cg[0]
        arr = np.array(cg, dtype=np.int64)
        for s in cg:
            key_of[s] = key
        if _class_size(n, r) == t:
            stratum_keys.append(key)
            gamma_of_key[key] = np.array(gamma(ctx, key), dtype=np.int64)
            members[key] = arr
    stratum_keys.sort()
    return stratum_keys, key_of, gamma_of_key, members


class _LazySource:
    """First-fit candidate source over lazily generated triples.

    The item is the smallest uncovered key; a cursor per open node
    remembers where the scan for it stopped, since covering only ever
    moves it forward.  Candidates for a key are produced in ascending
    (partner, third-key) order as ``((k1, k2, k3), (a, b))``, so the
    search is as deterministic as the materialized one.  The triple set
    is dense enough that the first fit almost always extends;
    backtracking handles the rare dead end.
    """

    def __init__(self, M: int, keys: list[int], key_of: np.ndarray,
                 gamma_of_key: dict[int, np.ndarray],
                 members: dict[int, np.ndarray]):
        self.M = M
        self.keys = keys
        self.key_of = key_of
        self.gamma_of_key = gamma_of_key
        self.members = members
        self.covered: set[int] = set()
        self.cursor = [0]

    def next_item(self) -> int | None:
        keys, pos = self.keys, self.cursor[-1]
        while pos < len(keys) and keys[pos] in self.covered:
            pos += 1
        self.cursor[-1] = pos
        return keys[pos] if pos < len(keys) else None

    def candidates(self, k1: int):
        M, covered, members = self.M, self.covered, self.members
        g1 = self.gamma_of_key[k1]
        seen: set[tuple[int, int]] = set()
        for k2 in self.keys:
            if k2 == k1 or k2 in covered:
                continue
            mb = members[k2]
            s3 = (-g1[:, None] - mb[None, :]) % M
            k3s = np.where(s3 > 0, self.key_of[s3], -1)
            hits = np.nonzero((k3s >= 0) & (k3s != k1) & (k3s != k2))
            options = sorted(
                {(int(k3s[i, j]), int(g1[i]), int(mb[j]))
                 for i, j in zip(*hits)
                 if int(k3s[i, j]) in members and int(k3s[i, j]) not in covered
                 and int(k3s[i, j]) > k2})
            for k3, a, b in options:
                if (k2, k3) in seen:
                    continue
                seen.add((k2, k3))
                yield (k1, k2, k3), (a, b)

    def cover(self, cand) -> None:
        self.covered.update(cand[0])
        self.cursor.append(self.cursor[-1])

    def uncover(self, cand) -> None:
        self.covered.difference_update(cand[0])
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
            stratum_keys, key_of, gamma_of_key, members = _stratum_tables(ctx, t)
            if len(stratum_keys) != expected:
                raise AssertionError(
                    f"stratum t={t}: {len(stratum_keys)} items, "
                    f"expected {expected}")
            _progress(f"stratum t={t}: {expected} items, lazy search", verbose)
            source = _LazySource(ctx.order, stratum_keys, key_of, gamma_of_key,
                                 members)
            sol = _solved(dfs(source, node_limit=node_limit,
                              time_limit=time_limit), what)
            pairs.extend(pair for _, pair in sol.chosen)
        else:
            inst = frobenius_problem(ctx, t, verbose=verbose)
            if inst.n_items != expected:
                raise AssertionError(
                    f"stratum t={t}: {inst.n_items} items, expected {expected}")
            sol = _solved(solve(inst, node_limit=node_limit,
                                time_limit=time_limit), what)
            assert check_solution(inst, sol)
            pairs.extend(inst.tags[s] for s in sol.chosen)
        _progress(f"stratum t={t} solved in {sol.nodes} nodes", verbose)
    pairs.sort()
    cert = FrobeniusCertificate(n=n, poly=ctx.poly, pairs=tuple(pairs))
    _verify_frobenius_partition(ctx, cert)
    return cert


def _verify_frobenius_partition(ctx: FieldCtx, cert: FrobeniusCertificate) -> None:
    M = ctx.order
    covered: set[int] = set()
    for i, j in frobenius_reps(ctx, cert.pairs):
        for k in (i, j, (j - i) % M):
            gam = gamma(ctx, k)
            if covered.intersection(gam):
                raise AssertionError(f"orbit partition overlap at rep ({i},{j})")
            covered.update(gam)
    if covered != set(range(1, M)):
        raise AssertionError("orbit partition does not cover Z_{2^n-1} minus 0")
