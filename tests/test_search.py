import hashlib
import itertools
import sys

import numpy as np

import pytest

from conftest import traced_peak_mib
from reference import (closure_items, cy_gamma_key, gamma_key, is_triangle_orbit,
                       item_triples)
from tridesign.designs import Gdd, verify_design, verify_gdd
from tridesign.gf2n import DEFAULT_POLYS, _build_field_cached, build_field
from tridesign.orbits import OrbitCertificate, expand_certificate
from tridesign.search import (InfeasibleStratumError, _stratum_items,
                              frobenius_problem, frobenius_strata,
                              search_frobenius, search_singer, singer_problem)


def _singer_keys(ctx, m):
    """The gamma key of each Singer item: its gamma row, taken as second."""
    return _stratum_items(ctx, m, 1)[2][:, 0, 0].tolist()


def test_frobenius_strata_counts():
    assert frobenius_strata(7) == {1: 1, 7: 18}
    assert frobenius_strata(13) == {1: 1, 13: 630}
    assert frobenius_strata(25) == {1: 1, 5: 6, 25: 1342176}
    # total residues add up to 2^n - 1
    for n in (7, 13, 25):
        assert sum(t * c for t, c in frobenius_strata(n).items()) == (1 << n) - 1


def test_search_frobenius_7_matches_known_triple(f7):
    cert = search_frobenius(7)
    assert len(cert.pairs) == 1
    a, b = cert.pairs[0]
    found = {cy_gamma_key(f7, a), cy_gamma_key(f7, b),
             cy_gamma_key(f7, (a + b) % 127)}
    known = {cy_gamma_key(f7, 1), cy_gamma_key(f7, 9),
             cy_gamma_key(f7, 117)}
    assert found == known  # same partition as the published pair (1, 9)


def test_search_frobenius_7_expands(f7):
    d = expand_certificate(search_frobenius(7))
    assert d.triangle_count == 889
    assert verify_design(d).ok


def test_search_frobenius_rejects_bad_n():
    with pytest.raises(ValueError, match="1 mod 6"):
        search_frobenius(9)


def test_search_frobenius_25_infeasible():
    with pytest.raises(InfeasibleStratumError) as exc:
        search_frobenius(25)
    assert exc.value.bad == {5: 6, 25: 1342176}
    assert "t=5" in str(exc.value)


def test_search_frobenius_19_gated():
    with pytest.raises(ValueError, match="allow_long"):
        search_frobenius(19)


def test_search_singer_19_gated():
    # the Singer search refuses a long run as the Frobenius one does,
    # before it builds a field (the time limit ends an ungated search)
    before = _build_field_cached.cache_info()
    with pytest.raises(ValueError) as singer:
        search_singer(19, 1, time_limit=0)
    assert _build_field_cached.cache_info() == before
    with pytest.raises(ValueError) as frobenius:
        search_frobenius(19)
    assert str(singer.value) == str(frobenius.value) == (
        "n=19 is a long run; pass allow_long=True (CLI: --allow-long) to proceed")


def test_singer_candidates_match_brute_force(f7):
    inst = singer_problem(f7, 1)
    keys = _singer_keys(f7, 1)
    assert len(keys) == 21
    generated = {tuple(inst.subsets[i]) for i in range(len(inst.subsets))}
    brute = set()
    for t in itertools.combinations(range(len(keys)), 3):
        if is_triangle_orbit(f7, keys[t[0]], keys[t[1]], keys[t[2]]):
            brute.add(t)
    assert generated == brute


@pytest.mark.parametrize("n", [6, 7, 8, 12, 13])
def test_gamma_keys_match_scalar_gamma_key(n):
    # the running minimum gives the scalar key at every residue: 0 at
    # residue 0, min(k, -k) at the degenerate 3k = 0 of even n
    import tridesign.search as S
    ctx = build_field(n)
    M = ctx.order
    keys = S._gamma_keys(ctx)
    assert keys.dtype == np.int32 and keys.shape == (M,)
    assert keys[0] == 0
    assert keys[1:].tolist() == [gamma_key(ctx, k) for k in range(1, M)]
    degenerate = [k for k in range(1, M) if 3 * k % M == 0]
    assert len(degenerate) == (2 if n % 2 == 0 else 0)
    assert [int(keys[k]) for k in degenerate] == [min(k, M - k) for k in degenerate]


def test_search_singer_7_1():
    cert = search_singer(7, 1)
    assert len(cert.reps) == 7  # 126 / 18
    d = expand_certificate(cert)
    assert d.triangle_count == 889
    assert verify_design(d).ok


def test_search_singer_8_2():
    cert = search_singer(8, 2)
    assert len(cert.reps) == 14  # 252 / 18
    g = expand_certificate(cert)
    assert g.triangle_count == 14 * 255
    assert verify_gdd(g).ok


def test_search_singer_rejections():
    with pytest.raises(ValueError, match="divisible by 6"):
        search_singer(9, 1)
    with pytest.raises(ValueError, match="divide"):
        search_singer(12, 5)


@pytest.mark.parametrize("n, m", [(9, 1), (12, 5), (12, 0), (13, 7)])
def test_search_and_expansion_share_one_admissibility_check(n, m):
    with pytest.raises(ValueError) as searched:
        search_singer(n, m)
    cert = OrbitCertificate(n=n, m=m, poly=DEFAULT_POLYS[n], reps=((1, 9),))
    with pytest.raises(ValueError) as expanded:
        expand_certificate(cert)
    assert str(searched.value) == str(expanded.value)


@pytest.mark.parametrize("n, m", [(1, 1), (7, 7), (13, 13)])
def test_search_singer_without_items(n, m):
    # m = n leaves every residue on the one group: no item, no triple
    cert = search_singer(n, m)
    assert cert.reps == ()
    d = expand_certificate(cert)
    assert d.triangle_count == 0
    assert (verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)).ok
    assert isinstance(d, Gdd) == (n > 1)


@pytest.mark.parametrize("threshold", [None, 10])
def test_item_count_guards_both_searches(monkeypatch, threshold):
    # the stratum solver checks the item builder against the arithmetic
    # count, on the materialized and the lazy path alike
    import tridesign.search as S
    if threshold is not None:
        monkeypatch.setattr(S, "LAZY_STRATUM_THRESHOLD", threshold)
    ctx = build_field(7)
    with pytest.raises(AssertionError,
                       match=r"^stratum \(m=1, t=1\): 21 items, expected 20$"):
        S._solve_strata(ctx, 1, {1: 20}, None, None)
    with pytest.raises(AssertionError,
                       match=r"^stratum \(m=1, t=7\): 3 items, expected 4$"):
        S._solve_strata(ctx, 1, {7: 4}, None, None)


def test_solve_strata_returns_witnesses_in_ascending_t(f7):
    # the witnesses of several strata come back stratum by stratum, t
    # ascending, whatever the order of the map
    import tridesign.search as S
    one = S._solve_strata(f7, 1, {1: 21}, None, None)
    seven = S._solve_strata(f7, 1, {7: 3}, None, None)
    assert (len(one), len(seven)) == (7, 1)
    assert S._solve_strata(f7, 1, {7: 3, 1: 21}, None, None) == one + seven


def test_drivers_build_instances_by_public_name(monkeypatch):
    # benchmarks trace singer_problem and frobenius_problem by rebinding
    # the module names, so the drivers must look them up there
    import tridesign.search as S
    singer = _spy(monkeypatch, S, "singer_problem")
    frobenius = _spy(monkeypatch, S, "frobenius_problem")
    S.search_singer(8, 2)
    S.search_frobenius(13)
    assert [(ctx.n, m, len(inst.subsets)) for ctx, m, inst in singer] == [(8, 2, 4472)]
    assert [(ctx.n, t, len(inst.subsets))
            for ctx, t, inst in frobenius] == [(13, 13, 168015)]


def test_singer_tags_are_witnesses(f7):
    inst = singer_problem(f7, 1)
    keys = _singer_keys(f7, 1)
    M = f7.order
    for subset, (s1, s2) in zip(inst.subsets, inst.tags):
        trip_keys = sorted(keys[i] for i in subset)
        s3 = (-s1 - s2) % M
        assert sorted((gamma_key(f7, s1), gamma_key(f7, s2),
                       gamma_key(f7, s3))) == trip_keys


def test_search_determinism():
    c1 = search_singer(7, 1)
    c2 = search_singer(7, 1)
    assert c1 == c2
    f1 = search_frobenius(7)
    f2 = search_frobenius(7)
    assert f1 == f2


# the forced-lazy n=13 certificate: first fit on the smallest uncovered
# key walks one fixed tree, so a change of traversal changes these pairs
LAZY_FROB13_PAIRS = (
    (1, 4097), (7, 7219), (13, 8161), (19, 450), (25, 5723), (39, 551),
    (45, 4540), (53, 8081), (59, 289), (65, 6126), (73, 1483), (79, 1752),
    (109, 7969), (115, 7182), (145, 5961), (157, 7869), (167, 5566),
    (195, 4443), (207, 7773), (299, 1915), (311, 5494), (317, 873),
    (373, 3449), (403, 4664), (1130, 3233), (1243, 1589), (1331, 1872),
    (1748, 6202), (1811, 6647), (2621, 1140), (2931, 6894), (3151, 4594),
    (3161, 494), (3284, 4601), (3883, 4165))


def _spy(monkeypatch, S, name):
    """Record (*positional arguments, result) of every S.<name> call: for
    the solvers, (instance or source, result)."""
    calls = []
    orig = getattr(S, name)

    def spy(*args, **kw):
        result = orig(*args, **kw)
        calls.append((*args, result))
        return result

    monkeypatch.setattr(S, name, spy)
    return calls


def test_lazy_stratum_path_matches_contract(monkeypatch):
    # force the lazy solver onto the n=13 stratum and check the result
    # expands and verifies exactly like the materialized path
    import tridesign.search as S
    monkeypatch.setattr(S, "LAZY_STRATUM_THRESHOLD", 10)
    calls = _spy(monkeypatch, S, "dfs")
    limit = sys.getrecursionlimit()
    cert = S.search_frobenius(13)
    assert sys.getrecursionlimit() == limit
    assert cert.pairs == LAZY_FROB13_PAIRS
    assert [r.nodes for _, r in calls] == [35]
    d = expand_certificate(cert)
    assert d.triangle_count == 3726905
    assert verify_design(d).ok


@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("problem", [(8, 2), 13], ids=str)
def test_lazy_candidates_match_materialized(monkeypatch, problem, cells):
    # with nothing covered, the lazy source offers each item exactly the
    # materialized triples of that item, in order and with the same
    # witnesses, whatever the batch of partners per kernel call and the
    # window of partners per scan: the default one, and 5 and 7 items,
    # fewer than the problem's 42 or 105 and (but for 1 cell, a batch of
    # one partner) ending inside a batch
    import tridesign.search as S
    if cells is not None:
        monkeypatch.setattr(S, "_LAZY_CELLS", cells)
    M, item_of, first, second = _problem_items(problem)
    triples, tags = S._candidate_triples(M, item_of, first, second)
    source = S._LazySource(M, item_of, first, second)
    for window in (source.window, 5, 7):
        source.window = window
        lazy = [cand for a in range(source.n_items) for cand in source.candidates(a)]
        assert [trip for trip, _ in lazy] == list(map(tuple, triples.tolist()))
        assert [pair for _, pair in lazy] == list(map(tuple, tags.tolist()))


@pytest.mark.parametrize("window", [None, 5])
@pytest.mark.parametrize("problem, nodes", [((7, 1), 8), ((8, 2), 18), ((12, 6), 353),
                                            (13, 35)], ids=str)
def test_forced_lazy_node_counts(monkeypatch, problem, nodes, window):
    # first fit walks one fixed tree on every problem forced onto the
    # lazy source, with its own window of partners or one of 5 items
    # (inside a batch of 28 Singer or 2 Frobenius partners)
    import tridesign.search as S
    monkeypatch.setattr(S, "LAZY_STRATUM_THRESHOLD", 10)
    if window is not None:
        class Windowed(S._LazySource):
            def __init__(self, *args):
                super().__init__(*args)
                self.window = window

        monkeypatch.setattr(S, "_LazySource", Windowed)
    calls = _spy(monkeypatch, S, "dfs")
    if isinstance(problem, tuple):
        S.search_singer(*problem)
    else:
        S.search_frobenius(problem)
    assert [r.nodes for _, r in calls] == [nodes]


def test_lazy_stratum_respects_limits(monkeypatch):
    import tridesign.search as S
    monkeypatch.setattr(S, "LAZY_STRATUM_THRESHOLD", 10)
    with pytest.raises(S.SearchLimitExceeded, match="node limit"):
        S.search_frobenius(13, node_limit=3)


def test_n19_search_peak_memory():
    # traced peaks of the n = 19 Frobenius stratum: the item build reads
    # the gamma rows of the item keys only (23.0 MiB; 60.5 when it read
    # the rows of every residue), and the lazy DFS holds one window of
    # partners per open node (5.9 MiB over its start; 32.0 when each
    # node held all its uncovered partners)
    import tridesign.search as S
    ctx = build_field(19)
    items, results = [], []
    assert traced_peak_mib(lambda: items.append(S._stratum_items(ctx, 1, 19))) <= 26.0
    source = S._LazySource(ctx.order, *items[0])
    assert traced_peak_mib(lambda: results.append(S.dfs(source))) <= 8.0
    assert results[0].nodes == 1660


def test_search_frobenius_19_long_run():
    # the n=19 pair list is not embedded; the gated search re-derives a
    # valid partition (orbit-level verification happens inside)
    cert = search_frobenius(19, allow_long=True)
    assert len(cert.pairs) == 1533  # (2^19 - 2) / (18 * 19)
    with pytest.raises(ValueError, match="too large"):
        expand_certificate(cert)


def test_search_singer_12_6_uses_materialized_path(monkeypatch):
    # the acceptance-scale problem must stay on the exact-cover engine
    import tridesign.search as S
    calls = _spy(monkeypatch, S, "solve")
    cert = S.search_singer(12, 6)
    assert [(inst.n_items, r.nodes) for inst, r in calls] == [(672, 224)]
    assert len(cert.reps) == 224


def test_search_frobenius_13_materialized_nodes(monkeypatch):
    import tridesign.search as S
    calls = _spy(monkeypatch, S, "solve")
    S.search_frobenius(13)
    assert [(inst.n_items, len(inst.subsets), r.nodes)
            for inst, r in calls] == [(105, 168015, 35)]


@pytest.mark.parametrize("threshold", [None, 10])
def test_time_limit_zero_stops_at_once(monkeypatch, threshold):
    # 0 seconds is a limit on both the materialized and the lazy path
    import tridesign.search as S
    if threshold is not None:
        monkeypatch.setattr(S, "LAZY_STRATUM_THRESHOLD", threshold)
    with pytest.raises(S.SearchLimitExceeded, match="time limit") as exc:
        S.search_frobenius(13, time_limit=0)
    assert exc.value.result.nodes == 1


def _sha(values):
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


# sha256 of the candidate subsets and witness tags as int64 rows; tags
# feed the certificates, so a new tie-break between witnesses shows here
PINNED_PROBLEMS = {
    (7, 1): (910,
             "de0b1c81cbfea6576803a4bf61103b505fe1820d79cf8c2bfa2af5082016dc40",
             "1aa836ba55084dc3623eb05361b25df0402a5d7b36b82e0205d4e9a47a35207e"),
    (8, 2): (4472,
             "271e2ab0c67e608d09efea362b3d22852dc915fa242d02b53ccebcbf07299b43",
             "e73c281d073bbc1500eef84c52b2994372fc1904f7e9a4f51d40fcb114a9afb4"),
    (12, 6): (1321094,
              "bb8d9aae1a32f78bb7476fb03853519a9c0091d153c4b361c2c67ee81bbcda82",
              "9d53e30d1e1af25abc759907ad518b7f5eafeae3264f6a395438aa34b6801484"),
    13: (168015,
         "9df6f87ba023a437a567bdbcd679bcb0f52a962b479dde0dd2dc3f7e24cce4c8",
         "e60a2b5934b2cbeafbbe1e45a2563d7b499da37a4ec2c4ab6ad2640c5bd74a22"),
}


@pytest.mark.parametrize("problem", list(PINNED_PROBLEMS), ids=str)
def test_problem_builders_pinned(problem):
    if isinstance(problem, tuple):
        inst = singer_problem(build_field(problem[0]), problem[1])
    else:
        inst = frobenius_problem(build_field(problem), problem)
    assert (len(inst.subsets), _sha(inst.subsets),
            _sha(inst.tags)) == PINNED_PROBLEMS[problem]
    assert inst.subsets.dtype == inst.tags.dtype == np.int32


@pytest.mark.parametrize("problem", [(8, 2), (12, 6), 13, 19], ids=str)
def test_closure_items_match_sorted_reference(monkeypatch, problem):
    # the dense rank gives the items a sort of their keys gives
    import tridesign.search as S
    calls = _spy(monkeypatch, S, "_closure_items")
    _problem_items(problem)
    [(*args, got)] = calls
    want = closure_items(*args)
    assert want[0].size == len(got[2]) > 0
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _problem_items(problem):
    """(M, item_of, first, second) of a Singer (n, m) or Frobenius n problem."""
    if isinstance(problem, tuple):
        ctx = build_field(problem[0])
        return (ctx.order, *_stratum_items(ctx, problem[1], 1))
    ctx = build_field(problem)
    return (ctx.order, *_stratum_items(ctx, 1, problem))


def _reference_triples(M, live_of, first, second, a, partners):
    """Item a's candidates ((a, p, c), (s1, s2)) by the per-item reference."""
    p, c, s1, s2 = item_triples(M, live_of, first, second, a, partners)
    return [((a, *pc), w) for pc, w in zip(zip(p.tolist(), c.tolist()),
                                          zip(s1.tolist(), s2.tolist()))]


@pytest.mark.parametrize("problem", [(7, 1), (8, 2), (12, 6), 7, 13], ids=str)
def test_candidate_triples_match_reference_kernel(problem):
    # the kernel over all item pairs gives, in order and with the same
    # witnesses, what the per-item np.unique reference gives item by item
    import tridesign.search as S
    M, item_of, first, second = _problem_items(problem)
    triples, tags = S._candidate_triples(M, item_of, first, second)
    N = len(first)
    rows, pairs = [], []
    for a in range(N - 1):
        p, c, s1, s2 = item_triples(M, item_of, first, second, a, np.arange(a + 1, N))
        rows.append(np.column_stack([np.full(p.size, a), p, c]))
        pairs.append(np.column_stack([s1, s2]))
    assert len(triples) > 0
    assert np.array_equal(triples, np.concatenate(rows))
    assert np.array_equal(tags, np.concatenate(pairs))


@pytest.mark.parametrize("problem", [(8, 2), 13], ids=str)
def test_lazy_candidates_match_reference_after_covers(problem):
    # along a seeded walk of covers and uncovers, the lazy source offers
    # each uncovered item what the reference kernel finds on the live
    # table: item_of with the residues of covered items set to -1
    import tridesign.search as S
    M, item_of, first, second = _problem_items(problem)
    source = S._LazySource(M, item_of, first, second)
    default_window = source.window
    rng = np.random.default_rng(2024)
    stack, depth = [], 0
    for _ in range(60):
        covered = np.flatnonzero(source.covered)
        live_of = np.where(np.isin(item_of, covered), -1, item_of)
        free = np.flatnonzero(~source.covered)
        if not free.size:
            source.uncover(stack.pop())
            continue
        for a in sorted({int(free[0]), int(rng.choice(free))}):
            partners = free[free > a]
            want = (_reference_triples(M, live_of, first, second, a, partners)
                    if partners.size else [])
            for window in (3, 5, default_window):   # edges among covered items
                source.window = window
                assert list(source.candidates(a)) == want
        offers = list(source.candidates(int(free[0])))
        if offers and (not stack or rng.random() < 0.7):
            cand = offers[int(rng.integers(len(offers)))]
            source.cover(cand)
            stack.append(cand)
            depth = max(depth, len(stack))
        elif stack:
            source.uncover(stack.pop())
    assert depth == source.n_items // 3     # the walk reached a full cover
    while stack:
        source.uncover(stack.pop())
    assert not source.covered.any()
    assert np.array_equal(source.kernel.table[:M] >> source.kernel.bits, item_of)
