import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import TriangleV, canonical_line, enumerate_lines, is_triangle
from tridesign.gf2n import build_field, embed_subfield
from tridesign.lines import (PlaneBasis, _partners, canonical_plane_basis,
                             desarguesian_spread, enumerate_ext_planes,
                             enumerate_line_keys_np, ext_plane_count, group_ids,
                             group_line_counts, line_count, per_point_lines,
                             plane_bases, spread_rows, subfield_tables,
                             uncovered_line_keys, validate_spread)


def test_canonical_line_examples():
    assert canonical_line(1, 2).pts == (1, 2, 3)
    assert canonical_line(3, 1).pts == (1, 2, 3)
    assert canonical_line(2, 3).pts == (1, 2, 3)
    with pytest.raises(ValueError, match="degenerate"):
        canonical_line(5, 5)
    with pytest.raises(ValueError, match="degenerate"):
        canonical_line(0, 4)


def test_enumerate_lines_counts():
    assert sum(1 for _ in enumerate_lines(2)) == 1
    assert sum(1 for _ in enumerate_lines(6)) == 651 == line_count(6)
    assert sum(1 for _ in enumerate_lines(7)) == 2667 == line_count(7)


def test_enumerate_lines_canonical_ascending():
    seen = list(enumerate_lines(4))
    keys = [l.pts[:2] for l in seen]
    assert keys == sorted(keys)
    assert len(set(l.pts for l in seen)) == len(seen)
    for l in seen:
        assert l.pts[0] < l.pts[1] < l.pts[2]
        assert l.pts[0] ^ l.pts[1] ^ l.pts[2] == 0


def test_enumerate_line_keys_np_matches():
    for n in (3, 5, 6):
        keys = enumerate_line_keys_np(n)
        ref = np.array([l.key(n) for l in enumerate_lines(n)])
        assert np.array_equal(np.sort(keys), np.sort(ref))
    for n in range(1, 13):
        ref = reference.line_key_prefix(n)
        keys = enumerate_line_keys_np(n)
        assert keys.dtype == np.int64 and keys.size == line_count(n)
        assert np.array_equal(keys, ref)


def test_enumerate_line_keys_np_prefix():
    # the keys of each smallest point x are x's partners in ascending
    # order, and any count of them is a prefix of that list
    for n in (2, 3, 7, 10):
        keys = enumerate_line_keys_np(n)
        for h in range(n - 1):
            per_x = per_point_lines(n, h)
            for x in (1 << h, (2 << h) - 1):
                own = keys[(keys >> n) == x]
                assert own.size == per_x
                for count in (0, 1, per_x // 3, per_x):
                    ys = _partners(h, n, count, np.int32)
                    assert ys.dtype == np.int32
                    assert np.array_equal(own[:count], (x << n) | ys)
    # a prefix at large n builds only the partners it needs
    ys = _partners(0, 31, 1000, np.int64)
    assert ys.size == 1000 and np.all(np.diff(ys) > 0)
    assert int(ys[0]) == 2 and int(ys[-1]) == 2000


# A (4, 2) spread whose group line {1, 2, 3} is the first line of all.
_SPREAD_4_2 = [[1, 2, 3], [4, 8, 12], [5, 10, 15], [6, 11, 13], [7, 9, 14]]


@pytest.mark.parametrize("spread", [None, "gdd6_2", "first_line"])
@pytest.mark.parametrize("block", [1, 3, 1 << 12])
def test_uncovered_line_keys_match_set_difference(spread, block, request, monkeypatch):
    import tridesign.lines as L
    monkeypatch.setattr(L, "_X_BLOCK", block)
    n, groups, gid = 7, None, None
    if spread == "first_line":
        n, groups = 4, spread_rows(_SPREAD_4_2)
        validate_spread(groups, n)
    elif spread is not None:
        g = request.getfixturevalue(spread)
        n, groups = g.n, g.groups
    if groups is not None:
        gid = group_ids(groups, n)
    every = enumerate_line_keys_np(n)
    outside = every if gid is None else every[gid[every >> n] != gid[every & ((1 << n) - 1)]]
    inside = np.setdiff1d(every, outside)
    rng = np.random.default_rng(7)
    for count in (0, 1, 40, outside.size // 2, outside.size - 3, outside.size):
        have = np.intersect1d(rng.choice(every, size=count, replace=False), outside) \
            if count < outside.size else outside
        # repeats and group lines among the keys are skipped
        extra = np.concatenate([have[::5], inside[-2:]])
        keys = np.sort(np.concatenate([have, extra])).astype(np.int32)
        skip = (np.sort(have[::5]).astype(np.int32), inside[-2:].astype(np.int32))
        gone = np.setdiff1d(outside, have)
        for limit in (0, 1, 10, gone.size + 5):
            got = uncovered_line_keys(keys, n, limit, skip, groups, gid)
            assert got.dtype == np.int32
            assert np.array_equal(got, gone[:limit])


def _group_line_count_reference(groups, n):
    """Lines inside a group per smallest point, from all in-group pairs."""
    count = np.zeros(1 << n, dtype=np.int64)
    for row in np.asarray(groups).tolist():
        for a, b in itertools.combinations(row, 2):
            count[min(a, b, a ^ b)] += 1
    return count // 3   # each line is found from its three pairs


@pytest.mark.parametrize("spread", ["gdd6_2", "gdd12_6", "fill12_2"])
def test_group_line_counts_match_pair_enumeration(spread, request):
    if spread == "fill12_2":
        from tridesign.construct import fill_groups
        g = fill_groups(request.getfixturevalue("gdd12_6"),
                        request.getfixturevalue("gdd6_2"))
        assert g.m == 2 and g.n == 12
    else:
        g = request.getfixturevalue(spread)
    n = g.n
    x = np.arange(1, 1 << n)
    got = group_line_counts(x, g.groups, group_ids(g.groups, n), n)
    want = _group_line_count_reference(g.groups, n)[1:]
    assert np.array_equal(got, want)
    G, q = g.groups.shape
    assert got.sum() == G * q * (q - 1) // 6


def test_is_triangle_basic():
    a, b, c = 1, 2, 4
    l1, l2, l3 = (canonical_line(a, b), canonical_line(b, c), canonical_line(c, a))
    assert is_triangle(l1, l2, l3)
    # c = a ^ b degenerates all three spans to the same line
    assert canonical_line(1, 2) == canonical_line(2, 3)
    same = canonical_line(1, 2)
    assert not is_triangle(same, same, same)
    assert not is_triangle(l1, l1, l2)


def _subspace(line):
    return {0, *line.pts}


def _rank_of_union(lines):
    vecs = set().union(*[_subspace(l) for l in lines]) - {0}
    basis = []
    for v in sorted(vecs):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def test_is_triangle_against_rank_oracle():
    # oracle: three distinct lines form a triangle iff pairwise
    # intersections are 1-dimensional and the union spans dimension 3
    for n in (3, 4):
        all_lines = list(enumerate_lines(n))
        for l1, l2, l3 in itertools.combinations(all_lines, 3):
            inter12 = _subspace(l1) & _subspace(l2)
            inter23 = _subspace(l2) & _subspace(l3)
            inter31 = _subspace(l3) & _subspace(l1)
            pair_ok = all(len(s) == 2 for s in (inter12, inter23, inter31))
            triple = _subspace(l1) & _subspace(l2) & _subspace(l3)
            oracle = pair_ok and triple == {0} and _rank_of_union([l1, l2, l3]) == 3
            assert is_triangle(l1, l2, l3) == oracle


def test_triangle_v():
    t = TriangleV.from_gens(4, 1, 2)
    assert t.gens == (1, 2, 4)
    assert set(t.noncorners) == {3, 6, 5}
    assert all(is_triangle(*t.lines) for _ in [0])
    with pytest.raises(ValueError):
        TriangleV.from_gens(1, 2, 3)  # dependent
    with pytest.raises(ValueError):
        TriangleV.from_gens(0, 1, 2)


def test_desarguesian_spreads(f6, f12):
    sp = desarguesian_spread(f12, 6)
    validate_spread(sp, 12)
    assert sp.shape == (65, 63) and sp.dtype == np.int64
    assert not sp.flags.writeable and (np.diff(sp, axis=1) > 0).all()

    sp2 = desarguesian_spread(f6, 2)
    validate_spread(sp2, 6)
    assert sp2.shape == (21, 3)
    # every group of a line spread is itself a canonical line
    assert (sp2[:, 0] ^ sp2[:, 1] == sp2[:, 2]).all()

    whole = desarguesian_spread(f6, 6)
    validate_spread(whole, 6)
    assert whole.shape == (1, 63)

    with pytest.raises(ValueError, match="divide"):
        desarguesian_spread(f6, 4)


def test_validate_spread_failures(f6):
    sp = desarguesian_spread(f6, 2)
    broken = sp.copy()
    broken[0] = broken[1]  # overlap
    with pytest.raises(ValueError, match="group 0 .*overlap"):
        validate_spread(broken, 6)

    not_subspace = sp.copy()
    not_subspace[0, 2], not_subspace[1, 2] = sp[1, 2], sp[0, 2]
    with pytest.raises(ValueError, match="group 0 .*subspace"):
        validate_spread(not_subspace, 6)  # the swap breaks closure, keeps the partition

    with pytest.raises(ValueError, match="cover"):
        validate_spread(sp[:-1], 6)

    with pytest.raises(ValueError, match="group 20 has a vector outside 1..63"):
        validate_spread(np.vstack([sp[:-1], [[*sp[-1, :2], 64]]]), 6)


def _spread_mutant(sp: np.ndarray, kind: str, rng):
    """A broken copy of the spread array ``sp`` and the rows that hold the
    fault (None for a dropped row, which only leaves vectors uncovered)."""
    rows = sp.copy()
    G, q = rows.shape
    i, j = (int(x) for x in rng.choice(G, size=2, replace=False))
    k, l = (int(x) for x in rng.choice(q, size=2, replace=False))
    if kind == "overlap":
        rows[i] = rows[j]
        return rows, {i, j}
    if kind == "swap":
        rows[i, k], rows[j, l] = sp[j, l], sp[i, k]
        return rows, {i, j}
    if kind == "range":
        n = (G * q).bit_length()
        rows[i, k] = int(rng.choice([0, -1 - int(rng.integers(4)),
                                     (1 << n) + int(rng.integers(1 << n))]))
        return rows, {i}
    if kind == "repeat":
        rows[i, k] = rows[i, l]
        return rows, {i}
    assert kind == "drop"
    return np.delete(rows, i, axis=0), None


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["none", "overlap", "swap", "range", "repeat", "drop"])
@pytest.mark.parametrize("n, m", [(6, 2), (12, 2), (12, 6)])
def test_validate_spread_matches_loop_reference(n, m, kind, seed):
    sp = desarguesian_spread(build_field(n), m)
    rng = np.random.default_rng([n, m, seed])
    rows, holders = (sp, set()) if kind == "none" else _spread_mutant(sp, kind, rng)
    got = _verdict(validate_spread, rows, n)
    ref = _verdict(reference.validate_spread, rows, m, n)
    assert (got is None) == (ref is None) == (kind == "none")
    if holders is None:
        assert "cover" in got and "cover" in ref
    elif holders:
        for message in (got, ref):
            named = re.match(r"group (\d+) ", message)
            assert named and int(named.group(1)) in holders, message


@pytest.mark.parametrize("group, n", [
    ([2, 4, 5, 6, 7, 8, 9], 4),                 # pivots 2, 4, 6 are dependent
    ([*range(1, 12), *range(16, 20)], 5),       # closed under pivots 1, 2, not 4, 8
    ([1, 2, 3, 4, 5, 8, 9], 4),                 # closed under pivot 1 only
])
def test_validate_spread_refuses_pivot_mutants(group, n):
    # the pivots sit at sorted positions 0, 1, 3, 7: groups that fail
    # the subspace test only at some pivots are refused as any other
    q, m = len(group), len(group).bit_length()
    sp = np.array([group, [v for v in range(1, 1 << n) if v not in group][:q]])
    assert _verdict(validate_spread, sp, n) == \
        f"group 0 is not closed under XOR: no {m}-dimensional subspace"
    assert _verdict(reference.validate_spread, sp, m, n) == \
        f"group 0 does not span an {m}-dimensional subspace"


def test_validate_spread_matches_rank_on_every_7_subset():
    # every 7 of the 15 nonzero vectors of GF(2)^4 as one group: it is a
    # subspace less 0 (and only fails to cover) exactly when its rank is 3
    from itertools import combinations
    short = "groups do not cover all nonzero vectors"
    subspaces = 0
    for group in combinations(range(1, 16), 7):
        got = _verdict(validate_spread, [group], 4)
        assert got in (short, "group 0 is not closed under XOR: no 3-dimensional subspace")
        ref = _verdict(reference.validate_spread, [group], 3, 4)
        assert (got == short) == (ref == short), group
        subspaces += got == short
    assert subspaces == 15


def test_validate_spread_at_18_6():
    # the GF(64)-coset spread of the k = 3 tower: 4161 groups of 63
    sp = desarguesian_spread(build_field(18), 6)
    assert sp.shape == (4161, 63)
    validate_spread(sp, 18)


def test_spread_rows_normalizes_once(f6):
    sp = desarguesian_spread(f6, 2)
    assert spread_rows(sp) is sp    # read-only with ascending rows: kept
    flipped = sp[:, ::-1].copy()
    rows = spread_rows(flipped)
    assert np.array_equal(rows, sp) and not rows.flags.writeable
    assert flipped.flags.writeable  # the caller's array is not frozen
    assert np.array_equal(spread_rows(sp.tolist()), sp)


@pytest.mark.parametrize("groups, message", [
    (None, "needs its groups"),
    ([], "shape \\(0,\\) are not"),
    (np.empty((0, 3), dtype=np.int64), "shape \\(0, 3\\) are not"),
    ([1, 2, 3], "shape \\(3,\\) are not"),
    ([[1, 2, 3], [4, 5]], "sequence"),   # numpy's ragged-array error
    ([[1, 2, 3, 4]], "shape \\(1, 4\\) are not G >= 1 rows of 2\\^m - 1"),
    (np.empty((5, 0), dtype=np.int64), "shape \\(5, 0\\) are not"),
])
def test_spread_rows_refuses(groups, message):
    with pytest.raises(ValueError, match=message):
        spread_rows(groups)


def test_group_ids_scatter(f6):
    sp = desarguesian_spread(f6, 2)
    gid = group_ids(sp, 6)
    assert gid.dtype == np.int32 and gid[0] == -1
    for i, row in enumerate(sp):
        assert (gid[row] == i).all()


def test_ext_plane_counts():
    assert ext_plane_count(6, 2) == 1
    assert ext_plane_count(6, 3) == 4161
    assert ext_plane_count(4, 3) == 273
    assert ext_plane_count(2, 3) == 21


def test_enumerate_ext_planes_trivial(f12):
    planes = list(enumerate_ext_planes(f12, 6))
    assert len(planes) == 1
    assert planes[0].u == 1  # minimal vector of the whole space


def test_enumerate_ext_planes_6_2_vs_bruteforce(f6):
    sub = build_field(2)
    emb = embed_subfield(sub, f6)
    planes = list(enumerate_ext_planes(f6, 2))
    assert len(planes) == 21 == ext_plane_count(2, 3)
    assert len({(p.u, p.v) for p in planes}) == 21
    # oracle: spans of all ray pairs, deduplicated by frozen point set
    rays = desarguesian_spread(f6, 2)
    spans = set()
    for r1, r2 in itertools.combinations(range(len(rays)), 2):
        x, y = int(rays[r1][0]), int(rays[r2][0])
        pts = frozenset(f6.mul(emb[a], x) ^ f6.mul(emb[b], y)
                        for a in range(4) for b in range(4))
        spans.add(pts)
    assert len(spans) == 21
    plane_sets = set()
    for p in planes:
        pts = frozenset(f6.mul(emb[a], p.u) ^ f6.mul(emb[b], p.v)
                        for a in range(4) for b in range(4))
        plane_sets.add(pts)
    assert plane_sets == spans


def test_enumerate_ext_planes_12_4():
    f12 = build_field(12)
    planes = list(enumerate_ext_planes(f12, 4))
    assert len(planes) == 273
    assert len({(p.u, p.v) for p in planes}) == 273


def test_plane_basis_canonical(f12):
    # the canonical basis vectors must lie in the plane they define
    sub = build_field(6)
    emb = embed_subfield(sub, f12)
    plane = next(enumerate_ext_planes(f12, 6))
    pts = {f12.mul(emb[a], plane.u) ^ f12.mul(emb[b], plane.v)
           for a in range(64) for b in range(64)}
    assert plane.u in pts and plane.v in pts
    assert min(p for p in pts if p) == plane.u


def test_enumerate_ext_planes_restartable(f6):
    first = [(p.u, p.v) for p in enumerate_ext_planes(f6, 2)]
    second = [(p.u, p.v) for p in enumerate_ext_planes(f6, 2)]
    assert first == second


# -- batched canonical bases against the scalar formula -------------------------


def _scalar_basis(ctx, emb, x, y):
    """Reference: u the least nonzero point of the span, v the least point
    off u's ray, by direct field arithmetic."""
    pu = np.array([ctx.mul(e, x) for e in emb], dtype=np.int64)
    pv = np.array([ctx.mul(e, y) for e in emb], dtype=np.int64)
    grid = (pu[:, None] ^ pv[None, :]).ravel()
    nz = grid[grid > 0]
    u = int(nz.min())
    ray = np.array([ctx.mul(e, u) for e in emb], dtype=np.int64)
    return PlaneBasis(u, int(nz[~np.isin(nz, ray)].min()))


def _scalar_planes(ctx, m):
    """Reference enumerator: reduced-echelon bases over GF(2^m), one pair
    at a time, in the library's order."""
    s, q = ctx.n // m, 1 << m
    emb = embed_subfield(build_field(m), ctx)
    xi_pow = [int(ctx.exp_np[i]) for i in range(s)]

    def to_vector(coeffs):
        acc = 0
        for c, b in zip(coeffs, xi_pow):
            if c:
                acc ^= ctx.mul(emb[c], b)
        return acc

    for j1 in range(s):
        for j2 in range(j1 + 1, s):
            free1 = [c for c in range(j1 + 1, s) if c != j2]
            free2 = list(range(j2 + 1, s))
            for a_vals in itertools.product(range(q), repeat=len(free1)):
                r1 = [0] * s
                r1[j1] = 1
                for c, val in zip(free1, a_vals):
                    r1[c] = val
                for b_vals in itertools.product(range(q), repeat=len(free2)):
                    r2 = [0] * s
                    r2[j2] = 1
                    for c, val in zip(free2, b_vals):
                        r2[c] = val
                    yield _scalar_basis(ctx, emb, to_vector(r1), to_vector(r2))


@pytest.mark.parametrize("n, m", [(6, 2), (12, 4), (12, 6)])
def test_enumerate_ext_planes_matches_scalar(n, m):
    ctx = build_field(n)
    assert list(enumerate_ext_planes(ctx, m)) == list(_scalar_planes(ctx, m))


def test_enumerate_ext_planes_k3_pinned():
    # sha256 of the int64 (u, v) list, recorded with the scalar enumerator
    planes = [(p.u, p.v) for p in enumerate_ext_planes(build_field(18), 6)]
    assert len(planes) == 4161
    digest = hashlib.sha256(np.array(planes, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "63e271c149d01c7fe6dbfaa9836dd150ec2b2da5fcdfa70d08a62945399a7fa0"


_F18 = build_field(18)
_EMB18 = embed_subfield(build_field(6), _F18)


def _independent(x, y):
    return x != y and (_F18.log(x) - _F18.log(y)) % (_F18.order // 63) != 0


_POINT18 = st.integers(1, _F18.order)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_POINT18, _POINT18).filter(lambda p: _independent(*p)),
                min_size=1, max_size=40))
def test_plane_bases_match_scalar_n18(pairs):
    x, y = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    u, v, coef = plane_bases(_F18, _EMB18, x, y)
    ref = [_scalar_basis(_F18, _EMB18, a, b) for a, b in pairs]
    assert [PlaneBasis(a, b) for a, b in zip(u.tolist(), v.tolist())] == ref
    assert canonical_plane_basis(_F18, _EMB18, *pairs[0]) == ref[0]
    # the coordinates rebuild u and v from x and y
    emb = np.array(_EMB18, dtype=np.int64)
    for col, target in ((0, u), (2, v)):
        rebuilt = _F18.mul_np(emb[coef[:, col]], x) ^ _F18.mul_np(emb[coef[:, col + 1]], y)
        assert np.array_equal(rebuilt, target)


def test_plane_bases_refuse_dependent_pair():
    x = 5
    with pytest.raises(ValueError, match="not independent"):
        canonical_plane_basis(_F18, _EMB18, x, _F18.mul(_EMB18[7], x))


def test_subfield_tables_match_field_arithmetic(f6):
    emb = embed_subfield(f6, _F18)
    mul, inv = subfield_tables(_F18, emb)
    assert emb.dtype == np.int64 and not emb.flags.writeable
    for a in range(64):
        assert mul[a].tolist() == [f6.mul(a, b) for b in range(64)]
        if a:
            assert inv[a] == f6.inv(a)
