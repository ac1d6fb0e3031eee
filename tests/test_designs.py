import numpy as np
import pytest

from tridesign.designs import (MAX_WITNESSES, Design, Gdd, _normalize_triangles,
                               charge_ledger, coverage_counts,
                               distinct_row_count, expected_triangle_count,
                               verify_balanced, verify_design, verify_gdd)
from tridesign.lines import desarguesian_spread


def test_expected_counts():
    assert expected_triangle_count(6, 1) == 217
    assert expected_triangle_count(7, 1) == 889
    assert expected_triangle_count(12, 6) == 917280
    assert expected_triangle_count(12, 1) == 931385
    assert expected_triangle_count(12, 2) == 930930
    assert expected_triangle_count(13, 1) == 3726905
    assert expected_triangle_count(6, 6) == 0


def test_verify_design_ok(design6):
    rep = verify_design(design6)
    assert rep.ok
    assert rep.triangle_count == 217
    assert rep.line_total == rep.lines_seen == 651
    assert not rep.uncovered and not rep.multiply_covered


def test_verify_design_missing_triangle(design6):
    broken = Design(n=6, poly=design6.poly, tri=design6.tri[:-1])
    rep = verify_design(broken)
    assert not rep.ok
    assert rep.triangle_count == 216
    assert len(rep.uncovered) == 3  # one triangle leaves exactly 3 holes
    assert not rep.multiply_covered


def test_verify_design_duplicate_triangle(design6):
    dup = np.concatenate([design6.tri, design6.tri[:1]])
    rep = verify_design(Design(n=6, poly=design6.poly, tri=dup))
    assert not rep.ok
    assert len(rep.multiply_covered) == 3


def test_malformed_triangle_raises(design6):
    bad = design6.tri.copy()
    bad[5] = (1, 2, 3)  # dependent corners
    with pytest.raises(ValueError, match="malformed"):
        verify_design(Design(n=6, poly=design6.poly, tri=bad))
    bad2 = design6.tri.copy()
    bad2[0] = (0, 2, 4)
    with pytest.raises(ValueError, match="malformed"):
        verify_design(Design(n=6, poly=design6.poly, tri=bad2))


def test_verify_gdd_ok(gdd6_2):
    rep = verify_gdd(gdd6_2)
    assert rep.ok
    assert rep.triangle_count == 210
    assert len(gdd6_2.groups) == 21
    assert rep.line_total == 651 - 21


def test_verify_gdd_group_line_hit(gdd6_2, f6):
    # replace one triangle with one whose first line sits inside a group
    g = gdd6_2.groups.groups[0]
    x, y = int(g[0]), int(g[1])
    w = 1 if 1 not in {x, y, x ^ y} else 5
    tri = gdd6_2.tri.copy()
    tri[0] = sorted((x, y, w))
    rep = verify_gdd(Gdd(n=6, poly=gdd6_2.poly, tri=tri, m=2,
                         groups=gdd6_2.groups))
    assert not rep.ok
    assert rep.group_line_hits


def test_gdd_m1_equals_design(design6, f6):
    # a 1-dimensional-group GDD is the same contract as a plain design
    singletons = desarguesian_spread(f6, 1)
    as_gdd = Gdd(n=6, poly=design6.poly, tri=design6.tri, m=1,
                 groups=singletons)
    assert verify_gdd(as_gdd).ok == verify_design(design6).ok is True
    assert verify_gdd(as_gdd).line_total == 651


def test_verify_balanced(design6, gdd6_2, frob7_design):
    b = verify_balanced(design6)
    assert not b.balanced
    assert b.histogram == {20: 31, 21: 31, 31: 1}

    b2 = verify_balanced(gdd6_2)
    assert b2.balanced and b2.lam == 20

    b3 = verify_balanced(frob7_design)
    assert b3.balanced and b3.lam == 42 and b3.expected_lambda == 42 and b3.ok


def test_charge_ledger_single_triangle():
    tri = np.array([[1, 2, 4]])
    led = charge_ledger(tri, 3)
    assert led.as_dict() == {1: 1, 2: 1, 4: 1, 3: -1, 6: -1, 5: -1}
    assert led.total == 0


def test_charge_ledger_empty():
    led = charge_ledger(np.empty((0, 3), dtype=np.int64), 4)
    assert led.is_zero


def test_charge_ledger_design6_profile(design6):
    led = charge_ledger(design6.tri, 6)
    prof = led.as_dict()
    assert prof[32] == -31
    assert all(prof[v] == 2 for v in range(1, 32))
    assert all(prof[v] == -1 for v in range(33, 64))
    assert led.total == 0


def test_charge_zero_iff_balanced(design6, frob7_design):
    # exact covers: constant coverage <=> all-zero ledger
    assert verify_balanced(frob7_design).balanced
    assert charge_ledger(frob7_design.tri, 7).is_zero
    assert not verify_balanced(design6).balanced
    assert not charge_ledger(design6.tri, 6).is_zero


def test_coverage_counts_consistency(design6):
    cov = coverage_counts(design6.tri, 6)
    led = charge_ledger(design6.tri, 6)
    # 2*corners + noncorners = lines through a vector = 2^(n-1) - 1
    for v in range(1, 64):
        c = (cov[v] + led.charge(v)) / 2
        assert 2 * c + (cov[v] - c) == 31


def test_report_serialization(design6):
    rep = verify_design(design6)
    d = rep.to_json_dict()
    assert d["ok"] and d["report"] == "cover"
    assert "OK" in rep.to_text()
    bal = verify_balanced(design6)
    bd = bal.to_json_dict()
    assert bd["report"] == "balance" and not bd["balanced"]
    assert "unbalanced" in bal.to_text()


def test_verify_empty_trivial_design():
    from tridesign.construct import trivial_design
    rep = verify_design(trivial_design())
    assert rep.ok and rep.line_total == 0 and rep.triangle_count == 0


def test_line_keys_shard_independent(design6, monkeypatch):
    # line keys are computed block by block; they must not depend on the cut
    import tridesign.designs as D
    full = D._line_keys(design6.tri, 6)
    monkeypatch.setattr(D, "_KEY_CHUNK", 7)
    assert np.array_equal(D._line_keys(design6.tri, 6), full)


def _lexsort_reference(tri):
    tri = np.sort(np.asarray(tri, dtype=np.int64), axis=1)
    return tri[np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("high", [1 << 6, 1 << 13, 1 << 21, 1 << 22, 1 << 40])
def test_normalize_matches_lexsort(seed, high):
    # high <= 2^21 takes the packed-key path (2^21 - 1 is its widest
    # value), anything wider the lexsort fallback
    rng = np.random.default_rng(seed)
    tri = rng.integers(0, high, size=(300, 3), dtype=np.int64)
    tri = np.concatenate([tri, tri[rng.integers(0, 300, size=40)]])  # repeats
    tri[0] = (high - 1, 0, high - 1)
    before = tri.copy()
    out = _normalize_triangles(tri)
    assert out.dtype == np.int64 and out.flags.c_contiguous
    assert np.array_equal(out, _lexsort_reference(before))
    assert np.array_equal(tri, before)  # input left untouched


def test_normalize_negative_and_empty():
    rng = np.random.default_rng(7)
    tri = rng.integers(0, 64, size=(50, 3), dtype=np.int64)
    tri[3, 1] = -5
    assert np.array_equal(_normalize_triangles(tri), _lexsort_reference(tri))
    empty = _normalize_triangles(np.empty((0, 3), dtype=np.int32))
    assert empty.shape == (0, 3) and empty.dtype == np.int64
    with pytest.raises(ValueError, match="shape"):
        _normalize_triangles(np.zeros((4, 2), dtype=np.int64))


def test_distinct_row_count_finds_planted_repeat():
    rng = np.random.default_rng(3)
    tri = np.unique(rng.integers(1, 1 << 12, size=(500, 3)), axis=0)
    assert distinct_row_count(_normalize_triangles(tri)) == tri.shape[0]
    planted = np.concatenate([tri, tri[[17]][:, ::-1]])  # same triangle, reordered
    assert distinct_row_count(_normalize_triangles(planted)) == tri.shape[0]
    # neighbours that differ in one column only are distinct
    near = np.array([[1, 2, 4], [1, 2, 8], [1, 4, 8], [2, 4, 8]], dtype=np.int64)
    assert distinct_row_count(near) == 4
    assert distinct_row_count(np.empty((0, 3), dtype=np.int64)) == 0


def _random_triangle(n, rng):
    while True:
        a, b, c = (int(x) for x in rng.integers(1, 1 << n, size=3))
        if a != b and c not in (a, b, a ^ b):
            return sorted((a, b, c))


def _mutant(base, kind, seed):
    rng = np.random.default_rng(seed)
    i = int(rng.integers(0, base.tri.shape[0]))
    if kind == "replaced":
        tri = base.tri.copy()
        tri[i] = _random_triangle(base.n, rng)
    elif kind == "dropped":
        tri = np.delete(base.tri, i, axis=0)
    elif kind == "halved":  # more holes than witnesses are reported
        tri = base.tri[seed % 2::2]
    else:
        tri = np.concatenate([base.tri, base.tri[i:i + 1]])
    if isinstance(base, Gdd):
        return Gdd(n=base.n, poly=base.poly, tri=tri, m=base.m, groups=base.groups)
    return Design(n=base.n, poly=base.poly, tri=tri)


def _reference_witnesses(d):
    """Witnesses recomputed from corners with set operations."""
    n = d.n
    keys = []
    for a, b, c in d.tri.tolist():
        for p, q in ((a, b), (b, c), (a, c)):
            lo, mid, _ = sorted((p, q, p ^ q))
            keys.append((lo << n) | mid)
    keys = np.array(keys, dtype=np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    all_keys = np.array(sorted((x << n) | y for x in range(1, 1 << n)
                               for y in range(x + 1, 1 << n) if x ^ y > y),
                        dtype=np.int64)
    hits = np.empty(0, dtype=np.int64)
    mask = (1 << n) - 1
    if isinstance(d, Gdd):
        gid = d.groups.group_id_table(n)
        hits = np.unique(keys[gid[keys >> n] == gid[keys & mask]])
        all_keys = all_keys[gid[all_keys >> n] != gid[all_keys & mask]]

    def lines(ks):
        return [(int(k) >> n, int(k) & mask, (int(k) >> n) ^ (int(k) & mask))
                for k in ks[:MAX_WITNESSES]]
    return {"uncovered": lines(np.setdiff1d(all_keys, keys)),
            "multiply_covered": lines(uniq[counts > 1]),
            "group_line_hits": lines(hits),
            "lines_seen": int(uniq.size)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["replaced", "dropped", "duplicated", "halved"])
@pytest.mark.parametrize("base", ["design6", "frob7_design", "gdd6_2"])
def test_witnesses_match_set_reference(base, kind, seed, request):
    d = _mutant(request.getfixturevalue(base), kind, seed)
    rep = verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)
    ref = _reference_witnesses(d)
    assert not rep.ok
    assert rep.uncovered == ref["uncovered"]
    assert rep.multiply_covered == ref["multiply_covered"]
    assert rep.group_line_hits == ref["group_line_hits"]
    assert rep.lines_seen == ref["lines_seen"]


def test_group_line_witnesses_match_set_reference(gdd6_2):
    tri = gdd6_2.tri.copy()
    for row, grp in enumerate(gdd6_2.groups.groups[:12]):
        x, y = int(grp[0]), int(grp[1])
        w = next(v for v in range(1, 64) if v not in (x, y, x ^ y))
        tri[row] = sorted((x, y, w))
    d = Gdd(n=6, poly=gdd6_2.poly, tri=tri, m=2, groups=gdd6_2.groups)
    rep, ref = verify_gdd(d), _reference_witnesses(d)
    assert len(rep.group_line_hits) == MAX_WITNESSES
    assert rep.group_line_hits == ref["group_line_hits"]
    assert rep.uncovered == ref["uncovered"]
    assert rep.multiply_covered == ref["multiply_covered"]
    assert rep.lines_seen == ref["lines_seen"]


def _row_line_keys(row, n):
    a, b, c = row
    keys = []
    for p, q in ((a, b), (b, c), (a, c)):
        lo, mid, _ = sorted((p, q, p ^ q))
        keys.append((lo << n) | mid)
    return keys


def test_uncovered_witnesses_at_large_n(design6):
    # design6's triangles read as a design over GF(2)^20: almost every
    # line is uncovered, and the witnesses are found without listing all
    # 2^39 / 3 lines.
    n = 20
    d = Design(n=n, poly=design6.poly, tri=design6.tri)
    rep = verify_design(d)
    covered = {k for row in d.tri.tolist() for k in _row_line_keys(row, n)}
    # the smallest line keys are (1 << n) | y for even y >= 2
    want = [(1, y, 1 ^ y) for y in range(2, 1 << n, 2)
            if (1 << n) | y not in covered][:MAX_WITNESSES]
    assert not rep.ok and rep.lines_seen == len(covered)
    assert rep.uncovered == want


def test_gdd_witnesses_among_largest_lines(gdd6_2):
    # Drop the triangle on the largest line: its uncovered lines sit at
    # the end of the key order, so the witness search must make room for
    # the group lines that come before them.
    n = gdd6_2.n
    top = [max(_row_line_keys(row, n)) for row in gdd6_2.tri.tolist()]
    tri = np.delete(gdd6_2.tri, int(np.argmax(top)), axis=0)
    d = Gdd(n=n, poly=gdd6_2.poly, tri=tri, m=2, groups=gdd6_2.groups)
    rep, ref = verify_gdd(d), _reference_witnesses(d)
    assert len(rep.uncovered) == 3
    assert rep.uncovered == ref["uncovered"]
