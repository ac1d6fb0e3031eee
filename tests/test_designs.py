import itertools

import numpy as np
import pytest

from conftest import traced_peak_mib
from reference import canonical_line, searched_uncovered
from tridesign.construct import balanced_extension
from tridesign.designs import (MAX_WITNESSES, Design, Gdd, _normalize_triangles,
                               charge_ledger, coverage_counts,
                               distinct_row_count, expected_triangle_count,
                               verify_balanced, verify_design, verify_gdd)
from tridesign.fileio import read_design, write_design
from tridesign.lines import desarguesian_spread, group_ids


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


@pytest.mark.parametrize("wide", [(1 << 32) + 4, -(1 << 32) + 4])
def test_design_refuses_corner_outside_int32(design6, wide):
    # a corner that an int32 row would wrap onto 4, the valid triangle
    # (1, 2, 4), is refused when the design is made, its row named
    tri = design6.tri.astype(np.int64)
    tri[7] = (1, 2, wide)
    with pytest.raises(ValueError, match=rf"^triangle row 7 \(1, 2, {wide}\) has a "
                                         "corner outside the int32 range$"):
        Design(n=6, poly=design6.poly, tri=tri)


def test_verify_gdd_ok(gdd6_2):
    rep = verify_gdd(gdd6_2)
    assert rep.ok
    assert rep.triangle_count == 210
    assert len(gdd6_2.groups) == 21
    assert rep.line_total == 651 - 21


def test_verify_gdd_group_line_hit(gdd6_2, f6):
    # replace one triangle with one whose first line sits inside a group
    g = gdd6_2.groups[0]
    x, y = int(g[0]), int(g[1])
    w = 1 if 1 not in {x, y, x ^ y} else 5
    tri = gdd6_2.tri.copy()
    tri[0] = sorted((x, y, w))
    rep = verify_gdd(Gdd(n=6, poly=gdd6_2.poly, tri=tri, m=2,
                         groups=gdd6_2.groups))
    assert not rep.ok
    assert rep.group_line_hits


@pytest.mark.parametrize("groups", [None, [], [[1, 2, 3], [4, 8]],
                                    [[1, 2, 3, 4, 5]]])
def test_gdd_refuses_groups_that_are_no_spread_array(groups, gdd6_2):
    # refused at construction, not later inside verify_gdd
    with pytest.raises(ValueError, match="groups|sequence"):
        Gdd(n=6, poly=gdd6_2.poly, tri=gdd6_2.tri, m=2, groups=groups)
    with pytest.raises(ValueError, match="needs its groups"):
        Gdd(n=6, poly=gdd6_2.poly, tri=gdd6_2.tri, m=2)


def test_gdd_keeps_a_spread_array_without_copying(gdd6_2):
    g = Gdd(n=6, poly=gdd6_2.poly, tri=gdd6_2.tri, m=2, groups=gdd6_2.groups)
    assert g.groups is gdd6_2.groups


@pytest.mark.parametrize("m", [0, 3])
def test_verify_gdd_refuses_dimension_mismatch(m, gdd6_2):
    g = Gdd(n=6, poly=gdd6_2.poly, tri=gdd6_2.tri, m=m, groups=gdd6_2.groups)
    with pytest.raises(ValueError, match=f"spread dimension 2 != declared m={m}"):
        verify_gdd(g)


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
    assert led.dtype == np.int64 and led.shape == (8,)
    assert led.tolist() == [0, 1, 1, -1, 1, -1, -1, 0]
    assert led.sum() == 0


def test_charge_ledger_empty():
    led = charge_ledger(np.empty((0, 3), dtype=np.int64), 4)
    assert led.shape == (16,) and not led.any()


@pytest.mark.parametrize("n", [26, 31])
def test_balance_counters_refused_past_the_budget(n):
    # 2^n entries exceed MAX_MATERIALIZED_TRIANGLES from n = 26 on
    d = Design(n=n, poly=0, tri=np.array([[1, 2, 4]]))
    for call in (verify_balanced, lambda d: charge_ledger(d.tri, d.n)):
        with pytest.raises(ValueError, match=f"^balance counters for n={n} need 2\\^{n} "):
            call(d)


def test_incidence_counts_refuse_the_first_out_of_range_block(monkeypatch):
    # blocks of 8 rows at n = 3: the first block's 8 is refused at once,
    # before the later block's negative corner reaches numpy
    import tridesign.designs as D
    monkeypatch.setattr(D, "_BLOCK_ROWS", 8)
    tri = np.tile(np.array([[1, 2, 4]]), (20, 1))
    tri[0], tri[15] = (1, 2, 8), (-1, 2, 4)
    with pytest.raises(ValueError, match="^triangle vector out of range for declared"):
        coverage_counts(tri, 3)


def test_charge_ledger_design6_profile(design6):
    led = charge_ledger(design6.tri, 6)
    assert led[32] == -31
    assert (led[1:32] == 2).all()
    assert (led[33:64] == -1).all()
    assert led.sum() == 0


def test_charge_zero_iff_balanced(design6, frob7_design):
    # exact covers: constant coverage <=> all-zero ledger
    assert verify_balanced(frob7_design).balanced
    assert not charge_ledger(frob7_design.tri, 7).any()
    assert not verify_balanced(design6).balanced
    assert charge_ledger(design6.tri, 6).any()


def test_coverage_counts_consistency(design6):
    cov = coverage_counts(design6.tri, 6)
    led = charge_ledger(design6.tri, 6)
    # 2*corners + noncorners = lines through a vector = 2^(n-1) - 1
    for v in range(1, 64):
        c = (cov[v] + led[v]) / 2
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


@pytest.mark.parametrize("n", [6, 15, 16, 31])
def test_line_keys_match_scalar_reference(design6, n):
    # side-major keys in the key dtype: int32 up to n = 15, int64 above
    import tridesign.designs as D
    keys = D._line_keys(design6.tri, n)
    sides = [(r[i], r[j]) for i, j in D._SIDES for r in design6.tri.tolist()]
    assert keys.dtype == (np.int32 if n <= 15 else np.int64)
    assert keys.tolist() == [canonical_line(p, q).key(n) for p, q in sides]


def _lexsort_reference(tri):
    tri = np.sort(np.asarray(tri, dtype=np.int64), axis=1)
    return tri[np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))]


def _refused_row(row):
    """The error of a triangle row with a corner outside the int32 range."""
    return rf"^triangle row {row} \(.*\) has a corner outside the int32 range$"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("high", [1 << 6, 1 << 13, 1 << 21, 1 << 22, 1 << 31, 1 << 40])
def test_normalize_matches_lexsort(seed, high):
    # high <= 2^21 takes the packed-key path (2^21 - 1 is its widest
    # value), anything wider up to 2^31 the lexsort fallback; a wider
    # value fits no int32 row and is refused
    rng = np.random.default_rng(seed)
    tri = rng.integers(0, high, size=(300, 3), dtype=np.int64)
    tri = np.concatenate([tri, tri[rng.integers(0, 300, size=40)]])  # repeats
    tri[0] = (high - 1, 0, high - 1)
    before = tri.copy()
    if high > 1 << 31:
        with pytest.raises(ValueError, match=_refused_row(0)):
            _normalize_triangles(tri)
        return
    out = _normalize_triangles(tri)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    assert np.array_equal(out, _lexsort_reference(before))
    assert np.array_equal(tri, before)  # input left untouched


def test_normalize_negative_and_empty():
    rng = np.random.default_rng(7)
    tri = rng.integers(0, 64, size=(50, 3), dtype=np.int64)
    tri[3, 1] = -5
    cases = [tri, tri.astype(np.int32),
             np.array([[3, -5, 7], [-(1 << 31), 2, 1], [0, 0, 0]], dtype=np.int64),
             np.empty((0, 3), dtype=np.int32), np.empty((0, 3), dtype=np.int64)]
    for case in cases:
        out = _normalize_triangles(case)
        assert out.dtype == np.int32 and out.flags.c_contiguous
        assert out.shape == case.shape and not np.shares_memory(out, case)
        assert np.array_equal(out, _lexsort_reference(case))
    with pytest.raises(ValueError, match="shape"):
        _normalize_triangles(np.zeros((4, 2), dtype=np.int64))


def _boundary_input(dtype, top, seed=0):
    rng = np.random.default_rng(seed)
    tri = rng.integers(0, min(top, 1 << 20) + 1, size=(200, 3)).astype(dtype)
    tri = np.concatenate([tri, tri[rng.integers(0, 200, size=20)]])  # repeats
    tri[5] = (top, 1, top)
    tri[9] = (0, top, 3)
    return tri


@pytest.mark.parametrize("dtype, top", [
    (np.int32, (1 << 13) - 1),
    (np.uint16, (1 << 16) - 1),
    (np.int64, (1 << 21) - 1),  # widest packed key
    (np.int64, 1 << 21),        # first value that takes the lexsort path
    (np.int32, (1 << 31) - 1),  # widest int32 value
    (np.int64, (1 << 31) - 1),
    (np.int64, 1 << 31),        # first value no int32 row holds: refused
    (np.uint32, 1 << 31),
])
def test_normalize_dtype_boundaries(dtype, top):
    tri = _boundary_input(dtype, top)
    before = tri.copy()
    if top >= 1 << 31:
        with pytest.raises(ValueError, match=_refused_row(5)):
            _normalize_triangles(tri)
        return
    out = _normalize_triangles(tri)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    assert np.array_equal(out, _lexsort_reference(before))
    assert not np.shares_memory(out, tri)
    assert np.array_equal(tri, before)  # input left untouched
    # already canonical rows skip the sort but still come back as a copy
    again = _normalize_triangles(out)
    assert np.array_equal(again, out) and not np.shares_memory(again, out)


@pytest.mark.parametrize("kernel", ["_normalize_triangles", "ascending_rows"])
@pytest.mark.parametrize("corner, needs", [
    ((1 << 31) - 1, np.int32),      # widest int32 value
    (-5, np.int32),                 # negative, in range
    (-(1 << 31), np.int32),         # most negative int32 value
    (1 << 31, np.int64),            # first value above the int32 range
    (-(1 << 31) - 1, np.int64),     # first value below it
])
def test_row_dtype_boundaries(kernel, corner, needs):
    # rows are int32, whatever the input dtype, and hold the input's
    # values; a corner that needs a wider dtype is refused, its row named
    import tridesign.designs as D
    rng = np.random.default_rng(1)
    tri = rng.integers(1, 1 << 12, size=(100, 3), dtype=np.int64)
    tri[17] = (9, corner, 3)
    if needs == np.int64:
        with pytest.raises(ValueError, match=_refused_row(17)):
            getattr(D, kernel)(tri)
        return
    out = getattr(D, kernel)(tri)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    want = _lexsort_reference(tri) if kernel == "_normalize_triangles" \
        else np.sort(tri, axis=1)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 1001, 1002])
def test_normalize_rows_share_their_buffer_with_the_keys(T, monkeypatch):
    # the int64 row keys fill the end of the int32 output's buffer (one
    # spare int32 when T is odd, to align them); blocks of 7 rows unpack
    # next to keys still to be read at every offset
    import tridesign.designs as D
    monkeypatch.setattr(D, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(T)
    tri = rng.integers(0, 1 << 21, size=(T, 3), dtype=np.int64)
    out = _normalize_triangles(tri)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    assert np.array_equal(out, _lexsort_reference(tri))
    assert out.base.nbytes == 4 * (3 * T + T % 2)    # no other full-size array


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
    elif kind == "doubled":  # every line covered twice
        tri = np.concatenate([base.tri, base.tri])
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
        gid = group_ids(d.groups, n)
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
@pytest.mark.parametrize("kind", ["replaced", "dropped", "duplicated", "halved", "doubled"])
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


def _group_line_mutant(base, rows=12):
    """``base`` with its first rows replaced by triangles on a group line."""
    tri = base.tri.copy()
    for row, grp in enumerate(base.groups[:rows]):
        x, y = int(grp[0]), int(grp[1])
        w = next(v for v in range(1, 1 << base.n) if v not in (x, y, x ^ y))
        tri[row] = sorted((x, y, w))
    return Gdd(n=base.n, poly=base.poly, tri=tri, m=base.m, groups=base.groups)


def test_group_line_witnesses_match_set_reference(gdd6_2):
    d = _group_line_mutant(gdd6_2)
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


def _large_n_case(design6, n):
    """design6's triangles read as a design over GF(2)^n: almost every
    line is uncovered.  Returns the design, its covered line keys and
    the expected witnesses: the smallest line keys are (1 << n) | y for
    even y >= 2."""
    d = Design(n=n, poly=design6.poly, tri=design6.tri)
    covered = {k for row in d.tri.tolist() for k in _row_line_keys(row, n)}
    want = list(itertools.islice(((1, y, 1 ^ y) for y in itertools.count(2, 2)
                                  if (1 << n) | y not in covered), MAX_WITNESSES))
    return d, covered, want


def test_uncovered_witnesses_at_large_n(design6):
    # the witnesses are found without listing all 2^39 / 3 lines
    d, covered, want = _large_n_case(design6, 20)
    rep = verify_design(d)
    assert not rep.ok and rep.lines_seen == len(covered)
    assert rep.uncovered == want


def test_uncovered_witnesses_at_n31(design6):
    # x = 1 alone has 2^30 - 1 lines at n = 31, and the int64 keys take
    # the wide path; only the partners the witnesses need are listed
    d, covered, want = _large_n_case(design6, 31)
    reports = []
    peak = traced_peak_mib(lambda: reports.append(verify_design(d)))
    assert peak <= 1.0
    assert not reports[0].ok and reports[0].lines_seen == len(covered)
    assert reports[0].uncovered == want


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


def _report_dicts(d):
    cover = verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)
    return cover.to_json_dict(), verify_balanced(d).to_json_dict()


@pytest.mark.parametrize("base", ["design6", "gdd6_2", "frob7_design", "gdd12_6"])
def test_key_dtype_does_not_change_reports(base, request, monkeypatch):
    # the int32 key path and the int64 one give the same reports
    import tridesign.designs as D
    import tridesign.lines as L
    base = request.getfixturevalue(base)
    inputs = [base] + [_mutant(base, kind, seed) for seed in range(2)
                       for kind in ("replaced", "dropped", "duplicated")]
    if isinstance(base, Gdd):
        inputs.append(_group_line_mutant(base))
    assert D._line_keys(base.tri, base.n).dtype == np.int32
    narrow = [_report_dicts(d) for d in inputs]
    assert not narrow[0][0]["witnesses"]["uncovered"] and narrow[1][0]["ok"] is False
    for module in (D, L):
        monkeypatch.setattr(module, "key_dtype", lambda n: np.dtype(np.int64))
    assert D._line_keys(base.tri, base.n).dtype == np.int64
    assert [_report_dicts(d) for d in inputs] == narrow


# Bounds on the traced peaks of these calls on frob13 (3.7M triangles),
# gdd12-6 and frob7.  The verifier bounds are their peaks from before the
# row-block kernels.  The canonical form of frob13 is one int32 (T, 3)
# array of 42.65 MiB that holds its own sort keys (43.3 MiB traced; 85.9
# with int64 rows), and the +6 extension of frob7 keeps its rows int32
# throughout (96.0 MiB traced; 138.6 with int64 canonical rows).
@pytest.mark.parametrize("call, design, bound_mib", [
    (_normalize_triangles, "frob13_design", 45.0),
    (verify_design, "frob13_design", 125.3),
    (verify_balanced, "frob13_design", 170.7),
    (verify_gdd, "gdd12_6", 56.0),
    (balanced_extension, "frob7_design", 100.0),
])
def test_peak_memory_bounds(call, design, bound_mib, request):
    d = request.getfixturevalue(design)
    arg = d.tri if call is _normalize_triangles else d
    assert traced_peak_mib(call, arg) <= bound_mib


def test_design_file_peak_memory_bounds(frob13_design, tmp_path):
    # the writer encodes the int32 rows in their own dtype, a row block at
    # a time (traced: 2.0 MiB; an int64 copy of the rows would be 85 MiB);
    # the reader peaks with the 50 MB text next to its parsed int32 rows
    # (95.9 MiB), no longer with an int64 canonical form next to those
    # rows (128.6 MiB)
    path = str(tmp_path / "frob13.design")
    assert traced_peak_mib(write_design, frob13_design, path) <= 2.5
    read = []
    assert traced_peak_mib(lambda: read.append(read_design(path))) <= 100.0
    assert np.array_equal(read[0].tri, frob13_design.tri)


def test_refusal_peak_memory(frob13_design):
    # one dropped row: the witness search lists partners of deficient
    # smallest points only, so refusing peaks where accepting frob13 does
    # (53.3 MiB: the line keys and their repeat mask, built on row blocks);
    # the report is the one the prefix search gave
    d = Design(n=13, poly=frob13_design.poly, tri=frob13_design.tri[1:])
    reports = []
    peak = traced_peak_mib(lambda: reports.append(verify_design(d)))
    assert peak <= 55.0
    assert reports[0].to_json_dict() == {
        "report": "cover", "ok": False, "kind": "design", "n": 13, "m": 1,
        "triangle_count": 3726904, "expected_triangles": 3726905,
        "line_total": 11180715, "lines_seen": 11180712,
        "witnesses": {"uncovered": [[1, 6, 7], [1, 5884, 5885], [7, 5883, 5884]],
                      "multiply_covered": [], "group_line_hits": []}}


@pytest.mark.parametrize("base", ["frob7_design", "gdd6_2"])
def test_x_blocks_do_not_change_reports(base, request, monkeypatch):
    # blocks of smallest points far smaller than the scan give the same
    # witnesses
    import tridesign.lines as L
    base = request.getfixturevalue(base)
    inputs = [_mutant(base, kind, seed) for seed in range(2)
              for kind in ("replaced", "dropped", "halved")]
    whole = [_report_dicts(d) for d in inputs]
    for block in (1, 3):
        monkeypatch.setattr(L, "_X_BLOCK", block)
        assert [_report_dicts(d) for d in inputs] == whole


@pytest.mark.parametrize("kind", ["replaced", "dropped", "duplicated", "halved"])
@pytest.mark.parametrize("base", ["product12", "gdd12_6"])
def test_witnesses_match_searched_reference(base, kind, request):
    # the uncovered lines counted per smallest point are the ones a
    # binary search of every line in a prefix of all lines finds
    d = _mutant(request.getfixturevalue(base), kind, 0)
    rep = verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)
    assert not rep.ok
    assert rep.uncovered == searched_uncovered(d.tri, d.n, getattr(d, "groups", None),
                                               MAX_WITNESSES)


def _block_outputs(d):
    """Every output of the row-block kernels on ``d``: its reports, its
    ledger and the canonical form and distinct-row count of a shuffled
    copy of its rows with repeats."""
    import tridesign.designs as D
    rng = np.random.default_rng(d.triangle_count)
    raw = d.tri[rng.integers(0, d.triangle_count, size=d.triangle_count + 9)][:, ::-1]
    canon = _normalize_triangles(raw)
    return (_report_dicts(d), charge_ledger(d.tri, d.n).tolist(), canon.tolist(),
            distinct_row_count(canon), D.ascending_rows(raw).tolist())


def _verify_error(d):
    with pytest.raises(ValueError) as e:
        verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)
    return str(e.value)


def _with_rows(base, rows, groups=None):
    """``base`` with the given rows replaced, in place of its normalized
    rows, so a malformed row sits at a chosen position."""
    d = Gdd(n=base.n, poly=base.poly, tri=base.tri, m=base.m,
            groups=base.groups if groups is None else groups) \
        if isinstance(base, Gdd) else Design(n=base.n, poly=base.poly, tri=base.tri)
    for i, row in rows.items():
        d.tri[i] = row
    return d


@pytest.mark.parametrize("base", ["design6", "gdd6_2", "frob7_design"])
def test_block_size_does_not_change_outputs(base, request, monkeypatch):
    # blocks of 1 and 7 rows cut every kernel's walk at other rows than
    # the default block: reports, ledgers, canonical forms and error
    # messages are the same
    import tridesign.designs as D
    base = request.getfixturevalue(base)
    inputs = [base] + [_mutant(base, kind, seed) for seed in range(2)
                       for kind in ("replaced", "dropped", "duplicated", "doubled")]
    if isinstance(base, Gdd):
        inputs.append(_group_line_mutant(base))
        # a vector of group 1 put in group 0: no spread, and no longer the
        # error named first once a row is malformed
        broken = base.groups.copy()
        broken[0, -1] = broken[1, 0]
    faults = [
        ({6: (1, 2, 3)}, "malformed triangle at row 6: (1, 2, 3)"),  # a block's last row
        ({13: (0, 2, 4)}, "malformed triangle at row 13: (0, 2, 4)"),
        # the earlier of two faults in different blocks is named
        ({3: (1, 2, 2), 100: (1, 2, 3)}, "malformed triangle at row 3: (1, 2, 2)"),
    ]
    bad = [_with_rows(base, rows) for rows, _ in faults]
    if isinstance(base, Gdd):
        bad.append(_with_rows(base, {6: (1, 2, 3)}, broken))
        bad.append(_with_rows(base, {}, broken))
    whole = [_block_outputs(d) for d in inputs]
    errors = [_verify_error(d) for d in bad]
    assert errors[:len(faults)] == [message for _, message in faults]
    if isinstance(base, Gdd):
        assert errors[-2:] == [faults[0][1], "group 0 repeats a vector or overlaps "
                               "another group"]
    for rows in (1, 7):
        monkeypatch.setattr(D, "_BLOCK_ROWS", rows)
        assert [_block_outputs(d) for d in inputs] == whole
        assert [_verify_error(d) for d in bad] == errors


def test_block_size_does_not_change_a_fault_at_a_default_block_end(gdd12_6, monkeypatch):
    # the last row of the first default block, reached at every block size
    import tridesign.designs as D
    end = D._BLOCK_ROWS - 1
    d = _with_rows(Design(n=12, poly=gdd12_6.poly, tri=gdd12_6.tri), {end: (5, 9, 12)})
    message = f"malformed triangle at row {end}: (5, 9, 12)"
    assert _verify_error(d) == message
    for rows in (1, 7):
        monkeypatch.setattr(D, "_BLOCK_ROWS", rows)
        assert _verify_error(d) == message
