import hashlib
import itertools
import logging

import numpy as np
import pytest

from tridesign.construct import (ConstructionError, GddStream, _extension_rows,
                                 balanced_extension, fill_groups, gdd_6k_6,
                                 product, product_census, trivial_design)
from tridesign.designs import (Design, Gdd, ascending_rows, charge_ledger,
                               verify_balanced, verify_design, verify_gdd)
from tridesign.designs import _line_keys
from tridesign.fileio import read_design, write_design
from tridesign.gf2n import build_field, embed_subfield
from tridesign.lines import canonical_plane_basis


def _sha(tri):
    """sha256 of the rows as int64 values, so a digest does not depend on
    the rows' dtype."""
    return hashlib.sha256(tri.astype(np.int64).tobytes()).hexdigest()


def _linear_relabel(d, seed):
    """Image of ``d`` under a seeded invertible GF(2)-linear map."""
    rng = np.random.default_rng(seed)
    while True:
        cols = rng.integers(1, 1 << d.n, size=d.n).tolist()
        basis = []
        for c in cols:
            for b in basis:
                c = min(c, c ^ b)
            if c:
                basis.append(c)
                basis.sort(reverse=True)
        if len(basis) == d.n:
            break
    v = np.arange(1 << d.n, dtype=np.int64)
    img = np.zeros(1 << d.n, dtype=np.int64)
    for bit, col in enumerate(cols):
        img ^= ((v >> bit) & 1) * col
    return Design(n=d.n, poly=d.poly, tri=img[d.tri], provenance="relabel")


def _abcde_ledger(base):
    """Charge ledger of the +6 extension rows of ``base`` before family F."""
    rows, census = _extension_rows(base)
    return charge_ledger(rows[:len(rows) - census["F"]], base.n + 6)


# Triangle arrays and family censuses recorded from the per-triangle
# family loops that the broadcast-OR builder replaced.
_PRODUCT_PINS = {
    "6x6": ("26d104fef27b7e6bd1cace2b66c35bfd903890cc13daa04aa318fb4b4e965e59",
            {"A": 217, "B": 217, "C": 847602, "D": 41013, "E": 39690, "F": 2646}),
    "6x1": ("c03965477e9ed12eb1adcc1fbd2a6d60fdf5fcc1bbe163030715603a96e091d8",
            {"A": 0, "B": 217, "C": 0, "D": 0, "E": 630, "F": 42}),
    "1x6": ("fd927d84ba45bd5608283ce37bf7a5868354b8cb22bb0fe529ca856f73fce57a",
            {"A": 0, "B": 217, "C": 0, "D": 0, "E": 630, "F": 42}),
}


@pytest.mark.parametrize("case", sorted(_PRODUCT_PINS))
def test_product_pinned_output(case, design6):
    factors = {"6": design6, "1": trivial_design()}
    left, right = (factors[c] for c in case.split("x"))
    out, census = product(left, right, with_census=True)
    assert (_sha(out.tri), census) == _PRODUCT_PINS[case]


@pytest.mark.parametrize("seed,digest", [
    (None, "a10e81955c59cbab6a5d36a5ea0858df411630e288500979d34afdbc7c37c8d8"),
    (7, "d1e96fe671a2ba888001b55b1571213afaf99652d7c3e7e25bf4c26579c04b50"),
])
def test_balanced_extension_pinned_output(seed, digest, frob7_design, design6):
    base = frob7_design if seed is None else _linear_relabel(frob7_design, seed)
    out = balanced_extension(base)
    assert _sha(out.tri) == digest
    led = _abcde_ledger(base)
    expected = {**{v: 2 for v in range(1, 32)}, 32: -31,
                **{v: -1 for v in range(33, 64)}}
    assert {int(v): int(led[v]) for v in np.flatnonzero(led)} == expected
    # families A-E leave exactly family B's (design6's) charge profile
    assert (led[:64] == charge_ledger(design6.tri, 6)).all() and not led[64:].any()


def test_product_refuses_unverified_factor(design6):
    tri = design6.tri.copy()
    tri[0] = tri[1]
    bad = Design(n=6, poly=design6.poly, tri=tri)
    assert not verify_design(bad).ok
    with pytest.raises(ConstructionError, match="left factor does not verify"):
        product(bad, design6)
    with pytest.raises(ConstructionError, match="right factor does not verify"):
        product(trivial_design(), bad)


def test_product_design6_trivial(design6):
    d7, census = product(design6, trivial_design(), with_census=True)
    assert d7.n == 7
    assert d7.triangle_count == 889
    assert census == {"A": 0, "B": 217, "C": 0, "D": 0, "E": 630, "F": 42}
    assert verify_design(d7).ok


def test_product_census_formulas(design6):
    expected = product_census(trivial_design(), design6, 21)
    assert expected == {"A": 0, "B": 217, "C": 0, "D": 0, "E": 630, "F": 42}


def test_product_design6_design6(design6):
    d12, census = product(design6, design6, with_census=True)
    assert d12.triangle_count == 931385
    assert census == {"A": 217, "B": 217, "C": 847602, "D": 41013,
                      "E": 39690, "F": 2646}
    assert verify_design(d12).ok


def test_product_parity_error(frob7_design):
    with pytest.raises(ConstructionError, match="odd"):
        product(frob7_design, frob7_design)


def test_product_size_guard_runs_first(frob7_design):
    # 7 + 12 would be ~15.3e9 triangles: refused before the factors are
    # checked (the empty even factor does not verify) or any row is built
    empty = Design(n=12, poly=build_field(12).poly,
                   tri=np.empty((0, 3), dtype=np.int64))
    for left, right in ((frob7_design, empty), (empty, frob7_design)):
        with pytest.raises(ConstructionError,
                           match=r"product to n=19 \(15270907449 triangles\) is too large"):
            product(left, right)


def test_balanced_extension_frob7(frob7_design, design6):
    d13 = balanced_extension(frob7_design)
    assert isinstance(d13, Design)
    assert d13.n == 13
    assert d13.triangle_count == 3726905
    led = _abcde_ledger(frob7_design)
    assert (led[:64] == charge_ledger(design6.tri, 6)).all() and not led[64:].any()
    assert led[32] == -31
    assert led[1] == 2 and led[33] == -1
    assert not charge_ledger(d13.tri, 13).any()
    bal = verify_balanced(d13)
    assert bal.balanced and bal.lam == 2730


def test_balanced_extension_refuses_unbalanced_cover(frob7_design, monkeypatch):
    # spread lines in the ascending role order for every special y: the
    # rows still cover every line once, but the charges no longer cancel
    import tridesign.construct as C
    monkeypatch.setattr(C, "_special_role_order", lambda spread: spread)
    rows, _ = C._extension_rows(frob7_design)
    unrotated = Design(n=13, poly=build_field(13).poly, tri=rows)
    assert verify_design(unrotated).ok and not verify_balanced(unrotated).ok
    with pytest.raises(ConstructionError, match="^balanced extension is not balanced"):
        balanced_extension(frob7_design)


def test_balanced_extension_refuses_dropped_row(frob7_design, monkeypatch):
    import tridesign.construct as C
    real = C._extension_rows

    def dropped(tm):
        rows, census = real(tm)
        return rows[:-1], census

    monkeypatch.setattr(C, "_extension_rows", dropped)
    with pytest.raises(ConstructionError, match="^balanced extension failed verification"):
        balanced_extension(frob7_design)


def test_balanced_extension_rejects_unbalanced(design6):
    with pytest.raises(ConstructionError, match="odd"):
        balanced_extension(design6)  # even dimension


def test_balanced_extension_rejects_broken_input(frob7_design):
    broken = Design(n=7, poly=frob7_design.poly, tri=frob7_design.tri[:-1])
    with pytest.raises(ConstructionError, match="verify"):
        balanced_extension(broken)


def test_balanced_extension_size_guard_runs_first():
    # 13 + 6 would be ~15.3e9 triangles: refused before the input is checked
    empty = Design(n=13, poly=build_field(13).poly,
                   tri=np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ConstructionError, match="too large"):
        balanced_extension(empty)


def test_gdd_tower_k1():
    g1 = gdd_6k_6(1)
    assert g1.triangle_count == 0
    assert len(g1.groups) == 1
    assert verify_gdd(g1).ok


def test_gdd_tower_k2(gdd12_6):
    g2 = gdd_6k_6(2)
    assert g2.triangle_count == 917280
    assert verify_gdd(g2).ok
    # identical line coverage to the embedded dataset
    k1 = np.sort(_line_keys(g2.tri, 12))
    k2 = np.sort(_line_keys(gdd12_6.tri, 12))
    assert np.array_equal(k1, k2)


def test_gdd_tower_k3_structure():
    s = gdd_6k_6(3)
    assert isinstance(s, GddStream)
    assert s.plane_count == 4161
    assert s.per_plane == 917280
    plane = next(s.planes())
    tri = s.plane_triangles(plane)
    assert tri.shape == (917280, 3)
    # the plane copy covers each of its non-group lines exactly once
    keys = np.sort(_line_keys(tri, s.n))
    assert np.unique(keys).size == keys.size
    assert s.sample_line_check(200, seed=3) == 200


@pytest.fixture(scope="module")
def stream3():
    return gdd_6k_6(3)


# Digests recorded with the scalar two-gather transport, before the
# tower kernels were vectorized.
_PINNED_PLANES = [
    (0, (1, 2), "761add68090ab5b1b492a460bfaca6f56aa10646902f7dd4997cd072c15b975c"),
    (2080, (3, 116), "dac726d515dd4592aa23276a82c3e6f37e2bf1e86c1db4ba18036d0a7d0c8741"),
    (4160, (2, 4), "e68f12099748593dbb43eca68391f9375adc1d43b30ff2b47056ccc7f524913c"),
]


@pytest.mark.parametrize("index, basis, digest", _PINNED_PLANES)
def test_plane_triangles_pinned(stream3, index, basis, digest):
    plane = next(itertools.islice(stream3.planes(), index, None))
    assert (plane.u, plane.v) == basis
    tri = stream3.plane_triangles(plane, canonical=False)
    assert tri.shape == (917280, 3) and tri.dtype == np.int32
    assert _sha(tri) == digest


@pytest.mark.parametrize("index", [index for index, _, _ in _PINNED_PLANES])
def test_plane_triangles_canonical_sorts_each_row(stream3, index):
    # the min/max network on row blocks is np.sort of each row
    plane = next(itertools.islice(stream3.planes(), index, None))
    raw = stream3.plane_triangles(plane, canonical=False)
    canon = stream3.plane_triangles(plane)
    assert canon.dtype == np.int32 and canon.flags.c_contiguous
    assert np.array_equal(canon, np.sort(raw, axis=1))


@pytest.mark.parametrize("edit, message", [
    (lambda planes: planes.__setitem__(1, planes[0]), "4161 planes enumerated, 4160 distinct"),
    (lambda planes: planes.pop(), "4160 planes enumerated, 4160 distinct"),
], ids=["repeated", "missing"])
def test_stream_count_refuses_bad_plane_enumeration(stream3, monkeypatch, edit, message):
    planes = list(stream3.planes())
    edit(planes)
    monkeypatch.setattr(stream3, "planes", lambda: iter(planes))
    with pytest.raises(ConstructionError, match=f"^{message}; expected 4161$"):
        stream3.stream_count()


def test_gdd_tower_k2_pinned():
    assert _sha(gdd_6k_6(2).tri) == \
        "163bfaa9c2984524748b22a0256240d672172ab90f2b59ea8163918e248a005e"


def _plane0_rows(request, canonical):
    s = request.getfixturevalue("stream3")
    return s.plane_triangles(next(s.planes()), canonical=canonical)


def _read_back_rows(request, suffix):
    path = str(request.getfixturevalue("tmp_path") / f"frob7.design{suffix}")
    write_design(request.getfixturevalue("frob7_design"), path)
    return read_design(path).tri


_FROB7_SHA = "8d1868868aa1d17c45fb0467c74e0a5741d36e7ee24ec723f9e6df298e751577"
_GDD12_SHA = "163bfaa9c2984524748b22a0256240d672172ab90f2b59ea8163918e248a005e"
_PLANE0_SHA = "fc9d960492e232198015dac3a4a477ca1a75bef525ec8ac7e0439ffb4a3fb49e"

# Every producer of triangle rows, with the sha256 of its rows as int64
# values, recorded while canonical forms were int64.
_ROW_PRODUCERS = {
    "expand_special-design6": (
        lambda r: r.getfixturevalue("design6").tri,
        "23d5df5481d3224fd12d63946cdc887ee063743caf2a61ebf4a73c4d63166e72"),
    "expand_special-gdd6-2": (
        lambda r: r.getfixturevalue("gdd6_2").tri,
        "eaaecf17153a286165d5cfff19b4838244a6c79284f44a5a4eb6ae7a3d08e2a1"),
    "expand_certificate-frob7": (lambda r: r.getfixturevalue("frob7_design").tri,
                                 _FROB7_SHA),
    "expand_certificate-gdd12-6": (lambda r: r.getfixturevalue("gdd12_6").tri,
                                   _GDD12_SHA),
    "product": (
        lambda r: product(r.getfixturevalue("design6"), r.getfixturevalue("design6")).tri,
        _PRODUCT_PINS["6x6"][0]),
    "balanced_extension": (
        lambda r: balanced_extension(r.getfixturevalue("frob7_design")).tri,
        "a10e81955c59cbab6a5d36a5ea0858df411630e288500979d34afdbc7c37c8d8"),
    "fill_groups-gdd6-2": (
        lambda r: fill_groups(gdd_6k_6(2), r.getfixturevalue("gdd6_2")).tri,
        "a09d826b399526f72df9e3cdb6501d610f1622696adb669c69824d8a66d2f3e6"),
    "fill_groups-design6": (
        lambda r: fill_groups(gdd_6k_6(2), r.getfixturevalue("design6")).tri,
        "f466b3064a435a07a8d820b3cf547906bc5881972c399792a340b81ef7958bb7"),
    "gdd_6k_6-2": (lambda r: gdd_6k_6(2).tri, _GDD12_SHA),
    "read_design": (lambda r: _read_back_rows(r, ""), _FROB7_SHA),
    "read_design-gz": (lambda r: _read_back_rows(r, ".gz"), _FROB7_SHA),
    "plane_triangles-raw": (lambda r: _plane0_rows(r, False), _PINNED_PLANES[0][2]),
    "plane_triangles-canonical": (lambda r: _plane0_rows(r, True), _PLANE0_SHA),
    "ascending_rows": (lambda r: ascending_rows(_plane0_rows(r, False)), _PLANE0_SHA),
    "ascending_rows-from-int64": (
        lambda r: ascending_rows(_plane0_rows(r, False).astype(np.int64)), _PLANE0_SHA),
}


@pytest.mark.parametrize("producer", sorted(_ROW_PRODUCERS))
def test_producers_return_int32_rows(producer, request):
    # every corner fits an int32, so no producer widens its rows, and the
    # values are the ones the int64 rows had
    make, digest = _ROW_PRODUCERS[producer]
    tri = make(request)
    assert tri.dtype == np.int32 and tri.flags.c_contiguous and tri.shape[1:] == (3,)
    assert _sha(tri) == digest


def _scalar_pulled_key(s, x, y):
    """Reference pull-back: canonical basis, then coordinates of x and y
    by a search over the 64 multiples of u, by direct field arithmetic."""
    ctx, emb = s.ctx, s.emb
    f12 = build_field(12)
    emb12 = embed_subfield(build_field(6), f12)
    plane = canonical_plane_basis(ctx, emb, x, y)
    pulled = []
    for w in (x, y):
        for a6 in range(64):
            resid = w ^ ctx.mul(emb[a6], plane.u)
            b6 = [b for b in range(64) if ctx.mul(emb[b], plane.v) == resid]
            if b6:
                pulled.append(emb12[a6] ^ f12.mul(emb12[b6[0]], int(f12.exp_np[1])))
                break
    p, q = pulled
    lo, _, hi = sorted((p, q, p ^ q))
    return (lo << 12) | (lo ^ hi)


def test_pulled_keys_match_scalar(stream3):
    rng = np.random.default_rng(11)
    x = rng.integers(1, stream3.ctx.order + 1, size=60)
    y = rng.integers(1, stream3.ctx.order + 1, size=60)
    gq = stream3.ctx.order // 63
    keep = (stream3.ctx.log_np[x] - stream3.ctx.log_np[y]) % gq != 0
    x, y = x[keep], y[keep]
    ref = [_scalar_pulled_key(stream3, int(a), int(b)) for a, b in zip(x, y)]
    assert stream3._pulled_keys(x, y).tolist() == ref


def _corrupt(keys, drop_every=0, dup_every=0, dup_from=0):
    out = np.delete(keys, np.arange(0, keys.size, drop_every)) if drop_every else keys
    if dup_every:
        out = np.sort(np.concatenate([out, keys[dup_from::dup_every]]))
    return out


# The (x, y) of the first failing draw, recorded with the scalar checker.
@pytest.mark.parametrize("corruption, seed, pair", [
    (dict(drop_every=97, dup_every=97, dup_from=50), 0, (12727, 22025)),
    (dict(drop_every=97, dup_every=97, dup_from=50), 1, (71610, 216977)),
    (dict(drop_every=97, dup_every=97, dup_from=50), 5, (136197, 132925)),
    (dict(dup_every=997), 0, (11241, 122365)),
    (dict(dup_every=997), 1, (22585, 63691)),
    (dict(dup_every=997), 5, (80820, 23743)),
    (dict(drop_every=997), 0, (11241, 122365)),
    (dict(drop_every=997), 1, (22585, 63691)),
    (dict(drop_every=997), 5, (80820, 23743)),
])
def test_sample_line_check_fails_on_first_bad_draw(stream3, monkeypatch,
                                                   corruption, seed, pair):
    # some lines uncovered (dropped keys), others covered twice (duplicates)
    monkeypatch.setattr(stream3, "_gdd12_keys", _corrupt(stream3._keys12(), **corruption))
    with pytest.raises(ConstructionError) as err:
        stream3.sample_line_check(50_000, seed=seed)
    assert str(err.value) == f"sampled line through {pair} not covered exactly once"


def _progress_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "tridesign.construct" and r.levelno == logging.INFO]


def test_sample_line_check_reports_progress_before_failure(stream3, monkeypatch,
                                                           caplog):
    # 138 of 2.75M keys dropped: the first bad draw comes after 20,000 good ones
    monkeypatch.setattr(stream3, "_gdd12_keys",
                        _corrupt(stream3._keys12(), drop_every=20011))
    caplog.set_level(logging.INFO, logger="tridesign")
    with pytest.raises(ConstructionError,
                       match=r"^sampled line through \(193423, 100725\) not covered"):
        stream3.sample_line_check(50_000, seed=0)
    assert _progress_lines(caplog) == ["  sampled 20000/50000"]


def test_sample_line_check_progress_lines(stream3, caplog):
    caplog.set_level(logging.INFO, logger="tridesign")
    assert stream3.sample_line_check(40_000, seed=2) == 40_000
    assert _progress_lines(caplog) == ["  sampled 20000/40000", "  sampled 40000/40000"]


def test_gdd_tower_bad_k():
    with pytest.raises(ValueError):
        gdd_6k_6(0)


def test_fill_groups_design(gdd12_6, design6):
    filled = fill_groups(gdd12_6, design6)
    assert isinstance(filled, Design) and not hasattr(filled, "groups")
    assert filled.triangle_count == 917280 + 65 * 217 == 931385
    assert verify_design(filled).ok


def test_fill_groups_gdd(gdd12_6, gdd6_2):
    filled = fill_groups(gdd12_6, gdd6_2)
    assert filled.m == 2
    assert filled.triangle_count == 917280 + 65 * 210 == 930930
    assert verify_gdd(filled).ok
    bal = verify_balanced(filled)
    assert bal.balanced  # balanced + balanced stays balanced
    assert bal.lam == 1344 + 20


def test_fill_groups_dimension_mismatch(gdd12_6, frob7_design):
    with pytest.raises(ConstructionError, match="dimension"):
        fill_groups(gdd12_6, frob7_design)


def test_fill_groups_charge_per_group(gdd12_6, gdd6_2):
    # group filling adds a zero-sum charge inside every group
    filled = fill_groups(gdd12_6, gdd6_2)
    led = charge_ledger(filled.tri, 12)
    base = charge_ledger(gdd12_6.tri, 12)
    for grp in gdd12_6.groups[:5]:
        delta = led[grp].sum() - base[grp].sum()
        assert delta == 0


def _swap_low_top_bit(v, n):
    """The bit swap 0 <-> n - 1, a GF(2)-linear relabelling."""
    lo, hi = v & 1, (v >> (n - 1)) & 1
    return v ^ ((lo ^ hi) * (1 | (1 << (n - 1))))


def test_fill_groups_refuses_unsound_host_spread(gdd12_6, design6):
    groups = gdd12_6.groups.copy()
    groups[1] = groups[0]   # one coset twice, another never filled
    g = Gdd(n=12, poly=gdd12_6.poly, tri=np.empty((0, 3), dtype=np.int64), m=6,
            groups=groups)
    with pytest.raises(ConstructionError, match="group 0 repeats a vector or "
                       "overlaps another group; cannot fill"):
        fill_groups(g, design6)


def test_fill_groups_gathers_fine_groups_in_host_order(gdd12_6, gdd6_2):
    fine = fill_groups(gdd12_6, gdd6_2).groups
    assert fine.shape == (65 * 21, 3) and not fine.flags.writeable
    # the 21 fine groups of host group i are rows 21i .. 21i + 20
    gid = np.full(1 << 12, -1)
    gid[gdd12_6.groups] = np.arange(65)[:, None]
    assert (gid[fine] == np.arange(65).repeat(21)[:, None]).all()


def test_fill_groups_refuses_non_coset_groups(gdd12_6, design6):
    groups = _swap_low_top_bit(gdd12_6.groups, 12)
    g = Gdd(n=12, poly=gdd12_6.poly, tri=np.empty((0, 3), dtype=np.int64), m=6,
            groups=groups)
    with pytest.raises(ConstructionError,
                       match="group 0 is not a multiplicative coset; cannot fill"):
        fill_groups(g, design6)
