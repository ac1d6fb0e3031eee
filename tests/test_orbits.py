import numpy as np
import pytest

from reference import (canonical_line, cy_gamma, cyclotomic_class, gamma,
                       gamma_key, is_triangle_orbit, orbit_key_of_line)
from tridesign.datasets import as_certificate, load_dataset
from tridesign.designs import verify_design
from tridesign.gf2n import _build_field_cached, build_field
from tridesign.orbits import (FrobeniusCertificate, OrbitCertificate,
                              OrbitCollisionError, certificate_from_json_dict,
                              cyclotomic_class_sizes, expand_certificate,
                              gamma_rows, orbit_cover_counts)


def gamma_oracle(ctx, k):
    """Independent closure computation by direct field arithmetic."""
    M = ctx.order
    out = {k % M}
    changed = True
    while changed:
        changed = False
        for s in list(out):
            for nxt in ((-s) % M, ctx.log(1 ^ ctx.exp(s))):
                if nxt not in out:
                    out.add(nxt)
                    changed = True
    return tuple(sorted(out))


def test_gamma_n7_k1(f7):
    assert gamma(f7, 1) == (1, 6, 7, 120, 121, 126)
    assert gamma(f7, 1) == gamma_oracle(f7, 1)


def test_gamma_degenerate_n6(f6):
    assert gamma(f6, 21) == (21, 42)
    assert gamma(f6, 42) == (21, 42)


def test_gamma_invariance(f7):
    base = gamma(f7, 1)
    for k in base:
        assert gamma(f7, k) == base


def test_gamma_zero_rejected(f7):
    with pytest.raises(ValueError):
        gamma(f7, 0)
    with pytest.raises(ValueError):
        gamma(f7, 127)


def test_cyclotomic_class():
    assert cyclotomic_class(7, 1) == (1, 2, 4, 8, 16, 32, 64)
    assert cyclotomic_class(7, 0) == (0,)
    classes = {cyclotomic_class(7, k) for k in range(1, 127)}
    assert len(classes) == 18
    assert all(len(c) == 7 for c in classes)


@pytest.mark.parametrize("n", [6, 12, 13, 19])
def test_cyclotomic_class_sizes_match_orbits(n):
    # by arithmetic, the size of the doubling orbit: every residue up to
    # n = 13, a seeded sample at n = 19, always with 0 and the residues
    # of every subfield GF(2^d), d | n
    M = (1 << n) - 1
    subfields = [r for d in range(1, n) if n % d == 0
                 for r in range(0, M, M // ((1 << d) - 1))]
    if n < 19:
        r = np.arange(M)
    else:
        r = np.concatenate([np.random.default_rng(19).integers(0, M, 3000), subfields])
    assert 0 in r and set(subfields) <= set(r.tolist())
    sizes = cyclotomic_class_sizes(n, r)
    assert sizes.tolist() == [len(cyclotomic_class(n, x)) for x in r.tolist()]
    narrow = cyclotomic_class_sizes(n, r.astype(np.int32))  # int32 stays int32
    assert narrow.dtype == np.int32 and np.array_equal(narrow, sizes)


def _unfolded(ctx, pairs):
    return list(FrobeniusCertificate(n=ctx.n, poly=ctx.poly, pairs=tuple(pairs)).reps)


def test_frobenius_certificate_reps_names_first_mixed_pair(f13):
    # a pair whose residues lie in classes of different sizes is refused,
    # the first such pair named: 0 is alone in its class
    with pytest.raises(OrbitCollisionError,
                       match=r"^pair \(0,5\): class sizes differ \(1,13,13\)$"):
        _unfolded(f13, [(1, 4097), (0, 5), (5, -5)])
    with pytest.raises(OrbitCollisionError, match=r"pair \(5,-5\): .* \(13,13,1\)"):
        _unfolded(f13, [(1, 4097), (5, -5)])


def test_cy_gamma_sizes(f7, f13):
    assert len(cy_gamma(f7, 1)) == 42
    assert len(cy_gamma(f13, 3)) == 78


def test_cy_gamma_covers_everything_n7(f7):
    u = set(cy_gamma(f7, 1)) | set(cy_gamma(f7, 9)) | set(cy_gamma(f7, 117))
    assert u == set(range(1, 127))


def test_orbit_key_of_line(f7, f12):
    assert orbit_key_of_line(f7, canonical_line(1, int(f7.exp_np[1]))) == 1
    scaled = canonical_line(int(f7.exp_np[2]), int(f7.exp_np[3]))
    assert orbit_key_of_line(f7, scaled) == 1  # same orbit
    # a line inside the order-64 subfield has a key divisible by 65
    sub = [int(f12.exp_np[65 * j]) for j in (1, 2)]
    key = orbit_key_of_line(f12, canonical_line(*sub))
    assert key % 65 == 0


def test_is_triangle_orbit(f7):
    assert is_triangle_orbit(f7, 1, 9, 117)
    # computed-false triple (brute force over all 6^3 membership sums)
    assert not is_triangle_orbit(f7, 1, 2, 17)
    with pytest.raises(ValueError, match="distinct"):
        is_triangle_orbit(f7, 1, 6, 9)  # gamma(6) = gamma(1)


def test_is_triangle_orbit_brute_force(f7):
    M = f7.order
    for trip in ((1, 9, 117), (1, 2, 17), (1, 9, 116), (2, 3, 30)):
        g1, g2, g3 = (gamma(f7, k) for k in trip)
        oracle = any((s1 + s2 + s3) % M == 0
                     for s1 in g1 for s2 in g2 for s3 in g3)
        assert is_triangle_orbit(f7, *trip) == oracle


def test_expand_frob7(frob7_design):
    assert frob7_design.triangle_count == 889
    assert verify_design(frob7_design).ok


def test_expand_gdd12(gdd12_6):
    assert gdd12_6.triangle_count == 917280
    assert gdd12_6.m == 6 and len(gdd12_6.groups) == 65


def test_orbit_length_full(f7):
    # one orbit: exactly 2^n - 1 distinct triangles
    cert = OrbitCertificate(n=7, m=1, poly=f7.poly, reps=((1, 9),))
    d = expand_certificate(cert)
    assert d.triangle_count == 127
    assert np.unique(d.tri, axis=0).shape[0] == 127


def test_expand_rejects_degenerate_rep(f7):
    # j = zech(i) makes all three lines share an orbit
    cert = OrbitCertificate(n=7, m=1, poly=f7.poly, reps=((1, 7),))
    with pytest.raises(OrbitCollisionError):
        expand_certificate(cert)


def test_expand_rejects_orbit_collision(f7):
    cert = OrbitCertificate(n=7, m=1, poly=f7.poly, reps=((1, 9), (1, 9)))
    with pytest.raises(OrbitCollisionError):
        expand_certificate(cert)


def test_expand_rejects_group_line(f12):
    # i divisible by 65 puts the first line inside a spread group
    cert = OrbitCertificate(n=12, m=6, poly=f12.poly, reps=((65, 7),))
    with pytest.raises(ValueError, match="group line"):
        expand_certificate(cert)


def test_expand_size_guard_runs_before_field_tables():
    # 2^26 - 1 triangles exceed the 50M guard.  The polynomial has no
    # constant term, so if the guard ever moved behind build_field the
    # call would fail there at once, with another message, instead of
    # allocating the 2^26-entry tables.
    cert = OrbitCertificate(n=26, m=2, poly=1 << 26, reps=((1, 2),))
    before = _build_field_cached.cache_info().currsize
    with pytest.raises(ValueError, match="too large"):
        expand_certificate(cert)
    assert _build_field_cached.cache_info().currsize == before


@pytest.mark.parametrize("n", [0, -5, 29, 60_000_001])
def test_expand_refuses_degree_out_of_range(n):
    # checked before 2^n - 1 is formed: at n = 60,000,001 that integer
    # alone is 7.5 MB, and the size guard's message could not print it
    cert = OrbitCertificate(n=n, m=1, poly=0b111, reps=((1, 2),))
    with pytest.raises(ValueError, match=f"degree {n} out of range 1..28"):
        expand_certificate(cert)


def test_expand_rejects_bad_dimension_gap():
    cert = OrbitCertificate(n=8, m=1, poly=build_field(8).poly, reps=((1, 5),))
    with pytest.raises(ValueError, match="divisible by 6"):
        expand_certificate(cert)


def test_frobenius_certificate_reps_sweep(f7, f12):
    reps = _unfolded(f7, [(1, 9)])
    assert len(reps) == 7
    assert reps[0] == (1, 118)  # (a, -b) mod 127
    assert len(set(reps)) == 7
    # pair by pair, j ascending, as the scalar sweep gives them
    pairs = [(1, 9), (117, 1), (-3, 131), (3, 9)]
    assert _unfolded(f7, pairs) == [
        ((a << j) % 127, (-b << j) % 127) for a, b in pairs for j in range(7)]
    assert _unfolded(f7, []) == []
    # each pair sweeps its own class size: (65, 130) lies in GF(2^6)
    pairs = [(1, 2), (65, 130), (5, 7)]
    assert _unfolded(f12, pairs) == [
        ((a << j) % 4095, (-b << j) % 4095)
        for (a, b), t in zip(pairs, (12, 6, 12)) for j in range(t)]


def test_certificate_json_roundtrip():
    cert = as_certificate(load_dataset("gdd12-6"))
    d = cert.to_json_dict()
    back = certificate_from_json_dict(d)
    assert back == cert
    fc = as_certificate(load_dataset("frob7"))
    assert certificate_from_json_dict(fc.to_json_dict()) == fc


def test_gamma_key(f7):
    assert gamma_key(f7, 126) == 1
    assert gamma_key(f7, 9) == min(gamma(f7, 9))


def test_expansion_determinism(f7):
    from tridesign.datasets import as_certificate, load_dataset
    cert = as_certificate(load_dataset("frob7"))
    d1 = expand_certificate(cert)
    d2 = expand_certificate(cert)
    assert np.array_equal(d1.tri, d2.tri)


def test_orbit_key_degenerate_line(f6):
    # the line fixed by the order-3 multiplier lives inside the GF(4)
    # subfield; its closure set has size 2
    line = canonical_line(1, int(f6.exp_np[21]))
    key = orbit_key_of_line(f6, line)
    assert key == 21
    assert gamma(f6, key) == (21, 42)


@pytest.mark.parametrize("n", [6, 7, 8, 12, 13])
def test_gamma_table_matches_scalar_gamma(n):
    # the gamma rows of every residue, built on demand (no table is kept)
    ctx = build_field(n)
    table = gamma_rows(ctx, np.arange(ctx.order))
    assert table.shape == (ctx.order, 6)
    assert not table[0].any()   # sentinel row
    degenerate = 0
    for k in range(1, ctx.order):
        row = tuple(table[k].tolist())
        if 3 * k % ctx.order:
            assert row == gamma(ctx, k)
        else:   # {k, -k}, each three times
            degenerate += 1
            assert row == tuple(sorted(gamma(ctx, k) * 3))
    assert degenerate == (2 if n % 2 == 0 else 0)


@pytest.mark.parametrize("n", [6, 7, 13])
def test_gamma_rows_of_some_residues_are_table_rows(n):
    ctx = build_field(n)
    k = np.random.default_rng(n).integers(0, ctx.order, 50)
    k[:2] = 0, ctx.order - 1
    rows = gamma_rows(ctx, k)
    assert rows.shape == (50, 6)
    assert np.array_equal(rows, gamma_rows(ctx, np.arange(ctx.order))[k])
    assert gamma_rows(ctx, []).shape == (0, 6)


def _set_verdict(ctx, reps, universe):
    """Independent set-based partition check with the scalar gamma."""
    M = ctx.order
    covered = set()
    for i, j in reps:
        if i % M == 0 or j % M == 0 or (j - i) % M == 0:
            return "zero"
        for k in (i, j, j - i):
            gam = set(gamma(ctx, k))
            if covered & gam:
                return "overlap"
            covered |= gam
    if covered - universe:
        return "outside"
    return "exact" if covered == universe else "short"


def _count_verdict(ctx, reps, universe):
    try:
        counts = orbit_cover_counts(ctx, reps)
    except ValueError:
        return "zero"
    inside = np.zeros(ctx.order, dtype=bool)
    inside[list(universe)] = True
    if counts.max() > 1:
        return "overlap"
    if counts[~inside].any():
        return "outside"
    return "exact" if counts[inside].all() else "short"


@pytest.mark.parametrize("name", ["frob7", "frob13", "gdd12-6"])
def test_orbit_cover_counts_agree_with_set_reference(name):
    cert = as_certificate(load_dataset(name))
    ctx = build_field(cert.n, cert.poly)
    M = ctx.order
    reps = list(cert.reps)
    g = M // ((1 << cert.m) - 1)
    universe = {r for r in range(1, M) if r % g}
    i0, j0 = reps[0]
    mutants = {
        "intact": reps,
        "dropped": reps[1:],
        "duplicated": reps + [reps[0]],
        "zero_i": [(0, j0)] + reps[1:],
        "i_equals_j": [(i0, i0)] + reps[1:],
        "degenerate": [(1, ctx.zech(1))] + reps[1:],
    }
    if cert.m > 1:
        mutants["group_line"] = [(g, j0)] + reps[1:]
        # a triangle inside one group: three distinct group-line orbits
        q = (1 << cert.m) - 1
        inner = next((g * a, g * b) for a in range(1, q) for b in range(1, q)
                     if (b - a) % q and len({gamma_key(ctx, g * a),
                                              gamma_key(ctx, g * b),
                                              gamma_key(ctx, g * (b - a))}) == 3)
        mutants["group_triangle"] = reps[1:] + [inner]
    verdicts = {kind: _set_verdict(ctx, r, universe)
                for kind, r in mutants.items()}
    assert verdicts["intact"] == "exact"
    assert verdicts["dropped"] == "short"
    assert verdicts["duplicated"] == "overlap"
    assert verdicts["zero_i"] == verdicts["i_equals_j"] == "zero"
    assert verdicts.get("group_triangle", "outside") == "outside"
    for kind, r in mutants.items():
        assert _count_verdict(ctx, r, universe) == verdicts[kind], kind


def test_expand_refuses_repeated_corner(f7):
    cert = OrbitCertificate(n=7, m=1, poly=f7.poly, reps=((1, 9), (5, 5)))
    with pytest.raises(ValueError, match=r"rep \(5,5\).*residue 0"):
        expand_certificate(cert)
