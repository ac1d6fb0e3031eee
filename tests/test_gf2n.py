import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridesign import gf2n
from tridesign.gf2n import build_field, embed_subfield


def clmul_mod(a, b, poly, n):
    """Independent carry-less multiply mod poly (no tables)."""
    high = 1 << n
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & high:
            a ^= poly
    return r


def test_defaults_build_through_20():
    for n in range(1, 21):
        ctx = build_field(n)
        assert ctx.exp_np[0] == 1
        assert len(ctx.exp_np) == ctx.order == (1 << n) - 1


def test_exp_log_roundtrip_exhaustive_small():
    for n in (1, 2, 3, 4, 6, 7):
        ctx = build_field(n)
        for k in range(ctx.order):
            assert ctx.log_np[ctx.exp_np[k]] == k
        vals = sorted(ctx.exp_np.tolist())
        assert vals == list(range(1, 1 << n))


def test_exp_log_roundtrip_sampled_13(f13):
    rng = np.random.default_rng(1)
    for v in rng.integers(1, 1 << 13, size=500).tolist():
        assert f13.exp_np[f13.log_np[v]] == v


def test_defining_relation_n7(f7):
    # xi^7 = xi + 1 is forced by the default polynomial
    assert f7.exp_np[7] == 0b11


def test_build_field_13_order():
    ctx = build_field(13)
    assert ctx.order == 8191
    assert len(ctx.exp_np) == 8191


def test_non_primitive_rejected():
    with pytest.raises(ValueError, match="not primitive"):
        build_field(3, poly=0b1111)  # divisible by x + 1


@pytest.mark.parametrize("n, poly, step", [
    (4, 0b11111, 5),      # x^4 + x^3 + x^2 + x + 1: irreducible, xi^5 = 1
    (6, 0b1001001, 9),    # x^6 + x^3 + 1: irreducible, xi^9 = 1
])
def test_irreducible_non_primitive_rejected(n, poly, step):
    # xi^(2^n - 1) = 1 holds for both; only the repeat gives them away
    with pytest.raises(ValueError,
                       match=rf"not primitive \(power sequence repeats at step {step}\)"):
        build_field(n, poly=poly)


# sha256 of the int64 exp, log and Zech tables, recorded with the list-based
# builder the array tables replaced
_TABLE_SHA256 = {
    7: ("d9a58fef65a6c2c7a1fca8b9a2480fe91aae7a7e3d2c7048948f662026cbd50e",
        "d500c03f2dd7e7445d085f8eb46bed2148da436f9d98cb607da63c40d1dbf025",
        "a0c9425fcf5d975e80db353896cff598c515475bb8cc175cce51d52b9aa26934"),
    13: ("477fdc440a1507e30fe56d4a10d6a874285f684148ab9da13fc55944acb1d7f1",
         "5cf43db45c3c9a08b576f4e2b12c24c2b8741986540289aced0e9c83bd40c583",
         "0ec76ca6f16012a5f39f5874ae75875bf4c63a5148bdc1145b1bc04b73b9b4f0"),
    19: ("e52c3d168e85a237a61b24c09b503ef508c4128ed03600173aa423c341e73dfd",
         "ed2047018c5253aa63af780868051b17254bcdeae8234b65b6d287e8ead41055",
         "56d046d89da1fc58ce4ccb94bc2d47602a5332327ecfeb4fd86ff845322ef370"),
}


@pytest.mark.parametrize("n", sorted(_TABLE_SHA256))
def test_tables_pinned(n):
    ctx = build_field(n)
    tables = (ctx.exp_np, ctx.log_np, ctx.zech_np)
    assert all(t.dtype == np.int64 and not t.flags.writeable for t in tables)
    assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == _TABLE_SHA256[n]


def test_exp_matches_polynomial_powers_through_16():
    for n in range(1, 17):
        ctx = build_field(n)
        powers = [1]
        for _ in range(ctx.order - 1):
            powers.append(clmul_mod(powers[-1], 2, ctx.poly, n))
        assert ctx.exp_np.tolist() == powers


def test_scalar_methods_return_python_int(f7):
    assert type(f7.zech(1)) is int
    assert type(f7.exp(200)) is int
    assert type(f7.log(3)) is int
    assert type(f7.mul(3, 5)) is int
    x = 0b1011001
    power = 1
    for _ in range(10**30 % 127):
        power = clmul_mod(power, x, f7.poly, 7)
    assert f7.pow(x, 10**30) == power


def test_cache_clear_rebuilds_field_and_embedding():
    # perfbench clears these caches so each pass rebuilds the tables
    f13 = build_field(13)
    emb = embed_subfield(build_field(6), build_field(12))
    gf2n._build_field_cached.cache_clear()
    gf2n._embed_subfield_cached.cache_clear()
    fresh = build_field(13)
    assert fresh is not f13 and np.array_equal(fresh.exp_np, f13.exp_np)
    fresh_emb = embed_subfield(build_field(6), build_field(12))
    assert fresh_emb is not emb and np.array_equal(fresh_emb, emb)


def test_embed_prime_subfield():
    # GF(2) sits in every field as {0, 1}
    for n in (1, 7, 13):
        assert embed_subfield(build_field(1), build_field(n)).tolist() == [0, 1]


def test_degree_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_field(0)
    with pytest.raises(ValueError, match="out of range"):
        build_field(29)


def test_poly_shape_validation():
    with pytest.raises(ValueError, match="degree"):
        build_field(4, poly=0b1011)  # degree 3 mask for n=4
    with pytest.raises(ValueError, match="constant"):
        build_field(3, poly=0b1010)


def test_mul_examples():
    f3 = build_field(3)  # x^3 + x + 1
    assert f3.mul(0b010, 0b100) == 0b011  # xi * xi^2 = xi + 1
    assert f3.mul(0, 5) == 0
    for n in (3, 7):
        ctx = build_field(n)
        assert ctx.inv(1) == 1


def test_log_exp_modular(f7):
    assert f7.log(f7.exp(200)) == 200 % 127 == 73


def test_zero_element_errors(f7):
    with pytest.raises(ZeroDivisionError):
        f7.log(0)
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


@pytest.mark.parametrize("call", [
    lambda f: f.log(-1), lambda f: f.log(128), lambda f: f.mul(-1, 3),
    lambda f: f.mul(3, 128), lambda f: f.mul(200, 3), lambda f: f.mul(0, -1),
    lambda f: f.inv(-5), lambda f: f.inv(128), lambda f: f.pow(-2, 3),
    lambda f: f.pow(128, 0),
])
def test_scalar_methods_refuse_non_elements(call, f7):
    # a negative x used to wrap around the log table: log(-1) gave 121
    with pytest.raises(ValueError, match="not an element 0..127 of GF\\(2\\^7\\)"):
        call(f7)


def test_scalar_methods_at_the_element_range_ends(f7):
    top = f7.order
    assert f7.log(top) == int(f7.log_np[top]) and f7.inv(f7.inv(top)) == top
    assert f7.mul(top, 1) == top and f7.mul(0, top) == 0
    assert f7.pow(top, 1) == top and f7.pow(0, 0) == 1
    assert f7.exp(-1) == f7.exp(126)   # exp and zech take exponents, any integer


def test_pow(f7):
    assert f7.pow(0, 5) == 0
    assert f7.pow(0, 0) == 1
    x = int(f7.exp_np[3])
    assert f7.pow(x, 127) == 1   # group order
    assert f7.pow(x, 128) == x   # exponent reduced mod the group order


def test_zech_values_n7(f7):
    assert f7.zech(1) == 7     # 1 + xi = xi^7
    assert f7.zech(7) == 1     # involution partner
    assert f7.zech(126) == 6   # 1 + xi^-1 = xi^6


def test_zech_against_polynomial_oracle(f7):
    # oracle: raw polynomial arithmetic, no tables
    poly, n = f7.poly, 7
    powers = [1]
    for _ in range(126):
        powers.append(clmul_mod(powers[-1], 2, poly, n))
    oracle_log = {v: k for k, v in enumerate(powers)}
    for k in (1, 2, 7, 63, 126):
        assert f7.zech(k) == oracle_log[1 ^ powers[k]]


def test_zech_undefined_at_zero(f7):
    with pytest.raises(ValueError, match="undefined at 0"):
        f7.zech(0)
    with pytest.raises(ValueError, match="undefined at 0"):
        f7.zech(127)  # reduces to 0


def test_zech_identities_exhaustive_n7(f7):
    M = f7.order
    for k in range(1, M):
        z = f7.zech(k)
        assert f7.zech(z) == k                                  # involution
        assert f7.zech((-z) % M) == (k - z) % M                 # triple identity
        assert (-f7.zech((-k) % M)) % M == (k - z) % M
        assert f7.zech((2 * k) % M) == (2 * z) % M              # doubling


def test_zech_identities_sampled_n13(f13):
    M = f13.order
    rng = np.random.default_rng(7)
    for k in rng.integers(1, M, size=800).tolist():
        z = f13.zech(k)
        assert f13.zech(z) == k
        assert f13.zech((-z) % M) == (k - z) % M
        assert f13.zech((2 * k) % M) == (2 * z) % M


@given(k=st.integers(min_value=1, max_value=126))
@settings(max_examples=60, deadline=None)
def test_zech_involution_property(k):
    f7 = build_field(7)
    assert f7.zech(f7.zech(k)) == k


@given(v=st.integers(min_value=1, max_value=8190))
@settings(max_examples=60, deadline=None)
def test_log_exp_property_n13(v):
    f13 = build_field(13)
    assert f13.exp(f13.log(v)) == v


def test_embed_subfield_is_ring_hom():
    for (m, n) in ((2, 6), (3, 6), (6, 12)):
        sub, big = build_field(m), build_field(n)
        emb = embed_subfield(sub, big)
        assert emb[0] == 0 and emb[1] == 1
        assert len(set(emb)) == 1 << m
        for x in range(1 << m):
            for y in range(1 << m):
                assert emb[x ^ y] == emb[x] ^ emb[y]
                assert emb[sub.mul(x, y)] == big.mul(emb[x], emb[y])


def test_embed_subfield_rejects_non_divisor():
    with pytest.raises(ValueError):
        embed_subfield(build_field(4), build_field(6))


def test_tables_numpy_views_read_only(f7):
    assert not f7.exp_np.flags.writeable
    assert f7.exp_np[7] == 3
