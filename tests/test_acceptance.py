"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its runtime budget.

Budgets are wall-clock for the operations named by the criterion
(field tables and session fixtures are shared setup).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from reference import (cyclotomic_class, enumerate_lines, gamma, gamma_key,
                       is_triangle_orbit)
from tridesign.construct import (_extension_rows, balanced_extension, fill_groups,
                                 gdd_6k_6, product, trivial_design)
from tridesign.datasets import as_certificate, expand_special, load_dataset
from tridesign.designs import (charge_ledger, verify_balanced, verify_design,
                               verify_gdd)
from tridesign.gf2n import build_field
from tridesign.lines import line_count
from tridesign.orbits import (FrobeniusCertificate, OrbitCertificate,
                              expand_certificate)
from tridesign.search import (frobenius_strata, search_frobenius, search_singer)


@contextmanager
def budget(criterion: str, seconds: float):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < seconds else "FAIL (over budget)"
    print(f"\nACCEPTANCE {criterion}: {verdict} ({dt:.2f}s, budget {seconds:.0f}s)")
    assert dt < seconds, f"criterion {criterion} exceeded budget: {dt:.1f}s"


def test_criterion_01_design6():
    build_field(5), build_field(6)  # table setup outside the budget
    with budget("1 (embedded (6)-design)", 1.0):
        d6 = expand_special(load_dataset("design6"))
        assert d6.triangle_count == 217
        rep = verify_design(d6)
        assert rep.ok and rep.line_total == 651 and rep.lines_seen == 651


def test_criterion_02_gdd6_2():
    build_field(6)
    with budget("2 (embedded (6,2)-GDD)", 1.0):
        g = expand_special(load_dataset("gdd6-2"))
        assert g.triangle_count == 210
        assert len(g.groups) == 21
        assert verify_gdd(g).ok
        bal = verify_balanced(g)
        assert bal.balanced and bal.lam == 20


def test_criterion_03_table1_gdd12_6():
    ctx = build_field(12)
    with budget("3 ((12,6)-GDD certificate)", 120.0):
        ds = load_dataset("gdd12-6")
        assert len(ds.payload) == 224
        # orbit level: the 224 triples tile Z_4095 minus the multiples of 65
        covered = set()
        for i, j in ds.payload:
            for k in (i, j, (j - i) % 4095):
                gam = gamma(ctx, k)
                assert not covered.intersection(gam)
                covered.update(gam)
        assert covered == set(range(1, 4095)) - set(range(65, 4095, 65))
        assert len(covered) == 4032
        # full expansion
        g = expand_certificate(as_certificate(ds))
        assert g.triangle_count == 917280
        assert line_count(12) == 2794155
        rep = verify_gdd(g)
        assert rep.ok
        assert rep.lines_seen == 2794155 - 65 * 651
        bal = verify_balanced(g)
        assert bal.balanced and bal.lam == 1344


def test_criterion_04_frob7():
    build_field(7)
    with budget("4 (n=7 pair (1,9))", 1.0):
        d = expand_certificate(as_certificate(load_dataset("frob7")))
        assert d.triangle_count == 889
        rep = verify_design(d)
        assert rep.ok and rep.line_total == 2667
        bal = verify_balanced(d)
        assert bal.balanced and bal.lam == 42


def test_criterion_05_frob13():
    ctx = build_field(13)
    with budget("5 (n=13 pairs)", 600.0):
        ds = load_dataset("frob13")
        assert len(ds.payload) == 35
        # orbit level: 455 disjoint 18-sets tiling Z_8191 minus 0
        cert = as_certificate(ds)
        reps = cert.reps
        assert len(reps) == 455
        covered = set()
        for i, j in reps:
            block = set()
            for k in (i, j, (j - i) % 8191):
                block.update(gamma(ctx, k))
            assert len(block) == 18
            assert not covered & block
            covered |= block
        assert covered == set(range(1, 8191))
        # full expansion
        d = expand_certificate(cert)
        assert d.triangle_count == 3726905
        rep = verify_design(d)
        assert rep.ok and rep.line_total == 11180715
        bal = verify_balanced(d)
        assert bal.balanced and bal.lam == 2730


def test_criterion_06_search_reproduction():
    with budget("6a (search n=7)", 10.0):
        c7 = search_frobenius(7)
        assert len(c7.pairs) == 1
        d7 = expand_certificate(c7)
        assert d7.triangle_count == 889
        assert verify_design(d7).ok
        assert verify_balanced(d7).lam == 42
    with budget("6b (search n=13)", 600.0):
        c13 = search_frobenius(13)
        assert len(c13.pairs) == 35
        d13 = expand_certificate(c13)
        assert d13.triangle_count == 3726905
        assert verify_design(d13).ok
        assert verify_balanced(d13).lam == 2730
    with budget("6c (search (12,6))", 1800.0):
        c126 = search_singer(12, 6)
        assert len(c126.reps) == 224
        g = expand_certificate(c126)
        assert g.triangle_count == 917280
        assert verify_gdd(g).ok
        bal = verify_balanced(g)
        assert bal.balanced and bal.lam == 1344


def test_criterion_07_product():
    d6 = expand_special(load_dataset("design6"))
    with budget("7 (recursive product)", 300.0):
        d7, census7 = product(d6, trivial_design(), with_census=True)
        assert d7.triangle_count == 889
        assert verify_design(d7).ok
        un = line_count(6)
        assert census7 == {"A": 0, "B": 217, "C": 0, "D": 0,
                           "E": 1 * (un - 21), "F": 2 * 1 * 21}

        d12, census12 = product(d6, d6, with_census=True)
        assert d12.triangle_count == 931385
        assert verify_design(d12).ok
        assert census12 == {"A": 217, "B": 217,
                            "C": 2 * un * un,
                            "D": 63 * un,
                            "E": 63 * (un - 21),
                            "F": 2 * 63 * 21}


def test_criterion_08_balanced_extension():
    frob7 = expand_certificate(as_certificate(load_dataset("frob7")))
    with budget("8 (balanced +6 extension)", 900.0):
        d13 = balanced_extension(frob7)
        assert d13.triangle_count == 3726905
        # families A-E leave exactly family B's (design6's) charge profile
        rows, census = _extension_rows(frob7)
        led = charge_ledger(rows[:len(rows) - census["F"]], 13)
        del rows
        d6 = expand_special(load_dataset("design6"))
        assert (led[:64] == charge_ledger(d6.tri, 6)).all() and not led[64:].any()
        assert led[32] == -31
        assert (led[1:32] == 2).all()
        assert (led[33:64] == -1).all()
        assert led.sum() == 0
        # balanced_extension verifies internally; re-check independently
        assert verify_design(d13).ok
        bal = verify_balanced(d13)
        assert bal.balanced and bal.lam == 2730


def test_criterion_09_tower_and_filling():
    d6 = expand_special(load_dataset("design6"))
    g62 = expand_special(load_dataset("gdd6-2"))
    with budget("9 (tower and filling)", 1800.0):
        g2 = gdd_6k_6(2)
        assert g2.triangle_count == 917280
        assert verify_gdd(g2).ok
        bal2 = verify_balanced(g2)
        assert bal2.balanced and bal2.lam == 1344

        filled = fill_groups(g2, d6)
        assert filled.triangle_count == 931385
        assert verify_design(filled).ok

        # counting identity gives 917280 + 65*210 = 930930 triangles
        # (the criterion text says 931,930; its own cited derivation,
        # (2^12-1)(2^12-4)/18, fixes the value frozen here)
        filled2 = fill_groups(g2, g62)
        assert filled2.triangle_count == 930930
        assert verify_gdd(filled2).ok
        assert verify_balanced(filled2).balanced

        stream = gdd_6k_6(3)
        total = stream.stream_count()
        assert total == 4161 * 917280 == 3816802080
        assert stream.sample_line_check(100_000, seed=0) == 100_000


def test_criterion_10_property_suites():
    f6 = build_field(6)
    f7 = build_field(7)
    f12 = build_field(12)
    f13 = build_field(13)
    rng = np.random.default_rng(0)
    with budget("10 (property suites)", 120.0):
        # Zech involution / triple / doubling: exhaustive n=7
        for k in range(1, 127):
            z = f7.zech(k)
            assert f7.zech(z) == k
            assert f7.zech((-z) % 127) == (k - z) % 127
            assert (-f7.zech((-k) % 127)) % 127 == (k - z) % 127
            assert f7.zech((2 * k) % 127) == (2 * z) % 127
        # sampled n=13
        for k in rng.integers(1, 8191, size=1000).tolist():
            z = f13.zech(k)
            assert f13.zech(z) == k
            assert f13.zech((-z) % 8191) == (k - z) % 8191
            assert f13.zech((2 * k) % 8191) == (2 * z) % 8191

        # closure sets: size 6 unless 3k = 0 (exhaustive n in {6,7,12,13})
        for ctx in (f6, f7, f12, f13):
            M = ctx.order
            for k in range(1, M):
                expected = 2 if (3 * k) % M == 0 else 6
                assert len(gamma(ctx, k)) == expected
        # closure under negation and Zech: exhaustive n=7, sampled n=13
        for k in range(1, 127):
            gam = set(gamma(f7, k))
            for e in gam:
                assert (-e) % 127 in gam and f7.zech(e) in gam
        for k in rng.integers(1, 8191, size=300).tolist():
            gam = set(gamma(f13, k))
            for e in gam:
                assert (-e) % 8191 in gam and f13.zech(e) in gam
        # closure sets outside the spread exponents stay outside (n=12, m=6)
        kbar = [k for k in range(1, 4095) if k % 65]
        for k in kbar:
            assert all(e % 65 for e in gamma(f12, k))

        # every line orbit has exactly 3 unit representatives whose
        # parameters form one closure set (exhaustive n=7)
        for line in enumerate_lines(7):
            reps = set()
            params = set()
            for d in line.pts:
                others = [p for p in line.pts if p != d]
                es = tuple(sorted((f7.log(p) - f7.log(d)) % 127 for p in others))
                reps.add(es)
                params.update(es)
            assert len(reps) == 3
            assert params == set(gamma(f7, next(iter(params))))
            assert len(params) == 6

        # triangle-orbit criterion vs brute force (exhaustive n=7 keys)
        import itertools
        keys7 = sorted({gamma_key(f7, k) for k in range(1, 127)})
        assert len(keys7) == 21
        for k1, k2, k3 in itertools.combinations(keys7, 3):
            g1, g2, g3 = gamma(f7, k1), gamma(f7, k2), gamma(f7, k3)
            brute = any((a + b + c) % 127 == 0
                        for a in g1 for b in g2 for c in g3)
            assert is_triangle_orbit(f7, k1, k2, k3) == brute

        # doubling classes separate k, -k, Zech(k), -Zech(-k): exhaustive n=7
        for k in range(1, 127):
            ck = cyclotomic_class(7, k)
            assert ck != cyclotomic_class(7, (-k) % 127)
            assert ck != cyclotomic_class(7, f7.zech(k))
            assert ck != cyclotomic_class(7, (-f7.zech((-k) % 127)) % 127)
            # 7 is not divisible by 3: the order-3 relations separate too
            assert cyclotomic_class(7, (-f7.zech(k)) % 127) != ck
            assert ck != cyclotomic_class(7, f7.zech((-k) % 127))
        for k in rng.integers(1, 8191, size=300).tolist():
            ck = cyclotomic_class(13, k)
            assert ck != cyclotomic_class(13, (-k) % 8191)
            assert ck != cyclotomic_class(13, f13.zech(k))

        # the six closure elements land in six distinct equal-size
        # doubling classes (n = 1 mod 6): exhaustive n=7, sampled n=13
        for k in range(1, 127):
            classes = {cyclotomic_class(7, e) for e in gamma(f7, k)}
            assert len(classes) == 6
            assert len({len(c) for c in classes}) == 1
        for k in rng.integers(1, 8191, size=200).tolist():
            classes = {cyclotomic_class(13, e) for e in gamma(f13, k)}
            assert len(classes) == 6
            assert len({len(c) for c in classes}) == 1

        # class-count divisibility at n=7 (and n=13)
        assert frobenius_strata(7)[7] == 18
        assert frobenius_strata(7)[7] % 18 == 0
        assert frobenius_strata(13)[13] % 18 == 0

        # full orbit length: one rep expands to exactly 2^n - 1 triangles
        cert7 = OrbitCertificate(n=7, m=1, poly=f7.poly, reps=((1, 9),))
        d = expand_certificate(cert7)
        assert d.triangle_count == 127
        assert np.unique(d.tri, axis=0).shape[0] == 127
        pair13 = load_dataset("frob13").payload[0]
        reps13 = FrobeniusCertificate(n=13, poly=f13.poly, pairs=(pair13,)).reps[:2]
        cert13 = OrbitCertificate(n=13, m=1, poly=f13.poly,
                                  reps=tuple(reps13))
        d13 = expand_certificate(cert13)
        assert d13.triangle_count == 2 * 8191
        assert np.unique(d13.tri, axis=0).shape[0] == 2 * 8191

        # dimension-gap rejection happens before any expansion work
        bad = OrbitCertificate(n=8, m=1, poly=build_field(8).poly,
                               reps=((1, 5),))
        with pytest.raises(ValueError, match="divisible by 6"):
            expand_certificate(bad)
        with pytest.raises(ValueError, match="divisible by 6"):
            search_singer(9, 1)
