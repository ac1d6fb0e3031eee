import numpy as np
import pytest

from tridesign.datasets import (DatasetError, EmbeddedDataset, _check_mu_semiregular,
                                as_certificate, dataset_names, expand_special,
                                load_dataset, multiplier_table)
from tridesign.designs import verify_balanced, verify_design, verify_gdd


def test_names():
    assert dataset_names() == ["design6", "frob13", "frob7", "gdd12-6", "gdd6-2"]


def test_payload_sizes():
    assert len(load_dataset("design6").payload) == 7
    assert len(load_dataset("gdd6-2").payload) == 10
    assert len(load_dataset("gdd12-6").payload) == 224
    assert len(load_dataset("frob7").payload) == 1
    assert len(load_dataset("frob13").payload) == 35


def test_first_entries():
    assert load_dataset("gdd12-6").payload[0] == (3, 1861)
    assert load_dataset("frob13").payload[0] == (3, 3543)
    assert load_dataset("frob7").payload[0] == (1, 9)
    assert load_dataset("gdd6-2").payload[0] == (0, 5, 61)
    assert load_dataset("design6").payload[0] == (0, 3, 0, 9, 1, 27)


def test_name_normalization():
    assert load_dataset("GDD12_6").name == "gdd12-6"


def test_unknown_name():
    with pytest.raises(DatasetError, match="unknown"):
        load_dataset("nope")


def test_frob19_external():
    with pytest.raises(DatasetError, match="external"):
        load_dataset("frob19")


def test_design6_expansion(design6):
    assert design6.triangle_count == 7 * 31 == 217
    assert verify_design(design6).ok
    assert not verify_balanced(design6).balanced  # even dimension


def test_gdd6_2_expansion(gdd6_2):
    assert gdd6_2.triangle_count == 10 * 21 == 210
    assert len(gdd6_2.groups) == 21
    assert verify_gdd(gdd6_2).ok
    bal = verify_balanced(gdd6_2)
    assert bal.balanced and bal.lam == 20


def test_special_expansion_rejects_corrupt_payload():
    ds = load_dataset("gdd6-2")
    corrupt = EmbeddedDataset(name=ds.name, kind=ds.kind, n=ds.n, m=ds.m,
                              poly=ds.poly,
                              payload=ds.payload[:-1] + (ds.payload[0],))
    with pytest.raises(DatasetError, match="repeated triangle"):
        expand_special(corrupt)


def test_wrong_expansion_path():
    with pytest.raises(DatasetError, match="certificate"):
        expand_special(load_dataset("frob7"))
    with pytest.raises(DatasetError, match="bespoke"):
        as_certificate(load_dataset("design6"))


def test_all_embedded_datasets_verify(design6, gdd6_2, gdd12_6, frob7_design,
                                      frob13_design):
    # the primary regression suite: every embedded dataset expands and
    # passes its verifier
    assert verify_design(design6).ok
    assert verify_gdd(gdd6_2).ok and verify_balanced(gdd6_2).balanced
    assert verify_gdd(gdd12_6).ok and verify_balanced(gdd12_6).lam == 1344
    assert verify_design(frob7_design).ok
    assert verify_balanced(frob7_design).lam == 42
    assert verify_design(frob13_design).ok
    assert verify_balanced(frob13_design).lam == 2730


def test_multiplier_table_matches_scalar_action(f5):
    mu = multiplier_table(f5)
    assert mu.shape == (31, 64)
    for t in range(31):
        for v in range(64):
            low = v & 31
            if low:
                low = f5.exp_np[(f5.log_np[low] + t) % 31]
            assert mu[t, v] == (v & 32) | low
    _check_mu_semiregular(mu)


def test_mu_semiregular_refuses_fixed_line(f5):
    mu = multiplier_table(f5).copy()
    mu[1] = np.arange(64)
    with pytest.raises(DatasetError, match=r"fixes line \[1, 2, 3\]"):
        _check_mu_semiregular(mu)
