import contextlib
import gzip
import io
import json
import logging
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak_mib
from reference import cy_gamma, gamma
from tridesign import fileio
from tridesign.cli import main
from tridesign.datasets import as_certificate, load_dataset
from tridesign.designs import Design, Gdd
from tridesign.fileio import (load_report_schema, read_certificate, read_design,
                              write_certificate, write_design)
from tridesign.gf2n import build_field


def _roundtrip_bytes(d, tmp_path, name):
    p1 = tmp_path / f"{name}.design"
    p2 = tmp_path / f"{name}2.design"
    write_design(d, str(p1))
    back = read_design(str(p1))
    write_design(back, str(p2))
    return p1.read_bytes(), p2.read_bytes(), back


def test_design_file_roundtrip_byte_identical(design6, gdd6_2, tmp_path):
    b1, b2, back = _roundtrip_bytes(design6, tmp_path, "d6")
    assert b1 == b2
    assert back.triangle_count == 217 and back.n == 6

    g1, g2, gback = _roundtrip_bytes(gdd6_2, tmp_path, "g62")
    assert g1 == g2
    assert isinstance(gback, Gdd) and gback.m == 2
    assert len(gback.groups) == 21


def test_design_file_roundtrip_gdd12(gdd12_6, tmp_path):
    b1, b2, back = _roundtrip_bytes(gdd12_6, tmp_path, "g12")
    assert b1 == b2
    assert isinstance(back, Gdd)
    assert back.triangle_count == 917280


def test_gzip_container(design6, tmp_path):
    p = tmp_path / "d6.design.gz"
    write_design(design6, str(p))
    with open(p, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"
    back = read_design(str(p))
    assert back.triangle_count == 217


def test_bad_header(tmp_path):
    p = tmp_path / "junk.design"
    p.write_text("not a header\n")
    with pytest.raises(ValueError, match="not a design"):
        read_design(str(p))


def test_count_mismatch(design6, tmp_path):
    p = tmp_path / "d6.design"
    write_design(design6, str(p))
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")  # drop one triangle line
    with pytest.raises(ValueError, match="count"):
        read_design(str(p))


def test_certificate_roundtrip(tmp_path):
    cert = as_certificate(load_dataset("frob13"))
    p = tmp_path / "c.json"
    write_certificate(cert, str(p))
    assert read_certificate(str(p)) == cert


def run_cli(*argv):
    return main(list(argv))


def test_cli_field(capsys):
    assert run_cli("field", "--n", "7", "--zech", "1") == 0
    out = capsys.readouterr().out
    assert "zech: 7" in out


def test_cli_field_json_scalars(capsys):
    assert run_cli("--json", "field", "--n", "7", "--zech", "1", "--exp", "200",
                   "--log", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["zech"], payload["exp"], payload["log"]) == (7, 91, 7)


def test_write_design_refuses_non_coset_groups(tmp_path):
    from tridesign.gf2n import build_field
    from tridesign.lines import desarguesian_spread
    # the bit swap 0 <-> 5 moves the GF(4) cosets off the multiplicative cosets
    cosets = desarguesian_spread(build_field(6), 2)
    groups = cosets ^ (((cosets & 1) ^ ((cosets >> 5) & 1)) * 0b100001)
    g = Gdd(n=6, poly=build_field(6).poly, tri=np.empty((0, 3), dtype=np.int64),
            m=2, groups=groups)
    with pytest.raises(ValueError, match="group 0 is not a multiplicative coset"):
        write_design(g, str(tmp_path / "g.txt"))


def test_cli_gamma_json(capsys):
    assert run_cli("--json", "gamma", "--n", "7", "--k", "1", "--cy") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == [1, 6, 7, 120, 121, 126]
    assert len(payload["cy_gamma"]) == 42


def test_cli_gamma_builds_no_table(capsys):
    # one gamma-set from the Zech table: the rows of every residue at
    # n = 19 would hold 24 MiB (60.0 MiB traced to build them); the
    # command peaks at 0.07 MiB once the field is built
    build_field(19)
    codes = []
    assert traced_peak_mib(lambda: codes.append(
        run_cli("gamma", "--n", "19", "--k", "5"))) <= 1.0
    assert codes == [0]
    assert capsys.readouterr().out.startswith("gamma(5) = [5, 183623, ")


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 8])
def test_cli_gamma_matches_scalar_reference(n, capsys):
    # every k, degenerate gamma-sets (even n) and k beyond 2^n - 1 included
    ctx = build_field(n)
    for k in range(1, 2 * ctx.order):
        if k % ctx.order == 0:
            continue
        assert run_cli("--json", "gamma", "--n", str(n), "--k", str(k), "--cy") == 0
        payload = json.loads(capsys.readouterr().out)
        want = gamma(ctx, k)
        assert (payload["gamma"], payload["key"]) == (list(want), want[0]), k
        assert payload["cy_gamma"] == list(cy_gamma(ctx, k)), k


@pytest.mark.parametrize("k", ["0", "127", "-127"])
def test_cli_gamma_refuses_zero_residue(k, capsys):
    assert run_cli("gamma", "--n", "7", "--k", k) == 2
    assert capsys.readouterr().err == "error: gamma undefined at 0\n"


@pytest.mark.parametrize("payload, message", [
    ({"n": 7, "poly": "0x83", "pairs": [[1, 9]]}, "no 'kind' entry"),
    ({"kind": "frobenius", "n": 7, "poly": "0x83"}, "no 'pairs' entry"),
    ([{"kind": "frobenius", "n": 7, "poly": "0x83", "pairs": [[1, 9]]}],
     "JSON object, not a list"),
    ({"kind": "frobenius", "n": 7, "poly": "0x83", "pairs": [1, 9]},
     "malformed certificate entry"),
    ({"kind": "singer", "n": 7, "poly": [131], "reps": [[1, 9]]},
     "malformed certificate entry"),
    ({"kind": "singer", "n": 12, "m": 0, "poly": "0x10eb", "reps": [[1, 9]]},
     "group dimension 0 must divide 12"),
    ({"kind": "singer", "n": 13, "m": 7, "poly": "0x201b", "reps": [[1, 9]]},
     "group dimension 7 must divide 13"),
    # entries must be JSON integers: no floats, bools or strings
    ({"kind": "frobenius", "n": 7.9, "poly": "0x83", "pairs": [[1, 9]]},
     "n 7.9 is not an integer"),
    ({"kind": "frobenius", "n": 7, "poly": "0x83", "pairs": [[1.7, 9.2]]},
     "pairs 1.7 is not an integer"),
    ({"kind": "singer", "n": True, "m": 1, "poly": "0x3", "reps": []},
     "n True is not an integer"),
    ({"kind": "singer", "n": 7, "m": 1, "poly": "0x83", "reps": [["1", "2"]]},
     "reps '1' is not an integer"),
    ({"kind": "singer", "n": 12, "m": 6.0, "poly": "0x10eb", "reps": [[1, 9]]},
     "m 6.0 is not an integer"),
    ({"kind": "singer", "n": 7, "m": 1, "poly": "0x83", "reps": [[1, False]]},
     "reps False is not an integer"),
    ({"kind": "frobenius", "n": 7, "poly": 131.0, "pairs": [[1, 9]]},
     "poly 131.0 is not an integer"),
    # the entry at fault is named, not Python's unpacking or int() text
    ({"kind": "singer", "n": 7, "m": 1, "poly": "0x83", "reps": [[1, 9], [1, 2, 3]]},
     "reps row 1 [1, 2, 3] is not a pair"),
    ({"kind": "singer", "n": 7, "m": 1, "poly": "0x83", "reps": "ab"},
     "reps row 0 'a' is not a pair"),
    ({"kind": "frobenius", "n": 7, "poly": "zz", "pairs": [[1, 9]]},
     "poly 'zz' is not an integer"),
    # a frobenius certificate has no group dimension other than 1
    ({"kind": "frobenius", "n": 7, "m": 3, "poly": "0x83", "pairs": [[1, 9]]},
     "frobenius certificate m 3 is not 1"),
])
def test_cli_expand_refuses_malformed_certificate(payload, message, tmp_path,
                                                  capsys):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(payload))
    assert run_cli("expand", "--cert", str(cert),
                   "--out", str(tmp_path / "d.design")) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "d.design").exists()


def test_certificate_accepts_integer_poly(tmp_path, capsys):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"kind": "frobenius", "n": 7, "poly": 131,
                                "pairs": [[1, 9]]}))
    assert run_cli("expand", "--cert", str(cert),
                   "--out", str(tmp_path / "d.design")) == 0
    assert "889 triangles" in capsys.readouterr().out


@pytest.mark.parametrize("x", ["0", "128", "200", "-1"])
def test_cli_field_refuses_log_outside_the_field(x, capsys):
    assert run_cli("field", "--n", "7", "--log", x) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --log {x} out of range 1..127\n"


def test_cli_field_log_range_ends(capsys):
    assert run_cli("--json", "field", "--n", "7", "--log", "1") == 0
    assert json.loads(capsys.readouterr().out)["log"] == 0
    assert run_cli("--json", "field", "--n", "7", "--log", "127") == 0
    assert json.loads(capsys.readouterr().out)["log"] == 121


@pytest.mark.parametrize("n, m", [(7, 7), (1, 1)])
def test_cli_search_singer_without_items_writes_empty_certificate(n, m, tmp_path,
                                                                  capsys):
    cert, design = tmp_path / "c.json", tmp_path / "d.design"
    assert run_cli("search", "singer", "--n", str(n), "--m", str(m),
                   "--out", str(cert)) == 0
    assert capsys.readouterr().out == f"wrote 0 entries to {cert}\n"
    assert json.loads(cert.read_text())["reps"] == []
    assert run_cli("expand", "--cert", str(cert), "--out", str(design)) == 0
    assert run_cli("verify", "--in", str(design)) == 0
    assert "OK (0 triangles" in capsys.readouterr().out


def test_cli_expand_refuses_huge_degree(tmp_path, capsys):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"kind": "singer", "n": 60_000_001, "m": 1,
                                "poly": "0x7", "reps": [[1, 2]]}))
    assert run_cli("expand", "--cert", str(cert),
                   "--out", str(tmp_path / "d.design")) == 2
    assert "degree 60000001 out of range 1..28" in capsys.readouterr().err
    assert not (tmp_path / "d.design").exists()


def test_cli_pipeline_and_schema(tmp_path, capsys):
    cert = tmp_path / "c.json"
    design = tmp_path / "d.design"
    assert run_cli("datasets", "emit", "--name", "frob7", "--out", str(cert),
                   "--format", "cert") == 0
    assert run_cli("expand", "--cert", str(cert), "--out", str(design)) == 0
    capsys.readouterr()
    assert run_cli("--json", "verify", "--in", str(design), "--balanced") == 0
    payload = json.loads(capsys.readouterr().out)
    schema = load_report_schema()
    jsonschema.validate(payload, schema)
    jsonschema.validate(payload["cover"], schema)
    jsonschema.validate(payload["balance"], schema)
    assert payload["ok"]


def test_cli_verify_failure_exit_code(design6, tmp_path, capsys):
    from tridesign.designs import Design
    broken = Design(n=6, poly=design6.poly, tri=design6.tri[:-1])
    p = tmp_path / "broken.design"
    write_design(broken, str(p))
    assert run_cli("verify", "--in", str(p)) == 1
    payload_text = capsys.readouterr().out
    assert "FAIL" in payload_text


def test_cli_verify_failure_schema(design6, tmp_path, capsys):
    from tridesign.designs import Design
    broken = Design(n=6, poly=design6.poly, tri=design6.tri[:-1])
    p = tmp_path / "broken.design"
    write_design(broken, str(p))
    assert run_cli("--json", "verify", "--in", str(p)) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_report_schema())
    assert payload["cover"]["witnesses"]["uncovered"]


def test_cli_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.design"
    assert run_cli("verify", "--in", str(missing)) == 2


def test_cli_search_and_infeasible(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_cli("search", "frobenius", "--n", "7", "--out", str(out)) == 0
    cert = read_certificate(str(out))
    assert len(cert.pairs) == 1
    assert run_cli("search", "frobenius", "--n", "25",
                   "--out", str(tmp_path / "x.json")) == 1
    assert "t=5" in capsys.readouterr().out
    # frobenius searches have m = 1 only; another m is refused, not dropped
    assert run_cli("search", "frobenius", "--n", "7", "--m", "3",
                   "--out", str(tmp_path / "m3.json")) == 2
    assert capsys.readouterr().err == "error: --m 3: search frobenius needs m = 1\n"
    assert not (tmp_path / "m3.json").exists()


def test_cli_datasets_list_json(capsys):
    assert run_cli("--json", "datasets", "list") == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {"design6", "gdd6-2", "gdd12-6",
                                         "frob7", "frob13"}


def test_cli_construct_product(tmp_path, capsys):
    d6 = tmp_path / "d6.design"
    out = tmp_path / "d12.design"
    assert run_cli("datasets", "emit", "--name", "design6", "--out", str(d6)) == 0
    assert run_cli("construct", "product", "--left", str(d6),
                   "--right", str(d6), "--out", str(out)) == 0
    assert run_cli("verify", "--in", str(out)) == 0


def test_cli_poly_override_warns(capsys):
    assert run_cli("field", "--n", "3", "--poly", "0xd") == 0
    assert "non-default" in capsys.readouterr().err


def test_cli_construct_error_exit_code(tmp_path, capsys):
    d6 = tmp_path / "d6.design"
    assert run_cli("datasets", "emit", "--name", "design6", "--out", str(d6)) == 0
    # even-dimension input cannot be balanced-extended
    assert run_cli("construct", "balanced-ext", "--in", str(d6),
                   "--out", str(tmp_path / "x.design")) == 2
    assert "odd" in capsys.readouterr().err


def test_cli_construct_product_refuses_unverified_factor(design6, tmp_path, capsys):
    tri = design6.tri.copy()
    tri[0] = tri[1]
    bad, good = tmp_path / "bad.design", tmp_path / "d6.design"
    write_design(Design(n=6, poly=design6.poly, tri=tri), str(bad))
    write_design(design6, str(good))
    out = tmp_path / "d12.design"
    assert run_cli("--json", "construct", "product", "--left", str(bad),
                   "--right", str(good), "--out", str(out)) == 2
    assert "left factor does not verify" in capsys.readouterr().err
    assert not out.exists()


def test_cli_construct_product_refuses_oversized_output(frob7_design, tmp_path,
                                                        capsys):
    # 7 + 12 would be ~15.3e9 triangles; the empty n=12 factor would fail
    # verification, so the size check is what refuses it
    left, right = tmp_path / "f7.design", tmp_path / "e12.design"
    write_design(frob7_design, str(left))
    write_design(Design(n=12, poly=build_field(12).poly,
                        tri=np.empty((0, 3), dtype=np.int64)), str(right))
    out = tmp_path / "p19.design"
    assert run_cli("construct", "product", "--left", str(left),
                   "--right", str(right), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: product to n=19 (15270907449 triangles) is too large")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--k", "3", "--out", "F", "--count"),
    ("--k", "2", "--out", "F", "--count"),
    ("--k", "1", "--sample", "10"),
])
def test_cli_gdd6k_usage_checked_before_work(argv, monkeypatch, tmp_path, capsys):
    from tridesign import construct

    def refuse(*args, **kwargs):
        raise AssertionError("construction ran before the usage check")

    monkeypatch.setattr(construct.GddStream, "stream_count", refuse)
    monkeypatch.setattr(construct, "gdd_6k_6", refuse)
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", "gdd6k", *argv) == 2
    assert "--count/--sample" in capsys.readouterr().err
    assert not (tmp_path / "F").exists()


def test_cli_gdd6k_k3_sample_json(capsys):
    expected = {"ok": True, "k": 3, "planes": 4161, "per_plane": 917280,
                "sampled_lines_ok": 2000}
    for extra in ((), ("--count",)):
        assert run_cli("--json", "construct", "gdd6k", "--k", "3",
                       "--sample", "2000", *extra) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_report_schema())
        if extra:
            expected["triangles"] = 4161 * 917280
        assert payload == expected


_SEARCH_PROGRESS = ("stratum (m=1, t=13): 105 items\n"
                    "stratum (m=1, t=13): 168015 candidate triples\n"
                    "stratum (m=1, t=13): solved in 35 nodes\n")
_TOWER_PROGRESS = ("".join(f"  plane {i}/4161\n" for i in range(500, 4161, 500))
                   + "  sampled 20000/20000\n")


@pytest.mark.parametrize("argv, progress", [
    (("search", "frobenius", "--n", "13", "--out", "{tmp}/c.json"), _SEARCH_PROGRESS),
    (("construct", "gdd6k", "--k", "3", "--count", "--sample", "20000"),
     _TOWER_PROGRESS),
], ids=["search", "tower"])
def test_cli_progress_lines(argv, progress, tmp_path, capsys):
    # the lines go to stderr once per call with --progress and never
    # without it: main removes its handler before it returns
    argv = [a.format(tmp=tmp_path) for a in argv]
    for flag in (["--progress"], ["--progress"], []):
        assert run_cli(*flag, *argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (progress if flag else "")
        assert captured.out and "stratum" not in captured.out
    logger = logging.getLogger("tridesign")
    assert logger.level == logging.NOTSET and not logger.handlers


@pytest.mark.parametrize("argv, message", [
    pytest.param(("verify", "--in", "D", "--gdd"),
                 "file does not carry groups; cannot verify as gdd", id="verify-gdd"),
    pytest.param(("construct", "fill", "--gdd", "D", "--filler", "D", "--out", "F"),
                 "--gdd file carries no groups", id="fill"),
    pytest.param(("construct", "gdd6k", "--k", "3", "--out", "F"),
                 "k >= 3 streams are not written to files; use --count/--sample",
                 id="gdd6k-out"),
    pytest.param(("construct", "gdd6k", "--k", "2", "--sample", "10"),
                 "--count/--sample apply to streamed towers (k >= 3); use --out",
                 id="gdd6k-sample"),
    pytest.param(("verify", "--in", "missing.design"), None, id="missing-file"),
    pytest.param(("gamma", "--n", "6", "--k", "63"), "gamma undefined at 0", id="gamma"),
    *(pytest.param(("search", group, "--n", "19", "--time-limit", "0", "--out", "F"),
                   "n=19 is a long run; pass allow_long=True (CLI: --allow-long) "
                   "to proceed", id=f"search-{group}-long")
      for group in ("singer", "frobenius")),
])
def test_cli_usage_refusals_start_with_error(argv, message, design6, monkeypatch,
                                             tmp_path, capsys):
    # every exit-2 path writes one stderr line that starts with "error: "
    monkeypatch.chdir(tmp_path)
    write_design(design6, "D")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: {message}\n"
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("group, t", [("singer", 1), ("frobenius", 19)])
def test_cli_search_allow_long_reaches_the_search(group, t, tmp_path, capsys):
    # --allow-long lifts the n >= 19 refusal of either search: the search
    # starts and stops on its time limit
    out = tmp_path / "c.json"
    assert run_cli("search", group, "--n", "19", "--allow-long", "--time-limit", "0",
                   "--out", str(out)) == 1
    assert capsys.readouterr().out == (
        f"stratum (m=1, t={t}) stopped: time limit after 1 nodes\n")
    assert not out.exists()


def test_cli_gdd6k_k1(tmp_path, capsys):
    out = tmp_path / "g6.design"
    assert run_cli("construct", "gdd6k", "--k", "1", "--out", str(out)) == 0
    g = read_design(str(out))
    assert isinstance(g, Gdd) and g.triangle_count == 0 and len(g.groups) == 1


def test_fine_gdd_roundtrip(gdd12_6, gdd6_2, tmp_path):
    # groups produced by filling are cosets too, so they serialize
    from tridesign.construct import fill_groups
    from tridesign.designs import verify_gdd
    fine = fill_groups(gdd12_6, gdd6_2)
    p = tmp_path / "fine.design"
    write_design(fine, str(p))
    back = read_design(str(p))
    assert isinstance(back, Gdd) and back.m == 2
    assert len(back.groups) == 1365
    assert verify_gdd(back).ok


def test_cli_fill_refuses_repeated_group_exponent(gdd12_6, design6, tmp_path, capsys):
    # exponent 0 twice: 64 coset groups, one of them repeated, so one coset
    # would never be filled; the reader refuses the header before any fill
    g, filler, out = (tmp_path / name for name in ("g.design", "d6.design", "out.design"))
    write_design(gdd12_6, str(g))
    write_design(design6, str(filler))
    text = g.read_text()
    assert "\ngroups: 0 1 2 " in text
    g.write_text(text.replace("\ngroups: 0 1 2 ", "\ngroups: 0 0 2 ", 1))
    assert run_cli("construct", "fill", "--gdd", str(g), "--filler", str(filler),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: design file groups: exponent 0 repeats\n"
    assert not out.exists()


def test_out_of_range_vector_rejected(tmp_path):
    p = tmp_path / "bad.design"
    p.write_text("tridesign-design v1\nkind: design\nn: 3\nm: 1\n"
                 "poly: 0xb\ncount: 1\ntriangles:\n1 2 ff\n")
    with pytest.raises(ValueError, match="range"):
        read_design(str(p))


def _gdd_header_variant(text: str, **fields) -> str:
    """``text`` with the header lines named in ``fields`` given new values."""
    keys = [line.partition(":")[0] for line in text.split("\n")]
    return "\n".join(f"{key}: {fields[key]}" if key in fields else line
                     for key, line in zip(keys, text.split("\n")))


@pytest.mark.parametrize("fields, message", [
    ({"m": "0"}, "m = 0 is not a divisor of n = 6"),
    ({"m": "7"}, "m = 7 is not a divisor of n = 6"),
    ({"m": "4"}, "m = 4 is not a divisor of n = 6"),
    ({"groups": " ".join(map(str, range(20)))}, "20 exponents, expected 21"),
    ({"groups": " ".join(map(str, range(1, 22)))}, "expected 21 in 0..20"),
    ({"groups": "-1 " + " ".join(map(str, range(1, 21)))}, "expected 21 in 0..20"),
    ({"groups": "0 1 x " + " ".join(map(str, range(3, 21)))},
     "design file 'groups' value 'x' is not an integer"),
    ({"groups": "0 1 2 " + " ".join(map(str, range(3, 20))) + " 2"},
     "design file groups: exponent 2 repeats"),
])
def test_gdd_header_checked_before_field(fields, message, gdd6_2, tmp_path,
                                         capsys):
    from tridesign.gf2n import _build_field_cached
    p = tmp_path / "g.design"
    write_design(gdd6_2, str(p))
    p.write_text(_gdd_header_variant(p.read_text(), **fields))
    before = _build_field_cached.cache_info().currsize
    with pytest.raises(ValueError, match=message):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _build_field_cached.cache_info().currsize == before


def test_gdd_header_of_huge_field_refused_without_tables(tmp_path):
    # 2^28 - 1 residues would take gigabytes of Python tables; the group
    # count check refuses the file first
    from tridesign.gf2n import DEFAULT_POLYS, _build_field_cached
    p = tmp_path / "g.design"
    p.write_text(f"tridesign-design v1\nkind: gdd\nn: 28\nm: 2\n"
                 f"poly: {hex(DEFAULT_POLYS[28])}\ncount: 0\ngroups: 0\n"
                 "triangles:\n")
    before = _build_field_cached.cache_info().currsize
    assert run_cli("verify", "--in", str(p)) == 2
    assert _build_field_cached.cache_info().currsize == before


_SMALL_DESIGN = ("tridesign-design v1\nkind: design\nn: 3\nm: 1\n"
                 "poly: 0xb\ncount: 1\ntriangles:\n1 2 4\n")


@pytest.mark.parametrize("key", ["n", "poly", "count"])
def test_missing_header_key(key, tmp_path):
    p = tmp_path / "bad.design"
    p.write_text("\n".join(line for line in _SMALL_DESIGN.split("\n")
                           if not line.startswith(f"{key}:")))
    with pytest.raises(ValueError, match=f"no '{key}' line"):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2


@pytest.mark.parametrize("kind", ["banana", "GDD", ""])
def test_unknown_kind_refused(kind, tmp_path, capsys):
    # refused before the rows are parsed: the malformed row is never reached
    from tridesign.gf2n import _build_field_cached
    p = tmp_path / "bad.design"
    p.write_text(_SMALL_DESIGN.replace("kind: design", f"kind: {kind}")
                 .replace("1 2 4", "1 2 x"))
    message = f"design file kind {kind!r} is not 'design' or 'gdd'"
    before = _build_field_cached.cache_info().currsize
    with pytest.raises(ValueError, match=re.escape(message)):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _build_field_cached.cache_info().currsize == before


def test_missing_kind_reads_as_design(tmp_path):
    p = tmp_path / "plain.design"
    p.write_text(_SMALL_DESIGN.replace("kind: design\n", ""))
    d = read_design(str(p))
    assert type(d) is Design and d.kind == "design" and d.tri.tolist() == [[1, 2, 4]]


@pytest.mark.parametrize("key, bad", [("n", "3.0"), ("m", "one"),
                                      ("poly", "0xzz"), ("count", "")])
def test_non_integer_header_value(key, bad, tmp_path):
    p = tmp_path / "bad.design"
    p.write_text("\n".join(f"{key}: {bad}" if line.startswith(f"{key}:") else line
                           for line in _SMALL_DESIGN.split("\n")))
    with pytest.raises(ValueError, match=f"'{key}' value .* not an integer"):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2


# -- bulk encoder/decoder against per-row references ---------------------------


def _rows_text(tri):
    """Reference encoder: one f-string per row, as the format defines it."""
    return "".join(f"{a:x} {b:x} {c:x}\n" for a, b, c in tri.tolist()).encode()


def _reference_read(data: bytes) -> dict:
    """Reference parser, one line at a time, for the grammar in the fileio
    docstring.  Raises ValueError wherever read_design must."""
    lines = data.splitlines(keepends=True)   # \n, \r\n and \r, as text mode
    first = lines[0].decode("utf-8").strip() if lines else ""
    if first != fileio.FORMAT_HEADER:
        raise ValueError("header")
    header, rest = {}, []
    for i, raw in enumerate(lines[1:], start=1):
        line = raw.decode("utf-8").rstrip("\r\n")
        if line == "triangles:":
            rest = lines[i + 1:]
            break
        key, _, value = line.partition(":")
        header[key.strip()] = value.strip()
    if header.get("kind", "design") not in ("design", "gdd"):
        raise ValueError("kind")
    try:
        n = int(header["n"])
        int(header.get("m", "1"))
        poly = int(header["poly"], 16)
        count = int(header["count"])
    except KeyError as e:
        raise ValueError(f"missing {e}") from None
    rows = []
    for line in b"".join(rest).split(b"\n"):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3 or not all(re.fullmatch(rb"[0-9a-fA-F]{1,15}", t)
                                       for t in tokens):
            raise ValueError(f"row {line!r}")
        rows.append([int(t, 16) for t in tokens])
    if not 1 <= n <= 31 or count != len(rows) \
            or any(v >= 1 << n for row in rows for v in row):
        raise ValueError("n, count or range")
    tri = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return {"gdd": header.get("kind") == "gdd", "n": n, "poly": poly,
            "provenance": header.get("provenance", ""),
            "tri": Design(n=n, poly=poly, tri=tri).tri}


def _read_both(path):
    """(read_design result or None, reference result or None)."""
    try:
        got = read_design(str(path))
    except ValueError:
        got = None
    try:
        want = _reference_read(path.read_bytes() if not str(path).endswith(".gz")
                               else gzip.decompress(path.read_bytes()))
    except ValueError:
        want = None
    return got, want


def _assert_same(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert isinstance(got, Gdd) == want["gdd"] and got.n == want["n"]
        assert got.poly == want["poly"] and got.provenance == want["provenance"]
        assert np.array_equal(got.tri, want["tri"])


def _relabelled(d, seed):
    rng = np.random.default_rng(seed)
    img = np.concatenate(([0], rng.permutation(np.arange(1, 1 << d.n))))
    return Design(n=d.n, poly=d.poly, tri=img[d.tri], provenance=f"relabel {seed}")


@pytest.mark.parametrize("suffix", ["design", "design.gz"])
@pytest.mark.parametrize("which", ["gdd12_6", "frob7"])
def test_writer_matches_per_row_encoder(which, suffix, gdd12_6, frob7_design, tmp_path):
    d = gdd12_6 if which == "gdd12_6" else _relabelled(frob7_design, 5)
    p = tmp_path / f"d.{suffix}"
    write_design(d, str(p))
    data = p.read_bytes()
    if suffix.endswith(".gz"):
        data = gzip.decompress(data)
    head, body = data.split(b"\ntriangles:\n")
    assert body == _rows_text(d.tri)
    if which == "frob7":
        assert head.decode() == (f"{fileio.FORMAT_HEADER}\nkind: design\nn: 7\nm: 1\n"
                                 f"poly: {hex(d.poly)}\ncount: {d.triangle_count}\n"
                                 "provenance: relabel 5")
    else:
        assert f"\ncount: {d.triangle_count}\n".encode() in head + b"\n"


def test_writer_width_from_largest_value(tmp_path):
    # values of 1 to 6 hex digits in one file keep their own widths
    tri = np.array([[1, 0x2f, 0xabcdef], [3, 0x10, 0x1000]], dtype=np.int64)
    d = Design(n=24, poly=0x1000087, tri=tri)
    p = tmp_path / "wide.design"
    write_design(d, str(p))
    assert p.read_bytes().split(b"triangles:\n")[1] == _rows_text(d.tri)
    assert np.array_equal(read_design(str(p)).tri, d.tri)


def test_writer_refuses_corner_outside_dimension(tmp_path):
    # 40 = 0x28 needs 6 bits: the file would declare n = 4 and be refused
    # by the reader, so the writer refuses it before opening the file
    p = tmp_path / "wide.design"
    with pytest.raises(ValueError, match="out of range for declared dimension"):
        write_design(Design(n=4, poly=0x13, tri=[[1, 2, 40]]), str(p))
    assert not p.exists()
    ok = Design(n=6, poly=0x5b, tri=[[1, 2, 40]])
    write_design(ok, str(p))
    assert np.array_equal(read_design(str(p)).tri, ok.tri)


@pytest.mark.parametrize("rows, nbytes", [(1, 1), (2, 3), (5, 7), (64, 17)])
def test_roundtrip_across_chunk_boundaries(rows, nbytes, design6, monkeypatch, tmp_path):
    whole = tmp_path / "whole.design"
    write_design(design6, str(whole))
    monkeypatch.setattr(fileio, "_WRITE_ROWS", rows)
    monkeypatch.setattr(fileio, "_READ_BYTES", nbytes)
    p = tmp_path / "chunked.design"
    write_design(design6, str(p))
    assert p.read_bytes() == whole.read_bytes()
    assert np.array_equal(read_design(str(p)).tri, design6.tri)
    # a blank line, a trailing separator and no final newline, read in chunks
    text = p.read_bytes().replace(b"\n", b" \n\n", 3)[:-1]
    p.write_bytes(text)
    assert np.array_equal(read_design(str(p)).tri, design6.tri)


def test_shuffled_rows_normalize_to_written_order(frob7_design, tmp_path):
    # rows read in written order skip the row sort; shuffled rows with
    # reversed corners must still give the same canonical array
    p = tmp_path / "f7.design"
    write_design(frob7_design, str(p))
    head, body = p.read_bytes().split(b"triangles:\n")
    rows = body.splitlines()
    rng = np.random.default_rng(5)
    shuffled = [b" ".join(rows[i].split()[::-1]) for i in rng.permutation(len(rows))]
    q = tmp_path / "shuffled.design"
    q.write_bytes(head + b"triangles:\n" + b"\n".join(shuffled) + b"\n")
    assert np.array_equal(read_design(str(p)).tri, frob7_design.tri)
    assert np.array_equal(read_design(str(q)).tri, frob7_design.tri)


def _one_row(row: str) -> str:
    return _SMALL_DESIGN.replace("1 2 4\n", row)


@pytest.mark.parametrize("n", [16, 20])
def test_cli_verifies_one_group_gdd_quickly(n, tmp_path, capsys):
    # the spread check makes one pass per pivot, not one per pair of the
    # 2^n - 1 vectors of the group (2.7 s at n = 16 that way)
    import time
    from tridesign.gf2n import DEFAULT_POLYS
    p = tmp_path / "one_group.design"
    p.write_text(f"tridesign-design v1\nkind: gdd\nn: {n}\nm: {n}\n"
                 f"poly: {hex(DEFAULT_POLYS[n])}\ncount: 0\ngroups: 0\ntriangles:\n")
    start = time.perf_counter()
    assert run_cli("verify", "--in", str(p)) == 0
    assert time.perf_counter() - start < 1.0
    assert f"gdd n={n} m={n}: OK" in capsys.readouterr().out


def test_cli_balanced_verify_refuses_counters_past_the_budget(tmp_path, capsys):
    # two 2^31-entry counters (16 GiB each) are refused before either exists
    p = tmp_path / "one31.design"
    p.write_text(_one_row("1 2 4\n").replace("n: 3", "n: 31"))
    codes = []
    peak = traced_peak_mib(
        lambda: codes.append(run_cli("verify", "--balanced", "--in", str(p))))
    assert codes == [2] and peak < 10
    assert capsys.readouterr().err == ("error: balance counters for n=31 need 2^31 "
                                       "entries each, more than 50000000\n")


@pytest.mark.parametrize("row, message", [
    ("1 2 0000000000000004\n", "16 hex digits"),
    ("1 2 00000000000000004\n", "17 hex digits"),
    ("1 2 -4\n", "line 1: byte b'-'"),
    ("1 2 0x4\n", "line 1: byte b'x'"),
    ("1 2 4_0\n", "line 1: byte b'_'"),
    ("1 2 4\n\n1 2\n", "line 3: 2 tokens"),
    ("1 2 4 5\n", "line 1: 4 tokens"),
    ("1 2 4\n1 2 \xe9\n", "line 2: byte b'\\\\xc3'"),
])
def test_reader_refuses_bad_rows(row, message, tmp_path):
    p = tmp_path / "bad.design"
    p.write_text(_one_row(row))
    with pytest.raises(ValueError, match=message):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2


@pytest.mark.parametrize("nbytes", [1, 5, 64, 1 << 22])
def test_reader_names_line_across_chunks(nbytes, design6, monkeypatch, tmp_path):
    p = tmp_path / "d6.design"
    write_design(design6, str(p))
    head, body = p.read_bytes().split(b"triangles:\n")
    rows = body.split(b"\n")
    rows[149] = rows[149].rsplit(b" ", 1)[0]          # triangle line 150
    rows[199] = rows[199].replace(b" ", b" g", 1)     # triangle line 200
    monkeypatch.setattr(fileio, "_READ_BYTES", nbytes)
    p.write_bytes(head + b"triangles:\n" + b"\n".join(rows))
    with pytest.raises(ValueError, match="^triangle line 150: 2 tokens"):
        read_design(str(p))
    rows[149] += b" 1"
    p.write_bytes(head + b"triangles:\n" + b"\n".join(rows))
    with pytest.raises(ValueError, match="^triangle line 200: byte b'g'"):
        read_design(str(p))


def test_fifteen_digit_token_accepted(tmp_path):
    p = tmp_path / "ok.design"
    p.write_text(_one_row("1 2 000000000000004\n"))
    assert read_design(str(p)).tri.tolist() == [[1, 2, 4]]


@pytest.mark.parametrize("token, value", [("7fffffff", (1 << 31) - 1),
                                          ("80000000", None), ("ffffffff", None),
                                          ("fffffffffffffff", None)])
def test_reader_wide_tokens_at_n31(token, value, tmp_path):
    p = tmp_path / "wide.design"
    p.write_text(_one_row(f"1 2 {token}\n").replace("n: 3", "n: 31"))
    if value is None:
        with pytest.raises(ValueError, match="range"):
            read_design(str(p))
    else:
        assert read_design(str(p)).tri.tolist() == [[1, 2, value]]


@pytest.mark.parametrize("count, rows", [(0, 1), (2, 1), (-1, 1), (10**12, 1), (10**12, 3)])
def test_reader_counts_rows_against_any_header_count(count, rows, tmp_path):
    # rows go straight into a (count, 3) array, sized no larger than the
    # body can hold, so a huge header count allocates nothing
    p = tmp_path / "count.design"
    p.write_text(_one_row("1 2 4\n" * rows).replace("count: 1", f"count: {count}"))
    with pytest.raises(ValueError, match=f"header count {count} != body lines {rows}$"):
        read_design(str(p))


def test_writer_refuses_negative_corner(tmp_path):
    d = Design(n=3, poly=0xb, tri=np.array([[-1, 2, 4]]))
    p = tmp_path / "neg.design"
    with pytest.raises(ValueError, match="negative"):
        write_design(d, str(p))
    assert not p.exists()


def test_reader_refuses_dimension_beyond_line_keys(tmp_path):
    p = tmp_path / "big.design"
    p.write_text(_SMALL_DESIGN.replace("n: 3", "n: 32"))
    with pytest.raises(ValueError, match="outside 1..31"):
        read_design(str(p))


def test_reader_refuses_corrupt_gzip(design6, tmp_path):
    p = tmp_path / "d6.design.gz"
    write_design(design6, str(p))
    p.write_bytes(p.read_bytes()[:-20])
    with pytest.raises(ValueError, match="gzip"):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2


# -- fuzzing: malformed and valid variants of the design6 file --------------------

_BYTES = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\r\n", b"0", b"7", b"f", b"F",
                          b"g", b"x", b"-", b"_", b":", b"\x00", b"\xff", b"\xe9",
                          b"\x0b", b"\x1c", b"\xa0"]) | st.binary(min_size=1, max_size=4)
_EDIT = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 1 << 20), _BYTES),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), _BYTES),
    st.tuples(st.just("delete"), st.integers(0, 1 << 20), st.integers(1, 12)),
    st.tuples(st.just("truncate_row"), st.integers(0, 1 << 20), st.integers(0, 8)),
)


def _apply(data: bytes, edit) -> bytes:
    op, pos, arg = edit
    if op == "truncate_row":
        body = data.find(b"triangles:\n") + len(b"triangles:\n")
        rows = data[body:].split(b"\n")
        r = pos % len(rows)
        rows[r] = rows[r][:arg]
        return data[:body] + b"\n".join(rows)
    pos %= len(data) + 1
    if op == "replace":
        return data[:pos] + arg + data[pos + len(arg):]
    if op == "insert":
        return data[:pos] + arg + data[pos:]
    return data[:pos] + data[pos + arg:]


@pytest.fixture(scope="module")
def design6_bytes(design6, tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "d6.design"
    write_design(design6, str(p))
    return p.read_bytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_fuzz_malformed_design_file(edits, design6_bytes, tmp_path_factory):
    data = design6_bytes
    for edit in edits:
        data = _apply(data, edit)
    p = tmp_path_factory.getbasetemp() / "fuzz.design"
    p.write_bytes(data)
    _assert_same(*_read_both(p))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run_cli("verify", "--in", str(p)) in (0, 1, 2)


_SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\r"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=False), upper=st.booleans(),
       crlf=st.booleans(), gz=st.booleans())
def test_fuzz_valid_variants(rnd, upper, crlf, gz, design6, design6_bytes,
                             tmp_path_factory):
    head, _ = design6_bytes.split(b"triangles:\n")
    eol = "\r\n" if crlf else "\n"
    out = [head.decode().replace("\n", eol) + "triangles:" + eol]
    for row in design6.tri.tolist():
        cells = [f"{v:x}".upper() if upper else f"{v:x}" for v in row]
        lead, trail = (rnd.choice(["", rnd.choice(_SEPARATORS)]) for _ in range(2))
        line = lead + cells[0] + rnd.choice(_SEPARATORS) + cells[1] \
            + rnd.choice(_SEPARATORS) + cells[2] + trail
        out.append(line + eol * rnd.choice([1, 1, 2]))
    raw = "".join(out).encode()
    p = tmp_path_factory.getbasetemp() / ("valid.design.gz" if gz else "valid.design")
    p.write_bytes(gzip.compress(raw) if gz else raw)
    got, want = _read_both(p)
    _assert_same(got, want)
    assert got is not None and np.array_equal(got.tri, design6.tri)
