import gzip
import json

import jsonschema
import pytest

from tridesign.cli import main
from tridesign.datasets import as_certificate, load_dataset
from tridesign.designs import Gdd
from tridesign.fileio import (load_report_schema, read_certificate, read_design,
                              write_certificate, write_design)


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


def test_cli_gamma_json(capsys):
    assert run_cli("--json", "gamma", "--n", "7", "--k", "1", "--cy") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == [1, 6, 7, 120, 121, 126]
    assert len(payload["cy_gamma"]) == 42


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


def test_out_of_range_vector_rejected(tmp_path):
    p = tmp_path / "bad.design"
    p.write_text("tridesign-design v1\nkind: design\nn: 3\nm: 1\n"
                 "poly: 0xb\ncount: 1\ntriangles:\n1 2 ff\n")
    with pytest.raises(ValueError, match="range"):
        read_design(str(p))


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


@pytest.mark.parametrize("key, bad", [("n", "3.0"), ("m", "one"),
                                      ("poly", "0xzz"), ("count", "")])
def test_non_integer_header_value(key, bad, tmp_path):
    p = tmp_path / "bad.design"
    p.write_text("\n".join(f"{key}: {bad}" if line.startswith(f"{key}:") else line
                           for line in _SMALL_DESIGN.split("\n")))
    with pytest.raises(ValueError, match=f"'{key}' value .* not an integer"):
        read_design(str(p))
    assert run_cli("verify", "--in", str(p)) == 2
