"""Stable text formats: design files, certificate JSON, report schema.

Design files are line-oriented text (gzip accepted transparently):

    tridesign-design v1
    kind: design | gdd
    n: <int>
    m: <int>
    poly: 0x<hex>
    count: <int>
    provenance: <free text, optional>
    groups: <one coset exponent per group, space separated; gdd only>
    triangles:
    <a> <b> <c>          (hex corner vectors, one triangle per line)

Triangles are emitted in canonical sorted order, so emit -> parse ->
emit is byte-identical.
"""

from __future__ import annotations

import gzip
import io
import json
from importlib import resources

import numpy as np

from .designs import Design, Gdd
from .gf2n import build_field
from .lines import Spread
from .orbits import (FrobeniusCertificate, OrbitCertificate,
                     certificate_from_json_dict)

FORMAT_HEADER = "tridesign-design v1"


def _open_read(path: str) -> io.TextIOBase:
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, encoding="utf-8")


def _open_write(path: str) -> io.TextIOBase:
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "wb"), encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _groups_to_exponents(g: Gdd) -> list[int]:
    ctx = build_field(g.n, g.poly)
    gq = ctx.order // ((1 << g.m) - 1)
    exps = []
    for idx, grp in enumerate(g.groups.groups):
        logs = [ctx.log(int(v)) for v in grp.tolist()]
        e = logs[0] % gq
        if any((l - e) % gq for l in logs):
            raise ValueError(f"group {idx} is not a multiplicative coset; "
                             "cannot serialize it as an exponent")
        exps.append(e)
    return sorted(exps)


def _groups_from_exponents(n: int, poly: int, m: int, exps: list[int]) -> Spread:
    ctx = build_field(n, poly)
    gq = ctx.order // ((1 << m) - 1)
    exp = ctx.exp_np
    j = np.arange((1 << m) - 1, dtype=np.int64)
    groups = [np.sort(exp[(e + gq * j) % ctx.order]) for e in exps]
    return Spread(m, groups)


def write_design(d: Design, path: str) -> None:
    with _open_write(path) as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"kind: {d.kind}\n")
        fh.write(f"n: {d.n}\n")
        fh.write(f"m: {d.m if isinstance(d, Gdd) else 1}\n")
        fh.write(f"poly: {hex(d.poly)}\n")
        fh.write(f"count: {d.triangle_count}\n")
        if d.provenance:
            fh.write(f"provenance: {d.provenance}\n")
        if isinstance(d, Gdd):
            exps = " ".join(str(e) for e in _groups_to_exponents(d))
            fh.write(f"groups: {exps}\n")
        fh.write("triangles:\n")
        for a, b, c in d.tri.tolist():
            fh.write(f"{a:x} {b:x} {c:x}\n")


def _header_int(header: dict[str, str], key: str, base: int = 10,
                default: str | None = None) -> int:
    value = header.get(key, default)
    if value is None:
        raise ValueError(f"design file has no {key!r} line")
    try:
        return int(value, base)
    except ValueError:
        raise ValueError(f"design file {key!r} value {value!r} is not an integer "
                         f"(base {base})") from None


def read_design(path: str) -> Design | Gdd:
    header: dict[str, str] = {}
    rows: list[tuple[int, int, int]] = []
    with _open_read(path) as fh:
        first = fh.readline().strip()
        if first != FORMAT_HEADER:
            raise ValueError(f"not a design file (header {first!r})")
        in_body = False
        for line in fh:
            line = line.rstrip("\n")
            if not in_body:
                if line == "triangles:":
                    in_body = True
                    continue
                key, _, value = line.partition(":")
                header[key.strip()] = value.strip()
            elif line:
                a, b, c = line.split()
                rows.append((int(a, 16), int(b, 16), int(c, 16)))
    kind = header.get("kind", "design")
    n = _header_int(header, "n")
    m = _header_int(header, "m", default="1")
    poly = _header_int(header, "poly", base=16)
    count = _header_int(header, "count")
    if count != len(rows):
        raise ValueError(f"header count {count} != body lines {len(rows)}")
    tri = np.array(rows, dtype=np.int64) if rows else np.empty((0, 3), dtype=np.int64)
    if tri.size and int(tri.max()) >= (1 << n):
        raise ValueError("triangle vector out of range for declared dimension")
    provenance = header.get("provenance", "")
    if kind == "gdd":
        exps = [int(e) for e in header.get("groups", "").split()]
        groups = _groups_from_exponents(n, poly, m, exps)
        return Gdd(n=n, poly=poly, tri=tri, m=m, groups=groups,
                   provenance=provenance)
    return Design(n=n, poly=poly, tri=tri, provenance=provenance)


def write_certificate(cert: OrbitCertificate | FrobeniusCertificate,
                      path: str) -> None:
    with _open_write(path) as fh:
        json.dump(cert.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_certificate(path: str) -> OrbitCertificate | FrobeniusCertificate:
    with _open_read(path) as fh:
        return certificate_from_json_dict(json.load(fh))


def load_report_schema() -> dict:
    """The published JSON schema for --json verification reports."""
    with resources.files("tridesign").joinpath("report_schema.json").open() as fh:
        return json.load(fh)
