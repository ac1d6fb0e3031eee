r"""Stable text formats: design files, certificate JSON, report schema.

Design files are line-oriented text (gzip accepted transparently):

    tridesign-design v1
    kind: design | gdd
    n: <int>
    m: <int>
    poly: 0x<hex>
    count: <int>
    provenance: <free text, optional>
    groups: <one distinct coset exponent per group, space separated; gdd only>
    triangles:
    <a> <b> <c>          (hex corner vectors, one triangle per line)

Triangles are emitted in canonical sorted order, so emit -> parse ->
emit is byte-identical.  The writer emits lowercase hex without
leading zeros, one space between corners and ``\n`` after each row.

The reader takes header lines ending in ``\n``, ``\r\n`` or ``\r``.
Triangle rows end in ``\n``.  A row token is 1 to 15 hex digits of
either case; tokens are separated by any ASCII whitespace (space, tab,
CR, VT, FF); blank lines are skipped and every other line holds exactly
three tokens.  ``0x`` prefixes, underscores, signs and any other byte
are refused with a ValueError naming the 1-based triangle line.

Both directions work on numpy byte arrays in fixed-size chunks, small
enough that each chunk's temporaries stay in cache however large the
design is: a ``designs`` row block (2^15 rows) per encoded chunk, and
256 KiB cut at a newline per parsed one.
"""

from __future__ import annotations

import gzip
import io
import json
import re
import zlib
from importlib import resources

import numpy as np

from .designs import _BLOCK_ROWS, Design, Gdd
from .gf2n import build_field
from .lines import coset_exponents, coset_groups
from .orbits import (FrobeniusCertificate, OrbitCertificate,
                     certificate_from_json_dict)

FORMAT_HEADER = "tridesign-design v1"
_MAX_N = 31                 # line keys fit an int64, corners an int32

_WRITE_ROWS = _BLOCK_ROWS   # triangle rows encoded per chunk
_READ_BYTES = 1 << 18       # body bytes parsed per chunk, extended to a newline
_MAX_DIGITS = 15            # longer tokens could overflow int64

# cell code -> output byte: nibbles 0..15 to hex digits, 16 to a space and
# 17 to a newline.  A ``bytes.translate`` table, so the encoder's cells
# hold plain nibbles and no per-digit gather is made.
_HEX_CELL = b"0123456789abcdef \n" + bytes(range(18, 256))
# byte -> nibble value as an int8; -1 for ASCII whitespace, -2 for anything
# else.  A ``bytes.translate`` table, so the lookup is one C loop per chunk.
_NIBBLE = np.full(256, -2, dtype=np.int8)
_NIBBLE[list(b" \t\n\r\x0b\x0c")] = -1
_NIBBLE[list(b"0123456789abcdef")] = np.arange(16)
_NIBBLE[list(b"ABCDEF")] = np.arange(10, 16)
_NIBBLE = _NIBBLE.tobytes()
_EOL = re.compile(rb"\r\n|\r|\n")


def _read_bytes(path: str) -> bytes:
    """The file's contents, gunzipped when it starts with the gzip magic."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"\x1f\x8b":
        return data
    try:
        return gzip.decompress(data)
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise ValueError(f"corrupt gzip stream: {e}") from None


def _open_write(path: str) -> io.BufferedIOBase:
    if str(path).endswith(".gz"):
        return gzip.open(path, "wb")
    return open(path, "wb")


def _encode_rows(tri: np.ndarray, top: int):
    """Yield the rows as ``f"{a:x} {b:x} {c:x}\\n"`` text, a chunk at a time.

    Each value is laid out right-aligned in a fixed number of nibble
    cells (enough for ``top``, the largest value) and a separator cell,
    in the rows' own dtype; a keep-mask drops its leading zeros, and one
    ``translate`` turns the kept cells into text.
    """
    width = max(1, (top.bit_length() + 3) // 4)
    cols = np.arange(width + 1, dtype=np.int8)
    for lo in range(0, tri.shape[0], _WRITE_ROWS):
        v = tri[lo:lo + _WRITE_ROWS].ravel()
        cells = np.empty((v.size, width + 1), dtype=np.uint8)
        ndig = np.ones(v.size, dtype=np.int8)
        for k in range(width):
            np.bitwise_and(v >> (4 * k), 15, out=cells[:, width - 1 - k],
                           casting="unsafe")
            if k:
                ndig += v >= (1 << (4 * k))
        cells[:, width] = 16        # a space
        cells[2::3, width] = 17     # a newline
        yield cells[cols >= width - ndig[:, None]].tobytes().translate(_HEX_CELL)


def write_design(d: Design, path: str) -> None:
    tri = np.asarray(d.tri)     # encoded in its own dtype, not widened
    if tri.size and int(tri.min()) < 0:
        raise ValueError("negative corner value; corners are vectors of GF(2)^n")
    top = int(tri.max()) if tri.size else 0
    if top >= 1 << d.n:     # read_design would refuse the file
        raise ValueError("triangle vector out of range for declared dimension")
    head = [FORMAT_HEADER, f"kind: {d.kind}", f"n: {d.n}",
            f"m: {d.m if isinstance(d, Gdd) else 1}", f"poly: {hex(d.poly)}",
            f"count: {d.triangle_count}"]
    if d.provenance:
        head.append(f"provenance: {d.provenance}")
    if isinstance(d, Gdd):
        exps = coset_exponents(build_field(d.n, d.poly), d.m, d.groups)
        head.append("groups: " + " ".join(map(str, sorted(exps.tolist()))))
    head.append("triangles:\n")
    with _open_write(path) as fh:
        fh.write("\n".join(head).encode("utf-8"))
        for block in _encode_rows(tri, top):
            fh.write(block)


def _header_int(header: dict[str, str], key: str, base: int = 10,
                default: str | None = None) -> int:
    value = header.get(key, default)
    if value is None:
        raise ValueError(f"design file has no {key!r} line")
    return _parse_int(value, key, base)


def _parse_int(value: str, key: str, base: int = 10) -> int:
    try:
        return int(value, base)
    except ValueError:
        raise ValueError(f"design file {key!r} value {value!r} is not an integer "
                         f"(base {base})") from None


def _header_lines(data: bytes):
    """(line, offset just past it) for each line of ``data``; lines end in
    ``\\n``, ``\\r\\n`` or ``\\r``, as text mode reads them."""
    pos = 0
    while pos < len(data):
        eol = _EOL.search(data, pos)
        stop, end = (eol.start(), eol.end()) if eol else (len(data), len(data))
        yield data[pos:stop].decode("utf-8"), end
        pos = end


def _split_header(data: bytes) -> tuple[dict[str, str], int]:
    """The header's key/value lines and the offset of the first triangle row."""
    lines = _header_lines(data)
    first = next(lines, ("", 0))[0].strip()
    if first != FORMAT_HEADER:
        raise ValueError(f"not a design file (header {first!r})")
    header: dict[str, str] = {}
    for line, end in lines:
        if line == "triangles:":
            return header, end
        key, _, value = line.partition(":")
        header[key.strip()] = value.strip()
    return header, len(data)


def _parse_chunk(chunk: bytes, first_line: int) -> tuple[np.ndarray, int]:
    """(R,3) rows of one body chunk that ends at a newline or at the end
    of the file, and the number of newlines in it.  ``first_line`` is the
    1-based triangle line the chunk starts on.  Values are int32 when no
    token has more than 7 digits, else int64."""
    c = np.frombuffer(chunk, dtype=np.uint8)
    nib = np.frombuffer(chunk.translate(_NIBBLE), dtype=np.int8)
    # Tokens are the digit runs between consecutive separators (with
    # sentinels before the first byte and after the last).
    sep = np.flatnonzero(nib < 0)
    bounds = np.concatenate(([-1], sep, [c.size]))
    gaps = np.diff(bounds) - 1
    tok = np.flatnonzero(gaps)
    # newlines[j]: newlines among the first j separators, i.e. the line
    # a token following separator j - 1 is on
    ix = np.int32 if c.size < 1 << 31 else np.int64   # per-byte index dtype
    newlines = np.zeros(sep.size + 1, dtype=ix)
    np.cumsum(c[sep] == 10, out=newlines[1:])
    line = newlines[tok]
    lens = gaps[tok].astype(ix)
    stops = bounds[tok + 1].astype(ix)
    width = int(lens.max()) if tok.size else 0
    # (line in chunk, rank, message) of the first fault of each kind; the
    # earliest line is named, a bad byte before a miscount it causes
    faults = []
    if nib.min() < -1:
        p = int(np.argmax(nib < -1))
        faults.append((np.count_nonzero(c[:p] == 10), 0,
                       f"byte {bytes(c[p:p + 1])!r} is neither a hex digit "
                       "nor ASCII whitespace"))
    per_line = np.bincount(line)
    bad = np.flatnonzero((per_line != 0) & (per_line != 3))
    if bad.size:
        faults.append((int(bad[0]), 1, f"{per_line[bad[0]]} tokens, expected 3"))
    if width > _MAX_DIGITS:
        i = int(np.argmax(lens > _MAX_DIGITS))
        faults.append((int(line[i]), 1, f"token of {lens[i]} hex digits, "
                       f"at most {_MAX_DIGITS} allowed"))
    if faults:
        at, _, fault = min(faults)
        raise ValueError(f"triangle line {first_line + at}: {fault}")
    # Assemble values from the least significant digit up: the digit k
    # places before a token's end, or, once the token is shorter than k,
    # the separator just before it, whose nibble is cleared to 0.  Index 0
    # of ``digits`` stands in for the sentinel separator before the chunk.
    digits = np.zeros(c.size + 1, dtype=np.int8)
    np.maximum(nib, 0, out=digits[1:])
    starts = stops - lens
    acc = np.int32 if width <= 7 else np.int64
    val = digits.take(stops).astype(acc)
    for k in range(2, width + 1):
        at = np.maximum(stops + 1 - k, starts)
        val |= np.left_shift(digits.take(at), 4 * (k - 1), dtype=acc)
    return val.reshape(-1, 3), int(newlines[-1])


def _parse_rows(data: bytes, pos: int, count: int) -> np.ndarray:
    """The ``count`` triangle rows of ``data[pos:]`` as one int32 (count, 3)
    array, each newline-aligned chunk parsed straight into it (no list of
    chunks to concatenate); ValueError for another number of rows."""
    # at most one row per 6 bytes ("a b c\n"), so a huge count allocates nothing
    tri = np.empty((max(0, min(count, (len(data) - pos + 1) // 6)), 3), dtype=np.int32)
    rows, line = 0, 1
    while pos < len(data):
        nl = data.find(b"\n", pos + _READ_BYTES - 1)
        end = nl + 1 if nl >= 0 else len(data)
        chunk, newlines = _parse_chunk(data[pos:end], line)
        if rows + len(chunk) <= len(tri):
            if chunk.dtype != np.int32 and chunk.max() >= 1 << 31:  # beyond n = 31
                raise ValueError("triangle vector out of range for declared dimension")
            tri[rows:rows + len(chunk)] = chunk
        rows += len(chunk)
        line += newlines
        pos = end
    if rows != count:
        raise ValueError(f"header count {count} != body lines {rows}")
    return tri


def read_design(path: str) -> Design | Gdd:
    data = _read_bytes(path)
    header, body = _split_header(data)
    kind = header.get("kind", "design")
    if kind not in ("design", "gdd"):
        raise ValueError(f"design file kind {kind!r} is not 'design' or 'gdd'")
    n = _header_int(header, "n")
    m = _header_int(header, "m", default="1")
    poly = _header_int(header, "poly", base=16)
    count = _header_int(header, "count")
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"design file n = {n} is outside 1..{_MAX_N}")
    if kind == "gdd":   # checked here, before a field is built for the groups
        if not 1 <= m <= n or n % m:
            raise ValueError(f"design file m = {m} is not a divisor of n = {n}")
        exps = [_parse_int(e, "groups") for e in header.get("groups", "").split()]
        per = ((1 << n) - 1) // ((1 << m) - 1)
        if len(exps) != per or not all(0 <= e < per for e in exps):
            raise ValueError(f"design file groups: {len(exps)} exponents, expected "
                             f"{per} in 0..{per - 1} for m = {m}, n = {n}")
        repeats = np.flatnonzero(np.bincount(exps, minlength=per) > 1)
        if repeats.size:
            raise ValueError(f"design file groups: exponent {repeats[0]} repeats")
    tri = _parse_rows(data, body, count)
    del data    # the text is not needed while Design sorts the rows
    if tri.size and int(tri.max()) >= (1 << n):
        raise ValueError("triangle vector out of range for declared dimension")
    provenance = header.get("provenance", "")
    if kind == "gdd":
        return Gdd(n=n, poly=poly, tri=tri, m=m,
                   groups=coset_groups(build_field(n, poly), m, exps),
                   provenance=provenance)
    return Design(n=n, poly=poly, tri=tri, provenance=provenance)


def write_certificate(cert: OrbitCertificate | FrobeniusCertificate,
                      path: str) -> None:
    text = json.dumps(cert.to_json_dict(), indent=1, sort_keys=True) + "\n"
    with _open_write(path) as fh:
        fh.write(text.encode("utf-8"))


def read_certificate(path: str) -> OrbitCertificate | FrobeniusCertificate:
    return certificate_from_json_dict(json.loads(_read_bytes(path).decode("utf-8")))


def load_report_schema() -> dict:
    """The published JSON schema for --json verification reports and
    streamed-tower (`construct gdd6k --k 3+`) reports."""
    with resources.files("tridesign").joinpath("report_schema.json").open() as fh:
        return json.load(fh)
