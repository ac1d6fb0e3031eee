"""The four benchmark workloads.

Every workload builds its inputs from the seed, calls tridesign's public
functions through the package's module attributes (so a traced pass sees
every call), and checks every output against an independent expectation
before any number is reported.  Each checked outcome is one attempted
operation; a wrong answer, a refused valid input, an accepted mutant or
an unexpected exception is one failed operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import jsonschema
import numpy as np

import tridesign as td
import tridesign.cli
import tridesign.fileio
import tridesign.lines

from spans import Tracer


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, SMOKE the same paths at toy size."""

    certs: tuple[str, ...]          # expanded and verified; the first is relabelled and written
    singer: tuple[int, int]
    frobenius: tuple[int, ...]      # n >= 19 takes the lazy search path
    tower_window: int               # planes transported at k=3
    sampled_lines: int
    reject_design: tuple[str, ...]  # two design names: their product; one certificate: its expansion
    reject_gdd: str
    dup_pair_cert: str


FULL = Sizes(("frob13", "gdd12-6"), (12, 6), (13, 19), 600, 4000,
             ("design6", "design6"), "gdd12-6", "frob13")
SMOKE = Sizes(("frob7",), (7, 1), (7,), 2, 20,
              ("frob7",), "gdd6-2", "frob7")

# Datasets that expand under their own group action rather than a certificate.
SPECIAL = ("design6", "gdd6-2")


def datasets_used(workload: str, sizes: Sizes) -> tuple[str, ...]:
    names = {
        "cert-pipeline": sizes.certs,
        "search": (),
        "construct-tower": ("design6", "gdd6-2", "frob7"),
        "reject": sizes.reject_design + (sizes.reject_gdd, "frob7",
                                         sizes.dup_pair_cert, "gdd12-6"),
    }[workload]
    return tuple(dict.fromkeys(names))


def setup(workload: str, sizes: Sizes) -> dict:
    """Load (and, for the two bespoke actions, expand) the embedded data."""
    data = {}
    for name in datasets_used(workload, sizes):
        ds = td.load_dataset(name)
        data[name] = td.expand_special(ds) if name in SPECIAL else ds
    return data


def clear_caches() -> None:
    """Drop the field and embedding caches, as a fresh CLI process has them."""
    td.gf2n._build_field_cached.cache_clear()
    td.gf2n._embed_subfield_cached.cache_clear()


# -- accounting ---------------------------------------------------------------


class Ledger:
    """Attempted and failed operations; failures listed in the known-failure
    record are counted but do not make the run incorrect."""

    def __init__(self, workload: str, known: list[dict]):
        self.known = {(k["op"], k["raises"]) for k in known
                      if k["workload"] == workload}
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, op: str, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": op, "reason": reason, "known": False})

    def raised(self, op: str, exc: BaseException) -> None:
        self.attempted += 1
        cls = type(exc).__name__
        self.failures.append({"op": op, "reason": f"{cls}: {exc}",
                              "known": (op, cls) in self.known})

    @property
    def correct(self) -> bool:
        return all(f["known"] for f in self.failures)


@dataclass
class Env:
    workload: str
    seed: int
    sizes: Sizes
    data: dict
    expected: dict
    ledger: Ledger
    tracer: Tracer
    workdir: str
    stage_s: dict = field(default_factory=dict)
    stage_metrics: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        with self.tracer.span(f"bench.{name}") as sp:
            yield
        self.stage_s[name] = self.stage_s.get(name, 0.0) + sp.dur

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def check_digest(self, key: str, digest: str) -> None:
        want = self.expected["certificates"].get(key)
        self.ledger.check(f"digest:{key}", digest == want,
                          f"sha256 {digest} != recorded {want}")


# -- seeded inputs and independent expectations ---------------------------------


def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def invertible_map(n: int, rng: np.random.Generator) -> np.ndarray:
    """Images of all 2^n vectors under a random invertible GF(2)-linear map."""
    while True:
        cols = [int(c) for c in rng.integers(1, 1 << n, size=n)]
        if gf2_rank(cols) == n:
            break
    v = np.arange(1 << n, dtype=np.int64)
    img = np.zeros(1 << n, dtype=np.int64)
    for bit, col in enumerate(cols):
        img ^= ((v >> bit) & 1) * col
    return img


def relabel(d, rng: np.random.Generator, provenance: str):
    img = invertible_map(d.n, rng)
    return td.Design(n=d.n, poly=d.poly, tri=img[d.tri], provenance=provenance)


def cert_digest(cert) -> str:
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_design_bytes(n: int, poly: int, tri: np.ndarray,
                           provenance: str) -> bytes:
    """The design file a correct writer produces, built without tridesign:
    rows sorted within and then by packed key, hex digits laid out with
    numpy."""
    t = np.sort(np.asarray(tri, dtype=np.int64), axis=1)
    t = t[np.argsort((t[:, 0] << (2 * n)) | (t[:, 1] << n) | t[:, 2], kind="stable")]
    head = (f"tridesign-design v1\nkind: design\nn: {n}\nm: 1\n"
            f"poly: {hex(poly)}\ncount: {t.shape[0]}\n"
            f"provenance: {provenance}\ntriangles:\n")
    width = max(1, (n + 3) // 4)
    v = t.ravel()
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    cells = np.empty((v.size, width + 1), dtype=np.uint8)
    ndig = np.ones(v.size, dtype=np.int64)
    for k in range(width):
        cells[:, width - 1 - k] = digits[(v >> (4 * k)) & 15]
        if k:
            ndig += v >= (1 << (4 * k))
    cells[:, width] = ord(" ")
    cells[2::3, width] = ord("\n")
    keep = np.arange(width + 1)[None, :] >= (width - ndig)[:, None]
    return head.encode() + cells[keep].tobytes()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = td.cli.main(argv)
    return rc, out.getvalue()


# -- cert-pipeline -------------------------------------------------------------


def cert_pipeline(env: Env) -> dict:
    rng = env.rng()
    results = []
    with env.stage("cert_to_verified"):
        for name in env.sizes.certs:
            ds = env.data[name]
            td.build_field(ds.n, ds.poly)
            d = td.expand_certificate(td.as_certificate(ds))
            cover = td.verify_gdd(d) if isinstance(d, td.Gdd) else td.verify_design(d)
            results.append((name, d, cover, td.verify_balanced(d)))
    for name, d, cover, bal in results:
        env.ledger.check(f"verify:{name}", cover.ok and bal.ok,
                         f"cover ok={cover.ok}, balance ok={bal.ok}")
    d = results[0][1]
    del results

    path = os.path.join(env.workdir, "relabelled.design")
    provenance = f"benchmark relabel seed {env.seed}"
    with env.stage("write"):
        img = invertible_map(d.n, rng)
        relabelled = td.Design(n=d.n, poly=d.poly, tri=img[d.tri],
                               provenance=provenance)
        td.fileio.write_design(relabelled, path)
    count = relabelled.triangle_count
    del relabelled
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    want = env.expected["design_files"].get(env.sizes.certs[0], {}).get(str(env.seed))
    if want is None:
        want = hashlib.sha256(reference_design_bytes(
            d.n, d.poly, img[d.tri], provenance)).hexdigest()
    env.ledger.check("digest:design_file", digest == want,
                     f"sha256 {digest} != expected {want}")

    with env.stage("file_to_verified"):
        rc, out = run_cli(["--json", "verify", "--in", path, "--balanced"])
    payload = json.loads(out)
    try:
        jsonschema.validate(payload, td.fileio.load_report_schema())
        schema_error = ""
    except jsonschema.ValidationError as e:
        schema_error = e.message
    env.ledger.check("cli:verify", rc == 0 and payload["ok"]
                     and payload["cover"]["triangle_count"] == count
                     and not schema_error,
                     f"exit {rc}, ok={payload.get('ok')}, schema: {schema_error}")
    os.remove(path)
    return {"cert_to_verified_s": (env.stage_s["cert_to_verified"], "s"),
            "write_s": (env.stage_s["write"], "s"),
            "file_to_verified_s": (env.stage_s["file_to_verified"], "s")}


# -- search ---------------------------------------------------------------------


def search(env: Env) -> dict:
    """Fixed (n, m) inputs: the seed changes nothing here."""
    n, m = env.sizes.singer
    with env.stage("search_singer"):
        cert = td.search_singer(n, m)
    env.check_digest(f"singer-{n}-{m}", cert_digest(cert))
    certs = []
    with env.stage("search_frobenius"):
        for n in env.sizes.frobenius:
            certs.append(td.search_frobenius(n, allow_long=n >= 19))
    for c in certs:
        env.check_digest(f"frobenius-{c.n}", cert_digest(c))
    return {"search_singer_s": (env.stage_s["search_singer"], "s"),
            "search_frobenius_s": (env.stage_s["search_frobenius"], "s")}


# -- construct-tower ----------------------------------------------------------


def construct_tower(env: Env) -> dict:
    rng = env.rng()
    d6, g62 = env.data["design6"], env.data["gdd6-2"]
    checks = []
    with env.stage("construct"):
        left = relabel(d6, rng, "benchmark relabel")
        right = relabel(d6, rng, "benchmark relabel")
        p = td.product(left, right)
        checks.append(("product", td.verify_design(p).ok and p.n == 12))
        f7 = relabel(td.expand_certificate(td.as_certificate(env.data["frob7"])),
                     rng, "benchmark relabel")
        ext = td.balanced_extension(f7)
        checks.append(("balanced_extension",
                       td.verify_design(ext).ok and td.verify_balanced(ext).ok
                       and ext.n == 13))
        g = td.gdd_6k_6(2)
        checks.append(("gdd_6k_6(2)", td.verify_gdd(g).ok))
        filled = td.fill_groups(g, d6)
        checks.append(("fill_groups(design6)", td.verify_design(filled).ok))
        filled = td.fill_groups(g, g62)
        checks.append(("fill_groups(gdd6-2)", td.verify_gdd(filled).ok))
        stream = td.gdd_6k_6(3)
    del p, ext, g, filled
    for op, ok in checks:
        env.ledger.check(f"construct:{op}", ok)

    q = 64
    plane_total = (q**3 - 1) * (q**3 - q) // ((q**2 - 1) * (q**2 - q))
    rows_per_plane = ((1 << 12) - 1) * ((1 << 12) - (1 << 6)) // 18
    window = env.sizes.tower_window
    start = int(rng.integers(0, plane_total - window + 1))
    shapes = []
    seen = 0
    with env.stage("tower"):
        for idx, plane in enumerate(stream.planes()):
            seen += 1
            if start <= idx < start + window:
                tri = stream.plane_triangles(plane, canonical=False)
                shapes.append(tri.shape)
                del tri   # hold one plane at a time
    env.ledger.check("tower:plane_count", seen == plane_total,
                     f"{seen} planes, expected {plane_total}")
    for idx, shape in enumerate(shapes, start):
        env.ledger.check("tower:plane", shape == (rows_per_plane, 3),
                         f"plane {idx} has shape {shape}")

    samples = env.sizes.sampled_lines
    with env.stage("sampled_lines"):
        try:
            verified = stream.sample_line_check(samples, seed=env.seed)
        except td.construct.ConstructionError as e:
            verified = str(e)
    env.ledger.check("tower:sample_line_check", verified == samples, str(verified))
    return {"construct_s": (env.stage_s["construct"], "s"),
            "tower_planes_per_s": (window / env.stage_s["tower"], "1/s"),
            "sampled_lines_per_s": (samples / env.stage_s["sampled_lines"], "1/s")}


# -- reject ---------------------------------------------------------------------

DESIGN_MUTANTS = ("replaced", "dropped", "duplicated")
FILE_MUTANTS = ("bad_header", "count_mismatch", "non_hex", "out_of_range",
                "truncated_row", "missing_count")


def random_triangle(n: int, rng: np.random.Generator) -> list[int]:
    while True:
        a, b, c = (int(x) for x in rng.integers(1, 1 << n, size=3))
        if a != b and c not in (a, b, a ^ b):
            return sorted((a, b, c))


def mutate_design(base, kind: str, rng: np.random.Generator):
    i = int(rng.integers(0, base.tri.shape[0]))
    if kind == "replaced":
        tri = base.tri.copy()
        row = tri[i].tolist()
        while row == tri[i].tolist():
            row = random_triangle(base.n, rng)
        tri[i] = row
    elif kind == "dropped":
        tri = np.delete(base.tri, i, axis=0)
    else:
        tri = np.vstack([base.tri, base.tri[i:i + 1]])
    provenance = f"benchmark mutant {kind}"
    if isinstance(base, td.Gdd):
        return td.Gdd(n=base.n, poly=base.poly, tri=tri, m=base.m,
                      groups=base.groups, provenance=provenance)
    return td.Design(n=base.n, poly=base.poly, tri=tri, provenance=provenance)


def mutate_file(text: str, n: int, kind: str, rng: np.random.Generator) -> str:
    lines = text.split("\n")
    body = lines.index("triangles:") + 1
    r = int(rng.integers(body, len(lines) - 1))   # a triangle row
    tokens = lines[r].split()
    t = int(rng.integers(0, 3))
    if kind == "bad_header":
        lines[0] = f"tridesign-design v{int(rng.integers(2, 10))}"
    elif kind == "count_mismatch":
        c = next(i for i, s in enumerate(lines) if s.startswith("count:"))
        lines[c] = f"count: {int(lines[c].split()[1]) + int(rng.integers(1, 10))}"
    elif kind == "non_hex":
        tokens[t] = "".join(rng.choice(list("ghijkmnpqrstuvwxyz"), size=2))
        lines[r] = " ".join(tokens)
    elif kind == "out_of_range":
        tokens[t] = f"{(1 << n) + int(rng.integers(0, 1 << n)):x}"
        lines[r] = " ".join(tokens)
    elif kind == "truncated_row":
        lines[r] = " ".join(tokens[:2])
    else:
        lines = [s for s in lines if not s.startswith("count:")]
    return "\n".join(lines)


def mutate_certs(env: Env, rng: np.random.Generator):
    frob = td.as_certificate(env.data[env.sizes.dup_pair_cert])
    pairs = list(frob.pairs)
    pairs.insert(int(rng.integers(0, len(pairs) + 1)),
                 pairs[int(rng.integers(0, len(pairs)))])
    yield "duplicated_pair", td.FrobeniusCertificate(n=frob.n, poly=frob.poly,
                                                     pairs=tuple(pairs))
    singer = td.as_certificate(env.data["gdd12-6"])
    g = ((1 << singer.n) - 1) // ((1 << singer.m) - 1)
    reps = list(singer.reps)
    i = int(rng.integers(0, len(reps)))
    reps[i] = (g * int(rng.integers(1, (1 << singer.m) - 1)), reps[i][1])
    yield "group_line_rep", td.OrbitCertificate(n=singer.n, m=singer.m,
                                                poly=singer.poly, reps=tuple(reps))


def reject_bases(env: Env):
    names = env.sizes.reject_design
    if len(names) == 2:
        design = td.product(env.data[names[0]], env.data[names[1]])
    else:
        design = td.expand_certificate(td.as_certificate(env.data[names[0]]))
    gdd = env.data[env.sizes.reject_gdd]
    if isinstance(gdd, td.EmbeddedDataset):
        gdd = td.expand_certificate(td.as_certificate(gdd))
    return design, gdd


def timed(fn, *args):
    """(outcome, seconds): the result, or the exception the call raised."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as e:   # recorded as the outcome; checked by the caller
        out = e
    return out, time.perf_counter() - t0


def reject(env: Env) -> dict:
    rng = env.rng()
    design_ops, input_ops = [], []
    with env.stage("reject_design"):
        for base in reject_bases(env):
            verify = td.verify_gdd if isinstance(base, td.Gdd) else td.verify_design
            for kind in DESIGN_MUTANTS:
                mutant = mutate_design(base, kind, rng)
                design_ops.append((f"{base.kind}:{kind}", *timed(verify, mutant)))
                del mutant
    for op, rep, _ in design_ops:
        if isinstance(rep, Exception):
            env.ledger.raised(op, rep)
            continue
        witnesses = rep.uncovered + rep.multiply_covered + rep.group_line_hits
        env.ledger.check(op, not rep.ok and bool(witnesses),
                         f"ok={rep.ok} with {len(witnesses)} witnesses")

    with env.stage("reject_input"):
        base = td.expand_certificate(td.as_certificate(env.data["frob7"]))
        path = os.path.join(env.workdir, "base.design")
        td.fileio.write_design(base, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for kind in FILE_MUTANTS:
            mpath = os.path.join(env.workdir, f"mutant-{kind}.design")
            with open(mpath, "w", encoding="utf-8") as fh:
                fh.write(mutate_file(text, base.n, kind, rng))
            outcome, dt = timed(run_cli, ["verify", "--in", mpath])
            input_ops.append((f"file:{kind}", outcome, dt))
            os.remove(mpath)
        os.remove(path)
        for kind, cert in mutate_certs(env, rng):
            input_ops.append((f"cert:{kind}", *timed(td.expand_certificate, cert)))
    for op, outcome, _ in input_ops:
        if op.startswith("file:"):
            if isinstance(outcome, Exception):
                env.ledger.raised(op, outcome)
            else:
                env.ledger.check(op, outcome[0] == 2, f"exit code {outcome[0]}, expected 2")
        elif not isinstance(outcome, Exception):
            env.ledger.check(op, False, "corrupted certificate was expanded")
        elif not isinstance(outcome, ValueError):
            env.ledger.raised(op, outcome)
        else:
            env.ledger.check(op, True)

    design_s = [dt for *_, dt in design_ops]
    input_s = [dt for *_, dt in input_ops]
    return {"reject_design_s": (statistics.median(design_s), "s", len(design_s)),
            "reject_input_s": (statistics.median(input_s), "s", len(input_s))}


WORKLOADS = {
    "cert-pipeline": cert_pipeline,
    "search": search,
    "construct-tower": construct_tower,
    "reject": reject,
}
