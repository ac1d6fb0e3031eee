"""Command-line frontend.

Exit codes: 0 = success / verified, 1 = verification failure or
infeasible search, 2 = usage error (argparse's own convention).
Reports go to stdout (--json for machine-readable form); warnings, and
with --progress the ``tridesign`` logger's INFO records, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import construct, datasets, fileio, orbits, search
from .designs import verify_balanced, verify_design, verify_gdd, Gdd
from .gf2n import DEFAULT_POLYS, build_field


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr, flush=True)


def _field_from_args(args) -> "FieldCtx":  # noqa: F821
    poly = int(args.poly, 0) if args.poly else None
    if poly is not None and poly != DEFAULT_POLYS.get(args.n):
        _warn("non-default polynomial: embedded datasets will not match "
              "this field's tables")
    return build_field(args.n, poly)


def cmd_field(args) -> int:
    ctx = _field_from_args(args)
    out = {"n": ctx.n, "poly": hex(ctx.poly), "order": ctx.order}
    if args.zech is not None:
        out["zech"] = ctx.zech(args.zech)
    if args.exp is not None:
        out["exp"] = ctx.exp(args.exp)
    if args.log is not None:
        if not 1 <= args.log <= ctx.order:
            raise ValueError(f"--log {args.log} out of range 1..{ctx.order}")
        out["log"] = ctx.log(args.log)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0


def cmd_gamma(args) -> int:
    ctx = _field_from_args(args)
    k = args.k % ctx.order
    if k == 0:
        raise ValueError("gamma undefined at 0")
    gam = sorted(set(orbits.gamma_rows(ctx, [k])[0].tolist()))
    out = {"n": ctx.n, "k": args.k, "gamma": gam, "key": gam[0]}
    if args.cy:   # the 2-cyclotomic classes of the gamma-set's residues
        out["cy_gamma"] = sorted({(s << j) % ctx.order for s in gam
                                  for j in range(ctx.n)})
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"gamma({args.k}) = {gam}  (key {gam[0]})")
        if args.cy:
            cg = out["cy_gamma"]
            print(f"cy_gamma({args.k}) = {cg}  (size {len(cg)})")
    return 0


def cmd_search(args) -> int:
    if args.group == "frobenius" and args.m != 1:
        raise ValueError(f"--m {args.m}: search frobenius needs m = 1")
    try:
        if args.group == "singer":
            cert = search.search_singer(args.n, args.m,
                                        node_limit=args.node_limit,
                                        time_limit=args.time_limit,
                                        allow_long=args.allow_long)
        else:
            cert = search.search_frobenius(args.n,
                                           node_limit=args.node_limit,
                                           time_limit=args.time_limit,
                                           allow_long=args.allow_long)
    except search.InfeasibleStratumError as e:
        payload = {"ok": False, "infeasible": True,
                   "strata": {str(t): c for t, c in e.strata.items()},
                   "detail": str(e)}
        print(json.dumps(payload, sort_keys=True) if args.json else str(e))
        return 1
    except (search.SearchUnsatisfiable, search.SearchLimitExceeded) as e:
        print(json.dumps({"ok": False, "detail": str(e)}, sort_keys=True)
              if args.json else str(e))
        return 1
    fileio.write_certificate(cert, args.out)
    size = len(cert.reps) if isinstance(cert, orbits.OrbitCertificate) \
        else len(cert.pairs)
    msg = {"ok": True, "out": args.out, "entries": size}
    print(json.dumps(msg, sort_keys=True) if args.json
          else f"wrote {size} entries to {args.out}")
    return 0


def cmd_expand(args) -> int:
    cert = fileio.read_certificate(args.cert)
    d = orbits.expand_certificate(cert)
    fileio.write_design(d, args.out)
    msg = {"ok": True, "out": args.out, "kind": d.kind,
           "triangles": d.triangle_count}
    print(json.dumps(msg, sort_keys=True) if args.json
          else f"wrote {d.kind} with {d.triangle_count} triangles to {args.out}")
    return 0


def cmd_verify(args) -> int:
    d = fileio.read_design(args.infile)
    if args.gdd and not isinstance(d, Gdd):
        raise ValueError("file does not carry groups; cannot verify as gdd")
    cover = verify_gdd(d) if isinstance(d, Gdd) else verify_design(d)
    ok = cover.ok
    payload = {"ok": ok, "cover": cover.to_json_dict()}
    text = [cover.to_text()]
    if args.balanced:
        bal = verify_balanced(d)
        payload["balance"] = bal.to_json_dict()
        payload["ok"] = ok = ok and bal.ok
        text.append(bal.to_text())
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text))
    return 0 if ok else 1


def cmd_construct(args) -> int:
    if args.construction == "product":
        left = fileio.read_design(args.left)
        right = fileio.read_design(args.right)
        out, census = construct.product(left, right, with_census=True)
        fileio.write_design(out, args.out)
        msg = {"ok": True, "out": args.out, "triangles": out.triangle_count,
               "census": census}
    elif args.construction == "balanced-ext":
        base = fileio.read_design(args.infile)
        out = construct.balanced_extension(base)
        fileio.write_design(out, args.out)
        msg = {"ok": True, "out": args.out, "triangles": out.triangle_count}
    elif args.construction == "fill":
        g = fileio.read_design(args.gdd)
        if not isinstance(g, Gdd):
            raise ValueError("--gdd file carries no groups")
        filler = fileio.read_design(args.filler)
        out = construct.fill_groups(g, filler)
        fileio.write_design(out, args.out)
        msg = {"ok": True, "out": args.out, "kind": out.kind,
               "triangles": out.triangle_count}
    else:  # gdd6k
        k = args.k
        if k >= 3 and args.out:
            raise ValueError("k >= 3 streams are not written to files; "
                             "use --count/--sample")
        if k <= 2 and (args.count or args.sample):
            raise ValueError("--count/--sample apply to streamed towers (k >= 3); "
                             "use --out")
        g = construct.gdd_6k_6(k)
        if isinstance(g, construct.GddStream):
            msg = {"ok": True, "k": k, "planes": g.plane_count,
                   "per_plane": g.per_plane}
            if args.count:
                msg["triangles"] = g.stream_count()
            if args.sample:
                msg["sampled_lines_ok"] = g.sample_line_check(args.sample, seed=args.seed)
        else:
            if args.out:
                fileio.write_design(g, args.out)
            msg = {"ok": True, "k": k, "triangles": g.triangle_count,
                   "out": args.out}
    print(json.dumps(msg, sort_keys=True) if args.json else
          " ".join(f"{k}={v}" for k, v in msg.items()))
    return 0


def cmd_datasets(args) -> int:
    if args.action == "list":
        rows = []
        for name in datasets.dataset_names():
            ds = datasets.load_dataset(name)
            rows.append({"name": ds.name, "kind": ds.kind, "n": ds.n,
                         "m": ds.m, "poly": hex(ds.poly),
                         "entries": len(ds.payload)})
        if args.json:
            print(json.dumps(rows, sort_keys=True))
        else:
            for r in rows:
                print(f"{r['name']:10s} {r['kind']:18s} n={r['n']:2d} "
                      f"m={r['m']} poly={r['poly']} entries={r['entries']}")
        return 0
    ds = datasets.load_dataset(args.name)
    if args.format == "cert":
        cert = datasets.as_certificate(ds)
        fileio.write_certificate(cert, args.out)
    else:
        if ds.kind in ("mu-orbit-design", "xi3-orbit-gdd"):
            d = datasets.expand_special(ds)
        else:
            d = orbits.expand_certificate(datasets.as_certificate(ds))
        fileio.write_design(d, args.out)
    print(json.dumps({"ok": True, "out": args.out}, sort_keys=True)
          if args.json else f"wrote {args.name} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tridesign",
        description="triangle designs over GF(2): search, expand, "
                    "construct, verify")
    p.add_argument("--json", action="store_true", help="JSON reports on stdout")
    p.add_argument("--progress", action="store_true",
                   help="progress lines (the tridesign logger at INFO) on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="field table and Zech queries")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--poly", help="polynomial mask (0x.. hex or decimal)")
    f.add_argument("--zech", type=int)
    f.add_argument("--exp", type=int)
    f.add_argument("--log", type=int)
    f.set_defaults(func=cmd_field)

    g = sub.add_parser("gamma", help="exponent closure sets")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--poly")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--cy", action="store_true", help="include cy_gamma")
    g.set_defaults(func=cmd_gamma)

    s = sub.add_parser("search", help="orbit-partition searches")
    s.add_argument("group", choices=["singer", "frobenius"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--out", required=True)
    s.add_argument("--node-limit", type=int)
    s.add_argument("--time-limit", type=float)
    s.add_argument("--allow-long", action="store_true",
                   help="permit long runs (n >= 19)")
    s.set_defaults(func=cmd_search)

    e = sub.add_parser("expand", help="expand a certificate to a design file")
    e.add_argument("--cert", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_expand)

    v = sub.add_parser("verify", help="verify a design file")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--balanced", action="store_true")
    v.add_argument("--gdd", action="store_true",
                   help="require group-divisible verification")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("construct", help="run a construction")
    csub = c.add_subparsers(dest="construction", required=True)
    cp = csub.add_parser("product")
    cp.add_argument("--left", required=True)
    cp.add_argument("--right", required=True)
    cp.add_argument("--out", required=True)
    cb = csub.add_parser("balanced-ext")
    cb.add_argument("--in", dest="infile", required=True)
    cb.add_argument("--out", required=True)
    cg = csub.add_parser("gdd6k")
    cg.add_argument("--k", type=int, required=True)
    cg.add_argument("--out")
    cg.add_argument("--count", action="store_true",
                    help="count all triangles from the checked plane "
                         "enumeration (k >= 3)")
    cg.add_argument("--sample", type=int, default=0,
                    help="verify this many sampled non-group lines (k >= 3)")
    cg.add_argument("--seed", type=int, default=0)
    cf = csub.add_parser("fill")
    cf.add_argument("--gdd", required=True)
    cf.add_argument("--filler", required=True)
    cf.add_argument("--out", required=True)
    for sp in (cp, cb, cg, cf):
        sp.set_defaults(func=cmd_construct)

    d = sub.add_parser("datasets", help="embedded datasets")
    dsub = d.add_subparsers(dest="action", required=True)
    dl = dsub.add_parser("list")
    dl.set_defaults(func=cmd_datasets)
    de = dsub.add_parser("emit")
    de.add_argument("--name", required=True)
    de.add_argument("--out", required=True)
    de.add_argument("--format", choices=["design", "cert"], default="design")
    de.set_defaults(func=cmd_datasets)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # for this call only: tests and benchmarks call main in-process
    logger, handler = logging.getLogger("tridesign"), logging.StreamHandler(sys.stderr)
    level = logger.level
    if args.progress:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
