"""Command-line surface: JSON output, persistent cache, relation hunting.

Exit codes: 0 success, 2 domain error (bad inputs, divergence), 3 resource
error (budgets, margins, unresolved truncations).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, anderson, backend, indices, relations
from . import cache as cache_mod
from .errors import DomainError, FFZetaError, ResourceError
from .laurent import format_laurent
from .scalar import Field, field, format_bipoly, format_poly


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _meta(fld: Field = None) -> dict:
    meta = {
        "version": __version__,
        "backend": backend.ACTIVE_BACKEND,
    }
    if fld is not None:
        meta["field"] = {"q": fld.q, "p": fld.p, "e": fld.e}
        if fld.irreducible is not None:
            meta["field"]["irreducible"] = list(fld.irreducible)
    return meta


def _emit(args, payload: dict, pretty: str):
    out = json.dumps(payload, sort_keys=True, indent=2) if getattr(args, "json", False) else pretty
    try:
        print(out, flush=True)
    except BrokenPipeError:  # the reader stopped early (| head): end the output, not the command
        devnull = os.open(os.devnull, os.O_WRONLY)  # the final flush at exit stays silent
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_value(args):
    """zeta, amzv and cmpl: build the hunter label from the flags and
    evaluate it, so every printed label is one the hunter accepts."""
    if args.command == "zeta":
        label = f"zeta({args.index})"
    elif args.command == "amzv":
        label = f"amzv({args.index};{args.signs})"
    else:
        label = f"cmpl({args.index};{args.points.replace(',', ';')})"
    fld = field(args.q)
    value = relations.eval_value_expr(fld, label, args.prec)
    payload = {"label": label, "value": value.to_json(), "meta": _meta(fld)}
    _emit(args, payload, f"{label} = {format_laurent(value, max_terms=24)}")


def _cmd_atpoly(args):
    fld = field(args.q)
    h = anderson.at_polynomial(fld, args.n)
    payload = {"n": args.n, "coeffs_t_by_theta": h.coeffs.tolist(), "meta": _meta(fld)}
    _emit(args, payload, f"H_{args.n} = {format_bipoly(h)}")


def _cmd_indices_partitions(args):
    field(args.q)  # a q that names no field exits 2 with DomainError
    found = []
    for p in indices.q_admissible_partitions(args.w, args.q):
        found.append(indices.partition_to_json(p))
        if args.limit and len(found) >= args.limit:
            break
    payload = {"w": args.w, "q": args.q, "partitions": found, "meta": _meta()}
    _emit(args, payload, "\n".join(str(p) for p in found) or "(none)")


def _cmd_indices_bound(args):
    field(args.q)  # a q that names no field exits 2 with DomainError
    b1r, br = indices.dim_lower_bound(args.w, args.r, args.q)
    payload = {
        "w": args.w,
        "r": args.r,
        "q": args.q,
        "bound_1r": b1r,
        "bound_r": br,
        "meta": _meta(),
    }
    _emit(args, payload, f"dim Z_w^(1,r) >= {b1r}; dim Z_w^r >= {br}")


def _cmd_indices_family(args):
    field(args.q)  # a q that names no field exits 2 with DomainError
    fam = indices.independent_family(args.w, args.r, args.q)
    payload = {
        "w": args.w,
        "r": args.r,
        "q": args.q,
        "family": [list(s) for s in fam],
        "g_images": [indices.g_image_to_json(indices.g_map(s)) for s in fam],
        "chunking": "largest-first",
        "meta": _meta(),
    }
    _emit(args, payload, "\n".join(str(tuple(s)) for s in fam))


def _cmd_indices_gmap(args):
    s = relations.parse_index(args.index)
    if args.w is not None and s.weight != args.w:
        raise DomainError(f"index {tuple(s)} has weight {s.weight}, not {args.w}")
    image = indices.g_image_to_json(indices.g_map(s))
    payload = {"index": list(s), "g_image": image, "meta": _meta()}
    _emit(args, payload, "{" + ", ".join(str(x) for x in image) + "}")


def _cmd_relations_hunt(args):
    fld = field(args.q)
    labels = [t.strip() for t in relations.split_top(args.labels, ",") if t.strip()]
    vec = relations.ValueVector.evaluate(fld, labels, args.prec)
    certs = relations.find_relations(vec, args.deg_bound)
    payload = {
        "labels": labels,
        "q": args.q,
        "D": args.deg_bound,
        "N": args.prec,
        "certificates": [c.to_json() for c in certs],
        "meta": _meta(fld),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    lines = [f"{len(certs)} certificate(s) at D={args.deg_bound}, N={args.prec}"]
    for c in certs:
        coeffs = ", ".join(format_poly(p) for p in c.coeffs)
        lines.append(f"  [{coeffs}]  residual val > {c.residual_val}")
    _emit(args, payload, "\n".join(lines))


def _cmd_relations_verify(args):
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        fld = field(int(data["q"]))
        certs = [relations.RelationCertificate.from_json(c, fld) for c in data["certificates"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"cannot read certificates from {args.cert}: "
                          f"{type(exc).__name__}: {exc}") from None
    if not certs:
        raise DomainError(f"no certificates in {args.cert}")
    vectors, results = {}, []  # one evaluation per label set and doubled precision
    for cert in certs:
        key = (cert.labels, 2 * cert.prec)
        if key not in vectors:
            vectors[key] = relations.ValueVector.evaluate(fld, *key)
        results.append(relations.verify_relation(vectors[key], cert))
    payload = {
        "cert_file": args.cert,
        "verified": results,
        "all_verified": all(results),
        "meta": _meta(fld),
    }
    _emit(args, payload, "\n".join(
        f"certificate {i}: {'VERIFIED' if ok else 'FAILED'}" for i, ok in enumerate(results)
    ))
    return 0 if all(results) else 2


def _cmd_relations_report(args):
    fld = field(args.q)
    if args.indices:
        fam = [relations.parse_index(t) for t in args.indices.split(";") if t]
    elif args.w is not None and args.r is not None:
        fam = indices.independent_family(args.w, args.r, args.q)
    else:
        raise DomainError("report wants either --indices or both --w and --r")
    report = relations.independence_report(fld, fam, args.deg_bound, args.prec)
    report["meta"] = _meta(fld)
    _emit(args, report, report["verdict"])


def _cmd_verify_suite(args):
    from . import acceptance

    return acceptance.run_suite(quick=args.quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ffzeta",
        description="Positive-characteristic multizeta workbench over F_q[theta]",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("FFZETA_CACHE_DIR"),
        help="directory for the persistent JSON cache (default: $FFZETA_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--q", type=int, required=True, help="field size")
        p.add_argument("--prec", type=int, required=True, help="absolute 1/theta precision")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("zeta", help="infinity-adic multizeta value")
    add_common(p)
    p.add_argument("--index", required=True, help="comma-separated index, e.g. 2,1")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("amzv", help="alternating multizeta value")
    add_common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--signs", required=True, help="comma-separated units, written --signs=-1,1")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("cmpl", help="Carlitz multiple polylogarithm at k-rational points")
    add_common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--points", required=True, help="comma-separated rationals, e.g. theta,1")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("atpoly", help="Anderson-Thakur polynomial H_n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_atpoly)

    pi = sub.add_parser("indices", help="index combinatorics")
    isub = pi.add_subparsers(dest="subcommand", required=True)

    p = isub.add_parser("partitions", help="q-admissible partitions of {1..w-1}")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--limit", type=int, default=0, help="stop after this many")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_indices_partitions)

    p = isub.add_parser("bound", help="dimension lower bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_indices_bound)

    p = isub.add_parser("family", help="constructive g-independent family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_indices_family)

    p = isub.add_parser("gmap", help="g-image of an index")
    p.add_argument("--index", required=True)
    p.add_argument("--w", type=int, default=None, help="optional weight cross-check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_indices_gmap)

    pr = sub.add_parser("relations", help="relation hunting")
    rsub = pr.add_subparsers(dest="subcommand", required=True)

    p = rsub.add_parser("hunt", help="search for F_q[theta]-linear relations")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--labels", required=True,
                   help="comma-separated value expressions, e.g. 'zeta(1),logc(1)'")
    p.add_argument("--deg-bound", type=int, required=True)
    p.add_argument("--prec", type=int, required=True, help="absolute 1/theta precision")
    p.add_argument("--out", default=None, help="write certificates to this JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_relations_hunt)

    p = rsub.add_parser("verify", help="reverify certificates at doubled precision")
    p.add_argument("--cert", required=True, help="JSON file from 'relations hunt --out'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_relations_verify)

    p = rsub.add_parser("report", help="independence report for a family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--indices", default=None,
                   help="explicit family, semicolon-separated: '6;1,2,2,1;2,2,2'")
    p.add_argument("--deg-bound", type=int, required=True)
    p.add_argument("--prec", type=int, required=True,
                   help="digits beyond the deepest valuation in the family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_relations_report)

    pv = sub.add_parser("verify", help="verification suites")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="skip the long relation-hunter criterion")
    p.set_defaults(func=_cmd_verify_suite)

    args = parser.parse_args(argv)
    if args.cache_dir:
        try:
            cache_mod.set_active(cache_mod.JsonCache(args.cache_dir))
        except OSError as exc:  # a regular file, or a directory that cannot be made
            print(f"error: cannot use cache directory {args.cache_dir}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    try:
        rc = args.func(args)
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        prec = getattr(args, "prec", None)
        if prec is None:
            print("error: out of memory", file=sys.stderr)
        else:
            print(f"error: out of memory at --prec {prec}; lower --prec", file=sys.stderr)
        return 3
    except FFZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        cache_mod.set_active(None)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
