"""Command-line surface: JSON output, persistent cache, relation hunting.

Exit codes: 0 success, 2 domain error (bad inputs, divergence), 3 resource
error (budgets, margins, unresolved truncations).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__, anderson, backend, indices, relations, zeta
from . import cache as cache_mod
from .errors import DomainError, FFZetaError, ResourceError
from .indices import Index
from .laurent import Laurent, format_laurent
from .scalar import Field, Poly, RatFunc, field, format_poly

_TERM_RE = re.compile(r"^([+-]?\d*)(?:\*?(theta)(?:\^(\d+))?)?$")


def parse_poly(fld: Field, text: str) -> Poly:
    """Parse '2*theta^3+theta+1' style polynomials over theta."""
    text = text.replace(" ", "")
    if not text:
        raise DomainError("empty polynomial string")
    chunks = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", text)
    if "".join(chunks) != text:
        raise DomainError(f"malformed polynomial {text!r}")
    coeffs: dict = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (not m.group(1) and not m.group(2)):
            raise DomainError(f"malformed term {chunk!r} in polynomial {text!r}")
        raw, var, exp = m.groups()
        if raw in ("", "+"):
            c = 1
        elif raw == "-":
            c = -1
        else:
            c = int(raw)
        k = 0 if var is None else (1 if exp is None else int(exp))
        coeffs[k] = coeffs.get(k, 0) + c
    arr = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        arr[k] = fld.from_int(c)
    return Poly(fld, arr)


def parse_ratfunc(fld: Field, text: str) -> RatFunc:
    """Parse 'num/den' with polynomial halves (den optional)."""
    if text.count("/") > 1:
        raise DomainError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = (parse_poly(fld, half) for half in text.split("/"))
        if den.is_zero:
            raise DomainError(f"zero denominator in {text!r}")
        return RatFunc(num, den)
    return RatFunc.from_poly(parse_poly(fld, text))


def parse_index(text: str) -> Index:
    try:
        return Index(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"malformed index {text!r}") from exc


def parse_signs(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"malformed sign vector {text!r}") from exc


# ---------------------------------------------------------------------------
# value expressions for the relation hunter
# ---------------------------------------------------------------------------

def _split_top(text: str, sep: str):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DomainError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise DomainError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def eval_value_expr(fld: Field, expr: str, prec: int) -> Laurent:
    """Evaluate one hunter label.

    Grammar: zeta(s1,s2,...), amzv(s1,...;e1,...), cmpl(s1,...;p1;p2;...),
    logc(point), pitilde(m) for the period power pi~^{(q-1)m},
    gnzeta(s1,...) for the Gamma-normalised value via the deformation
    evaluator, and prod(expr,expr) for products.
    """
    expr = expr.strip()
    m = re.match(r"^([a-z]+)\((.*)\)$", expr)
    if not m:
        raise DomainError(f"malformed value expression {expr!r}")
    name, body = m.group(1), m.group(2)
    if name == "zeta":
        return zeta.mzv(fld, parse_index(body), prec)
    if name == "amzv":
        parts = _split_top(body, ";")
        if len(parts) != 2:
            raise DomainError("amzv wants amzv(index;signs)")
        return zeta.amzv(fld, parse_index(parts[0]), parse_signs(parts[1]), prec)
    if name == "cmpl":
        parts = _split_top(body, ";")
        s = parse_index(parts[0])
        points = [parse_ratfunc(fld, p) for p in parts[1:]]
        return zeta.cmpl(fld, s, points, prec)
    if name == "logc":
        return zeta.carlitz_log(fld, parse_ratfunc(fld, body), prec)
    if name == "pitilde":
        return zeta.carlitz_period_power(fld, int(body), prec)
    if name == "gnzeta":
        s = parse_index(body)
        qs = [anderson.at_polynomial(fld, sj - 1) for sj in s]
        return anderson.deformation_value(fld, s, qs, prec)
    if name == "prod":
        parts = _split_top(body, ",")
        # group nested expressions back together: prod(zeta(1),zeta(2))
        merged, buf = [], ""
        for part in parts:
            buf = part if not buf else buf + "," + part
            if buf.count("(") == buf.count(")"):
                merged.append(buf)
                buf = ""
        if buf:
            raise DomainError(f"malformed prod arguments {body!r}")
        if len(merged) < 2:
            raise DomainError("prod wants at least two factors")
        acc = None
        for sub in merged:
            v = eval_value_expr(fld, sub, prec)
            acc = v if acc is None else acc * v
        return acc.truncate(prec)
    raise DomainError(f"unknown value expression {name!r}")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _meta(fld: Field = None) -> dict:
    meta = {
        "version": __version__,
        "backend": backend.ACTIVE_BACKEND,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if fld is not None:
        meta["field"] = {"q": fld.q, "p": fld.p, "e": fld.e}
        if fld.irreducible is not None:
            meta["field"]["irreducible"] = list(fld.irreducible)
    return meta


def _emit(args, payload: dict, pretty: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(pretty)


def _emit_value(args, fld, value: Laurent, label: str):
    payload = {"label": label, "value": value.to_json(), "meta": _meta(fld)}
    _emit(args, payload, f"{label} = {format_laurent(value, max_terms=24)}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_zeta(args):
    fld = field(args.q)
    s = parse_index(args.index)
    value = zeta.mzv(fld, s, args.prec)
    _emit_value(args, fld, value, f"zeta({args.index})")


def _cmd_amzv(args):
    fld = field(args.q)
    value = zeta.amzv(fld, parse_index(args.index), parse_signs(args.signs), args.prec)
    _emit_value(args, fld, value, f"amzv({args.index};{args.signs})")


def _cmd_cmpl(args):
    fld = field(args.q)
    points = [parse_ratfunc(fld, p) for p in _split_top(args.points, ",")]
    value = zeta.cmpl(fld, parse_index(args.index), points, args.prec)
    _emit_value(args, fld, value, f"cmpl({args.index};{args.points})")


def _cmd_atpoly(args):
    fld = field(args.q)
    h = anderson.at_polynomial(fld, args.n)
    rows = [[int(c) for c in row] for row in h.coeffs]
    payload = {"n": args.n, "coeffs_t_by_theta": rows, "meta": _meta(fld)}
    terms = [
        f"t^{i}*({format_poly(h.t_coeff(i))})"
        for i in range(h.coeffs.shape[0])
        if not h.t_coeff(i).is_zero
    ] or ["0"]
    _emit(args, payload, f"H_{args.n} = " + " + ".join(terms))


def _cmd_indices_partitions(args):
    found = []
    for p in indices.q_admissible_partitions(args.w, args.q):
        found.append(indices.partition_to_json(p))
        if args.limit and len(found) >= args.limit:
            break
    payload = {"w": args.w, "q": args.q, "partitions": found, "meta": _meta()}
    _emit(args, payload, "\n".join(str(p) for p in found) or "(none)")


def _cmd_indices_bound(args):
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
    s = parse_index(args.index)
    if args.w is not None and s.weight != args.w:
        raise DomainError(f"index {tuple(s)} has weight {s.weight}, not {args.w}")
    image = indices.g_image_to_json(indices.g_map(s))
    payload = {"index": list(s), "g_image": image, "meta": _meta()}
    _emit(args, payload, "{" + ", ".join(str(x) for x in image) + "}")


def _cmd_relations_hunt(args):
    fld = field(args.q)
    labels = [t.strip() for t in _split_top(args.labels, ",") if t.strip()]
    values = [eval_value_expr(fld, lab, args.prec) for lab in labels]
    vec = relations.ValueVector.of(labels, values)
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
    with open(args.cert, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    fld = field(int(data["q"]))
    certs = [relations.RelationCertificate.from_json(c, fld) for c in data["certificates"]]
    if not certs:
        raise DomainError(f"no certificates in {args.cert}")
    results = []
    for cert in certs:
        n2 = 2 * cert.prec
        values = [eval_value_expr(fld, lab, n2) for lab in cert.labels]
        vec = relations.ValueVector.of(cert.labels, values)
        results.append(relations.verify_relation(vec, cert))
    payload = {
        "cert_file": args.cert,
        "verified": results,
        "all_verified": all(results),
        "meta": _meta(fld),
    }
    _emit(args, payload, "\n".join(
        f"certificate {i}: {'VERIFIED' if ok else 'FAILED'}" for i, ok in enumerate(results)
    ))
    if not all(results):
        return 2
    return 0


def _cmd_relations_report(args):
    fld = field(args.q)
    if args.indices:
        fam = [parse_index(t) for t in args.indices.split(";") if t]
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

    def add_common(p, prec_required=True):
        p.add_argument("--q", type=int, required=True, help="field size")
        p.add_argument("--prec", type=int, required=prec_required, help="1/theta precision")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("zeta", help="infinity-adic multizeta value")
    add_common(p)
    p.add_argument("--index", required=True, help="comma-separated index, e.g. 2,1")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("amzv", help="alternating multizeta value")
    add_common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--signs", required=True, help="comma-separated units, e.g. -1,1")
    p.set_defaults(func=_cmd_amzv)

    p = sub.add_parser("cmpl", help="Carlitz multiple polylogarithm at k-rational points")
    add_common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--points", required=True, help="comma-separated rationals, e.g. theta,1")
    p.set_defaults(func=_cmd_cmpl)

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
    p.add_argument("--prec", type=int, required=True)
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
    p.add_argument("--prec", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_relations_report)

    pv = sub.add_parser("verify", help="verification suites")
    vsub = pv.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="skip the long relation-hunter criterion")
    p.set_defaults(func=_cmd_verify_suite)

    args = parser.parse_args(argv)
    if args.cache_dir:
        cache_mod.set_active(cache_mod.JsonCache(args.cache_dir))
    try:
        rc = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FFZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        cache_mod.set_active(None)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
