"""F_q[theta]-linear relation detection among labelled k_infinity values.

A relation candidate is a coefficient vector (c_1(theta), ..., c_m(theta))
of degree <= D annihilating the value vector through the working
precision.  Vanishing of each 1/theta digit of sum c_i v_i is one F_q-linear
equation in the m*(D+1) digit unknowns; the kernel of that system is the
certificate list.  The margin rule (available digits >= unknowns + 20)
and the reverification of every certificate at doubled precision keep
most spurious kernels out, but not a near-relation that first shows past 2N.

Values are named by labels such as ``zeta(2,1)`` or ``cmpl(2,1;theta;1)``;
one parse of a label serves ``eval_value_expr``, which evaluates it, and
``leading_valuation``, which gives its valuation in closed form from its
leading term.  ``ValueVector.evaluate`` is the one path from labels to a
value vector, for the hunter, the verifier, the reports and the acceptance
suite.  It refuses, before evaluating anything, a label that is exactly
zero or that would show no digit, so a value that cannot be told from zero
is never certified as zero.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import anderson, backend, linalg, zeta
from .errors import DomainError, MarginError, ResolutionError
from .indices import Index, coerce_index, g_map, is_g_independent
from .laurent import INF, Laurent
from .scalar import Field, Poly, RatFunc, carlitz_gamma_degree

MARGIN_DIGITS = 20


@dataclass(frozen=True)
class ValueVector:
    """Labelled k_infinity values at a common q and precision."""

    labels: tuple
    values: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.values):
            raise DomainError("one label per value required")
        if not self.values:
            raise DomainError("empty value vector")
        fld = self.values[0].field
        for label, v in zip(self.labels, self.values):
            if v.field is not fld:
                raise DomainError("mixed fields in value vector")
            if v.is_exact_zero:
                raise DomainError("exact-zero entries are not allowed in a value vector")
            if v.is_zero_to_precision:
                raise ResolutionError(f"{label} shows no digit through precision {v.prec}")
        precs = {v.prec for v in self.values}
        if len(precs) != 1 or INF in precs:
            raise MarginError(f"mixed precisions in value vector: {sorted(precs)}")

    @classmethod
    def of(cls, labels, values):
        """Build a vector, truncating everything to the common precision."""
        if any(v.is_exact_zero for v in values):  # truncated, it would only look zero
            raise DomainError("exact-zero entries are not allowed in a value vector")
        prec = min(v.prec for v in values)
        if prec == INF:
            raise DomainError("at least one value must carry finite precision")
        return cls(tuple(labels), tuple(v.truncate(prec) for v in values))

    @classmethod
    def evaluate(cls, fld: Field, labels, prec: int, valuations=None):
        """Evaluate every label once, at prec, after refusing any label that is
        exactly zero or whose ``leading_valuation`` lies past prec; a value
        whose first digit is not at its valuation is refused too.  A caller
        that has the labels' valuations passes them."""
        if valuations is None:
            valuations = [leading_valuation(fld, label) for label in labels]
        for label, want in zip(labels, valuations):
            if want == INF:
                raise DomainError(f"{label} is exactly zero, and exact-zero entries are not "
                                  "allowed in a value vector")
            if want > prec:
                raise ResolutionError(f"{label} shows no digit through precision {prec}; "
                                      f"raise prec to at least {want}")
        values = [eval_value_expr(fld, label, prec) for label in labels]
        for label, want, v in zip(labels, valuations, values):
            if v.val != want:
                seen = "no digit" if v.is_zero_to_precision else f"its first digit at {int(v.val)}"
                raise ResolutionError(f"{label} shows {seen} through precision {prec}, but "
                                      f"its leading term has valuation {want}")
        return cls.of(labels, values)

    @property
    def field(self) -> Field:
        return self.values[0].field

    @property
    def prec(self) -> int:
        return int(self.values[0].prec)


@dataclass(frozen=True)
class RelationCertificate:
    """A nonzero coefficient vector over F_q[theta] annihilating a value
    vector through the precision it was hunted at.

    residual_val = prec - max_i deg c_i, the precision of sum c_i v_i: all
    its digits at exponents <= residual_val vanish (the true residual
    valuation exceeds it)."""

    labels: tuple
    coeffs: tuple            # Poly over theta, one per label
    q: int
    degree_bound: int
    prec: int
    residual_val: int

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "coeffs": [[int(c) for c in p.coeffs] for p in self.coeffs],
            "q": self.q,
            "degree_bound": self.degree_bound,
            "prec": self.prec,
            "residual_val": self.residual_val,
        }

    @classmethod
    def from_json(cls, data, fld: Field):
        """Read ``to_json``'s dict; ValueError unless it has one coefficient
        list per label, each of integers in 0 .. q - 1."""
        if len(data["coeffs"]) != len(data["labels"]):
            raise ValueError(f"{len(data['labels'])} labels but "
                             f"{len(data['coeffs'])} coefficient lists")
        for c in data["coeffs"]:
            if not all(isinstance(x, int) and 0 <= x < fld.q for x in c):
                raise ValueError(f"coefficients {c} are not a list of integers in 0..{fld.q - 1}")
        return cls(
            labels=tuple(data["labels"]),
            coeffs=tuple(Poly(fld, c) for c in data["coeffs"]),
            q=int(data["q"]),
            degree_bound=int(data["degree_bound"]),
            prec=int(data["prec"]),
            residual_val=int(data["residual_val"]),
        )


def combine(values, coeffs) -> Laurent:
    """sum_i c_i(theta) * v_i."""
    if len(values) != len(coeffs):
        raise DomainError(f"{len(values)} values but {len(coeffs)} coefficients")
    acc = None
    for v, c in zip(values, coeffs):
        if c.is_zero:
            continue
        part = v * Laurent.from_poly(c)
        acc = part if acc is None else acc + part
    if acc is None:
        raise DomainError("all-zero coefficient vector")
    return acc


def _margin_prec(min_val: int, unknowns: int) -> int:
    """The least prec that passes the margin rule at least valuation min_val."""
    return min_val + unknowns + MARGIN_DIGITS - 1


def find_relations(vec: ValueVector, degree_bound: int):
    """Kernel basis of the digit linearisation, as certificates.

    Unknowns are the digit coefficients c_{i,e} of c_i = sum_e c_{i,e}
    theta^e with e <= degree_bound; one equation per 1/theta digit of
    sum c_i v_i from the smallest shifted valuation through prec -
    degree_bound (the window where every shifted value is still exact).
    Refuses with MarginError unless the digit count beats the unknown
    count by MARGIN_DIGITS; the error names the least prec that would, at
    the values' valuations.

    The rows outnumber the unknowns many times over and the kernel is
    usually small, so ``linalg.nullspace`` reads the rows block by block,
    shrinking the kernel of the rows seen so far.  Its basis is canonical
    (one vector per free unknown, that unknown set to 1, in unknown
    order), so the certificates do not depend on how the rows are split.
    Each digit is read once, in the rows x = min_i val v_i - D through N,
    for N = prec and D = degree_bound; column (i, e) of row x holds the
    digit of v_i at x + e, zero past N.  The kernel is that of the rows
    through N - D, where every shifted value is exact.  A kernel vector of
    degree d = max_i deg c_i is kept when its last D rows vanish up to
    N - d, since the rows through N - d are the digits of sum c_i v_i
    there; N - d is its ``residual_val``.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    n = vec.prec
    fld = vec.field
    m = len(vec.values)
    unknowns = m * (degree_bound + 1)
    min_val = min(int(v.val) for v in vec.values)
    x_lo = min_val - degree_bound
    x_hi = n - degree_bound
    rows = x_hi - x_lo + 1  # the digits available, n - min_val + 1
    if rows < unknowns + MARGIN_DIGITS:
        raise MarginError(
            f"margin rule: {rows} digits available but "
            f"{unknowns} unknowns need {unknowns + MARGIN_DIGITS}; "
            f"raise prec to {_margin_prec(min_val, unknowns)}"
        )
    digits = np.zeros((m, rows + 2 * degree_bound), dtype=np.int64)  # exponents x_lo .. n + D
    for i, v in enumerate(vec.values):
        start = int(v.val) - x_lo
        digits[i, start : start + v.coeffs.size] = v.coeffs
    # row x, column (i, e): the digit of theta^e * v_i at x, which is that of v_i at x + e
    matrix = np.lib.stride_tricks.sliding_window_view(digits, degree_bound + 1, axis=1)
    matrix = matrix.transpose(1, 0, 2).reshape(rows + degree_bound, unknowns)
    basis = linalg.nullspace(fld, matrix[:rows])
    if not basis:
        return []
    out = []
    # the last D rows read the exponents n - D + 1 .. n; through n - deg they read exact digits
    for kvec, extra in zip(basis, backend.matmul_mod(matrix[rows:], np.array(basis).T, fld).T):
        coeffs = tuple(Poly(fld, c) for c in kvec.reshape(m, degree_bound + 1))
        deg = int(max(c.degree for c in coeffs))
        if extra[: degree_bound - deg].any():
            continue  # a digit of sum c_i v_i shows through n - deg; drop the vector
        out.append(
            RelationCertificate(
                labels=vec.labels,
                coeffs=coeffs,
                q=fld.q,
                degree_bound=degree_bound,
                prec=n,
                residual_val=n - deg,
            )
        )
    return out


def verify_relation(vec: ValueVector, cert: RelationCertificate) -> bool:
    """Recheck a certificate against values recomputed at doubled (or
    better) precision: the residual must vanish through 2*prec - slack,
    with slack = degree_bound + MARGIN_DIGITS."""
    if vec.field.q != cert.q:
        raise DomainError("certificate and values live over different fields")
    if vec.prec < 2 * cert.prec:
        raise MarginError(
            f"verification wants precision >= {2 * cert.prec}, got {vec.prec}"
        )
    if all(c.is_zero for c in cert.coeffs):
        raise DomainError("zero certificate")
    slack = cert.degree_bound + MARGIN_DIGITS
    residual = combine(vec.values, cert.coeffs)
    return residual.is_zero_to_precision and residual.prec >= 2 * cert.prec - slack


def independence_report(fld: Field, family, degree_bound: int, prec: int) -> dict:
    """Hunt for relations among the Gamma-normalised multizeta values of a
    family of same-weight indices (computed through the deformation-series
    evaluator) and report the verdict.

    ``prec`` counts digits beyond the deepest valuation in the family:
    valuations can be large (a leading power-sum product can start hundreds
    of digits down), so each value's valuation is taken from its leading
    term (``leading_valuation``), and every value is evaluated once, at a
    common absolute precision deep enough for the margin rule.  A value
    whose first digit is not at that valuation raises ResolutionError, and
    the report certifies nothing.  A surviving certificate on a
    g-independent family is either a bug or a counterexample, so it must
    also reverify at quadrupled digit depth before the report flags an
    anomaly.
    """
    family = [coerce_index(s) for s in family]
    if not family:
        raise DomainError("empty family")
    g_images = [g_map(s) for s in family]
    disjoint = is_g_independent(family)
    labels = [f"gnzeta({','.join(str(x) for x in s)})" for s in family]
    valuations = [leading_valuation(fld, label) for label in labels]
    base = max(valuations) + prec
    least = _margin_prec(min(valuations), len(labels) * (degree_bound + 1)) - max(valuations)
    if prec < least:  # find_relations' margin rule at base, on this report's scale
        raise MarginError(f"margin rule: prec counts digits beyond the deepest valuation, "
                          f"{max(valuations)}; raise prec to {least}")
    survivors = find_relations(ValueVector.evaluate(fld, labels, base, valuations), degree_bound)
    for absprec in (2 * base, 4 * base):
        if survivors:
            vec = ValueVector.evaluate(fld, labels, absprec, valuations)
            survivors = [c for c in survivors if verify_relation(vec, c)]
    kind = "g-independent" if disjoint else "g-dependent"
    verdict = (f"anomaly: certificate survived reverification on a {kind} family" if survivors
               else f"consistent with the independence criterion up to (D={degree_bound}, N={prec})")
    return {"family": [list(s) for s in family], "q": fld.q, "D": degree_bound, "N": prec,
            "g_images": [sorted(t) for t in g_images], "g_independent": disjoint,
            "certificates": [c.to_json() for c in survivors], "verdict": verdict}


# ---------------------------------------------------------------------------
# labels: the one grammar that names values
# ---------------------------------------------------------------------------

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


def split_top(text: str, sep: str):
    """Split at the separators outside parentheses."""
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


def _parse_label(fld: Field, expr: str):
    """(value, valuation) of one label, from one parse: value(prec) evaluates
    it at absolute 1/theta precision prec, valuation() needs no evaluation.

    Grammar: zeta(s1,s2,...), amzv(s1,...;e1,...), cmpl(s1,...;p1;p2;...),
    logc(point), pitilde(m) for the period power pi~^{(q-1)m},
    gnzeta(s1,...) for the Gamma-normalised value via the deformation
    evaluator, and prod(expr,expr,...) for products.
    """
    m = re.match(r"^([a-z]+)\((.*)\)$", expr.strip())
    if not m:
        raise DomainError(f"malformed value expression {expr.strip()!r}")
    name, body = m.groups()
    if name == "zeta":
        s = parse_index(body)
        return lambda prec: zeta.mzv(fld, s, prec), lambda: zeta.mzv_valuation(fld, s)
    if name == "amzv":
        parts = split_top(body, ";")
        if len(parts) != 2:
            raise DomainError("amzv wants amzv(index;signs)")
        s = parse_index(parts[0])
        try:
            signs = [int(x) for x in parts[1].split(",")]
        except ValueError as exc:
            raise DomainError(f"malformed sign vector {parts[1]!r}") from exc
        zeta._validate_signs(fld, s, signs)  # here, as the valuation reads no sign
        return lambda prec: zeta.amzv(fld, s, signs, prec), lambda: zeta.mzv_valuation(fld, s)
    if name == "cmpl":
        parts = split_top(body, ";")
        s = parse_index(parts[0])
        points = [parse_ratfunc(fld, p) for p in parts[1:]]
        return (lambda prec: zeta.cmpl(fld, s, points, prec),
                lambda: zeta.cmpl_valuation(fld, s, points))
    if name == "logc":
        u = parse_ratfunc(fld, body)
        return (lambda prec: zeta.carlitz_log(fld, u, prec),
                lambda: zeta.cmpl_valuation(fld, Index((1,)), [u]))
    if name == "pitilde":
        try:
            power = int(body)
        except ValueError as exc:
            raise DomainError(f"malformed period power {body!r}") from exc
        return (lambda prec: zeta.carlitz_period_power(fld, power, prec),
                lambda: zeta.carlitz_period_valuation(fld, power))
    if name == "gnzeta":
        # gnzeta(s) = +-Gamma_{s_1} ... Gamma_{s_r} zeta(s)
        s = parse_index(body)
        gamma = sum(carlitz_gamma_degree(fld.q, n) for n in s)
        return (lambda prec: anderson.deformation_value(
                    fld, s, [anderson.at_polynomial(fld, n - 1) for n in s], prec),
                lambda: zeta.mzv_valuation(fld, s) - gamma)
    if name == "prod":
        parts = split_top(body, ",")
        if len(parts) < 2:
            raise DomainError("prod wants at least two factors")
        factors = [_parse_label(fld, sub) for sub in parts]

        def value(prec):
            # factor j at prec - sum_{i != j} val_i: the product is exact through prec
            vals = [val() for _, val in factors]
            if INF in vals:
                return Laurent.zero(fld)
            total = sum(vals)
            parts = (f(prec - total + v) for (f, _), v in zip(factors, vals))
            return reduce(operator.mul, parts).truncate(prec)
        return value, lambda: sum(val() for _, val in factors)
    raise DomainError(f"unknown value expression {name!r}")


def leading_valuation(fld: Field, expr: str):
    """A label's valuation from its leading term, with no evaluation
    (``zeta.mzv_valuation``, ``zeta.cmpl_valuation`` or -qm for pitilde(m),
    summed over a prod's factors); INF when the value is exactly zero."""
    return _parse_label(fld, expr)[1]()


def eval_value_expr(fld: Field, expr: str, prec: int) -> Laurent:
    """Evaluate one label at absolute 1/theta precision prec (grammar in
    ``_parse_label``)."""
    return _parse_label(fld, expr)[0](prec)
