"""The standing bit-identity grid: one sha256 digest per field and group of
exact outputs, over q in {2, 3, 4, 5, 8, 9, 25, 27, 65521, 65536}.

Each group is a list of results, canonicalised to JSON (refusals become
"<ErrorClass>: <message>"), and its digest is the sha256 of that JSON with
sorted keys.  ``tests/test_golden.py`` recomputes every group and compares
it with ``tests/golden.json``.  A change that keeps outputs bit-identical
leaves that file as it is.  After a change that alters an output on
purpose, re-record it with

    PYTHONPATH=src python tests/golden_grid.py

and name each changed key, and why it changed, in CHANGES.md.

The groups cover the exact rings under the evaluators -- F_q[theta]
division and gcd (through RatFunc sums and ``power_sum_exact``), F_q[t]
division (``exact_div_t``) and k_infinity's exact zeros, inverses, shifts
and Frobenius powers -- and the evaluators on top of them.  Power sums
stay at q^d <= 81, and no relation hunt is included.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

from ffzeta import anderson, zeta
from ffzeta.errors import FFZetaError
from ffzeta.laurent import Laurent
from ffzeta.scalar import BiPoly, Poly, RatFunc, bracket_L, carlitz_gamma, field

QS = (2, 3, 4, 5, 8, 9, 25, 27, 65521, 65536)
GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def _grid(a):
    """A coefficient array as its shape and the sha256 of its little-endian
    int64 bytes: a q^m-th power holds ~q^m digits, too many to print."""
    data = np.ascontiguousarray(a, dtype="<i8").tobytes()
    return [list(a.shape), hashlib.sha256(data).hexdigest()]


def _canon(x):
    """A JSON-ready form of every value the grid records."""
    if isinstance(x, Laurent):
        val, prec = (None if v == math.inf else int(v) for v in (x.val, x.prec))
        return ["Laurent", val, prec, _grid(x.coeffs)]
    if isinstance(x, (Poly, BiPoly)):
        return [type(x).__name__, _grid(x.coeffs)]
    if isinstance(x, RatFunc):
        return ["RatFunc", _grid(x.num.coeffs), _grid(x.den.coeffs)]
    if isinstance(x, anderson.GradedSeries):
        return ["GradedSeries", x.grade, x.cap, _canon(x.coeffs)]
    if isinstance(x, anderson.BlockSystem):
        return ["BlockSystem", x.weight, list(x.shapes), _canon(x.phi), _canon(x.psi),
                x.cap, x.prec]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x  # None, bool, int, str


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (FFZetaError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


class _Digits:
    """A fixed linear congruential stream of field elements, so the grid
    reads the same under every Python and numpy."""

    def __init__(self, q: int, seed: int):
        self.q = q
        self.state = seed

    def __call__(self, n: int):
        """n elements, the last one nonzero (a leading coefficient)."""
        out = []
        for _ in range(n):
            self.state = (self.state * 1103515245 + 12345) % (1 << 31)
            out.append((self.state >> 8) % self.q)
        if out and out[-1] == 0:
            out[-1] = 1
        return out


def _small(q: int) -> bool:
    return q <= 27


# ---------------------------------------------------------------------------
# the groups: each takes the field and returns a list of results
# ---------------------------------------------------------------------------

def _divmod(fld):
    digits = _Digits(fld.q, 0)
    zero = Poly.zero(fld)
    out = []
    for da, db in [(0, 0), (3, 1), (6, 2), (8, 4), (2, 5), (9, 9)]:
        a, b = Poly(fld, digits(da + 1)), Poly(fld, digits(db + 1))
        out += [divmod(a, b), a % b, (a * b).exact_div(b), divmod(zero, b)]
        out.append(_attempt((a * b + Poly.one(fld)).exact_div, b) if db else None)
    out.append(_attempt(divmod, Poly.one(fld), zero))
    # a sparse dividend
    out.append(divmod(Poly.monomial(fld, 1, min(fld.q, 300)) - Poly.one(fld), Poly(fld, digits(3))))
    return out


def _gcd(fld):
    digits = _Digits(fld.q, 1)
    zero = Poly.zero(fld)
    out = []
    for d in (1, 2, 4):
        a, b, c = (Poly(fld, digits(k + 1)) for k in (d + 1, d, d))
        out += [(a * c).gcd(b * c), a.gcd(b), a.gcd(zero), zero.gcd(b), c.monic()]
    out.append(zero.gcd(zero))
    return out


def _ratfunc(fld):
    digits = _Digits(fld.q, 2)
    theta = Poly.gen(fld)
    total = RatFunc.zero(fld)
    out = []
    for k in range(1, 6):
        den = theta ** k + Poly(fld, digits(k))
        term = RatFunc(Poly(fld, digits(k)), den.scale(digits(1)[0]))
        total = total + term * term - RatFunc.from_poly(theta)
        out.append(total)
    out.append(total / RatFunc(theta + Poly.one(fld), theta ** 2 + Poly.one(fld)))
    out.append(total ** -2 if not total.is_zero else None)
    return out


def _power_sums(fld):
    q, out = fld.q, []
    d = 0
    while q ** d <= 81:
        out += [zeta.power_sum_exact(fld, d, n) for n in (1, 3)]
        d += 1
    return out


def _exact_div_t(fld):
    digits = _Digits(fld.q, 3)
    out = []
    for rows, cols, dt in [(1, 1, 0), (3, 2, 1), (4, 5, 2), (2, 3, 3)]:
        quo = BiPoly(fld, [digits(cols) for _ in range(rows)])
        den = BiPoly.in_t(Poly(fld, digits(dt + 1)))
        num = quo * den
        out += [num.exact_div_t(den), _attempt((num + BiPoly.one(fld)).exact_div_t, den),
                _attempt(BiPoly.one(fld).exact_div_t, den) if dt else None,
                BiPoly.zero(fld).exact_div_t(den)]
    out.append(_attempt(BiPoly.one(fld).exact_div_t, BiPoly.zero(fld)))
    out.append(_attempt(BiPoly.one(fld).exact_div_t, BiPoly.from_poly(Poly.gen(fld))))
    if fld.q <= 9:  # criterion 1's closed form for H_{q^2-q}
        q, n = fld.q, fld.q * fld.q - fld.q
        num = BiPoly.in_t(carlitz_gamma(fld, n + 1)) * BiPoly.t_minus_theta_power(fld, q, q - 1)
        out.append(num.exact_div_t(BiPoly.in_t(bracket_L(fld, 1)) ** (q - 1)))
    return out


def _laurent(fld):
    digits = _Digits(fld.q, 4)
    theta = Poly.gen(fld)
    zero, one = Laurent.zero(fld), Laurent.one(fld)
    fuzz = Laurent.zero_to_prec(fld, 7)
    x = Laurent(fld, -2, digits(9), 12)
    exact = Laurent.from_poly(Poly(fld, digits(4)))
    mono = Laurent.monomial(fld, digits(1)[0] or 1, -3)
    out = []
    for r in [RatFunc(Poly.one(fld), theta + Poly.one(fld)),
              RatFunc(Poly(fld, digits(3)), Poly(fld, digits(5))),
              RatFunc(theta ** 4, theta ** 2 + theta),
              RatFunc.from_poly(theta ** 3)]:
        out += [Laurent.from_ratfunc(r, prec) for prec in (-6, -1, 0, 5, 40)]
    out.append(Laurent.from_ratfunc(RatFunc.zero(fld), 10))
    for y in (exact, mono, x, zero, fuzz):
        out += [_attempt(y.inv), _attempt(y.inv, 20), _attempt(y.inv, 5), _attempt(y.inv, -4)]
    for k in (-5, 0, 3):
        out += [zero.shift(k), fuzz.shift(k), x.shift(k), exact.shift(k)]
    for m in (0, 1, 2) if _small(fld.q) else (0, 1):
        for y in (zero, fuzz, x, exact, mono):
            out += [y.qth_power(m), y.qth_power(m, 30), y.qth_power(m, -30)]
    for a in (zero, fuzz, one, x, exact):
        for b in (zero, fuzz, x, mono):
            out += [a + b, a - b, a * b]
    out += [zero.scale(3), fuzz.scale(0), x.scale(fld.q - 1), x ** 3, exact ** 2]
    h = BiPoly(fld, [digits(3), digits(3)])
    out += [Laurent.from_bipoly(h, a, b, prec) for a, b in [(1, 2), (3, 1)]
            for prec in (-8, -2, 4, float("inf"))]
    return out


def _point(fld, k):
    theta = Poly.gen(fld)
    one = Poly.one(fld)
    return [RatFunc(theta, theta ** 2 + one), RatFunc(one, theta) + RatFunc.one(fld),
            RatFunc.from_poly(theta), RatFunc.one(fld)][k]


def _evaluators(fld):
    q = fld.q
    prec = 60 if _small(q) else q + 20
    out = []
    for s in [(1,), (2,), (1, 2), (2, 1), (1, 1, 1)]:
        out.append(zeta.mzv(fld, s, prec))
    minus = q - 1
    for s, eps in [((1,), (minus,)), ((2, 1), (minus, 1)), ((1, 1, 2), (1, minus, minus))]:
        out.append(zeta.amzv(fld, s, eps, prec))
    for s, ks in [((1,), (0,)), ((1,), (1,)), ((2, 1), (2, 3)), ((2, 1, 2), (2, 3, 1))]:
        out.append(_attempt(zeta.cmpl, fld, s, [_point(fld, k) for k in ks], prec))
    out += [zeta.carlitz_period_power(fld, m, prec) for m in (1, 2)]
    return out


def _anderson(fld):
    q = fld.q
    out = [anderson.at_polynomial(fld, n) for n in range(min(q * q + 2, 14))]
    fam = [(4,), (3, 1)]
    inputs = [[anderson.at_polynomial(fld, sj - 1) for sj in s] for s in fam]
    prec = 40 if _small(q) else q + 10
    if q <= 9:
        for coeffs in ([1, 1], [BiPoly.in_t(Poly(fld, [1, 1])), [0, 2 % q]]):
            system = anderson.build_block_system(fld, fam, inputs, coeffs, 6, prec)
            out += [system, anderson.verify_difference_system(system)]
    for s in [(3, 1), (1, 2), (2, 1, 1)]:
        inputs = [anderson.at_polynomial(fld, sj - 1) for sj in s]
        out.append(_attempt(anderson.vanishing_order_profile, fld, s, inputs, 8, prec))
    theta, one = Poly.gen(fld), Poly.one(fld)
    dmax = 3 if q <= 9 else 1
    points = [(1, [theta]), (1, [0])]
    if _small(q):  # at q ~ 2^16, q-th powers make each of these a product of degree q
        points += [(1, [RatFunc(one, theta)]), (1, [RatFunc(one, theta + one)]),
                   (2, [theta, 1]), (2, [1, RatFunc(theta, theta + one)])]
    for n, point in points:
        out.append(anderson.torsion_search(fld, n, point, dmax if n == 1 else min(dmax, 2)))
    return out


GROUPS = {
    "divmod": _divmod,
    "gcd": _gcd,
    "ratfunc": _ratfunc,
    "power_sum_exact": _power_sums,
    "exact_div_t": _exact_div_t,
    "laurent": _laurent,
    "evaluators": _evaluators,
    "anderson": _anderson,
}


def digest(q: int, group: str) -> str:
    value = _canon(GROUPS[group](field(q)))
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digests(q: int) -> dict:
    return {f"q{q}/{group}": digest(q, group) for group in GROUPS}


def record() -> dict:
    out = {}
    for q in QS:
        out.update(digests(q))
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out


if __name__ == "__main__":
    print(f"recorded {len(record())} digests in {GOLDEN}")
