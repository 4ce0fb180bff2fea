"""Evaluators for power sums, infinity-adic MZVs, alternating MZVs, Carlitz
multiple polylogarithms at k-rational points, and powers of the Carlitz
period.

Two independent routes to power sums coexist on purpose: an exact
enumeration over monic polynomials (budget-limited) and a truncated-series
digit formula.  The series route expands a^{-n} = theta^{-nd} (1+u)^{-n}
over a monic a of degree d and sums coefficientwise over F_q; a monomial
survives only when every one of the d coefficient variables appears with
exponent a positive multiple of q-1, which both yields a finite DP for the
digits and proves the valuation bound

    val(S_d(n)) >= n*d + (q-1)*d*(d+1)/2.

That quadratic growth is what lets multizeta sums truncate after O(sqrt(N))
degree layers.

The DP state after layer i is the same for every degree d >= i, so one
pass per (q, n) yields the digits of S_d(n) for every degree whose bound
is <= prec.  The memo keeps the digits of the highest prec seen for each
(q, n) and slices them for lower ones.  A lone first call for one degree
therefore pays for the whole pass; ``mzv`` and ``amzv`` walk every degree
anyway.
"""

from __future__ import annotations

import math

import numpy as np

from . import backend, cache
from .errors import BudgetError, ConvergenceError, DomainError, InvalidIndexError
from .indices import Index, coerce_index
from .laurent import INF, Laurent
from .scalar import BiPoly, Field, Poly, RatFunc, bracket_L, enumerate_monic

DEFAULT_BUDGET = 10 ** 6

_PS_EXACT_MEMO: dict = {}
_PS_SERIES_MEMO: dict = {}
_L_INV_MEMO: dict = {}


def _finite_prec(prec) -> int:
    """prec as an int; a truncated series has no infinite precision."""
    try:
        return int(prec)
    except (OverflowError, ValueError):
        raise DomainError(f"prec must be finite, got {prec!r}; "
                          "power_sum_exact gives exact values") from None


def power_sum_val_bound(q: int, d: int, n: int) -> int:
    """Proven lower bound for val(S_d(n))."""
    return n * d + (q - 1) * d * (d + 1) // 2


def power_sum_exact(fld: Field, d: int, n: int, budget: int = DEFAULT_BUDGET) -> RatFunc:
    """S_d(n) = sum of a^{-n} over monic a of degree d, as a reduced fraction.

    Enumerates all q^d monic polynomials (raises BudgetError beyond the
    budget) and merges reciprocals pairwise so gcd reduction keeps the
    intermediate degrees balanced.
    """
    if d < 0 or n < 1:
        raise InvalidIndexError("power_sum_exact wants d >= 0 and n >= 1")
    key = (fld.q, d, n)
    hit = _PS_EXACT_MEMO.get(key)
    if hit is not None:
        return hit
    store = cache.get_active()
    if store is not None:
        payload = store.get("power_sum", key)
        if payload is not None:
            result = cache.ratfunc_from_json(fld, payload)
            _PS_EXACT_MEMO[key] = result
            return result
    if fld.q ** d > budget:
        raise BudgetError(
            f"power_sum_exact: q^d = {fld.q ** d} monic enumerations exceed the budget {budget}"
        )
    one = Poly.one(fld)
    terms = [RatFunc(one, a ** n) for a in enumerate_monic(fld, d, budget)]
    while len(terms) > 1:
        merged = []
        for i in range(0, len(terms) - 1, 2):
            merged.append(terms[i] + terms[i + 1])
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    result = terms[0]
    _PS_EXACT_MEMO[key] = result
    if store is not None:
        store.put("power_sum", key, cache.ratfunc_to_json(result))
    return result


def _binom_table(rows: int, p: int) -> np.ndarray:
    table = np.zeros((rows, rows), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, rows):
        table[i, 1:i + 1] = (table[i - 1, 1:i + 1] + table[i - 1, 0:i]) % p
    return table


def _power_sum_digits(fld: Field, d: int, n: int, prec: int) -> np.ndarray:
    """Digits of theta^{n*d} * S_d(n) for 1/theta exponents 0..prec-n*d.

    One DP pass per (q, n) yields every degree whose valuation bound is
    <= prec.  The memo keeps the digits of the highest prec seen; a lower
    prec slices them, a higher one reruns the pass and replaces the entry
    whole (never mutated, so readers on other threads see either one).
    """
    key = (fld.q, n)
    hit = _PS_SERIES_MEMO.get(key)
    if hit is None or hit[0] < prec:
        d_max = d
        while power_sum_val_bound(fld.q, d_max + 1, n) <= prec:
            d_max += 1
        binom = _binom_table(prec + 1, fld.p)
        hit = (prec, backend.power_sum_digits(d_max, n, fld.q, prec - n, binom, fld.p))
        _PS_SERIES_MEMO[key] = hit
    return hit[1][d - 1][: prec - n * d + 1]


def power_sum_series(fld: Field, d: int, n: int, prec) -> Laurent:
    """S_d(n) as a Laurent approximation, exact through prec.

    S_0(n) = 1 exactly; for d >= 1 the digits come from the coefficient DP
    (no enumeration), so this works far beyond the exact-path budget.
    """
    if d < 0 or n < 1:
        raise InvalidIndexError("power_sum_series wants d >= 0 and n >= 1")
    if d == 0:
        return Laurent.one(fld)
    if power_sum_val_bound(fld.q, d, n) > prec:
        return Laurent.zero_to_prec(fld, prec)
    digits = _power_sum_digits(fld, d, n, _finite_prec(prec))
    return Laurent(fld, n * d, digits, prec)


# ---------------------------------------------------------------------------
# multizeta and alternating multizeta
# ---------------------------------------------------------------------------

def _validate_signs(fld: Field, s: Index, eps):
    if len(eps) != s.depth:
        raise InvalidIndexError(
            f"sign vector length {len(eps)} does not match depth {s.depth}"
        )
    out = []
    for e in eps:
        c = int(e)
        if not 0 <= c < fld.q:
            c = fld.from_int(c)
        if c == 0:
            raise InvalidIndexError("sign vector entries must be units of F_q")
        out.append(c)
    return out


def _sum_over_degree_tuples(fld: Field, s: Index, prec, weight_fn):
    """Sum over d_1 > ... > d_r >= 0 of weight(d) * prod_j S_{d_j}(s_j),
    keeping every term whose valuation lower bound is <= prec."""
    q = fld.q
    r = s.depth
    total = Laurent.zero(fld)
    degrees = [0] * r

    def bound(j, d):
        return power_sum_val_bound(q, d, s[j])

    def rec(j, lo, acc_bound, factor):
        nonlocal total
        # position j (0-based from the right: j = r-1 is s_r), d_j >= lo
        pos = r - 1 - j
        d = lo
        while acc_bound + bound(pos, d) <= prec:
            degrees[pos] = d
            term = factor * power_sum_series(fld, d, s[pos], prec)
            if j == r - 1:
                total = total + weight_fn(degrees, term)
            else:
                rec(j + 1, d + 1, acc_bound + bound(pos, d), term)
            d += 1

    rec(0, 0, 0, Laurent.one(fld))
    return total.truncate(prec)


def mzv(fld: Field, s, prec) -> Laurent:
    """zeta_A(s) = sum over monic tuples with strictly decreasing degrees,
    evaluated layer by layer through power sums; every omitted term has
    valuation > prec."""
    s = coerce_index(s)
    return _sum_over_degree_tuples(fld, s, _finite_prec(prec), lambda degs, term: term)


def amzv(fld: Field, s, eps, prec) -> Laurent:
    """zeta_A(s; eps): the degree-d_j layer of slot j is weighted by
    eps_j^{d_j}."""
    s = coerce_index(s)
    signs = _validate_signs(fld, s, eps)

    def weight(degs, term):
        c = 1
        for e, d in zip(signs, degs):
            c = fld.mul(c, fld.pow(e, d))
        return term.scale(c)

    return _sum_over_degree_tuples(fld, s, _finite_prec(prec), weight)


# ---------------------------------------------------------------------------
# Carlitz multiple polylogarithms at k-rational points
# ---------------------------------------------------------------------------

def _as_ratfunc(fld: Field, u) -> RatFunc:
    if isinstance(u, RatFunc):
        return u
    if isinstance(u, Poly):
        return RatFunc.from_poly(u)
    if isinstance(u, int):
        return RatFunc.constant(fld, u)
    raise ConvergenceError(f"cannot interpret CMPL point {u!r}")


def infty_norm_degree(item):
    """log_q of ||Q||_infty: max theta-degree over the t-coefficients (a
    RatFunc contributes deg num - deg den); -inf for zero."""
    if isinstance(item, BiPoly):
        return item.theta_degree
    if isinstance(item, Poly):
        return item.degree if item.var == "theta" else (0 if not item.is_zero else -math.inf)
    if isinstance(item, RatFunc):
        return item.infty_degree()
    if isinstance(item, int):
        return -math.inf if item == 0 else 0
    raise ConvergenceError(f"cannot take the infinity norm of {item!r}")


def convergence_check(fld: Field, s, items) -> bool:
    """Strict sufficient condition for the nested series to converge:
    ||Q_j||_infty < q^{q s_j / (q-1)} for every slot, checked in integer
    arithmetic as deg * (q-1) < q * s_j.  Boundary inputs are rejected."""
    s = coerce_index(s)
    if len(items) != s.depth:
        raise InvalidIndexError("one point per index entry required")
    for j, item in enumerate(items):
        m = infty_norm_degree(item)
        if m == -math.inf:
            continue
        if m * (fld.q - 1) >= fld.q * s[j]:
            return False
    return True


def _l_power_inverse(fld: Field, i: int, s: int, prec) -> Laurent:
    """1/L_i^s exact through prec (memoized per precision high-water mark)."""
    key = (fld.q, i, s)
    hit = _L_INV_MEMO.get(key)
    if hit is not None and hit.prec >= prec:
        return hit.truncate(prec)
    ls = bracket_L(fld, i) ** s
    result = Laurent.from_poly(ls).inv(prec=prec)
    _L_INV_MEMO[key] = result
    return result


def cmpl(fld: Field, s, points, prec) -> Laurent:
    """Li_s(u_1, ..., u_r) over decreasing Frobenius heights i_1 > ... > i_r,
    with each slot contributing u_j^{q^{i_j}} / L_{i_j}^{s_j}."""
    s = coerce_index(s)
    prec = _finite_prec(prec)
    us = [_as_ratfunc(fld, u) for u in points]
    if len(us) != s.depth:
        raise InvalidIndexError("one point per index entry required")
    for j, u in enumerate(us):
        if u.is_zero:
            return Laurent.zero(fld)
    if not convergence_check(fld, s, us):
        bad = [
            j
            for j, u in enumerate(us)
            if u.infty_degree() * (fld.q - 1) >= fld.q * s[j]
        ]
        raise ConvergenceError(
            f"CMPL series diverges: convergence condition fails at slot(s) {bad}"
        )
    q = fld.q
    r = s.depth
    vus = [-u.infty_degree() for u in us]  # valuations of the points

    def phi(j, i):
        # exact valuation of u_j^{q^i} / L_i^{s_j}
        return q ** i * vus[j] + s[j] * ((q ** (i + 1) - q) // (q - 1))

    def factor(j, i, out_prec):
        deg_l = s[j] * ((q ** (i + 1) - q) // (q - 1))
        linv = _l_power_inverse(fld, i, s[j], out_prec - q ** i * vus[j])
        u_prec = out_prec - deg_l
        upart = Laurent.from_ratfunc(us[j], max(u_prec // q ** i + 1, vus[j]))
        return upart.qth_power(i, out_prec=u_prec) * linv

    total = Laurent.zero(fld)
    chosen = [0] * r

    def rec(pos_from_right, lo, acc):
        nonlocal total
        pos = r - 1 - pos_from_right
        i = lo
        while acc + phi(pos, i) <= prec:
            chosen[pos] = i
            if pos == 0:
                term_val = acc + phi(pos, i)
                term = Laurent.one(fld)
                for j in range(r):
                    term = term * factor(j, chosen[j], prec - (term_val - phi(j, chosen[j])))
                total = total + term
            else:
                rec(pos_from_right + 1, i + 1, acc + phi(pos, i))
            i += 1

    rec(0, 0, 0)
    return total.truncate(prec)


def carlitz_log(fld: Field, u, prec) -> Laurent:
    """log_C(u) = Li_{(1)}(u) = sum u^{q^i} / L_i."""
    return cmpl(fld, Index((1,)), [u], prec)


# ---------------------------------------------------------------------------
# powers of the Carlitz period
# ---------------------------------------------------------------------------

def carlitz_period_power(fld: Field, m: int, prec) -> Laurent:
    """pi~^{(q-1)m}, the only powers of the period that live in k_infinity.

    Computed as [(-theta)^q * prod_{i>=1} (1 - theta^{1-q^i})^{-(q-1)}]^m,
    truncating the product once an omitted factor differs from 1 beyond the
    working precision.
    """
    if m <= 0:
        raise InvalidIndexError("carlitz_period_power wants m >= 1")
    q = fld.q
    prec = _finite_prec(prec)
    work = prec + q * m
    unit = Laurent.one(fld)
    i = 1
    while q ** i - 1 <= work:
        gap = q ** i - 1
        coeffs = np.zeros(gap + 1, dtype=np.int64)
        coeffs[0] = 1
        coeffs[gap] = fld.neg(1)
        unit = (unit * Laurent(fld, 0, coeffs, INF)).truncate(work)
        i += 1
    unit_inv_pow = unit.inv(prec=work) ** ((q - 1) * m)
    sign = fld.pow(fld.from_int(-1), q * m)
    return unit_inv_pow.scale(sign).shift(-q * m).truncate(prec)
