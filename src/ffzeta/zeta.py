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
is <= prec.  Its memo entry keeps the digits of the highest prec seen
for each (q, n) and serves lower ones by slicing.  A lone first call for
one degree therefore pays for the whole pass; ``mzv`` and ``amzv`` walk
every degree anyway.  Exact power sums, the passes and 1/L_i^s are
memoised through ``cache.remember``, the package's one memo policy.

mzv, amzv, cmpl and the deformation series in ``anderson`` are nested
sums over l_1 > ... > l_r of one factor per slot, truncated by an additive
valuation bound.  One suffix-sum walk, ``_nested_sum``, serves them all:
it calls each (slot, l) factor once, keeps slot j exact through its cap_j,
and returns every partial sum.  A caller gives a per-slot bound and factor,
a sign weight eps_j^l included.
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

    def enumerate_and_merge():
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
        return terms[0]

    return cache.recall("power_sum", (fld.q, d, n), enumerate_and_merge, cache.ratfunc_to_json,
                        lambda payload: cache.ratfunc_from_json(fld, payload))


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
    prec slices them, a higher one reruns the pass.
    """
    def run_pass(_):
        d_max = d
        while power_sum_val_bound(fld.q, d_max + 1, n) <= prec:
            d_max += 1
        binom = _binom_table(prec + 1, fld.p)
        return prec, backend.power_sum_digits(d_max, n, fld.q, prec - n, binom, fld.p)

    hit = cache.remember("power_sum_series", (fld.q, n), lambda e: e[0] >= prec, run_pass)
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


def _nested_sum(r: int, lo: int, bound, factor, prec: int) -> list:
    """[P_0[lo], ..., P_{r-1}[lo]], each exact through prec and truncated
    to it, or None where a partial has no term (its caller knows the zero).

    P_j[x] = sum over l >= x of factor(j, l, p) * P_{j-1}[l+1], P_{-1} = 1,
    is a running sum from the top l down: slot 0 holds the largest index.
    bound(j, l) <= val factor(j, l, .) must increase in l (the series'
    convergence condition).  Slot j keeps its sums exact through cap_j =
    max(prec, cap_{j+1} - bound(j+1, lo)), cap_{r-1} = prec.  With above(l)
    = sum_{i=1..j} bound(j-i, l+i), the least valuation of slots 0..j-1
    above l, it visits l from lo while bound(j, l) + above(l) <= cap_j and
    calls factor(j, l, .) once, for p = cap_j - above(l).  Only *, + and
    .truncate act on factors, so Laurent and GradedSeries serve alike.
    """
    caps = [prec] * r
    for j in range(r - 2, -1, -1):
        caps[j] = max(prec, caps[j + 1] - bound(j + 1, lo))
    partials, below = [], None
    for j, cap in enumerate(caps):
        def above(l):
            return sum(bound(j - i, l + i) for i in range(1, j + 1))

        top = lo
        while bound(j, top) + above(top) <= cap:
            top += 1
        # sums[l - lo] = P_j[l]; P_{j-1}[l+1] exists for every visited l,
        # since above(l) <= cap_j - bound(j, lo) <= cap_{j-1}
        sums, acc = [None] * (top - lo), None
        for l in range(top - 1, lo - 1, -1):
            term = factor(j, l, cap - above(l))
            if j:
                term = term * below[l + 1 - lo]
            acc = (term if acc is None else acc + term).truncate(cap)
            sums[l - lo] = acc
        partials.append(None if acc is None else acc.truncate(prec))
        below = sums
    return partials


def _nested_value(fld: Field, r: int, lo: int, bound, factor, prec: int) -> Laurent:
    """The whole nested sum: the last partial of ``_nested_sum``."""
    last = _nested_sum(r, lo, bound, factor, prec)[-1]
    return Laurent.zero_to_prec(fld, prec) if last is None else last


def _power_sum_walk(fld: Field, s: Index, prec, signs=None) -> Laurent:
    """Sum over d_1 > ... > d_r >= 0 of prod_j S_{d_j}(s_j) signs[j]^{d_j}.
    Every power sum is asked for the full prec: the first call for a (q, n)
    sets how far its DP pass runs, and a lower one could make a later call
    rerun it."""
    prec = _finite_prec(prec)

    def factor(j, d, p):
        layer = power_sum_series(fld, d, s[j], prec)
        return layer if signs is None else layer.scale(fld.pow(signs[j], d))

    return _nested_value(fld, s.depth, 0, lambda j, d: power_sum_val_bound(fld.q, d, s[j]),
                         factor, prec)


def mzv(fld: Field, s, prec) -> Laurent:
    """zeta_A(s) = sum over monic tuples with strictly decreasing degrees,
    evaluated layer by layer through power sums; every omitted term has
    valuation > prec."""
    return _power_sum_walk(fld, coerce_index(s), prec)


def amzv(fld: Field, s, eps, prec) -> Laurent:
    """zeta_A(s; eps): the degree-d_j layer of slot j is weighted by
    eps_j^{d_j}."""
    s = coerce_index(s)
    return _power_sum_walk(fld, s, prec, _validate_signs(fld, s, eps))


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


def _diverging_slots(fld: Field, s: Index, items) -> list:
    """The slots j that break ||Q_j||_infty < q^{q s_j / (q-1)}, checked in
    integer arithmetic as deg * (q-1) < q * s_j; a zero item never does."""
    if len(items) != s.depth:
        raise InvalidIndexError("one point per index entry required")
    return [j for j, item in enumerate(items)
            if infty_norm_degree(item) * (fld.q - 1) >= fld.q * s[j]]


def _require_convergence(fld: Field, s: Index, items, series: str) -> None:
    bad = _diverging_slots(fld, s, items)
    if bad:
        raise ConvergenceError(
            f"{series} series diverges: convergence condition fails at slot(s) {bad}"
        )


def convergence_check(fld: Field, s, items) -> bool:
    """Strict sufficient condition for the nested series to converge:
    ||Q_j||_infty < q^{q s_j / (q-1)} for every slot, checked in integer
    arithmetic as deg * (q-1) < q * s_j.  Boundary inputs are rejected."""
    return not _diverging_slots(fld, coerce_index(s), items)


def _l_power_inverse(fld: Field, i: int, s: int, prec) -> Laurent:
    """1/L_i^s exact through prec (memoized per precision high-water mark)."""
    # 1/L_i^s starts at theta^{-s deg L_i}: decided before the memo, so a
    # request with no digit through prec raises whatever the memo holds
    if i > 0 and prec < s * bracket_L(fld, i).degree:
        raise DomainError("no digits representable at the requested precision")
    hit = cache.remember("l_power_inverse", (fld.q, i, s), lambda e: e.prec >= prec,
                         lambda _: Laurent.from_poly(bracket_L(fld, i) ** s).inv(prec=prec))
    return hit.truncate(prec)


def cmpl(fld: Field, s, points, prec) -> Laurent:
    """Li_s(u_1, ..., u_r) over decreasing Frobenius heights i_1 > ... > i_r,
    with each slot contributing u_j^{q^{i_j}} / L_{i_j}^{s_j}."""
    s = coerce_index(s)
    prec = _finite_prec(prec)
    us = [_as_ratfunc(fld, u) for u in points]
    _require_convergence(fld, s, us, "CMPL")
    if any(u.is_zero for u in us):
        return Laurent.zero(fld)
    q = fld.q
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

    return _nested_value(fld, s.depth, 0, phi, factor, prec)


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
