"""Evaluators for power sums, infinity-adic MZVs, alternating MZVs, Carlitz
multiple polylogarithms at k-rational points, and powers of the Carlitz
period.

Two independent routes to power sums coexist on purpose: an exact
enumeration over monic polynomials (budget-limited) and the
Anderson-Thakur interpolation identity Gamma_n S_d(n) = H_{n-1}^{(d)}(theta)
/ L_d^n (Ann. of Math. 132 (1990); Thakur, Function Field Arithmetic,
ch. 5), whose cost grows with the window, not with d.  Summing a^{-n} =
theta^{-nd} (1+u)^{-n} over the monic a of degree d keeps only monomials
in which each of the d coefficient variables has an exponent that is a
positive multiple of q-1, which proves the valuation bound

    val(S_d(n)) >= n*d + (q-1)*d*(d+1)/2.

The degrees of H_{n-1} give a second one, q ((1 + s_q(n-1)) q^d - n)/(q-1)
with s_q the base-q digit sum, exact for n <= q and growing like q^d;
``power_sum_val_bound`` is the larger of the two.  It decides which power
sums vanish through prec, and lets multizeta sums truncate after
O(log_q N) degree layers.  S_d(n) is
memoised per (q, d, n) at the highest prec seen; it and the exact power
sums go through ``cache.remember``, the package's one memo policy.

L_i, Gamma_n and pi~^{q-1} are each a power of theta times a product of
factors (1 - theta^{-gap}), so every division by them (the power sums,
the twisted walk, ``carlitz_period_power``) is a few strided running sums,
``backend.unit_quotient_mod``, with no memo and no Newton reciprocal.

mzv, amzv, cmpl and the deformation series in ``anderson`` are nested
sums over l_1 > ... > l_r of one factor per slot, truncated by an additive
valuation bound.  One suffix-sum walk, ``_nested_sum``, serves them all:
it calls each (slot, l) factor once, keeps slot j exact through its cap_j,
and returns every partial sum.  A caller gives a per-slot bound and factor,
a sign weight eps_j^l included.  Two walks give it those, both here:

* the power-sum walk, ``_power_sum_walk``, over degrees d_j with factors
  S_{d_j}(s_j), serves mzv and amzv.  Its slot j sums depend only on q,
  s_1..s_{j+1}, their signs and prec, so the memo ``power_sum_walk`` holds
  the running sums of every prefix seen, one entry per (q, index prefix,
  sign prefix) at the highest prec seen, and a call sweeps only the slots
  past its longest prefix already walked;
* the twisted walk, ``_deformation_partials``, over Frobenius heights
  with terms Q_j^{(l)}(theta^{q^P}) / L_{l-P}^{q^P s_j} at the point
  theta^{q^P}, P = 0 or 1, serves the
  deformation values and vanishing orders of ``anderson``, and cmpl and
  carlitz_log as its constant-input case: a constant's twist is its
  q^l-th power, and a step down divides by one bracket theta - theta^{q^u}.
"""

from __future__ import annotations

import numpy as np

from . import backend, cache
from .errors import BudgetError, ConvergenceError, DomainError, InvalidIndexError
from .indices import Index, coerce_index
from .laurent import INF, Laurent
from .scalar import (BiPoly, Field, Poly, RatFunc, base_q_digits, carlitz_gamma_degree,
                     enumerate_monic)


def _finite_prec(prec) -> int:
    """prec as an int; a truncated series has no infinite precision."""
    try:
        return int(prec)
    except (OverflowError, ValueError):
        raise DomainError(f"prec must be finite, got {prec!r}; "
                          "power_sum_exact gives exact values") from None


def power_sum_val_bound(q: int, d: int, n: int) -> int:
    """Proven lower bound for val(S_d(n)): the larger of the quadratic bound
    n d + (q-1) d (d+1)/2 and the floor q ((1 + s_q(n-1)) q^d - n)/(q-1),
    with s_q the base-q digit sum.

    The floor comes from Gamma_n S_d(n) = H_{n-1}^{(d)}(theta) / L_d^n: a
    monomial t^i theta^j of H_{n-1} lands at theta^{i + j q^d}, so
    val S_d(n) >= n e_d + deg Gamma_n - deg_t H_{n-1} - q^d deg_theta H_{n-1},
    e_d = deg L_d = q (q^d - 1)/(q-1).  Induction on the recursion of
    ``anderson._at_tower`` gives deg_t H_m <= deg Gamma_{m+1} and
    deg_theta H_m <= sum m_i e_i = q (m - s_q(m))/(q-1) over the base-q
    digits m_i of m, which leaves the floor.  It is exact for n <= q, where
    S_d(n) = 1/l_d^n (Carlitz), and it grows like q^d, so the walk stops
    after O(log_q prec) degrees.  It reads no H: a zero through prec costs
    no tower."""
    floor = q * ((1 + sum(base_q_digits(n - 1, q))) * q ** d - n) // (q - 1)
    return max(n * d + (q - 1) * d * (d + 1) // 2, floor)


def power_sum_exact(fld: Field, d: int, n: int) -> RatFunc:
    """S_d(n) = sum of a^{-n} over monic a of degree d, as a reduced fraction.

    Enumerates all q^d monic polynomials (``enumerate_monic`` raises
    BudgetError past scalar.MONIC_BUDGET) and merges reciprocals pairwise
    so gcd reduction keeps the intermediate degrees balanced.
    """
    if d < 0 or n < 1:
        raise InvalidIndexError("power_sum_exact wants d >= 0 and n >= 1")

    def enumerate_and_merge():
        one = Poly.one(fld)
        terms = [RatFunc(one, a ** n) for a in enumerate_monic(fld, d)]
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


def _divide_by_units(x: Laurent, factors) -> Laurent:
    """x / prod (1 - theta^{-gap})^m over the (gap, m) in factors, exact
    through x.prec, which is finite: the quotient by a unit with leading
    digit 1 keeps x's valuation and precision."""
    if x.is_zero_to_precision:
        return x
    # the window runs to x.prec: Laurent drops trailing zeros, and a digit
    # below prec may be zero in x but not in the quotient
    window = np.zeros(int(x.prec) - int(x.val) + 1, dtype=np.int64)
    window[: x.coeffs.size] = x.coeffs
    return Laurent(x.field, x.val, backend.unit_quotient_mod(window, factors, x.field), x.prec)


def _power_sum_from_identity(fld: Field, d: int, n: int, prec=None) -> Laurent:
    """S_d(n) for d >= 1, exact through prec, from the interpolation
    identity Gamma_n S_d(n) = H_{n-1}^{(d)}(theta) / L_d^n.

    With D_i = theta^{i q^i} prod_{j<i} (1 - theta^{q^j-q^i}) and n - 1 =
    sum n_i q^i, Gamma_n = prod D_i^{n_i} is theta^{deg Gamma_n} times a unit
    with leading digit 1, and so is (-1)^d L_d = theta^{e_d} prod_{j<=d} (1 -
    theta^{1-q^j}).  With c = n e_d + deg Gamma_n, the numerator is theta^{-c}
    H_{n-1}^{(d)}(theta), whose monomial h_ij t^i theta^j
    ``Laurent.from_bipoly`` places at 1/theta-exponent c - i - j q^d,
    reading only the columns that reach prec (with no prec, the top column
    and what collides with it: the first digit).  Dividing it by both
    units, strided running sums in ``backend``, gives S_d(n) up to the sign
    (-1)^{nd}.  The memo of ``power_sum_series`` serves repeated S_d(n).
    """
    from . import anderson  # anderson imports this module: bound at call time

    try:
        h = anderson.at_polynomial(fld, n - 1)
    except BudgetError as exc:
        raise BudgetError(f"power_sum_series: index entry {n}: {exc}; S_{d}({n}) needs no H "
                          f"below prec {power_sum_val_bound(fld.q, d, n)}") from None
    q = fld.q
    step = q ** d  # a Python int: q^d leaves int64 long before the bound stops d
    units = [(q ** j - 1, n) for j in range(1, d + 1)]
    for i, digit in enumerate(base_q_digits(n - 1, q)):
        units += [(q ** i - q ** j, digit) for j in range(i)]
    c = n * (q * (step - 1) // (q - 1)) + carlitz_gamma_degree(q, n)
    prec = c - (h.coeffs.shape[1] - 1) * step if prec is None else prec
    numer = Laurent.from_bipoly(h, 1, step, prec - c).shift(c)
    value = _divide_by_units(numer, units)
    return -value if n * d % 2 else value


def mzv_valuation(fld: Field, s) -> int:
    """val zeta_A(s) = sum_j val S_{r-j}(s_j), from the leading term: for
    fixed n, val S_d(n) strictly increases in d (Thakur, Finite Fields
    Appl. 15 (2009)), so among d_1 > ... > d_r >= 0 the term d = (r-1, ...,
    0) alone has the least valuation; amzv's signs are units."""
    s = coerce_index(s)
    return sum(int(_power_sum_from_identity(fld, s.depth - 1 - j, n).val)
               for j, n in enumerate(s[:-1]))


def cmpl_valuation(fld: Field, s, points):
    """val Li_s(u) = sum_{j=1..r} [s_j deg L_{r-j} - deg u_j q^{r-j}], from the
    leading term, or INF at a zero point, where the value is exactly zero:
    slot j's term at height i has valuation s_j deg L_i - deg u_j q^i, which
    strictly increases in i under the convergence condition (a divergent
    point raises ConvergenceError), so the heights (r-1, ..., 0) alone have
    the least valuation."""
    s = coerce_index(s)
    us = [_as_ratfunc(fld, u) for u in points]
    _require_convergence(fld, s, us, "CMPL")
    if any(u.is_zero for u in us):
        return INF
    bound = _twisted_slot_bound(fld, s, us, 0)
    return sum(bound(j, s.depth - 1 - j) for j in range(s.depth))


def power_sum_series(fld: Field, d: int, n: int, prec) -> Laurent:
    """S_d(n) as a Laurent approximation, exact through prec.

    S_0(n) = 1 exactly; for d >= 1 the digits come from the interpolation
    identity (no enumeration), so this works far beyond the exact-path
    budget.  It needs H_{n-1}, so the tower budget of ``anderson.at_polynomial``
    raises BudgetError wherever the valuation bound leaves a digit through prec.
    """
    if d < 0 or n < 1:
        raise InvalidIndexError("power_sum_series wants d >= 0 and n >= 1")
    if d == 0:
        return Laurent.one(fld)
    if power_sum_val_bound(fld.q, d, n) > prec:
        return Laurent.zero_to_prec(fld, prec)
    prec = _finite_prec(prec)
    hit = cache.remember("power_sum_series", (fld.q, d, n), lambda e: e.prec >= prec,
                         lambda _: _power_sum_from_identity(fld, d, n, prec))
    return hit.truncate(prec)


# ---------------------------------------------------------------------------
# the power-sum walk: multizeta and alternating multizeta
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


def _slot_caps(r: int, lo: int, bound, prec: int) -> list:
    """[cap_0, ..., cap_{r-1}] of ``_nested_sum``: cap_{r-1} = prec and
    cap_j = max(prec, cap_{j+1} - bound(j+1, lo))."""
    caps = [prec] * r
    for j in range(r - 2, -1, -1):
        caps[j] = max(prec, caps[j + 1] - bound(j + 1, lo))
    return caps


def _above(bound, j: int, l: int) -> int:
    """sum_{i=1..j} bound(j-i, l+i): the least valuation of slots 0..j-1
    of ``_nested_sum`` above height l of slot j."""
    return sum(bound(j - i, l + i) for i in range(1, j + 1))


def _nested_sum(r: int, lo: int, bound, factor, prec: int, level=None, carry=None) -> list:
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

    Slot j's running sums [P_j[lo], P_j[lo+1], ...] come from
    ``level(j, sweep)`` when a caller gives one, else from ``sweep()``,
    which computes them from slot j-1's: a caller whose sums depend only on
    the slots so far can serve them from a memo, exact through cap_j or
    beyond.  With ``carry``, slot j sums T_j[l] = g_j(l) P_j[l], g_j(lo) =
    1, and factor(j, l, .) is g_j(l) / g_{j-1}(l) times the slot term:
    ``carry(j, l + 1, T_j[l+1], cap_j)`` is g_j(l) P_j[l+1], read at l.
    """
    partials, below = [], None
    for j, cap in enumerate(_slot_caps(r, lo, bound, prec)):
        def sweep():
            top = lo
            while bound(j, top) + _above(bound, j, top) <= cap:
                top += 1
            # sums[l - lo] = P_j[l]; P_{j-1}[l+1] exists for every visited l,
            # since above(l) <= cap_j - bound(j, lo) <= cap_{j-1}
            sums, acc = [None] * (top - lo), None
            for l in range(top - 1, lo - 1, -1):
                term = factor(j, l, cap - _above(bound, j, l))
                if j:
                    term = term * below[l + 1 - lo]
                if carry is not None and acc is not None:
                    acc = sums[l + 1 - lo] = carry(j, l + 1, acc, cap)
                acc = (term if acc is None else acc + term).truncate(cap)
                sums[l - lo] = acc
            return sums

        below = sweep() if level is None else level(j, sweep)
        partials.append(below[0].truncate(prec) if below else None)
    return partials


def _power_sum_walk(fld: Field, s: Index, prec, signs=None) -> Laurent:
    """Sum over d_1 > ... > d_r >= 0 of prod_j S_{d_j}(s_j) signs[j]^{d_j}.
    Every power sum is asked for the full prec, then cut to the p the walk
    reads: the memo keeps one entry per (q, d, n) at the highest prec seen,
    and a lower request could make a later one recompute it.

    bound(j, 0) = val S_0 = 0, so every cap is prec, and slot j's running
    sums depend only on q, s_1..s_{j+1}, their signs and prec: the memo
    ``power_sum_walk`` keeps them per prefix with ``power_sum_series``'s
    policy.  A sign prefix of all ones scales no digit, so it shares the
    mzv prefix's entry (sign key None).  Sums kept for a higher prec serve
    a lower one as they are: ``_nested_sum`` truncates every product and
    partial to its cap."""
    prec = _finite_prec(prec)

    def factor(j, d, p):
        layer = power_sum_series(fld, d, s[j], prec).truncate(p)
        return layer if signs is None else layer.scale(fld.pow(signs[j], d))

    def level(j, sweep):
        eps = () if signs is None else tuple(signs[: j + 1])
        key = (fld.q, s[: j + 1], eps if set(eps) - {1} else None)
        return cache.remember("power_sum_walk", key, lambda e: e[0] >= prec,
                              lambda _: (prec, sweep()))[1]

    last = _nested_sum(s.depth, 0, lambda j, d: power_sum_val_bound(fld.q, d, s[j]),
                       factor, prec, level)[-1]
    return Laurent.zero_to_prec(fld, prec) if last is None else last


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
# the twisted walk: deformation values and Carlitz multiple polylogarithms
# ---------------------------------------------------------------------------

def _as_ratfunc(fld: Field, u) -> RatFunc:
    if isinstance(u, RatFunc):
        return u
    if isinstance(u, Poly):
        return RatFunc.from_poly(u)
    if isinstance(u, int):
        return RatFunc.constant(fld, u)
    raise DomainError(f"cannot interpret point {u!r}")


def infty_norm_degree(item):
    """log_q of ||Q||_infty for a BiPoly or RatFunc: max theta-degree over the
    t-coefficients (a RatFunc contributes deg num - deg den); -inf for zero."""
    return item.theta_degree if isinstance(item, BiPoly) else item.infty_degree()


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


def _deg_l(q: int, u: int) -> int:
    """deg L_u = q (q^u - 1)/(q-1)."""
    return (q ** (u + 1) - q) // (q - 1)


def _twisted_slot_bound(fld: Field, s: Index, items, P: int):
    """bound(j, ell) <= val Q_j^{(ell)}(theta^{q^P}) / L_{ell-P}^{q^P s_j},
    slot j's term in the twisted walk at nonzero inputs, from the max
    theta-degree m and the t-degree of Q_j, with equality at a constant
    input; it increases in ell exactly under the strict convergence condition."""
    q = fld.q
    profiles = [(int(infty_norm_degree(item)), item.t_degree if isinstance(item, BiPoly) else 0)
                for item in items]
    return lambda j, ell: (q ** P * s[j] * _deg_l(q, ell - P) - profiles[j][0] * q ** ell
                           - profiles[j][1] * q ** P)


def _deformation_partials(fld: Field, s, qs, prec: int, signs=None, point_power: int = 0) -> list:
    """pi~^{w_j q^P} * L_{s_1..s_j}(theta^{q^P}), w_j = s_1 + ... + s_j, for
    j = 1..len(qs), from one walk and each exact through prec; the inputs
    are nonzero.  Slot j's term is N_j(l) / L_{l-P}^{q^P s_j}, N_j(l) =
    Q_j^{(l)}(theta^{q^P}) signs[j]^l; the walk sums L_{l-P}^w P_j[l], w =
    q^P (s_1 + ... + s_{j+1}), so a step down divides by (L_u / L_{u-1})^w."""
    q = fld.q
    P = point_power
    val_bound = _twisted_slot_bound(fld, s, qs, P)
    # a RatFunc input is expanded once, when its slot is first visited:
    # height ell reads its digits through p // q^ell, and the lowest
    # height, P, reads the most, through (cap_j - above_j(P)) // q^P
    caps, expansions = _slot_caps(len(qs), P, val_bound, prec), {}

    def factor(j, ell, out_prec):
        p = out_prec - q ** P * s[j] * _deg_l(q, ell - P)
        if isinstance(qs[j], BiPoly):
            # Q^{(ell)}(theta^{q^P}) = sum h_kj theta^{j q^ell + k q^P}: the
            # twist dilates the theta-exponents, the point the t-exponents
            numer = Laurent.from_bipoly(qs[j], q ** P, q ** ell, p)
        else:
            if j not in expansions:
                reach = (caps[j] - _above(val_bound, j, P)) // q ** P + 1
                expansions[j] = Laurent.from_ratfunc(qs[j], max(reach, 0))
            numer = expansions[j].qth_power(ell, out_prec=p)
        return numer if signs is None else numer.scale(fld.pow(signs[j], ell))

    def carry(j, ell, x, cap):
        # T_j[ell] / b_u^w, u = ell - P, exact through cap - w deg L_{u-1}:
        # 1/b_u = -theta^{-q^u} / (1 - theta^{1-q^u})
        u, w = ell - P, q ** P * sum(s[: j + 1])
        x = x.shift(w * q ** u).truncate(cap - w * _deg_l(q, u - 1))
        x = _divide_by_units(x, [(q ** u - 1, w)])
        return -x if w % 2 else x

    return [Laurent.zero_to_prec(fld, prec) if part is None else part
            for part in _nested_sum(len(qs), P, val_bound, factor, prec, carry=carry)]


def cmpl(fld: Field, s, points, prec) -> Laurent:
    """Li_s(u_1, ..., u_r) over decreasing Frobenius heights i_1 > ... > i_r,
    with each slot contributing u_j^{q^{i_j}} / L_{i_j}^{s_j}: the twisted
    walk at constant inputs, whose twists are q^i-th powers."""
    s = coerce_index(s)
    prec = _finite_prec(prec)
    if cmpl_valuation(fld, s, points) == INF:  # refuses a divergent point too
        return Laurent.zero(fld)
    return _deformation_partials(fld, s, [_as_ratfunc(fld, u) for u in points], prec)[-1]


def carlitz_log(fld: Field, u, prec) -> Laurent:
    """log_C(u) = Li_{(1)}(u) = sum u^{q^i} / L_i."""
    return cmpl(fld, Index((1,)), [u], prec)


# ---------------------------------------------------------------------------
# powers of the Carlitz period
# ---------------------------------------------------------------------------

def carlitz_period_power(fld: Field, m: int, prec) -> Laurent:
    """pi~^{(q-1)m}, the only powers of the period that live in k_infinity.

    pi~^{(q-1)m} = (-theta)^{qm} prod_{i>=1} (1 - y_i)^{-(q-1)m} with
    y_i = theta^{1-q^i}, and (1 - y)^{-(q-1)m} = (1 - y)^m / (1 - y^q)^m
    in characteristic p.  The unit is taken through its first prec + qm
    digits; a factor whose gap lies beyond them changes none of those.
    """
    val = carlitz_period_valuation(fld, m)
    q = fld.q
    work = _finite_prec(prec) - val
    units, gap = [], q - 1
    while gap <= work:
        units += [(gap, -m), (q * gap, m)]
        gap = q * gap + q - 1
    unit = _divide_by_units(Laurent(fld, 0, [1], work), units)
    sign = fld.pow(fld.from_int(-1), q * m)
    return unit.scale(sign).shift(val)


def carlitz_period_valuation(fld: Field, m: int) -> int:
    """val pi~^{(q-1)m} = -qm: the power is (-theta)^{qm} times a unit."""
    if m <= 0:
        raise InvalidIndexError("carlitz_period_power wants m >= 1")
    return -fld.q * m
