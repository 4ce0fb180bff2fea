"""Anderson-Thakur polynomials, the Omega series, the deformation-series
evaluator, Frobenius difference systems, and the Carlitz tensor-power
module action with torsion search.

All ramified arithmetic (the (q-1)-th roots of -theta) is carried by the
integer grade of GradedSeries; no root of theta is ever materialised.
Difference equations are checked in once-forward-twisted form,
psi = Phi^(1) psi^(1), because the forward twist keeps grades integral.

The evaluator uses the derived evaluations Omega^(l)(theta) = 1/(pi~ L_l)
(a consequence of the difference equation satisfied by Omega) so that the
normalised value pi~^w * L(theta) stays inside k_infinity.  The values
and the vanishing orders read partial sums of ``zeta._deformation_partials``,
the twisted walk, which divides by one bracket L_l / L_{l-1} per height l,
not by L_l^{s_j} per term, and is ``zeta.cmpl`` at constant inputs.  The
t-series L_{1..j} of the difference systems give ``zeta._nested_sum``, the
one valuation-pruned walk, their own per-slot bound and factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, InvalidIndexError, ResolutionError
from .indices import coerce_index
from .laurent import INF, Laurent
from .scalar import (
    BiPoly,
    Field,
    Poly,
    RatFunc,
    TVAR,
    base_q_digits,
    binary_power,
    carlitz_gamma_degree,
    frobenius_twist,
    inverse_twist,
)
from .zeta import (_deformation_partials, _finite_prec, _nested_sum, _require_convergence,
                   _validate_signs, infty_norm_degree)
from . import cache, linalg

# The bytes of H_0..H_n that one tower may hold, as ``tower_bytes`` predicts
# them: it admits n <= 149 at q=2, 193 at q=3, 232 at q=5 and 345 at q=25.
TOWER_BUDGET = 96 << 20
# The bytes of H_m besides its grid, measured with tracemalloc on CPython:
# the BiPoly (48), its ndarray header (128) and its slot in the tower (8).
_ENTRY_BYTES = 184


# ---------------------------------------------------------------------------
# graded t-series
# ---------------------------------------------------------------------------

class GradedSeries:
    """A pair (m, f): the value (-theta)^{m/(q-1)} * f(t) with f a t-series
    over Laurent coefficients, kept modulo t^{cap+1}.

    Multiplication adds grades; the forward twist maps (m, f) to
    (m, (-theta)^m * f^(1)), so the grade stays integral.

    No code evaluates such a series at a point: products, sums and twists
    act on the t^0..t^cap coefficients, and each of those depends only on
    coefficients of the same or lower t-degree.  The cap therefore only
    shortens the coefficient list, and every kept coefficient is exact
    through its own prec.
    """

    __slots__ = ("field", "grade", "cap", "coeffs")

    def __init__(self, field: Field, grade: int, coeffs, cap: int):
        coeffs = list(coeffs)
        if len(coeffs) > cap + 1:
            coeffs = coeffs[: cap + 1]
        while len(coeffs) < cap + 1:
            coeffs.append(Laurent.zero(field))
        self.field = field
        self.grade = int(grade)
        self.cap = int(cap)
        self.coeffs = tuple(coeffs)

    @classmethod
    def one(cls, field, cap):
        return cls(field, 0, [Laurent.one(field)], cap)

    @classmethod
    def from_bipoly(cls, bp: BiPoly, cap: int, grade: int = 0):
        coeffs = [Laurent.from_poly(c) for c in bp.t_coeffs()]
        return cls(bp.field, grade, coeffs, cap)

    def _check(self, other):
        if self.field is not other.field or self.cap != other.cap:
            raise DomainError("mixed fields or t-degree caps")

    def __add__(self, other):
        self._check(other)
        if self.grade != other.grade:
            raise DomainError(f"grade mismatch: {self.grade} vs {other.grade}")
        return GradedSeries(
            self.field,
            self.grade,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.cap,
        )

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            other = GradedSeries.from_bipoly(other, self.cap)
        elif isinstance(other, Poly) and other.var == TVAR:
            other = GradedSeries.from_bipoly(BiPoly.from_poly(other), self.cap)
        self._check(other)
        out = [Laurent.zero(self.field) for _ in range(self.cap + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.cap:
                    break
                if not b.is_exact_zero:
                    out[i + j] = out[i + j] + a * b
        return GradedSeries(self.field, self.grade + other.grade, out, self.cap)

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative GradedSeries power")
        return binary_power(self, k, GradedSeries.one(self.field, self.cap))

    def twist(self):
        """Forward Frobenius twist of the represented value."""
        fld = self.field
        sign = fld.pow(fld.from_int(-1), self.grade)
        mono = Laurent.monomial(fld, sign, -self.grade)  # (-theta)^grade
        return GradedSeries(
            fld, self.grade, [c.qth_power(1) * mono for c in self.coeffs], self.cap
        )

    def truncate(self, prec):
        return GradedSeries(
            self.field, self.grade, [c.truncate(prec) for c in self.coeffs], self.cap
        )

    def agrees_with(self, other) -> bool:
        self._check(other)
        if self.grade != other.grade:
            return False
        return all(a.agrees_with(b) for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return (
            f"GradedSeries(grade={self.grade}, cap={self.cap}, "
            f"f=[{', '.join(repr(c) for c in self.coeffs[:3])}...])"
        )


# ---------------------------------------------------------------------------
# Omega
# ---------------------------------------------------------------------------

def omega_unit(fld: Field, cap: int, prec) -> GradedSeries:
    """The unit part of Omega: prod_{i>=1} (1 - t * theta^{-q^i}), truncated
    to t-degree cap with coefficients exact through prec.  Every omitted
    factor differs from 1 only beyond prec."""
    if cap < 1 or prec < 1:
        raise DomainError("omega_unit wants cap >= 1 and prec >= 1")
    out = GradedSeries.one(fld, cap)
    i = 1
    while fld.q ** i <= prec:
        out = out * _omega_factor(fld, i, cap)
        i += 1
    return out.truncate(prec)


def _omega_factor(fld: Field, i: int, cap: int) -> GradedSeries:
    """1 - t * theta^{-q^i}, one factor of the unit part of Omega."""
    one_minus = [Laurent.one(fld), Laurent.monomial(fld, fld.neg(1), fld.q ** i)]
    return GradedSeries(fld, 0, one_minus, cap)


def omega(fld: Field, cap: int, prec) -> GradedSeries:
    """Omega itself, housed as grade -q times the unit part."""
    unit = omega_unit(fld, cap, prec)
    return GradedSeries(fld, -fld.q, unit.coeffs, cap)


def omega_unit_equation_check(fld: Field, cap: int, prec) -> bool:
    """The difference equation of Omega in unit-part, forward-twisted form:
    Omega~ = (1 - t*theta^{-q}) * Omega~^(1)."""
    w = omega_unit(fld, cap, prec)
    return w.agrees_with(_omega_factor(fld, 1, cap) * w.twist())


# ---------------------------------------------------------------------------
# Anderson-Thakur polynomials
# ---------------------------------------------------------------------------

def _add_times_binomials(acc, grid, factors):
    """Adds to acc, in place, grid times the product of t^a theta^b -
    t^c theta^d over the (a, b, c, d) in factors, over the integers: one
    shifted subtraction per factor, each of which at most doubles the
    largest |entry|, the last one written straight into acc."""
    if not factors:
        acc[: grid.shape[0], : grid.shape[1]] += grid
        return
    for a, b, c, d in factors[:-1]:
        rows, cols = grid.shape
        out = np.zeros((rows + max(a, c), cols + max(b, d)), dtype=np.int64)
        out[a:a + rows, b:b + cols] = grid
        out[c:c + rows, d:d + cols] -= grid
        grid = out
    rows, cols = grid.shape
    a, b, c, d = factors[-1]
    acc[a:a + rows, b:b + cols] += grid
    acc[c:c + rows, d:d + cols] -= grid


def _at_tower(fld: Field, tower: tuple, n: int) -> tuple:
    """(H_0, ..., H_n), extending the shorter tower (H_0, ...), by the recursion

        H_m = sum_{q^i <= m} F_i * B_{m,i}(t) * H_{m-q^i}

    with F_i = prod_{j=1}^{i} (t^{q^i} - theta^{q^j}) and the Carlitz binomial
    B_{m,i} = Gamma_{m+1} / (Gamma_{m+1-q^i} D_i) at theta = t: the series
    recursion for H_m / Gamma_{m+1}, cleared of denominators.  As D_j =
    [j] D_{j-1}^q, [j] = theta^{q^j} - theta, and m - q^i borrows through the
    zero digits of m, the quotient telescopes: B_{m,i} = prod_{j=i+1}^{k}
    (t^{q^j} - t), k the lowest nonzero digit of m at or above i (so B_{m,i}
    = 1 when digit i is nonzero).  So every H_m lies in F_p[t, theta] for
    every q = p^e.  Each m's terms are added into one integer grid, sized
    from the factor shifts, and reduced mod p in place: its at most L + 1
    terms, L = floor(log_q m), have at most L factors each, so entries stay
    below (L + 1) 2^L p < 2^30 for every tower inside TOWER_BUDGET."""
    q = fld.q
    tower = list(tower) or [BiPoly.one(fld)]
    for m in range(len(tower), n + 1):
        digits = base_q_digits(m, q)
        terms, rows, cols = [], 0, 0
        for i in range(len(digits)):
            k = next(j for j in range(i, len(digits)) if digits[j])
            factors = [(q ** i, 0, 0, q ** j) for j in range(1, i + 1)]
            factors += [(q ** j, 0, 1, 0) for j in range(i + 1, k + 1)]
            grid = tower[m - q ** i].coeffs
            terms.append((grid, factors))
            rows = max(rows, grid.shape[0] + sum(max(a, c) for a, _, c, _ in factors))
            cols = max(cols, grid.shape[1] + sum(max(b, d) for _, b, _, d in factors))
        acc = np.zeros((rows, cols), dtype=np.int64)
        for grid, factors in terms:
            _add_times_binomials(acc, grid, factors)
        tower.append(BiPoly(fld, np.remainder(acc, fld.p, out=acc)))
    return tuple(tower)


def tower_bytes(q: int, n: int) -> int:
    """The bytes of H_0..H_n that the degree lemmas predict before any work:
    H_m fits deg Gamma_{m+1} + 1 t-rows by q (m - s_q(m))/(q-1) + 1
    theta-columns of int64 (``zeta.power_sum_val_bound``), plus _ENTRY_BYTES.
    The running totals per q grow by doubling and stop at the first tower
    past TOWER_BUDGET; past that end this is a lower bound, as no grid is
    smaller than the one before it."""
    def extend(stale):
        totals = list(stale or [0])  # totals[k]: the bytes of H_0..H_{k-1}
        for m in range(len(totals) - 1, max(n, 2 * len(totals)) + 1):
            cols = q * (m - sum(base_q_digits(m, q))) // (q - 1) + 1
            totals.append(totals[-1] + 8 * (carlitz_gamma_degree(q, m + 1) + 1) * cols
                          + _ENTRY_BYTES)
            if totals[-1] > TOWER_BUDGET:
                break
        return totals

    totals = cache.remember("tower_bytes", q, lambda t: len(t) > n + 1 or t[-1] > TOWER_BUDGET,
                            extend)
    if n + 1 < len(totals):
        return totals[n + 1]
    return totals[-1] + (n + 2 - len(totals)) * (totals[-1] - totals[-2])


def at_polynomial(fld: Field, n: int) -> BiPoly:
    """The Anderson-Thakur polynomial H_n in F_q[theta][t].

    H_n is the x^n coefficient of the generating series
    1 / (1 - sum_i (F_i / D_i|_{theta=t}) x^{q^i}), scaled by
    Gamma_{n+1}|_{theta=t}.  It is computed by the polynomial recursion of
    ``_at_tower``, which yields H_0..H_n together; the memo keeps one tower
    per q, and a request past its end extends it.  The persistent
    cache, when active, holds each H_n on its own.  A tower that
    ``tower_bytes`` puts past TOWER_BUDGET raises BudgetError first."""
    if n < 0:
        raise InvalidIndexError("at_polynomial wants n >= 0")
    need = tower_bytes(fld.q, n)
    if need > TOWER_BUDGET:
        raise BudgetError(f"the Anderson-Thakur tower H_0..H_{n} at q={fld.q} is predicted at "
                          f"{need / 2**20:.0f} MiB or more, past the tower budget of "
                          f"{TOWER_BUDGET >> 20} MiB")

    def from_tower():
        tower = cache.remember("at_tower", fld.q, lambda t: len(t) > n,
                               lambda stale: _at_tower(fld, stale or (), n))
        return tower[n]

    return cache.recall("at_poly", (fld.q, n), from_tower, cache.bipoly_to_json,
                        lambda payload: cache.bipoly_from_json(fld, payload))


# ---------------------------------------------------------------------------
# the deformation evaluator (normalised by pi~^w)
# ---------------------------------------------------------------------------

def _coerce_q(fld: Field, item):
    """A deformation input as a BiPoly (every polynomial) or a RatFunc."""
    if isinstance(item, BiPoly):
        return item
    if isinstance(item, Poly):
        return BiPoly.from_poly(item)
    if isinstance(item, RatFunc):
        return item
    if isinstance(item, int):
        return RatFunc.constant(fld, item)
    raise DomainError(f"cannot interpret deformation input {item!r}")


def _deformation_inputs(fld: Field, s, qs) -> list:
    """One input per entry of s, as BiPoly or RatFunc, of a convergent series."""
    qs = [_coerce_q(fld, item) for item in qs]
    if len(qs) != s.depth:
        raise InvalidIndexError("one deformation input per index entry required")
    _require_convergence(fld, s, qs, "deformation")
    return qs


def deformation_value(fld: Field, s, qs, prec, eps=None, point_power: int = 0) -> Laurent:
    """The normalised deformation value pi~^{w q^P} * L_{s,Q}(theta^{q^P}).

    For P = 0 this is the plain normalised value: with Anderson-Thakur
    inputs it equals Gamma-scaled multizeta, with constant inputs the
    corresponding CMPL, and with a sign vector the remaining eps^l weights
    reproduce Gamma-scaled alternating multizeta (the fixed (q-1)-th roots
    cancel analytically against the normalisation).
    """
    s = coerce_index(s)
    prec = _finite_prec(prec)
    if point_power not in (0, 1):
        raise DomainError("point_power must be 0 or 1")
    if point_power and eps is not None:
        raise DomainError("sign vectors are only supported at the theta point")
    qs = _deformation_inputs(fld, s, qs)
    if any(item.is_zero for item in qs):
        return Laurent.zero(fld)
    signs = _validate_signs(fld, s, eps) if eps is not None else None
    return _deformation_partials(fld, s, qs, prec, signs, point_power)[-1]


def specialization_frobenius_check(fld: Field, s, qs, prec) -> bool:
    """Checks the N = 1 instance of L(theta^{q^N}) = L(theta)^{q^N}: the
    evaluator rerun at the point theta^q must equal the q-th power of the
    theta-value through the propagated precision."""
    at_theta = deformation_value(fld, s, qs, prec)
    target = (int(prec) + 1) * fld.q - 1
    at_theta_q = deformation_value(fld, s, qs, target, point_power=1)
    return at_theta_q.agrees_with(at_theta.qth_power(1))


# ---------------------------------------------------------------------------
# deformation series as t-series (for difference systems and orders)
# ---------------------------------------------------------------------------

def deformation_t_series(fld: Field, s, qs, cap: int, prec) -> list:
    """The partial deformation series L_{s,Q;1..j} as graded t-series,
    j = 1..depth; entry j carries grade -q*(s_1+...+s_j).  Slot j sums the
    twists of A_j = Omega~^{s_j} Q_j by ``zeta._nested_sum``; a zero input
    makes every entry from its slot on zero through prec."""
    s = coerce_index(s)
    prec = _finite_prec(prec)
    qs = _deformation_inputs(fld, s, qs)
    # A_j keeps the precision of Omega~^{s_j} less the theta-degree of Q_j
    base = omega_unit(fld, cap, prec + max(0, *map(infty_norm_degree, qs)))
    q = fld.q
    twists, v0s = [], []
    for j, qj in enumerate(qs):
        if isinstance(qj, RatFunc):
            qj_series = GradedSeries(fld, 0, [Laurent.from_ratfunc(qj, prec)], cap)
        else:
            qj_series = GradedSeries.from_bipoly(qj, cap)
        a = GradedSeries(fld, -q * s[j], (base ** s[j]).coeffs, cap) * qj_series
        twists.append([a])
        # INF when no coefficient shows a digit: every entry from j on is zero
        v0s.append(min((c.val for c in a.coeffs if c.coeffs.size), default=INF))

    def bound(j, ell):
        # a twist maps a coefficient valuation v to q v + q s_j, so with v0
        # the smallest one of A_j, the ell-th twist has valuation >= this
        return q ** ell * v0s[j] + q * s[j] * (q ** ell - 1) // (q - 1)

    def factor(j, ell, p):
        while len(twists[j]) <= ell:
            twists[j].append(twists[j][-1].twist())
        return twists[j][ell].truncate(p)

    zero = [Laurent.zero_to_prec(fld, prec)] * (cap + 1)
    return [GradedSeries(fld, -q * sum(s[: j + 1]), zero, cap) if part is None else part
            for j, part in enumerate(_nested_sum(s.depth, 0, bound, factor, prec))]


# ---------------------------------------------------------------------------
# block systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSystem:
    """Materialised Phi_star (exact BiPoly entries) and psi_star (graded
    t-series truncations) for a family of indices."""

    field: Field
    weight: int
    shapes: tuple
    phi: tuple          # tuple of tuples of BiPoly (or None for zero)
    psi: tuple          # tuple of GradedSeries
    cap: int
    prec: int


def _coerce_t_poly(fld: Field, a) -> Poly:
    if isinstance(a, Poly):
        if a.var != TVAR:
            raise DomainError("linear-combination coefficients live in F_q[t]")
        return a
    if isinstance(a, int):
        return Poly.constant(fld, a, TVAR)
    return Poly(fld, a, TVAR)


def build_block_system(fld: Field, family, qs_per_index, a_coeffs, cap: int, prec) -> BlockSystem:
    """Materialise Phi_star and psi_star for the given indices.

    ``family`` is a list of same-weight indices (the construction is
    generic; g-independence is not required), ``qs_per_index`` the
    deformation inputs per index, ``a_coeffs`` the F_q[t] coefficients of
    the linear combination carried in the last row.  Phi entries involve
    the inverse twists Q^(-1), so every theta-exponent of every Q must be
    divisible by q (true for all Anderson-Thakur inputs used here).
    """
    family = [coerce_index(s) for s in family]
    if not family:
        raise DomainError("empty family")
    w = family[0].weight
    if any(s.weight != w for s in family):
        raise DomainError("family members must share one weight")
    if len(qs_per_index) != len(family) or len(a_coeffs) != len(family):
        raise DomainError("need one input tuple and one coefficient per index")
    qs_per_index = [_deformation_inputs(fld, s, qs) for s, qs in zip(family, qs_per_index)]
    if any(isinstance(q, RatFunc) for qs in qs_per_index for q in qs):
        raise DomainError("block systems want exact polynomial inputs")
    a_polys = [_coerce_t_poly(fld, a) for a in a_coeffs]

    size = 1 + sum(s.depth - 1 for s in family) + 1
    phi = [[None] * size for _ in range(size)]
    phi[0][0] = BiPoly.t_minus_theta_power(fld, 1, w)
    last = size - 1
    phi[last][last] = BiPoly.one(fld)

    offset = 1
    psi_mid = []
    last_row_zero_col = BiPoly.zero(fld)
    om = omega(fld, cap, prec)
    omega_w = om ** w
    psi_last = None
    for s, qs, a in zip(family, qs_per_index, a_polys):
        r = s.depth
        tails = [sum(s[j:]) for j in range(r)]  # tails[j] = s_{j+1}+...+s_r (0-based)
        # Q_j^(-1) (t - theta)^{tails[j]} sits left of the diagonal in row j of
        # this index's block, and a times the last one in Phi's last row
        sub = [inverse_twist(q) * BiPoly.t_minus_theta_power(fld, 1, n) for q, n in zip(qs, tails)]
        series = deformation_t_series(fld, s, qs, cap, prec)
        nu = BiPoly.from_poly(a) * sub[r - 1]
        if r == 1:
            last_row_zero_col = last_row_zero_col + nu
        else:
            for jj in range(r - 1):
                phi[offset + jj][offset + jj - 1 if jj else 0] = sub[jj]
                phi[offset + jj][offset + jj] = BiPoly.t_minus_theta_power(fld, 1, tails[jj + 1])
            phi[last][offset + r - 2] = nu
            psi_mid += [(om ** tails[jj]) * series[jj - 1] for jj in range(1, r)]
            offset += r - 1
        contrib = series[r - 1] * BiPoly.from_poly(a)
        psi_last = contrib if psi_last is None else psi_last + contrib
    if not last_row_zero_col.is_zero:
        phi[last][0] = last_row_zero_col
    psi = [omega_w] + psi_mid + [psi_last]
    return BlockSystem(
        field=fld,
        weight=w,
        shapes=tuple(s.depth for s in family),
        phi=tuple(tuple(row) for row in phi),
        psi=tuple(psi),
        cap=cap,
        prec=prec,
    )


def verify_difference_system(system: BlockSystem) -> bool:
    """Checks psi = Phi^(1) psi^(1) entrywise through the stored truncation
    (the once-forward-twisted equivalent of psi^(-1) = Phi psi)."""
    fld = system.field
    psi_tw = [entry.twist() for entry in system.psi]
    for a, row in enumerate(system.phi):
        acc = None
        for b, entry in enumerate(row):
            if entry is None or entry.is_zero:
                continue
            part = psi_tw[b] * frobenius_twist(entry, 1)
            acc = part if acc is None else acc + part
        if acc is None or not system.psi[a].agrees_with(acc):
            return False
    return True


def vanishing_order_profile(fld: Field, s, qs, cap: int, prec) -> frozenset:
    """The vanishing orders at t = theta^q of the interior psi entries
    Omega^{t_j} * L_{1..j}, j = 1..depth-1, with t_j = s_{j+1} + ... + s_r;
    under the nonvanishing hypothesis this is exactly the g-image of the
    index.  Depth 1 has no interior entries (empty set).

    L_{1..j} is entire, because each of its slots carries Omega^{s_i}, and
    the unit part of Omega has a simple zero at theta^q.  Entry j therefore
    vanishes to order t_j exactly when L_{1..j}(theta^q) != 0, and up to the
    factor pi~^{q w} that value is ``deformation_value`` of (s_1..s_j) at
    point_power 1, all read from one walk.  Order j is reported only once
    that value shows a nonzero digit through prec, which is exact.  A value with no visible digit is
    never read as zero: it raises ResolutionError naming prec.  ``cap`` is
    the largest order reported; a larger t_j raises ResolutionError naming
    the cap needed."""
    s = coerce_index(s)
    if s.depth == 1:
        return frozenset()
    prec = _finite_prec(prec)
    qs = _deformation_inputs(fld, s, qs)
    tails = [sum(s[j:]) for j in range(1, s.depth)]
    if max(tails) > cap:
        raise ResolutionError(
            f"vanishing order {max(tails)} exceeds the largest order reported, "
            f"cap={cap}; raise cap to {max(tails)}"
        )
    # L_(1..j) is identically zero from the first zero input on
    live = next((j for j, item in enumerate(qs[:-1]) if item.is_zero), s.depth - 1)
    values = _deformation_partials(fld, s[:live], qs[:live], prec, point_power=1)
    for j in range(1, s.depth):
        if j > live:
            raise DomainError(f"L_(1..{j}) vanishes identically: a deformation input is zero")
        if values[j - 1].is_zero_to_precision:
            raise ResolutionError(
                f"L_(1..{j}) at theta^q shows no digit through prec={prec}, so its "
                f"vanishing order cannot be certified; raise prec (e.g. to {2 * prec})"
            )
    return frozenset(tails)


# ---------------------------------------------------------------------------
# Carlitz tensor powers
# ---------------------------------------------------------------------------

def _tensor_point(fld: Field, n: int, point) -> list:
    """An n-coordinate point, each coordinate a RatFunc or a field constant,
    as a list of RatFuncs."""
    v = [u if isinstance(u, RatFunc) else RatFunc.constant(fld, u) for u in point]
    if len(v) != n:
        raise DomainError(f"point must have {n} coordinates")
    return v


def carlitz_tensor_t_action(fld: Field, n: int, point) -> list:
    """[t]_n acting on an n-coordinate point: theta*v_i + v_{i+1} in rows
    below the last, theta*v_n + v_1^q in the last row."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    v = _tensor_point(fld, n, point)
    theta = RatFunc.from_poly(Poly.gen(fld))
    out = []
    for i in range(n - 1):
        out.append(theta * v[i] + v[i + 1])
    out.append(theta * v[n - 1] + v[0] ** fld.q)
    return out


def torsion_search(fld: Field, n: int, point, dmax: int):
    """Brute-force annihilator search: the smallest-degree nonzero
    a in F_q[t] of degree <= dmax with [a]_n(point) = 0, or None.

    Uses F_q-linearity of the module action: it suffices to solve for
    F_q-combinations of the iterates [t^j](point).  The zero point is
    reported as torsion with annihilator 1 by convention.
    """
    if dmax < 0:
        raise DomainError("dmax must be >= 0")
    v = _tensor_point(fld, n, point)
    if all(u.is_zero for u in v):
        return Poly.one(fld, TVAR)
    iterates = [v]
    for _ in range(dmax):
        iterates.append(carlitz_tensor_t_action(fld, n, iterates[-1]))
    rows = []
    for c in range(n):
        den = Poly.one(fld)
        for it in iterates:
            den = den.exact_div(den.gcd(it[c].den)) * it[c].den
        cleared = [it[c].num * den.exact_div(it[c].den) for it in iterates]
        width = max((int(p.degree) + 1 for p in cleared if not p.is_zero), default=0)
        block = np.zeros((width, dmax + 1), dtype=np.int64)
        for j, p in enumerate(cleared):
            block[: p.coeffs.size, j] = p.coeffs
        rows.append(block)
    matrix = np.vstack(rows) if rows else np.zeros((0, dmax + 1), dtype=np.int64)
    basis = linalg.nullspace(fld, matrix)
    if not basis:
        return None
    best = min(basis, key=lambda vec: max(np.nonzero(vec)[0]))
    return Poly(fld, best, TVAR).monic()
