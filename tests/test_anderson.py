"""Omega, Anderson-Thakur polynomials, deformation series, block systems,
vanishing orders, and the Carlitz tensor-power module."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ffzeta import anderson, cache, relations, zeta
from ffzeta.anderson import GradedSeries
from ffzeta.errors import (BudgetError, ConvergenceError, DomainError, InvalidIndexError,
                           ResolutionError)
from ffzeta.indices import g_map
from ffzeta.laurent import Laurent
from ffzeta.scalar import (
    BiPoly,
    Poly,
    RatFunc,
    base_q_digits,
    bracket_D,
    bracket_L,
    carlitz_gamma,
    field,
)


def at_inputs(fld, s):
    return [anderson.at_polynomial(fld, sj - 1) for sj in s]


# -- omega -----------------------------------------------------------------------

def test_omega_unit_constant_term_is_one():
    w = anderson.omega_unit(field(3), 5, 30)
    assert w.coeffs[0].agrees_with(Laurent.one(field(3)))


def test_omega_unit_linear_coefficient():
    fld = field(2)
    w = anderson.omega_unit(fld, 4, 20)
    acc = Laurent.zero(fld)
    i = 1
    while 2 ** i <= 20:
        acc = acc + Laurent.monomial(fld, 1, 2 ** i)
        i += 1
    assert w.coeffs[1].agrees_with(acc.scale(-1))


@pytest.mark.parametrize("q,cap,prec", [(2, 6, 30), (3, 8, 40), (2, 1, 10), (5, 4, 30)])
def test_omega_unit_equation(q, cap, prec):
    assert anderson.omega_unit_equation_check(field(q), cap, prec)


def test_omega_unit_cut_drops_only_invisible_factors():
    # the first two factors the product leaves out change no digit through
    # prec; prec = q^k and q^k - 1 sit on both sides of the cut
    for q in (2, 3, 5):
        fld = field(q)
        for prec in (q ** 2 - 1, q ** 2, 30, 100):
            i = 1
            while q ** i <= prec:  # factor i is the first one left out
                i += 1
            cut = anderson.omega_unit(fld, 4, prec)
            wider = anderson.omega_unit(fld, 4, q ** (i + 1))  # keeps factors i, i+1
            for a, b in zip(cut.coeffs, wider.coeffs):
                assert a.prec == prec and a.agrees_with(b, through=prec), (q, prec)


def test_graded_series_twist_grade_closure():
    fld = field(3)
    om = anderson.omega(fld, 5, 40)
    tw = om.twist()
    assert tw.grade == om.grade
    prod = om * om
    assert prod.grade == -2 * fld.q


def test_omega_twist_difference_equation_in_graded_form():
    # Omega = (t - theta^q) * Omega^(1) as graded series
    fld = field(3)
    cap, prec = 6, 40
    om = anderson.omega(fld, cap, prec)
    rhs = om.twist() * BiPoly.t_minus_theta_power(fld, fld.q, 1)
    assert om.agrees_with(rhs)


# -- AT polynomials ----------------------------------------------------------------

def test_at_polynomial_small_values():
    f3 = field(3)
    assert anderson.at_polynomial(f3, 0) == BiPoly.one(f3)
    assert anderson.at_polynomial(f3, 1) == BiPoly.one(f3)
    assert anderson.at_polynomial(f3, 2) == BiPoly.one(f3)
    # hand-computed: H_3 = 2 t^3 - t - theta^3 over F_3
    h3 = anderson.at_polynomial(f3, 3)
    assert h3 == BiPoly(f3, [[0, 0, 0, 2], [2, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]])
    f2 = field(2)
    assert anderson.at_polynomial(f2, 2) == BiPoly(f2, [[0, 0, 1], [1, 0, 0]])  # t + theta^2
    assert anderson.at_polynomial(f2, 3) == BiPoly(f2, [[0], [1], [1]])   # t^2 + t (single theta column)


def test_at_polynomial_closed_forms():
    for q in (2, 3):
        fld = field(q)
        n = q * q - q - 1
        assert anderson.at_polynomial(fld, n) == BiPoly.in_t(carlitz_gamma(fld, q * q - q))
        n = q ** 3 - 1
        assert anderson.at_polynomial(fld, n) == BiPoly.in_t(carlitz_gamma(fld, q ** 3))


def _largest_admitted(q):
    """The largest n whose tower H_0..H_n fits the tower budget at q."""
    n = 0
    while anderson.tower_bytes(q, n + 1) <= anderson.TOWER_BUDGET:
        n += 1
    return n


def test_at_polynomial_budget(monkeypatch):
    # q=2 admits exactly the tower the power sums of entries <= 150 read
    assert [_largest_admitted(q) for q in (2, 3, 5, 25)] == [149, 193, 232, 345]

    def no_tower(*args):
        raise AssertionError("tower work before the budget check")

    monkeypatch.setattr(anderson, "_at_tower", no_tower)
    cache.clear_memos()
    for n in (150, 401, 10 ** 9):
        with pytest.raises(BudgetError, match=rf"H_0\.\.H_{n} at q=2 is predicted at \d+ MiB "
                                              r"or more, past the tower budget of 96 MiB"):
            anderson.at_polynomial(field(2), n)


@pytest.mark.parametrize("q,n", [(2, 149), (3, 100), (5, 60)])
def test_tower_bytes_bound_the_built_tower(q, n):
    """The degree lemmas bound every grid, and overshoot the bytes held by
    less than 1.4 (about 1.23, 1.26 and 1.32 here)."""
    fld = field(q)
    cache.clear_memos()
    try:
        anderson.at_polynomial(fld, n)
        held = sum(anderson.at_polynomial(fld, m).coeffs.nbytes for m in range(n + 1))
    finally:
        cache.clear_memos()  # the q=2 tower holds about 80 MB
    predicted = anderson.tower_bytes(q, n)
    assert held <= predicted <= 1.4 * held, (held, predicted)
    # the running totals grow one grid at a time, and no grid shrinks
    steps = [anderson.tower_bytes(q, m + 1) - anderson.tower_bytes(q, m) for m in range(n)]
    assert steps == sorted(steps)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25, 65521])
def test_every_admitted_tower_step_fits_int64(q):
    """``_at_tower`` sums at most L + 1 terms of at most L binomial factors,
    L = floor(log_q n), so its integer grid stays below (L + 1) 2^L p."""
    n = _largest_admitted(q)
    levels = len(base_q_digits(n, q)) - 1
    assert (levels + 1) * 2 ** levels * field(q).p < 2 ** 30, (q, n)


class _TFrac:
    """num/den with num in F_q[theta][t] and den in F_q[t]; reduced.  den is a
    Poly whose coefficients are read in t."""

    def __init__(self, num, den, reduce=True):
        if reduce and not num.is_zero and den.degree > 0:
            content = den
            for col in range(num.coeffs.shape[1]):
                column = Poly(num.field, num.coeffs[:, col])
                if not column.is_zero:
                    content = content.gcd(column)
                if content.degree <= 0:
                    break
            if content.degree > 0:
                num = num.exact_div_t(BiPoly.in_t(content))
                den = den.exact_div(content)
        lead = den.leading()
        if lead != 1:
            inv = den.field.inv(lead)
            den = den.scale(inv)
            num = num.scale(inv)
        self.num = num
        self.den = den

    def __add__(self, other):
        g = self.den.gcd(other.den)
        da = self.den.exact_div(g) if g.degree > 0 else self.den
        db = other.den.exact_div(g) if g.degree > 0 else other.den
        return _TFrac(self.num * BiPoly.in_t(db) + other.num * BiPoly.in_t(da), da * other.den)

    def mul_frac(self, num, den):
        return _TFrac(self.num * num, self.den * den)


def _at_polynomials_by_fractions(fld, n):
    """Reference: H_0..H_n by inverting the generating series over F_q(t),
    with t-gcd reduction of every coefficient, then clearing Gamma_{m+1}."""
    q = fld.q
    gens = []
    while q ** len(gens) <= n:
        i = len(gens)
        fi = BiPoly.one(fld)
        for j in range(1, i + 1):
            fi = fi * (BiPoly.in_t(Poly.monomial(fld, 1, q ** i))
                       - BiPoly.from_poly(Poly.monomial(fld, 1, q ** j)))
        gens.append((q ** i, fi, bracket_D(fld, i)))
    coeffs = [_TFrac(BiPoly.one(fld), Poly.one(fld), reduce=False)]
    for m in range(1, n + 1):
        terms = [coeffs[m - step].mul_frac(fnum, fden) for step, fnum, fden in gens if step <= m]
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        coeffs.append(acc)
    return [(c.num * BiPoly.in_t(carlitz_gamma(fld, m + 1))).exact_div_t(BiPoly.in_t(c.den))
            for m, c in enumerate(coeffs)]


def _binomial_by_gamma_quotient(fld, m, i):
    """The Carlitz binomial B_{m,i} = Gamma_{m+1} / (Gamma_{m+1-q^i} D_i) by
    exact division: the independent route the closed form is checked against."""
    step = fld.q ** i
    return carlitz_gamma(fld, m + 1).exact_div(carlitz_gamma(fld, m + 1 - step) * bracket_D(fld, i))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_carlitz_binomial_closed_form(q):
    """B_{m,i} = 1 when digit i of m is nonzero, else the product of
    t^{q^j} - t over i < j <= k, with k the lowest nonzero digit above i."""
    fld = field(q)
    for m in range(1, 60):
        digits = base_q_digits(m, q)
        for i in range(len(digits)):
            k = i if digits[i] else next(j for j in range(i + 1, len(digits)) if digits[j])
            factors = [(q ** j, 0, 1, 0) for j in range(i + 1, k + 1)]
            grid = np.zeros((1 + sum(a for a, _, _, _ in factors), 1), dtype=np.int64)
            anderson._add_times_binomials(grid, np.ones((1, 1), dtype=np.int64), factors)
            want = BiPoly.in_t(_binomial_by_gamma_quotient(fld, m, i))
            assert BiPoly(fld, fld.from_int(grid)) == want, (m, i)


@pytest.mark.parametrize("q,n", [(2, 22), (3, 30), (4, 24), (5, 40), (8, 20), (9, 20),
                                 (25, 30), (27, 30), (2, 32)])
def test_at_recursion_matches_fraction_route(q, n):
    cache.clear_memos()
    fld = field(q)
    got = [anderson.at_polynomial(fld, m) for m in range(n + 1)]
    assert got == _at_polynomials_by_fractions(fld, n)


def test_at_polynomial_thread_safety():
    fld = field(3)
    ns = [30, 27, 24, 29, 30, 28, 26, 25]
    cache.clear_memos()
    want = {n: anderson.at_polynomial(fld, n) for n in ns}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            cache.clear_memos()
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda n: anderson.at_polynomial(fld, n), ns, timeout=60))
            assert got == [want[n] for n in ns]
    finally:
        sys.setswitchinterval(interval)


# -- deformation values ---------------------------------------------------------------

def _gamma_zeta(fld, w, prec):
    """Gamma_w zeta(w), exact through prec."""
    gamma = carlitz_gamma(fld, w)
    return Laurent.from_poly(gamma) * zeta.mzv(fld, (w,), prec + int(gamma.degree))


def test_deformation_depth1_matches_gamma_zeta():
    for q in (2, 3):
        fld = field(q)
        for n in (1, 2, 4):
            dv = anderson.deformation_value(fld, (n,), at_inputs(fld, (n,)), 50)
            assert dv.agrees_with(_gamma_zeta(fld, n, 50)), (q, n)
    # H_{w-1} lacks the corner t^{tdeg} theta^m that the valuation bound
    # assumes, so at some precs (the named one among them) a term shows no
    # digit through prec, and 1/L^s must not be asked for a prec below its
    # valuation
    for q, w, named in [(2, 3, 57), (2, 5, 16), (3, 4, 72), (5, 7, 80), (7, 8, 98)]:
        fld = field(q)
        gz = _gamma_zeta(fld, w, 160)
        qs = at_inputs(fld, (w,))
        for prec in range(160):
            dv = anderson.deformation_value(fld, (w,), qs, prec)
            assert dv.prec == prec and dv.agrees_with(gz), (q, w, prec)
        label = relations.eval_value_expr(fld, f"gnzeta({w})", named)
        assert label == anderson.deformation_value(fld, (w,), qs, named)


def test_deformation_depth2_and_depth3():
    fld = field(3)
    for s in [(2, 1), (1, 2), (2, 1, 1)]:
        gamma = Poly.one(fld)
        for sj in s:
            gamma = gamma * carlitz_gamma(fld, sj)
        dv = anderson.deformation_value(fld, s, at_inputs(fld, s), 50)
        gz = Laurent.from_poly(gamma) * zeta.mzv(fld, s, 60)
        assert dv.agrees_with(gz), s


def test_deformation_identity_41_termwise_exact():
    # the pi-cancelled interpolation identity, checked exactly in F_q(theta)
    for q in (2, 3):
        fld = field(q)
        for n in range(1, q * q + q + 1):
            h = anderson.at_polynomial(fld, n - 1)
            gamma = RatFunc.from_poly(carlitz_gamma(fld, n))
            for d in range(4):
                from ffzeta.scalar import frobenius_twist, poly_eval_at_theta_power

                lhs = gamma * zeta.power_sum_exact(fld, d, n)
                hd = poly_eval_at_theta_power(frobenius_twist(h, d), 0)
                assert lhs == RatFunc(hd, bracket_L(fld, d) ** n), (q, n, d)


def test_deformation_constant_inputs_match_cmpl():
    fld = field(3)
    theta = RatFunc.from_poly(Poly.gen(fld))
    for s, us in [((2,), [theta]), ((1,), [RatFunc.one(fld)]), ((2, 1), [theta, 1])]:
        dv = anderson.deformation_value(fld, s, us, 40)
        cv = zeta.cmpl(fld, s, [u if isinstance(u, RatFunc) else RatFunc.constant(fld, u) for u in us], 40)
        assert dv == cv, s


def test_deformation_t_polynomial_input_matches_cmpl():
    # Q(t) = 1 + 2t has F_q coefficients, so every twist of Q is Q and the
    # value at theta is Q(theta) * Li_2(1)
    fld = field(3)
    q_t = BiPoly.in_t(Poly(fld, [1, 2]))
    dv = anderson.deformation_value(fld, (2,), [q_t], 60)
    expect = Laurent.from_poly(Poly(fld, [1, 2])) * zeta.cmpl(fld, (2,), [1], 61)
    assert dv == expect
    assert anderson.specialization_frobenius_check(fld, (2,), [q_t], 40)


def test_deformation_sign_inputs_match_amzv():
    fld = field(3)
    for s, eps in [((1,), (-1,)), ((2,), (-1,)), ((2, 1), (-1, 1)), ((1, 2), (-1, -1))]:
        dv = anderson.deformation_value(fld, s, at_inputs(fld, s), 40, eps=eps)
        av = zeta.amzv(fld, s, eps, 40)
        assert dv.agrees_with(av), (s, eps)


def test_deformation_value_with_a_zero_input_is_the_exact_zero():
    fld = field(3)
    for qs in ([BiPoly.zero(fld), 1], [anderson.at_polynomial(fld, 1), 0]):
        assert anderson.deformation_value(fld, (2, 1), qs, 40).is_exact_zero


def test_deformation_divergent_input_rejected():
    fld = field(2)
    with pytest.raises(ConvergenceError):
        anderson.deformation_value(fld, (1,), [Poly.monomial(fld, 1, 2)], 20)


def test_deformation_t_series_divergence_names_slot():
    fld = field(2)
    with pytest.raises(ConvergenceError, match=r"slot\(s\) \[1\]"):
        anderson.deformation_t_series(fld, (2, 1), [1, Poly.monomial(fld, 1, 2)], 4, 20)


def test_deformation_entry_points_share_one_input_check():
    # the t-series once had no length check of its own and fell through to
    # the CMPL wording
    fld = field(3)
    one = [anderson.at_polynomial(fld, 1)]
    for call in (lambda: anderson.deformation_t_series(fld, (2, 1), one, 4, 20),
                 lambda: anderson.deformation_value(fld, (2, 1), one, 20),
                 lambda: anderson.vanishing_order_profile(fld, (2, 1), one, 4, 20)):
        with pytest.raises(InvalidIndexError, match="one deformation input per index entry required"):
            call()
    for call in (lambda: anderson.deformation_t_series(fld, (1, 1), [1, Poly.monomial(fld, 1, 2)], 4, 20),
                 lambda: anderson.deformation_value(fld, (1, 1), [1, Poly.monomial(fld, 1, 2)], 20),
                 lambda: anderson.vanishing_order_profile(fld, (1, 1), [1, Poly.monomial(fld, 1, 2)], 4, 20)):
        with pytest.raises(ConvergenceError, match=r"deformation series diverges.*slot\(s\) \[1\]"):
            call()


def _old_t_series(fld, s, qs, cap, prec):
    """Oracle: the t-series summed by its own suffix loop, before it went
    through ``zeta._nested_sum``."""
    qs = [anderson._coerce_q(fld, item) for item in qs]
    base = anderson.omega_unit(fld, cap, prec)
    out, prev_suffix = [], None
    for j in range(len(s)):
        qj = qs[j]
        if isinstance(qj, RatFunc):
            qj_series = GradedSeries(fld, 0, [Laurent.from_ratfunc(qj, prec)], cap)
        else:
            qj_series = GradedSeries.from_bipoly(qj, cap)
        a = GradedSeries(fld, -fld.q * s[j], (base ** s[j]).coeffs, cap) * qj_series
        v0 = min((c.val for c in a.coeffs if c.coeffs.size), default=float("inf"))
        twists = [a]
        if v0 != float("inf"):
            v0 = int(v0)
            while v0 <= prec:
                twists.append(twists[-1].twist())
                v0 = fld.q * v0 + fld.q * s[j]
        terms = []
        for ell, a_tw in enumerate(twists):
            if prev_suffix is None:
                terms.append(a_tw)
            elif ell + 1 < len(prev_suffix):
                terms.append(a_tw * prev_suffix[ell + 1])
            else:
                zero_tail = GradedSeries(fld, prev_suffix[0].grade,
                                         [Laurent.zero_to_prec(fld, prec)], cap)
                terms.append(a_tw * zero_tail)
        suffix = [None] * (len(terms) + 1)
        acc = GradedSeries(fld, terms[0].grade, [Laurent.zero_to_prec(fld, prec)], cap)
        suffix[len(terms)] = acc
        for ell in range(len(terms) - 1, -1, -1):
            acc = (terms[ell] + acc).truncate(prec)
            suffix[ell] = acc
        out.append(suffix[0])
        prev_suffix = suffix
    return out


def _series_key(series):
    return [(g.grade, g.cap, g.coeffs) for g in series]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_deformation_t_series_matches_its_old_loop(q):
    fld = field(q)
    theta = Poly.gen(fld)
    cases = [((1,), None), ((2, 1), None), ((1, 2, 1), None), ((1, 1, 1, 1), None),
             ((2, 1, 1), 1), ((1, 2), 0)]
    for s, zero in cases:
        qs = at_inputs(fld, s)
        if zero is not None:
            qs[zero] = 0
        for cap, prec in [(4, 20), (8, 40)]:
            got = anderson.deformation_t_series(fld, s, qs, cap, prec)
            assert _series_key(got) == _series_key(_old_t_series(fld, s, qs, cap, prec)), (s, zero)
        if zero is not None:
            # zero through prec, at the right grade, from the zero slot on
            for j in range(zero, len(s)):
                assert got[j].grade == -q * sum(s[: j + 1])
                assert all(c.is_zero_to_precision and c.prec == 40 for c in got[j].coeffs)
    rat = [RatFunc(Poly.one(fld), theta + Poly.one(fld)), at_inputs(fld, (1,))[0]]
    got = anderson.deformation_t_series(fld, (2, 1), rat, 6, 40)
    assert _series_key(got) == _series_key(_old_t_series(fld, (2, 1), rat, 6, 40))


def test_deformation_t_series_keeps_what_the_old_loop_lost():
    # H_3 at q=3 has theta-degree 3, so slot 1 of (1, 4) starts at valuation
    # -3; the old loop cut slot 0's sums at prec and so knew some entry-2
    # coefficients only through prec - 3.  The walk keeps slot 0's sums
    # through prec + 3: the same digits, through prec.
    fld = field(3)
    s, cap, prec = (1, 4), 6, 40
    qs = at_inputs(fld, s)
    got = anderson.deformation_t_series(fld, s, qs, cap, prec)
    old = _old_t_series(fld, s, qs, cap, prec)
    assert _series_key(got[:1]) == _series_key(old[:1])
    assert any(c.prec < prec for c in old[1].coeffs)
    for new_c, old_c in zip(got[1].coeffs, old[1].coeffs):
        assert new_c.prec >= prec and new_c.truncate(old_c.prec) == old_c


def test_deformation_t_series_is_exact_through_prec_for_inputs_of_positive_degree():
    # H_3 at q=3 has theta-degree 3: Omega~ must be known 3 digits past prec
    fld = field(3)
    got = anderson.deformation_t_series(fld, (4,), at_inputs(fld, (4,)), 6, 40)
    assert all(c.prec >= 40 for c in got[0].coeffs)
    wider = anderson.deformation_t_series(fld, (4,), at_inputs(fld, (4,)), 6, 60)
    assert all(a.agrees_with(b, through=40) for a, b in zip(got[0].coeffs, wider[0].coeffs))
    family = [(4,), (3, 1)]
    system = anderson.build_block_system(fld, family, [at_inputs(fld, s) for s in family],
                                         [1, 1], 6, 40)
    assert all(c.prec >= 40 for entry in system.psi for c in entry.coeffs)


def test_deformation_partials_match_separate_values():
    # the profile reads L_(1..j)(theta^q) as the partials of one walk
    cases = [(3, (3, 1)), (5, (1, 2, 2, 1)), (5, (2, 2, 2)), (3, (1, 2, 1, 1)), (2, (1, 1, 2, 1))]
    for q, s in cases:
        fld = field(q)
        qs = at_inputs(fld, s)
        partials = anderson._deformation_partials(fld, s, qs, 200, point_power=1)
        for j in range(1, len(s) + 1):
            want = anderson.deformation_value(fld, s[:j], qs[:j], 200, point_power=1)
            assert partials[j - 1] == want, (q, s, j)


def test_specialization_frobenius_check():
    for q in (2, 3):
        fld = field(q)
        for s in [(1,), (2,)]:
            assert anderson.specialization_frobenius_check(fld, s, at_inputs(fld, s), 30)


def test_specialization_frobenius_check_nonconstant_inputs():
    # H_3 at q=3 carries a theta^3 term, exercising the coefficient twists
    fld = field(3)
    assert anderson.specialization_frobenius_check(fld, (4,), at_inputs(fld, (4,)), 40)
    assert anderson.specialization_frobenius_check(fld, (4, 1), at_inputs(fld, (4, 1)), 40)
    f2 = field(2)
    assert anderson.specialization_frobenius_check(f2, (3,), at_inputs(f2, (3,)), 40)
    # precs at which a term's numerator shows no digit through prec, at theta
    # and at theta^q alike
    for q, s, prec in [(2, (3,), 57), (2, (5,), 16), (2, (3, 1), 25), (3, (4, 1), 19),
                       (3, (5,), 32)]:
        fld = field(q)
        assert anderson.specialization_frobenius_check(fld, s, at_inputs(fld, s), prec), (q, s)


def test_depth1_l_recursion_standalone():
    # forward-twisted (j = 1) recursion: L_1 = L_1^(1) + Omega^s Q
    fld = field(3)
    cap, prec = 6, 40
    for s, q_in in [((1,), at_inputs(fld, (1,))), ((2,), at_inputs(fld, (2,)))]:
        l1 = anderson.deformation_t_series(fld, s, q_in, cap, prec)[0]
        a = anderson.omega(fld, cap, prec) ** s[0]
        qg = GradedSeries.from_bipoly(q_in[0] if isinstance(q_in[0], BiPoly) else BiPoly.from_poly(q_in[0]), cap)
        rhs = l1.twist() + (a * qg)
        assert l1.agrees_with(rhs)


# -- block systems -----------------------------------------------------------------

def test_single_block_system_shape_and_check():
    fld = field(3)
    system = anderson.build_block_system(fld, [(4,)], [at_inputs(fld, (4,))], [1], 8, 40)
    assert len(system.phi) == 2
    # Phi' is the 1x1 block (t - theta)^w
    assert system.phi[0][0] == BiPoly.t_minus_theta_power(fld, 1, 4)
    assert anderson.verify_difference_system(system)


def test_two_block_system_shapes_and_nu_entries():
    fld = field(3)
    fam = [(4,), (3, 1)]
    qs = [at_inputs(fld, s) for s in fam]
    system = anderson.build_block_system(fld, fam, qs, [1, 1], 8, 40)
    assert system.shapes == (1, 2)
    assert len(system.phi) == 3  # 1 + (2-1) + 1
    from ffzeta.scalar import inverse_twist

    # nu entries carry Q^(-1) (t - theta)^s per the block display
    last = len(system.phi) - 1
    want_col0 = inverse_twist(qs[0][0]) * BiPoly.t_minus_theta_power(fld, 1, 4)
    assert system.phi[last][0] == want_col0
    want_mid = inverse_twist(qs[1][1]) * BiPoly.t_minus_theta_power(fld, 1, 1)
    assert system.phi[last][1] == want_mid
    # D-column entry: Q_11^(-1) (t - theta)^w
    assert system.phi[1][0] == inverse_twist(qs[1][0]) * BiPoly.t_minus_theta_power(fld, 1, 4)
    assert anderson.verify_difference_system(system)


def test_two_block_system_q2():
    fld = field(2)
    fam = [(4,), (3, 1)]
    system = anderson.build_block_system(
        fld, fam, [at_inputs(fld, s) for s in fam], [1, 1], 8, 40
    )
    assert anderson.verify_difference_system(system)


def test_perturbed_phi_entry_fails_the_difference_system():
    # criterion 5's {(4), (3,1)} system, with one Phi entry moved by 1
    for q in (2, 3):
        fld = field(q)
        fam = [(4,), (3, 1)]
        system = anderson.build_block_system(
            fld, fam, [at_inputs(fld, s) for s in fam], [1, 1], 8, 40
        )
        assert anderson.verify_difference_system(system)
        for a, row in enumerate(system.phi):
            for b, entry in enumerate(row):
                if entry is None:
                    continue
                phi = [list(r) for r in system.phi]
                phi[a][b] = entry + BiPoly.one(fld)
                bad = dataclasses.replace(system, phi=tuple(map(tuple, phi)))
                assert not anderson.verify_difference_system(bad), (q, a, b)


def test_block_system_with_t_coefficients():
    # nontrivial a_i in F_q[t] still satisfies the difference equation
    fld = field(3)
    fam = [(4,), (3, 1)]
    a = [BiPoly.in_t(Poly(fld, [1, 2])), BiPoly.in_t(Poly.gen(fld))]
    system = anderson.build_block_system(
        fld, fam, [at_inputs(fld, s) for s in fam], a, 8, 40
    )
    assert anderson.verify_difference_system(system)
    for bad in (Poly.gen(fld), BiPoly.from_poly(Poly.gen(fld))):
        with pytest.raises(DomainError, match=r"live in F_q\[t\]"):
            anderson.build_block_system(fld, fam, [at_inputs(fld, s) for s in fam], [bad, 1], 8, 40)


def test_block_system_builds_omega_once(monkeypatch):
    # one Omega for the system's own entries, one inside each deformation series
    fld = field(3)
    fam = [(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]
    calls = []
    real = anderson.omega_unit

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(anderson, "omega_unit", spy)
    system = anderson.build_block_system(
        fld, fam, [at_inputs(fld, s) for s in fam], [1] * len(fam), 8, 60
    )
    assert len(calls) == 1 + len(fam)
    assert len(system.psi) == 1 + 0 + 1 + 2 + 3 + 1


def test_block_system_shape_mismatch():
    fld = field(3)
    with pytest.raises(DomainError):
        anderson.build_block_system(fld, [(4,), (3, 1)], [at_inputs(fld, (4,))], [1, 1], 8, 40)
    with pytest.raises(DomainError):
        anderson.build_block_system(fld, [(4,), (3, 2)], [at_inputs(fld, (4,)), at_inputs(fld, (3, 2))], [1, 1], 8, 40)


# -- vanishing orders ----------------------------------------------------------------

def _taylor_orders(fld, s, qs, cap, prec):
    """Reference: the Taylor route.  The unit part of each interior entry
    Omega^{t_j} L_{1..j} is divided by (t - theta^q) while its value at
    theta^q shows no digit; the number of divisions is the order.  The value
    of a t-series truncated at cap drops the t-degrees above it, so this
    route is trusted only at generous (cap, prec)."""
    series = anderson.deformation_t_series(fld, s, qs, cap, prec)
    om = anderson.omega(fld, cap, prec)
    q = fld.q
    orders = []
    for j in range(1, len(s)):
        coeffs = list(((om ** sum(s[j:])) * series[j - 1]).coeffs)
        for k in range(cap + 1):
            value = Laurent.zero(fld)
            for i, c in enumerate(coeffs):
                value = value + c.shift(-i * q)
            if not value.is_zero_to_precision:
                orders.append(k)
                break
            assert not all(c.is_zero_to_precision for c in coeffs), (s, j, k)
            quotient, carry = [Laurent.zero(fld)] * len(coeffs), Laurent.zero(fld)
            for i in range(len(coeffs) - 1, 0, -1):
                carry = coeffs[i] + carry.shift(-q)
                quotient[i - 1] = carry
            coeffs = quotient
        else:
            raise AssertionError(f"order of entry {j} of {s} exceeds cap {cap}")
    return frozenset(orders)


def test_vanishing_orders_examples():
    fld = field(3)
    assert anderson.vanishing_order_profile(fld, (4,), at_inputs(fld, (4,)), 8, 60) == frozenset()
    p = anderson.vanishing_order_profile(fld, (3, 1), at_inputs(fld, (3, 1)), 8, 60)
    assert p == g_map((3, 1)) == frozenset({1})
    # precs at which a term of the walk at theta^q shows no digit
    assert anderson.vanishing_order_profile(fld, (4, 1), at_inputs(fld, (4, 1)), 16, 55) == {1}
    f2 = field(2)
    assert anderson.vanishing_order_profile(f2, (3, 1), at_inputs(f2, (3, 1)), 16, 19) == {1}
    with pytest.raises(DomainError, match="vanishes identically"):
        anderson.vanishing_order_profile(fld, (2, 1), [0, 1], 8, 60)


def test_vanishing_orders_walk_once(monkeypatch):
    fld = field(5)
    s = (1, 2, 2, 1)
    calls = []
    real = zeta._nested_sum

    def spy(r, lo, bound, factor, prec, level=None, carry=None):
        calls.append(r)
        assert carry is not None  # the twisted walk carries its brackets
        return real(r, lo, bound, factor, prec, level, carry)

    monkeypatch.setattr(zeta, "_nested_sum", spy)
    assert anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 16, 400) == g_map(s)
    assert calls == [3]
    # a zero input: the walk stops before it, and the error names its depth
    calls.clear()
    with pytest.raises(DomainError, match=r"L_\(1\.\.3\) vanishes identically"):
        anderson.vanishing_order_profile(fld, s, at_inputs(fld, s)[:2] + [0, 1], 16, 400)
    assert calls == [2]


def test_vanishing_orders_match_g_small_cases():
    fld = field(3)
    for s in [(2, 1), (1, 2), (2, 2)]:
        p = anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 10, 80)
        assert p == g_map(s) == _taylor_orders(fld, s, at_inputs(fld, s), 10, 80), s


@pytest.mark.parametrize("q,s", [(3, (3, 1)), (5, (1, 2, 2, 1)), (5, (2, 2, 2))])
def test_vanishing_orders_match_taylor_route(q, s):
    # the inputs of acceptance criterion 6, at its (cap, prec) = (16, 400)
    fld = field(q)
    p = anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 16, 400)
    assert p == g_map(s) == _taylor_orders(fld, s, at_inputs(fld, s), 16, 400)


def test_vanishing_orders_deep_cancellation_regression():
    # a t-series cut at t-degree 16 misreads a digit here; the walk at theta^q
    # makes no cut in t
    fld = field(5)
    s = (1, 2, 2, 1)
    assert anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 16, 800) == frozenset({1, 3, 5})


def test_vanishing_orders_cap_below_order_names_cap():
    fld = field(5)
    s = (1, 2, 2, 1)
    with pytest.raises(ResolutionError, match="raise cap to 5"):
        anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 2, 800)


def test_vanishing_orders_invisible_value_names_prec():
    # L_{1..3}(theta^q) of (1,2,2,1) first shows a digit at valuation 200
    fld = field(5)
    s = (1, 2, 2, 1)
    with pytest.raises(ResolutionError, match=r"prec=100.*raise prec \(e\.g\. to 200\)"):
        anderson.vanishing_order_profile(fld, s, at_inputs(fld, s), 16, 100)


def test_vanishing_orders_constant_inputs_match_taylor_route():
    # CMPL inputs: the walk at theta^q takes constant inputs as they are
    fld = field(3)
    theta = RatFunc.from_poly(Poly.gen(fld))
    for s, us, want in [((2, 1), [theta, 1], {1}), ((1, 2, 1), [1, theta, 1], {1, 3})]:
        p = anderson.vanishing_order_profile(fld, s, us, 10, 80)
        assert p == _taylor_orders(fld, s, us, 10, 80) == frozenset(want), s


# -- tensor powers ---------------------------------------------------------------------

def test_tensor_action_examples():
    f2 = field(2)
    theta = RatFunc.from_poly(Poly.gen(f2))
    assert anderson.carlitz_tensor_t_action(f2, 1, [theta])[0].is_zero
    f3 = field(3)
    out = anderson.carlitz_tensor_t_action(f3, 2, [0, 0])
    assert all(v.is_zero for v in out)
    out = anderson.carlitz_tensor_t_action(f3, 2, [1, 0])
    assert out[0] == RatFunc.from_poly(Poly.gen(f3)) and out[1] == RatFunc.one(f3)


def test_torsion_search_examples():
    f2 = field(2)
    theta = RatFunc.from_poly(Poly.gen(f2))
    assert anderson.torsion_search(f2, 1, [theta], 3) == BiPoly.in_t(Poly.gen(f2))
    f3 = field(3)
    assert anderson.torsion_search(f3, 1, [1], 4) is None
    assert anderson.torsion_search(f3, 1, [0], 4) == BiPoly.one(f3)
    # a theta-Poly coordinate is the equal RatFunc; anything else is refused
    assert anderson.torsion_search(f2, 1, [Poly.gen(f2)], 3) == BiPoly.in_t(Poly.gen(f2))
    with pytest.raises(DomainError, match="cannot interpret point 'x'"):
        anderson.carlitz_tensor_t_action(f2, 1, ["x"])
    with pytest.raises(DomainError, match="cannot interpret point 'x'"):
        anderson.torsion_search(f2, 1, ["x"], 3)


def test_torsion_free_points_when_dimension_not_divisible():
    # k-rational points of C^{x n} are torsion-free unless (q-1) | n
    f3 = field(3)
    theta = RatFunc.from_poly(Poly.gen(f3))
    for n in (1, 3):  # q - 1 = 2 does not divide these
        for point in ([1] + [0] * (n - 1), [theta] + [0] * (n - 1)):
            assert anderson.torsion_search(f3, n, point, 3) is None, (n, point)
