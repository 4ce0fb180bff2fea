"""Power sums, multizeta, alternating multizeta, CMPLs, the period."""

import itertools
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ffzeta import anderson, cache, zeta
from ffzeta.errors import BudgetError, ConvergenceError, DomainError, InvalidIndexError
from ffzeta.laurent import Laurent
from ffzeta.scalar import Poly, RatFunc, bracket_L, field

rng = random.Random(31)


# -- power sums, exact path ---------------------------------------------------

def test_power_sum_exact_examples():
    for q in (2, 3, 5):
        fld = field(q)
        assert zeta.power_sum_exact(fld, 0, 3) == RatFunc.one(fld)
        # S_1(1) = 1/L_1 for general q (brute force is the implementation)
        assert zeta.power_sum_exact(fld, 1, 1) == RatFunc(Poly.one(fld), bracket_L(fld, 1))
    # q=2 hand value: 1/theta + 1/(theta+1) = 1/(theta^2+theta)
    fld = field(2)
    assert zeta.power_sum_exact(fld, 1, 1) == RatFunc(Poly.one(fld), Poly(fld, [0, 1, 1]))


def test_power_sum_budget_error_names_budget():
    with pytest.raises(BudgetError, match="budget 100"):
        zeta.power_sum_exact(field(5), 9, 1, budget=100)


def test_power_sum_small_n_closed_forms():
    # S_d(n) = 1/L_d^n for n <= q (classical; doubles as an enumeration check)
    for q in (2, 3):
        fld = field(q)
        for d in (1, 2):
            for n in range(1, q + 1):
                got = zeta.power_sum_exact(fld, d, n)
                assert got == RatFunc(Poly.one(fld), bracket_L(fld, d) ** n), (q, d, n)


# -- power sums, series path ---------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5])
def test_series_agrees_with_exact_path(q):
    fld = field(q)
    for d in range(4):
        for n in (1, 2, 3, 7):
            a = zeta.power_sum_series(fld, d, n, 40)
            b = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d, n), 40)
            assert a.agrees_with(b, through=40), (q, d, n)


def test_series_cross_check_q3_d2_n2():
    fld = field(3)
    a = zeta.power_sum_series(fld, 2, 2, 60)
    b = Laurent.from_ratfunc(zeta.power_sum_exact(fld, 2, 2), 60)
    assert a.agrees_with(b, through=60)


def test_series_valuation_bounds():
    for q in (2, 3, 5):
        fld = field(q)
        for d in range(1, 5):
            for n in (1, 2, 4):
                s = zeta.power_sum_series(fld, d, n, 200)
                if s.is_zero_to_precision:
                    continue
                assert s.val >= n * d
                assert s.val >= zeta.power_sum_val_bound(q, d, n)


def test_series_far_beyond_enumeration_budget():
    # d = 40 would need q^40 enumerations; the series path just returns the tail bound
    fld = field(2)
    s = zeta.power_sum_series(fld, 40, 1, 500)
    assert s.is_zero_to_precision and s.prec == 500


def test_series_past_the_entry_budget_raises_before_any_tower_work(monkeypatch):
    fld = field(3)
    n = zeta._ENTRY_BUDGET + 1
    bound = zeta.power_sum_val_bound(3, 1, n)
    # an entry whose every digit lies past prec is still the exact zero there
    assert zeta.power_sum_series(fld, 1, n, bound - 1) == Laurent.zero_to_prec(fld, bound - 1)
    assert zeta.mzv(fld, (n,), bound - 1) == Laurent.one(fld).truncate(bound - 1)

    def no_tower(*args):
        raise AssertionError("tower work before the budget check")

    monkeypatch.setattr(anderson, "_at_tower", no_tower)
    cache.clear_memos()
    for call in (lambda: zeta.power_sum_series(fld, 1, n, bound),
                 lambda: zeta.mzv(fld, (n, 1), 500)):
        with pytest.raises(BudgetError, match=f"index entry {n} exceeds the entry budget "
                                              f"{zeta._ENTRY_BUDGET}"):
            call()


def test_entry_at_the_budget_is_served_cold_within_seconds():
    """The largest entry served, at q=2 (the largest towers), from a cold
    memo: about 2 s on one core, where a dense product by each F_i in the
    tower recursion took about 11 s."""
    fld = field(2)
    n = zeta._ENTRY_BUDGET
    cache.clear_memos()
    try:
        start = time.perf_counter()
        value = zeta.mzv(fld, (n,), 2 * n)
        elapsed = time.perf_counter() - start
    finally:
        cache.clear_memos()  # the tower to H_{n-1} holds about 100 MB
    # through 1/theta^(2n) only S_0 = 1 and S_1(n) = theta^-n + (theta+1)^-n
    # = sum over k >= 1 of C(n+k-1, k) theta^(-n-k) (mod 2) contribute
    digits = [1] + [0] * n + [math.comb(n + k - 1, k) % 2 for k in range(1, n + 1)]
    want = Laurent(fld, 0, np.array(digits, dtype=np.int64), 2 * n)
    assert value.prec == 2 * n and value.agrees_with(want, through=2 * n)
    assert elapsed < 6.0, f"cold mzv(({n},)) at q=2 took {elapsed:.1f} s"


def test_series_memo_order_does_not_change_digits():
    # the memo keeps the highest prec seen and slices it for lower ones
    fld = field(3)

    def fresh(d, n, prec):
        cache.clear_memos()
        return zeta.power_sum_series(fld, d, n, prec)

    # the fresh values come first, so computing them leaves the sequence
    # of memo states under test alone
    want = {(prec, n, d): fresh(d, n, prec)
            for prec in (150, 60, 300) for n in (1, 2) for d in range(1, 7)}

    def check(prec):
        for n in (1, 2):
            for d in range(1, 7):
                got = zeta.power_sum_series(fld, d, n, prec)
                assert got == want[prec, n, d], (prec, n, d)

    cache.clear_memos()
    for prec in (150, 60, 300):
        check(prec)
    cache.clear_memos()
    check(60)
    low = zeta.mzv(fld, (2, 1), 60)
    high = zeta.mzv(fld, (2, 1), 150)
    assert low.prec == 60 and high.prec == 150
    assert high.agrees_with(low, through=60)
    assert high.truncate(60) == low


# -- the nested-sum walk ----------------------------------------------------------

def _tuple_walk(fld, r, lo, bound, factor, prec, visits=None):
    """Oracle: the walk before the suffix form, one product per admissible
    tuple l_1 > ... > l_r >= lo (sign weights now live in the factors).  Slot pos is visited at l while the least
    completion keeps the bound sum <= prec, and asked for prec minus the
    least sum the other slots can still reach."""
    total = Laurent.zero(fld)
    chosen = [0] * r

    def walk(pos, first, acc, prod):
        nonlocal total
        l = first
        while (need := acc + sum(bound(pos - k, l + k) for k in range(pos + 1))) <= prec:
            b = bound(pos, l)
            p = prec - need + b
            term = prod * factor(pos, l, p)
            chosen[pos] = l
            if visits is not None:
                visits.append((pos, l, p, tuple(chosen[pos:])))
            if pos:
                walk(pos - 1, l + 1, acc + b, term)
            else:
                total = total + term
            l += 1

    walk(r - 1, lo, 0, Laurent.one(fld))
    return total.truncate(prec)


def _over_tuple_walk(fld):
    """``_nested_sum``'s signature over the oracle: only the last partial."""
    return lambda r, lo, bound, factor, prec: (
        [None] * (r - 1) + [_tuple_walk(fld, r, lo, bound, factor, prec)])


@pytest.mark.parametrize("lo", [0, 1])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_nested_sum_visits_exactly_the_admissible_tuples(r, lo):
    # synthetic bounds, increasing in l; slot 0 starts negative, as the
    # point theta does in cmpl, and in the second run slot 1 does too; the
    # lo = 1 runs weight slot j at l by signs[j]^l inside the factor
    fld = field(5)
    prec = 12
    slopes = (1, 3, 2)
    signs = [1, 1, 1] if lo == 0 else [2, 3, 4]
    for offsets in [(-4, 1, 1), (-4, -3, 2)]:
        def bound(j, l):
            return slopes[j] * l + offsets[j]

        def brute(depth):
            # the slots 0..depth-1 tuples with bound sum <= prec, and their sum
            box = range(lo, 30)
            tuples = [ls for ls in itertools.product(box, repeat=depth)
                      if all(a > b for a, b in zip(ls, ls[1:]))
                      and sum(bound(j, l) for j, l in enumerate(ls)) <= prec]
            value = Laurent.zero(fld)
            for ls in tuples:
                c = 1
                for e, l in zip(signs, ls):
                    c = c * e ** l % 5
                value = value + Laurent.monomial(fld, c, sum(bound(j, l) for j, l in enumerate(ls)))
            return tuples, value.truncate(prec)

        def monomial(j, l):
            return Laurent.monomial(fld, signs[j] ** l % 5, bound(j, l))

        want, expect = brute(r)
        assert want

        # the oracle visits no node without a leaf below it, and asks each
        # leaf's slots for enough digits
        visits = []
        oracle = _tuple_walk(fld, r, lo, bound, lambda j, l, p: monomial(j, l), prec,
                             visits=visits)
        leaves = [v[3] for v in visits if v[0] == 0]
        assert sorted(leaves) == sorted(want)
        prefixes = {ls[j:] for ls in want for j in range(r)}
        assert len(visits) == len(prefixes)
        for pos, l, p, suffix in visits:
            for leaf in want:
                if leaf[pos:] == suffix:
                    others = sum(bound(j, lj) for j, lj in enumerate(leaf)) - bound(pos, l)
                    assert p + others >= prec, (leaf, pos)
        assert oracle == expect

        # the suffix walk calls each (slot, l) factor once, for a p that the
        # least valuation of the other slots lifts to prec: above l for the
        # partial through slot j, below l as well for the whole sum
        calls = []

        def factor(j, l, p):
            calls.append((j, l, p))
            return monomial(j, l)

        partials = zeta._nested_sum(r, lo, bound, factor, prec)
        assert len({(j, l) for j, l, _ in calls}) == len(calls)
        for j, l, p in calls:
            above = sum(bound(j - i, l + i) for i in range(1, j + 1))
            below = sum(bound(k, lo + r - 1 - k) for k in range(j + 1, r))
            assert p + above >= prec and p + above + below >= prec, (j, l, p)
        for j, part in enumerate(partials):
            tuples, value = brute(j + 1)
            assert (part is None) == (not tuples) and (part is None or part == value), (r, j)
        assert partials[-1] == expect


# -- the suffix walk against the tuple walk ---------------------------------------

@pytest.mark.parametrize("q,s,prec", [(2, (1, 1, 1, 1, 1), 200), (5, (1, 2, 2, 1), 400),
                                      (3, (2, 1, 2), 150)])
def test_mzv_matches_the_tuple_walk(monkeypatch, q, s, prec):
    fld = field(q)
    eps = [(-1) ** j for j in range(len(s))]
    new = zeta.mzv(fld, s, prec), zeta.amzv(fld, s, eps, prec)
    monkeypatch.setattr(zeta, "_nested_sum", _over_tuple_walk(fld))
    assert new == (zeta.mzv(fld, s, prec), zeta.amzv(fld, s, eps, prec))


def test_cmpl_and_deformation_value_match_the_tuple_walk(monkeypatch):
    fld = field(3)
    theta = Poly.gen(fld)
    s = (2, 1, 2)
    pts = [theta, 1, RatFunc(Poly.one(fld), theta + Poly.one(fld))]
    at = [anderson.at_polynomial(fld, sj - 1) for sj in s]

    def values():
        return (zeta.cmpl(fld, s, pts, 200),
                anderson.deformation_value(fld, s, at, 100),
                anderson.deformation_value(fld, s, at, 100, eps=[1, -1, 1]),
                anderson.deformation_value(fld, s, pts, 300, point_power=1))

    new = values()
    monkeypatch.setattr(zeta, "_nested_sum", _over_tuple_walk(fld))
    monkeypatch.setattr(anderson, "_nested_sum", _over_tuple_walk(fld))
    assert new == values()


# -- multizeta -------------------------------------------------------------------

def test_mzv_depth1_example_q2():
    z = zeta.mzv(field(2), (1,), 5)
    assert z.val == 0 and list(z.coeffs) == [1, 0, 1, 1, 1, 1]


def test_mzv_leading_digit_is_one():
    for q in (2, 3, 5):
        for w in (1, 2, 5):
            z = zeta.mzv(field(q), (w,), 25)
            assert z.val == 0 and z.coeffs[0] == 1


def test_mzv_depth2_against_double_enumeration():
    fld = field(3)
    n = 40
    got = zeta.mzv(fld, (2, 1), n)
    acc = Laurent.zero(fld)
    for d1 in range(1, 7):       # val(S_{d1}(2) S_{d2}(1)) > 40 beyond d1 = 6
        s1 = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d1, 2), n)
        for d2 in range(0, d1):
            s2 = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d2, 1), n)
            acc = acc + s1 * s2
    assert got.agrees_with(acc, through=n)


def test_mzv_depth3_against_triple_enumeration():
    fld = field(3)
    n = 60
    got = zeta.mzv(fld, (1, 1, 1), n)
    exact = [Laurent.from_ratfunc(zeta.power_sum_exact(fld, d, 1), n) for d in range(7)]
    acc = Laurent.zero(fld)
    for d1 in range(2, 7):       # val(S_{d1}(1)) > 60 beyond d1 = 6
        for d2 in range(1, d1):
            for d3 in range(0, d2):
                acc = acc + exact[d1] * exact[d2] * exact[d3]
    assert got.prec == n and got.agrees_with(acc, through=n)


def test_mzv_truncation_soundness():
    for q, s in [(2, (1,)), (3, (2, 1)), (5, (1, 2))]:
        a = zeta.mzv(field(q), s, 25)
        b = zeta.mzv(field(q), s, 50)
        assert a.agrees_with(b, through=25)


def test_chen_product_formula_through_deep_digits():
    """zeta(r) zeta(s) = zeta(r+s) + zeta(r,s) + zeta(s,r)
    + sum over 0 < j < r+s, (q-1) | j, of Delta^j_{r,s} zeta(r+s-j, j), with
    Delta^j_{r,s} = (-1)^(s-1) C(j-1, s-1) + (-1)^(r-1) C(j-1, r-1) mod p
    (H.-J. Chen, J. Number Theory 148 (2015)), checked through every digit."""
    for q, n in [(3, 1200), (5, 1200), (2, 600)]:
        fld = field(q)
        for r, s in itertools.product(range(1, 4), repeat=2):
            lhs = zeta.mzv(fld, (r,), n) * zeta.mzv(fld, (s,), n)
            rhs = zeta.mzv(fld, (r + s,), n) + zeta.mzv(fld, (r, s), n) + zeta.mzv(fld, (s, r), n)
            for j in range(q - 1, r + s, q - 1):
                delta = ((-1) ** (s - 1) * math.comb(j - 1, s - 1)
                         + (-1) ** (r - 1) * math.comb(j - 1, r - 1))
                rhs = rhs + zeta.mzv(fld, (r + s - j, j), n).scale(delta)
            diff = lhs - rhs
            assert diff.is_zero_to_precision and diff.prec == n, (q, r, s, diff)


def test_mzv_invalid_index():
    with pytest.raises(InvalidIndexError):
        zeta.mzv(field(3), (2, 0), 10)


def test_mzv_thread_safety_smoke():
    fld = field(3)
    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(lambda _: zeta.mzv(fld, (2, 1), 40), range(8)))
    assert all(r == results[0] for r in results)


# -- alternating multizeta --------------------------------------------------------

def test_amzv_trivial_character_equals_mzv():
    fld = field(3)
    for s in [(1,), (2, 1), (1, 1, 1)]:
        assert zeta.amzv(fld, s, (1,) * len(s), 30) == zeta.mzv(fld, s, 30)


def test_amzv_depth1_weighted_enumeration():
    fld = field(3)
    got = zeta.amzv(fld, (1,), (-1,), 20)
    acc = Laurent.zero(fld)
    for d in range(0, 4):
        s = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d, 1), 20)
        acc = acc + s.scale((-1) ** d)
    assert got.agrees_with(acc, through=20)


def test_amzv_depth2_weighted_enumeration():
    fld = field(3)
    got = zeta.amzv(fld, (2, 1), (-1, 1), 30)
    acc = Laurent.zero(fld)
    for d1 in range(1, 6):
        s1 = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d1, 2), 30).scale((-1) ** d1)
        for d2 in range(0, d1):
            s2 = Laurent.from_ratfunc(zeta.power_sum_exact(fld, d2, 1), 30)
            acc = acc + s1 * s2
    assert got.agrees_with(acc, through=30)


def test_amzv_rejects_bad_signs():
    fld = field(3)
    with pytest.raises(InvalidIndexError):
        zeta.amzv(fld, (1, 1), (-1,), 10)
    with pytest.raises(InvalidIndexError):
        zeta.amzv(fld, (1,), (0,), 10)


# -- CMPLs -------------------------------------------------------------------------

def test_carlitz_log_at_one_is_zeta_one():
    for q in (2, 3):
        fld = field(q)
        diff = zeta.carlitz_log(fld, 1, 60) - zeta.mzv(fld, (1,), 60)
        assert diff.is_zero_to_precision and diff.prec >= 60


def test_carlitz_log_zero():
    assert zeta.carlitz_log(field(3), 0, 30).is_exact_zero


def test_cmpl_zero_point_gives_exact_zero():
    fld = field(3)
    assert zeta.cmpl(fld, (2, 1), [1, 0], 30).is_exact_zero


def test_cmpl_partial_sum_oracle():
    fld = field(2)
    u = RatFunc.from_poly(Poly.gen(fld))
    got = zeta.cmpl(fld, (2,), [u], 30)
    acc = RatFunc.zero(fld)
    for i in range(10):
        acc = acc + RatFunc(Poly.gen(fld).dilate(2 ** i), bracket_L(fld, i) ** 2)
    assert got.agrees_with(Laurent.from_ratfunc(acc, 30), through=30)


def test_carlitz_log_theta_oracle():
    fld = field(3)
    u = RatFunc.from_poly(Poly.gen(fld))
    got = zeta.carlitz_log(fld, u, 40)
    acc = RatFunc.zero(fld)
    for i in range(6):
        acc = acc + RatFunc(Poly.gen(fld).dilate(3 ** i), bracket_L(fld, i))
    assert got.agrees_with(Laurent.from_ratfunc(acc, 40), through=40)


def test_cmpl_depth2_double_sum_oracle():
    # Li_(2,1)(theta, 1) = sum over i1 > i2 of theta^{q^i1} / (L_i1^2 L_i2)
    fld = field(3)
    theta = Poly.gen(fld)
    got = zeta.cmpl(fld, (2, 1), [RatFunc.from_poly(theta), 1], 30)
    acc = RatFunc.zero(fld)
    for i1 in range(1, 5):       # val of the i1 layer is 2*3^i1 - 3 > 30 beyond i1 = 2
        for i2 in range(i1):
            acc = acc + RatFunc(theta.dilate(3 ** i1),
                                bracket_L(fld, i1) ** 2 * bracket_L(fld, i2))
    assert got.prec == 30 and got.agrees_with(Laurent.from_ratfunc(acc, 30), through=30)


def test_cmpl_depth2_truncation_soundness():
    fld = field(3)
    u = [RatFunc.from_poly(Poly.gen(fld)), RatFunc.one(fld)]
    a = zeta.cmpl(fld, (2, 1), u, 30)
    b = zeta.cmpl(fld, (2, 1), u, 60)
    assert a.agrees_with(b, through=30)


def test_convergence_check():
    f2 = field(2)
    assert zeta.convergence_check(f2, (1,), [RatFunc.one(f2)])
    # borderline rejected: ||theta^2|| = q^2 equals the bound q^{q/(q-1)} at q=2, s=1
    assert not zeta.convergence_check(f2, (1,), [RatFunc.from_poly(Poly.monomial(f2, 1, 2))])
    # AT polynomials stay inside the domain for n <= q^2 (q in {2,3})
    from ffzeta import anderson

    for q in (2, 3):
        fld = field(q)
        for n in range(1, q * q + 1):
            assert zeta.convergence_check(fld, (n,), [anderson.at_polynomial(fld, n - 1)]), (q, n)


def test_cmpl_divergence_error_names_slot():
    fld = field(2)
    bad = RatFunc.from_poly(Poly.monomial(fld, 1, 2))
    with pytest.raises(ConvergenceError, match=r"slot\(s\) \[1\]"):
        zeta.cmpl(fld, (2, 1), [1, bad], 20)
    with pytest.raises(InvalidIndexError, match="one point per index entry required"):
        zeta.cmpl(fld, (2, 1), [0], 20)


# -- the period ----------------------------------------------------------------------

@pytest.mark.parametrize("first", [(), (200,)], ids=["cold", "after-prec-200"])
def test_l_power_inverse_without_digits_raises_in_any_memo_state(first):
    # 1/L_4^3 at q=2 starts at theta^-90: nothing through prec 80, whether
    # or not the memo holds an entry at a higher prec
    fld = field(2)
    cache.clear_memos()
    for prec in first:
        assert zeta._l_power_inverse(fld, 4, 3, prec).val == 90
    with pytest.raises(DomainError, match="no digits"):
        zeta._l_power_inverse(fld, 4, 3, 80)
    assert zeta._l_power_inverse(fld, 4, 3, 90).val == 90


def test_period_valuation_and_power_law():
    for q in (2, 3, 5):
        fld = field(q)
        p1 = zeta.carlitz_period_power(fld, 1, 40)
        assert p1.val == -q
        p2 = zeta.carlitz_period_power(fld, 2, 40)
        assert p2.agrees_with(p1 * p1)


def test_period_rejects_bad_m():
    with pytest.raises(InvalidIndexError):
        zeta.carlitz_period_power(field(3), 0, 20)


def test_period_truncation_soundness():
    fld = field(3)
    a = zeta.carlitz_period_power(fld, 1, 30)
    b = zeta.carlitz_period_power(fld, 1, 90)
    assert a.agrees_with(b, through=30)
    # the first two factors the product leaves out change no digit through
    # prec; factor 3 moves the digit at q^3 - 1 - qm, on both sides of the cut
    for q in (2, 3, 5):
        fld = field(q)
        for m in (1, 2):
            for prec in (q ** 3 - 2 - q * m, q ** 3 - 1 - q * m, 30, 90):
                i = 1
                while q ** i - 1 - q * m <= prec:  # factor i is the first one left out
                    i += 1
                cut = zeta.carlitz_period_power(fld, m, prec)
                wider = zeta.carlitz_period_power(fld, m, q ** (i + 1) - 1 - q * m)
                assert cut.prec == prec and cut.agrees_with(wider, through=prec), (q, m, prec)


# -- precision argument -----------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda fld, prec: zeta.power_sum_series(fld, 1, 1, prec),
    lambda fld, prec: zeta.mzv(fld, (2, 1), prec),
    lambda fld, prec: zeta.amzv(fld, (2, 1), (1, 2), prec),
    lambda fld, prec: zeta.cmpl(fld, (1,), [1], prec),
    lambda fld, prec: zeta.carlitz_period_power(fld, 1, prec),
    lambda fld, prec: anderson.deformation_value(fld, (1,), [1], prec),
], ids=["power_sum_series", "mzv", "amzv", "cmpl", "carlitz_period_power",
        "deformation_value"])
def test_infinite_prec_is_a_domain_error(call):
    with pytest.raises(DomainError, match="power_sum_exact"):
        call(field(3), math.inf)
