"""Power sums, multizeta, alternating multizeta, CMPLs, the period."""

import itertools
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ffzeta import anderson, backend, cache, zeta
from ffzeta.errors import BudgetError, ConvergenceError, DomainError, InvalidIndexError
from ffzeta.laurent import Laurent
from ffzeta.scalar import (Poly, RatFunc, base_q_digits, bracket_L, carlitz_gamma,
                           carlitz_gamma_degree, field)

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
    # 5^9 monic polynomials of degree 9 are past the budget of 10^6
    with pytest.raises(BudgetError, match="budget 1000000"):
        zeta.power_sum_exact(field(5), 9, 1)


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


def _digit_floor(q, d, n):
    """q ((1 + s_q(n-1)) q^d - n)/(q-1), from the degrees of H_{n-1}."""
    return q * ((1 + sum(base_q_digits(n - 1, q))) * q ** d - n) // (q - 1)


def test_val_bound_is_the_larger_of_the_quadratic_bound_and_the_digit_floor():
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        for n in range(1, 60):
            for d in range(0, 6):
                quadratic = n * d + (q - 1) * d * (d + 1) // 2
                assert zeta.power_sum_val_bound(q, d, n) == max(quadratic, _digit_floor(q, d, n))
                # the floor is an integer: q ((1 + s) q^d - n) is a multiple of q-1
                assert q * ((1 + sum(base_q_digits(n - 1, q))) * q ** d - n) % (q - 1) == 0
                # and increases in d, so the walk's bound does too
                assert _digit_floor(q, d + 1, n) > _digit_floor(q, d, n)
                assert zeta.power_sum_val_bound(q, d + 1, n) > zeta.power_sum_val_bound(q, d, n)


def test_val_power_sum_meets_the_digit_floor_with_equality_up_to_q():
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        fld = field(q)
        for n in range(1, 41):
            for d in range(1, 5):
                floor = _digit_floor(q, d, n)
                if floor > 3000:
                    break
                # with no prec, the identity route returns the first digit
                val = int(zeta._power_sum_from_identity(fld, d, n).val)
                assert val >= zeta.power_sum_val_bound(q, d, n) >= floor, (q, d, n)
                if n <= q:  # S_d(n) = 1/l_d^n (Carlitz)
                    assert val == floor, (q, d, n)
                checked += 1
    cache.clear_memos()
    assert checked > 900


@pytest.mark.parametrize("q", [2, 3])
def test_at_polynomial_degrees_meet_the_lemmas_of_the_floor(q):
    """deg_t H_m <= deg Gamma_{m+1} and deg_theta H_m <= q (m - s_q(m))/(q-1),
    on the tower to H_149."""
    fld = field(q)
    cache.clear_memos()
    try:
        anderson.at_polynomial(fld, 149)
        for m in range(150):
            h = anderson.at_polynomial(fld, m)
            assert h.t_degree <= carlitz_gamma_degree(q, m + 1), m
            assert h.theta_degree <= q * (m - sum(base_q_digits(m, q))) // (q - 1), m
    finally:
        cache.clear_memos()  # the q=2 tower holds about 100 MB


@pytest.mark.parametrize("q,s,prec", [(2, (1, 149), 152), (3, (1, 100), 104)])
def test_a_large_last_entry_below_its_floor_builds_no_tower_for_it(monkeypatch, q, s, prec):
    fld = field(q)
    built = []
    tower = anderson._at_tower

    def spy(f, stale, n):
        built.append(n)
        return tower(f, stale, n)

    monkeypatch.setattr(anderson, "_at_tower", spy)
    cache.clear_memos()
    # S_d(s_2) is zero through prec for d >= 1, so zeta(s) = zeta(1) - 1 there
    want = zeta.mzv(fld, s[:1], prec) - Laurent.one(fld)
    assert built == [0]  # entry 1 reads H_0 alone
    cache.clear_memos()
    built.clear()
    assert zeta.mzv(fld, s, prec) == want
    assert built == [0]


def test_series_far_beyond_enumeration_budget():
    # d = 40 would need q^40 enumerations; the series path just returns the tail bound
    fld = field(2)
    s = zeta.power_sum_series(fld, 40, 1, 500)
    assert s.is_zero_to_precision and s.prec == 500


def _first_refused_entry(q):
    """The least entry n whose tower H_0..H_{n-1} is past the tower budget."""
    n = 1
    while anderson.tower_bytes(q, n - 1) <= anderson.TOWER_BUDGET:
        n += 1
    return n


def test_series_past_the_entry_budget_raises_before_any_tower_work(monkeypatch):
    fld = field(3)
    n = _first_refused_entry(3)
    assert n == 195
    bound = zeta.power_sum_val_bound(3, 1, n)
    # an entry whose every digit lies past prec is still the exact zero there
    assert zeta.power_sum_series(fld, 1, n, bound - 1) == Laurent.zero_to_prec(fld, bound - 1)
    assert zeta.mzv(fld, (n,), bound - 1) == Laurent.one(fld).truncate(bound - 1)

    def no_tower(*args):
        raise AssertionError("tower work before the budget check")

    monkeypatch.setattr(anderson, "_at_tower", no_tower)
    cache.clear_memos()
    tower = rf"index entry {n}: the Anderson-Thakur tower H_0\.\.H_{n - 1} at q=3 is predicted"
    with pytest.raises(BudgetError, match=tower + rf" .* tower budget of 96 MiB; "
                                          rf"S_1\({n}\) needs no H below prec {bound}$"):
        zeta.power_sum_series(fld, 1, n, bound)
    with pytest.raises(BudgetError, match=tower):
        zeta.mzv(fld, (n, 1), 500)


def test_entry_at_the_budget_is_served_cold_within_seconds():
    """The largest entry served at q=2 (the largest towers), from a cold
    memo: about 1 s on one core, where a dense product by each F_i in the
    tower recursion took about 11 s."""
    fld = field(2)
    n = _first_refused_entry(2) - 1
    assert n == 150
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


def _compositions(w):
    """Every composition of w, as a tuple of positive entries."""
    for k in range(w):
        for cuts in itertools.combinations(range(1, w), k):
            ends = (0,) + cuts + (w,)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


def test_walk_memo_order_does_not_change_digits():
    # the walk memo keeps every prefix's running sums at the highest prec
    # seen and serves lower ones from them, so no order of requests can
    # change a digit
    srng = random.Random(53)
    grid = []
    for q in (2, 3, 4, 5, 9):
        for w in range(1, 6):
            for s in _compositions(w):
                eps = tuple(srng.randrange(1, q) for _ in s)
                grid += [(q, s, None), (q, s, eps)]

    def value(q, s, eps, prec):
        fld = field(q)
        return zeta.mzv(fld, s, prec) if eps is None else zeta.amzv(fld, s, eps, prec)

    precs = (150, 60, 300)
    want = {}
    for q, s, eps in grid:
        for prec in precs:
            cache.clear_memos()
            want[q, s, eps, prec] = value(q, s, eps, prec)
    requests = [(q, s, eps, prec) for q, s, eps in grid for prec in precs]
    srng.shuffle(requests)
    cache.clear_memos()
    for key in requests:
        assert value(*key) == want[key], key


def test_walk_memo_sweeps_only_the_slots_past_its_prefix(monkeypatch):
    fld = field(3)
    prec = 150
    calls = []
    series = zeta.power_sum_series

    def spy(fld, d, n, prec):
        calls.append((d, n, prec))
        return series(fld, d, n, prec)

    cache.clear_memos()
    want = zeta.mzv(fld, (2, 1, 1), prec)
    cache.clear_memos()
    zeta.mzv(fld, (2, 1), prec)
    monkeypatch.setattr(zeta, "power_sum_series", spy)
    assert zeta.mzv(fld, (2, 1, 1), prec) == want

    # slot 2 (entry 1) visits d while S_d(1) S_{d+1}(1) S_{d+2}(2) can
    # reach prec, from the top d down; slots 0 and 1 come from the memo
    def bound(d):
        return sum(zeta.power_sum_val_bound(3, d + k, n) for k, n in enumerate((1, 1, 2)))

    top = 0
    while bound(top) <= prec:
        top += 1
    assert calls == [(d, 1, prec) for d in range(top - 1, -1, -1)]

    # clear_memos empties the walk memo: slot 0 (entry 2) is swept again
    calls.clear()
    cache.clear_memos()
    assert zeta.mzv(fld, (2, 1, 1), prec) == want
    assert any(n == 2 for _, n, _ in calls)


def test_walk_calls_no_factor_without_a_digit_through_its_prec(monkeypatch):
    """On the zeta-batch family, every composition of weight <= 4 at q=3
    and N=300 with every sign vector, each S_d(n) the walk asks for has a
    digit through the prec it asks for: the floor stops every slot at the
    last degree that can reach prec."""
    fld = field(3)
    nested, asked, empty = zeta._nested_sum, [], []

    def spy(r, lo, bound, factor, prec, level=None, carry=None):
        def watched(j, l, p):
            x = factor(j, l, p)
            asked.append((j, l, p))
            if x.is_zero_to_precision:
                empty.append((j, l, p))
            return x

        return nested(r, lo, bound, watched, prec, level, carry)

    monkeypatch.setattr(zeta, "_nested_sum", spy)
    cache.clear_memos()
    for w in range(1, 5):
        for s in _compositions(w):
            zeta.mzv(fld, s, 300)
            for eps in itertools.product((1, 2), repeat=len(s)):
                zeta.amzv(fld, s, eps, 300)
    assert asked and not empty


def test_amzv_with_leading_ones_reuses_the_mzv_prefix_sums(monkeypatch):
    fld, prec = field(3), 300
    s, eps = (3, 2, 1), (1, 1, 2)
    # the quadratic bound and a cold memo: the walk as it was before the
    # floor, with no prefix shared
    monkeypatch.setattr(zeta, "power_sum_val_bound",
                        lambda q, d, n: n * d + (q - 1) * d * (d + 1) // 2)
    cache.clear_memos()
    want = zeta.amzv(fld, s, eps, prec)
    monkeypatch.undo()

    nested, swept = zeta._nested_sum, []

    def spy(r, lo, bound, factor, prec, level=None, carry=None):
        def counted(j, sweep):
            return level(j, lambda: swept.append(j) or sweep())

        return nested(r, lo, bound, factor, prec, counted, carry)

    monkeypatch.setattr(zeta, "_nested_sum", spy)
    cache.clear_memos()
    zeta.mzv(fld, s, prec)
    assert swept == [0, 1, 2]
    swept.clear()
    assert zeta.amzv(fld, s, eps, prec) == want
    assert swept == [2]  # slots 0 and 1 carry signs 1, 1: the mzv sums
    swept.clear()
    assert zeta.amzv(fld, s, (2, 1, 1), prec) != want
    assert swept == [0, 1, 2]  # a sign other than 1 in slot 0 shares nothing


# -- the nested-sum walk ----------------------------------------------------------

def _tuple_walk(fld, r, lo, bound, factor, prec, visits=None, carry=None):
    """Oracle: the walk before the suffix form, one product per admissible
    tuple l_1 > ... > l_r >= lo (sign weights now live in the factors).  Slot pos is visited at l while the least
    completion keeps the bound sum <= prec, and asked for prec minus the
    least sum the other slots can still reach.  With ``carry``, each
    tuple's product is carried from its top height m = l_1 down to lo + 1
    by the carry of slot k, the last slot at height >= m."""
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
                for m in range(chosen[0], lo, -1) if carry else ():
                    term = carry(max(k for k in range(r) if chosen[k] >= m), m, term, prec)
                total = total + term
            l += 1

    walk(r - 1, lo, 0, Laurent.one(fld))
    return total.truncate(prec)


def _over_tuple_walk(fld, calls=None):
    """``_nested_sum``'s signature over the oracle: only the last partial,
    with no per-level memo; each call is counted in ``calls``."""
    def walk(r, lo, bound, factor, prec, level=None, carry=None):
        if calls is not None:
            calls.append(r)
        return [None] * (r - 1) + [_tuple_walk(fld, r, lo, bound, factor, prec, carry=carry)]

    return walk


def _over_l_power(x, i, s):
    """x / L_i^s, exact through x.prec + s deg L_i (x.prec finite), from
    L_i = (-1)^i theta^{e_i} prod_{j=1..i} (1 - theta^{1-q^j}) with
    e_i = q + ... + q^i = deg L_i: every factor of L_i^s in one quotient."""
    q = x.field.q
    value = zeta._divide_by_units(x.shift(s * ((q ** (i + 1) - q) // (q - 1))),
                                  [(q ** j - 1, s) for j in range(1, i + 1)])
    return -value if i * s % 2 else value


def _quotient_tuple_walk(fld, s, point_power=0):
    """``_nested_sum``'s signature over the tuple oracle of the twisted walk
    without its carry: each numerator N_j(l) is divided by all of
    L_{l-P}^{q^P s_j} by ``_over_l_power``, and the products summed."""
    scale = fld.q ** point_power

    def walk(r, lo, bound, factor, prec, level=None, carry=None):
        def quotient(j, l, p):
            return _over_l_power(factor(j, l, p), l - point_power, scale * s[j])

        return [None] * (r - 1) + [_tuple_walk(fld, r, lo, bound, quotient, prec)]

    return walk


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
    # cold memos, and the oracle called for both values: no memo may
    # answer the patched run in place of the walk
    cache.clear_memos()
    calls = []
    monkeypatch.setattr(zeta, "_nested_sum", _over_tuple_walk(fld, calls))
    assert new == (zeta.mzv(fld, s, prec), zeta.amzv(fld, s, eps, prec))
    assert calls == [len(s), len(s)]


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
    assert new == values()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_twisted_walk_matches_the_quotient_sum_over_tuples(monkeypatch, q):
    # bit for bit: the carried brackets against sum N / L^sigma per tuple
    fld = field(q)
    theta, one = Poly.gen(fld), Poly.one(fld)
    pts = [RatFunc.from_poly(theta), RatFunc(one, theta + one), q - 1]
    real = zeta._nested_sum
    for s in [(1,), (3,), (2, 1), (1, 2), (1, 1, 1), (2, 1, 2)]:
        at = [anderson.at_polynomial(fld, sj - 1) for sj in s]
        eps = [1 + (j + 1) % (q - 1) for j in range(len(s))]  # units of F_q
        cases = [(0, lambda: anderson.deformation_value(fld, s, at, 150)),
                 (0, lambda: anderson.deformation_value(fld, s, at, 150, eps=eps)),
                 (1, lambda: anderson.deformation_value(fld, s, at, 300, point_power=1)),
                 (0, lambda: zeta.cmpl(fld, s, pts[: len(s)], 200)),
                 (1, lambda: anderson.deformation_value(fld, s, pts[: len(s)], 300, point_power=1))]
        for point_power, value in cases:
            monkeypatch.setattr(zeta, "_nested_sum", real)
            new = value()
            monkeypatch.setattr(zeta, "_nested_sum", _quotient_tuple_walk(fld, s, point_power))
            assert value() == new, (s, point_power)


def test_twisted_walk_divides_by_one_bracket_per_call(monkeypatch):
    fld = field(3)
    theta = Poly.gen(fld)
    s = (2, 1, 2)
    at = [anderson.at_polynomial(fld, sj - 1) for sj in s]
    gaps, visits, calls = [], [], itertools.count()
    quotient, walk = backend.unit_quotient_mod, zeta._nested_sum

    def spy(a, factors, f):
        gaps.append(len(factors))
        return quotient(a, factors, f)

    def counted(r, lo, bound, factor, prec, level=None, carry=None):
        call = next(calls)

        def visit(j, l, p):
            visits.append((call, j))
            return factor(j, l, p)

        return walk(r, lo, bound, visit, prec, level, carry)

    monkeypatch.setattr(backend, "unit_quotient_mod", spy)
    monkeypatch.setattr(zeta, "_nested_sum", counted)
    anderson.deformation_value(fld, s, at, 300)
    anderson.deformation_value(fld, s, at, 300, eps=[1, -1, 1])
    anderson.vanishing_order_profile(fld, s, at, 8, 300)
    zeta.cmpl(fld, s, [theta, 1, RatFunc(Poly.one(fld), theta)], 300)
    zeta.carlitz_log(fld, 1, 1500)
    # one call per visited (slot, height) but the lowest of each slot, and
    # every call one gap
    assert set(gaps) == {1}
    assert len(gaps) == len(visits) - len(set(visits))


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


@pytest.mark.parametrize("q", [4, 9])
@pytest.mark.parametrize("point_power", [0, 1])
def test_twisted_walk_expands_each_point_once(monkeypatch, q, point_power):
    fld = field(q)
    theta, one = Poly.gen(fld), Poly.one(fld)
    points = [RatFunc(theta, theta * theta + one), RatFunc(one, theta + one)]
    expand, calls = Laurent.from_ratfunc.__func__, []

    def spy(cls, r, prec):
        calls.append(r)
        return expand(cls, r, prec)

    monkeypatch.setattr(Laurent, "from_ratfunc", classmethod(spy))
    # both slots are visited once prec passes the first digit (252 at q = 9, P = 1)
    for prec in (300, 900):
        calls.clear()
        if point_power:
            anderson.deformation_value(fld, (2, 1), points, prec, point_power=1)
        else:
            zeta.cmpl(fld, (2, 1), points, prec)
        assert calls == points, prec


def _own_walk_cmpl(fld, s, points, prec):
    """Oracle: cmpl with its own valuation bound and factor over
    ``zeta._nested_sum``, as it was before it became the twisted walk at
    constant inputs."""
    us = [zeta._as_ratfunc(fld, u) for u in points]
    zeta._require_convergence(fld, zeta.coerce_index(s), us, "CMPL")
    if any(u.is_zero for u in us):
        return Laurent.zero(fld)
    q = fld.q
    vus = [-u.infty_degree() for u in us]

    def phi(j, i):
        return q ** i * vus[j] + s[j] * ((q ** (i + 1) - q) // (q - 1))

    def factor(j, i, out_prec):
        u_prec = out_prec - s[j] * ((q ** (i + 1) - q) // (q - 1))
        upart = Laurent.from_ratfunc(us[j], max(u_prec // q ** i + 1, vus[j]))
        return _over_l_power(upart.qth_power(i, out_prec=u_prec), i, s[j])

    last = zeta._nested_sum(len(s), 0, phi, factor, prec)[-1]
    return Laurent.zero_to_prec(fld, prec) if last is None else last


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25])
def test_cmpl_is_its_own_walk_bit_for_bit(q):
    fld = field(q)
    theta, one = Poly.gen(fld), Poly.one(fld)
    points = [1, RatFunc.from_poly(theta), RatFunc(one, theta + one),
              RatFunc(theta, theta * theta + one), RatFunc(theta + one, theta), q - 1]
    indices = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 2)]
    for k, s in enumerate(indices):
        for shift in range(3):
            pts = [points[(k + 2 * shift + j) % len(points)] for j in range(len(s))]
            for prec in (0, 1, 7, 40, 200):
                assert zeta.cmpl(fld, s, pts, prec) == _own_walk_cmpl(fld, s, pts, prec), \
                    (s, shift, prec)
    for u in points:
        for prec in (0, 1, 7, 40, 200):
            assert zeta.carlitz_log(fld, u, prec) == _own_walk_cmpl(fld, (1,), [u], prec)
    zero = zeta.cmpl(fld, (2, 1), [RatFunc.from_poly(theta), 0], 40)
    assert zero.is_exact_zero and zero == _own_walk_cmpl(fld, (2, 1), [theta, 0], 40)
    bad = Poly.monomial(fld, 1, 4)  # 4 (q-1) >= 2 q: Li_(2) diverges at theta^4
    for walk in (zeta.cmpl, _own_walk_cmpl):
        with pytest.raises(ConvergenceError, match=r"CMPL series diverges.*slot\(s\) \[0\]"):
            walk(fld, (2,), [bad], 40)


def test_convergence_check():
    f2 = field(2)
    assert zeta._diverging_slots(f2, zeta.coerce_index((1,)), [RatFunc.one(f2)]) == []
    # borderline rejected: ||theta^2|| = q^2 equals the bound q^{q/(q-1)} at q=2, s=1
    theta2 = RatFunc.from_poly(Poly.monomial(f2, 1, 2))
    assert zeta._diverging_slots(f2, zeta.coerce_index((1,)), [theta2]) == [0]
    # AT polynomials stay inside the domain for n <= q^2 (q in {2,3})
    from ffzeta import anderson

    for q in (2, 3):
        fld = field(q)
        for n in range(1, q * q + 1):
            h = anderson.at_polynomial(fld, n - 1)
            assert zeta._diverging_slots(fld, zeta.coerce_index((n,)), [h]) == [], (q, n)


def test_cmpl_divergence_error_names_slot():
    fld = field(2)
    bad = RatFunc.from_poly(Poly.monomial(fld, 1, 2))
    with pytest.raises(ConvergenceError, match=r"slot\(s\) \[1\]"):
        zeta.cmpl(fld, (2, 1), [1, bad], 20)
    with pytest.raises(InvalidIndexError, match="one point per index entry required"):
        zeta.cmpl(fld, (2, 1), [0], 20)


# -- the period ----------------------------------------------------------------------

def test_over_l_power_without_digits_is_zero_to_prec():
    # x / L_4^3 at q=2 starts 90 places past val x: x = 1 + O(theta^11)
    # leaves no digit through prec 80, which the quotient says, not raises
    fld = field(2)
    empty = _over_l_power(Laurent(fld, 0, [1], -10), 4, 3)
    assert empty.is_zero_to_precision and not empty.is_exact_zero and empty.prec == 80
    first = _over_l_power(Laurent(fld, 0, [1], 0), 4, 3)
    assert (first.val, first.prec, first.coeffs.tolist()) == (90, 90, [1])


@pytest.mark.parametrize("first", [(), (200,)], ids=["cold", "after-prec-200"])
def test_l_power_inverse_without_digits_raises_in_any_memo_state(first):
    # 1/L_4^3 at q=2 starts at theta^-90: its Newton inverse has nothing
    # through prec 80 and raises, and the unit quotient gives zero to prec,
    # whether or not a higher-prec quotient was taken first
    fld = field(2)
    l_cube = Laurent.from_poly(bracket_L(fld, 4) ** 3)
    cache.clear_memos()
    for prec in first:
        assert _over_l_power(Laurent(fld, 0, [1], prec - 90), 4, 3).val == 90
    with pytest.raises(DomainError, match="no digits"):
        l_cube.inv(prec=80)
    empty = _over_l_power(Laurent(fld, 0, [1], -10), 4, 3)
    assert empty.is_zero_to_precision and empty.prec == 80
    assert _over_l_power(Laurent(fld, 0, [1], 0), 4, 3) == l_cube.inv(prec=90)


def _newton_period_power(fld, m, prec):
    """Reference for ``carlitz_period_power``: the unit prod (1 - theta^{1-q^i})
    by products, then its Newton inverse raised to the (q-1)m-th power."""
    q = fld.q
    work = prec + q * m
    unit = Laurent.one(fld)
    i = 1
    while q ** i - 1 <= work:
        coeffs = np.zeros(q ** i, dtype=np.int64)
        coeffs[0], coeffs[-1] = 1, fld.neg(1)
        unit = (unit * Laurent(fld, 0, coeffs, math.inf)).truncate(work)
        i += 1
    sign = fld.pow(fld.from_int(-1), q * m)
    return (unit.inv(prec=work) ** ((q - 1) * m)).scale(sign).shift(-q * m).truncate(prec)


@pytest.mark.parametrize("q,precs", [(2, (1, 40, 200)), (3, (5, 80)), (4, (40,)), (9, (100,)),
                                     (25, (60,)), (49, (30,)), (251, (30,)),
                                     (65521, (30,)), (65536, (30,))])
def test_period_power_matches_newton_route(q, precs):
    fld = field(q)
    for m in (1, 2, 3) if q < 251 else (1,):
        for prec in precs:
            assert zeta.carlitz_period_power(fld, m, prec) == _newton_period_power(fld, m, prec)


def _newton_power_sum(fld, d, n, prec):
    """Reference for the unit quotient in ``power_sum_series``: the numerator
    window times the Newton inverse of U_k^n Gamma_n theta^{-deg Gamma_n}."""
    q = fld.q
    gamma = carlitz_gamma(fld, n)
    c = n * (q * (q ** d - 1) // (q - 1)) + int(gamma.degree)
    numer = Laurent.from_bipoly(anderson.at_polynomial(fld, n - 1), 1, q ** d, prec - c).shift(c)
    if numer.is_zero_to_precision:
        return numer
    width = prec - int(numer.val)
    k = 0
    while k < d and q ** (k + 1) - 1 <= width:
        k += 1
    l_k = bracket_L(fld, k)
    unit = Laurent.from_poly(l_k).shift(int(l_k.degree)).scale(fld.pow(fld.neg(1), k))
    denom = unit.truncate(width) ** n * Laurent.from_poly(gamma).shift(int(gamma.degree))
    value = numer * denom.inv(prec=width)
    return -value if n * d % 2 else value


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_power_sum_series_matches_newton_route(q):
    fld = field(q)
    for d in (1, 2, 3):
        for n in (1, 2, q - 1, q, q + 1, q * q + 1, min(2 * q * q - 1, 100)):
            # a prec some digits past the quadratic valuation bound
            prec = n * d + (q - 1) * d * (d + 1) // 2 + 3 * q ** d
            assert zeta.power_sum_series(fld, d, n, prec) == _newton_power_sum(fld, d, n, prec), \
                (d, n, prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_over_l_power_matches_newton_inverse(q):
    fld, draw = field(q), random.Random(q)
    for i in range(4):
        deg_l = int(bracket_L(fld, i).degree)
        for s in (1, 2, fld.p, fld.p + 1, 2 * q):
            for prec in (-3, 0, 17, 90):
                x = Laurent(fld, -3, [draw.randrange(q) for _ in range(prec + 4)], prec)
                if x.is_zero_to_precision:
                    continue
                inv = Laurent.from_poly(bracket_L(fld, i) ** s).inv(prec=prec + s * deg_l - int(x.val))
                assert _over_l_power(x, i, s) == x * inv, (i, s, prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_over_l_power_is_one_bracket_at_a_time(q):
    # the twisted walk's carry: L_i = b_1 ... b_i, b_u = theta - theta^{q^u}
    # = -theta^{q^u} (1 - theta^{1-q^u}), so dividing by b_1^s, ..., b_i^s
    # one at a time is dividing by L_i^s
    fld, draw = field(q), random.Random(q)
    for i in range(4):
        for s in (1, 2, fld.p, 2 * q + 1):
            for prec in (-3, 17, 90):
                x = Laurent(fld, -3, [draw.randrange(1, q)] + [draw.randrange(q) for _ in range(prec + 3)], prec)
                y = x
                for u in range(1, i + 1):
                    y = zeta._divide_by_units(y.shift(s * q ** u), [(q ** u - 1, s)])
                    y = -y if s % 2 else y
                assert y == _over_l_power(x, i, s), (i, s, prec)


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
