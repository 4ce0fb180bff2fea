"""Truncated Laurent arithmetic: expansion oracle, ring maps, valuations,
precision propagation and soundness."""

import json
import random

import numpy as np
import pytest

from ffzeta import backend
from ffzeta.errors import DomainError
from ffzeta.laurent import INF, Laurent, format_laurent
from ffzeta.scalar import (BiPoly, Poly, RatFunc, bracket_L, field, frobenius_twist,
                           poly_eval_at_theta_power)

rng = random.Random(23)


def rand_ratfunc(fld, dmax=6):
    num = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, dmax))])
    den = Poly.zero(fld)
    while den.is_zero:
        den = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, dmax))])
    if num.is_zero:
        num = Poly.one(fld)
    return RatFunc(num, den)


def test_from_ratfunc_geometric_example():
    fld = field(2)
    r = RatFunc(Poly.one(fld), bracket_L(fld, 1))  # 1/(theta + theta^2)
    x = Laurent.from_ratfunc(r, 4)
    assert x.val == 2 and list(x.coeffs) == [1, 1, 1] and x.prec == 4


def test_from_ratfunc_monomials_and_zero():
    fld = field(3)
    theta = Laurent.from_ratfunc(RatFunc.from_poly(Poly.gen(fld)), 10)
    assert theta.val == -1 and theta.prec == INF and list(theta.coeffs) == [1]
    z = Laurent.from_ratfunc(RatFunc.zero(fld), 10)
    assert z.is_exact_zero


def _bipoly_grids(fld):
    """The zero grid, one-row and one-column grids, then random ones."""
    q = fld.q
    draw = random.Random(q)  # its own stream: the module's rng feeds other tests
    shapes = [(1, 1), (1, 6), (5, 1), (3, 4), (4, 7), (6, 2)]
    return [BiPoly.zero(fld)] + [
        BiPoly(fld, [[draw.randrange(q) for _ in range(cols)] for _ in range(rows)])
        for rows, cols in shapes]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_from_bipoly_matches_the_exact_substitution(q):
    # sum h_ij theta^{q^P i + q^ell j} is H^(ell) evaluated at t = theta^{q^P}
    fld = field(q)
    for h in _bipoly_grids(fld):
        for P in (0, 1):
            for ell in range(4):
                exact = Laurent.from_poly(poly_eval_at_theta_power(frobenius_twist(h, ell), P))
                assert Laurent.from_bipoly(h, q ** P, q ** ell) == exact
                top = -int(exact.val) if not h.is_zero else 0  # the top monomial's exponent
                for prec in (-top - 3, -top - 1, -top, -top + 2, -q ** ell - 1, -5, -1, 0, 7):
                    got = Laurent.from_bipoly(h, q ** P, q ** ell, prec)
                    assert got == exact.truncate(prec), (h, P, ell, prec)


def test_from_bipoly_reads_only_the_columns_that_reach_prec():
    # b = 3^50: the columns lie 3^50 apart, and only the top one reaches prec
    fld = field(3)
    h = BiPoly(fld, [[1, 2, 1], [0, 1, 2], [2, 0, 1]])
    b = 3 ** 50
    got = Laurent.from_bipoly(h, 1, b, -2 * b)
    assert got.prec == -2 * b and got.val == -2 * b - 2
    assert list(got.coeffs) == [1, 2, 1]  # theta^2 t^i, i = 2, 1, 0
    assert got.shift(2 * b) == Laurent(fld, -2, [1, 2, 1], 0)
    assert Laurent.from_bipoly(h, 1, b, -2 * b - 3).is_zero_to_precision
    # one exponent short of the middle column's lowest monomial
    assert Laurent.from_bipoly(h, 1, b, -b - 3) == Laurent(fld, -2 * b - 2, [1, 2, 1], -b - 3)


def _from_ratfunc_oracle(r, prec):
    """The expansion by its direct recipe: a monomial denominator divides
    exactly; otherwise the reversed numerator times the reciprocal series of
    the reversed denominator, cut to the digits through prec."""
    fld = r.field
    if r.is_zero:
        return Laurent.zero(fld)
    num, den = r.num, r.den
    if np.count_nonzero(den.coeffs) == 1:
        val = int(den.degree) - int(num.degree)
        return Laurent(fld, val, fld.mul(fld.inv(den.leading()), num.coeffs[::-1]), INF)
    val = int(den.degree - num.degree)
    digits = prec - val + 1
    if digits <= 0:
        return Laurent.zero_to_prec(fld, prec)
    recip = backend.series_recip_mod(den.coeffs[::-1], digits, fld)
    return Laurent(fld, val, backend.convolve_mod(num.coeffs[::-1], recip, fld)[:digits], prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25, 65536])
def test_from_ratfunc_matches_the_direct_recipe(q):
    fld = field(q)
    draw = random.Random(q)  # its own stream: the module's rng feeds other tests

    def poly(deg, const=True):
        c = [draw.randrange(q) for _ in range(deg)] + [draw.randrange(1, q)]
        if not const:
            c[0] = 0
        return Poly(fld, c)

    theta = Poly.gen(fld)
    fracs = [RatFunc.zero(fld), RatFunc.one(fld), RatFunc.from_poly(poly(4))]
    fracs += [RatFunc(poly(dn), theta ** k) for dn in (0, 3) for k in (1, 2, 5)]
    fracs += [RatFunc(poly(dn), poly(dd, const=False)) for dn, dd in ((0, 2), (2, 3), (5, 1))]
    fracs += [RatFunc(poly(dn), poly(dd)) for dn, dd in ((0, 1), (1, 4), (3, 3), (7, 2), (0, 9))]
    for r in fracs:
        for prec in [*range(-12, 13), 40, 256, 700]:
            assert Laurent.from_ratfunc(r, prec) == _from_ratfunc_oracle(r, prec), (r, prec)


@pytest.mark.parametrize("q", [2, 3, 5, 4])
def test_from_ratfunc_is_ring_map(q):
    fld = field(q)
    n = 30
    for _ in range(12):
        r1, r2 = rand_ratfunc(fld), rand_ratfunc(fld)
        a, b = Laurent.from_ratfunc(r1, n), Laurent.from_ratfunc(r2, n)
        assert (a + b).agrees_with(Laurent.from_ratfunc(r1 + r2, n))
        assert (a * b).agrees_with(Laurent.from_ratfunc(r1 * r2, n))
        if not r1.is_zero:
            assert a.inv(prec=n).agrees_with(Laurent.from_ratfunc(r1.inv(), n))


def test_digit_consistency_with_multiplication():
    # verify the expansion by multiplying back: den * expansion == num
    fld = field(3)
    for _ in range(10):
        r = rand_ratfunc(fld)
        n = 25
        x = Laurent.from_ratfunc(r, n)
        back = x * Laurent.from_poly(r.den)
        assert back.agrees_with(Laurent.from_poly(r.num))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_ultrametric_valuation(q):
    fld = field(q)
    for _ in range(20):
        a = Laurent.from_ratfunc(rand_ratfunc(fld), 25)
        b = Laurent.from_ratfunc(rand_ratfunc(fld), 25)
        if a.is_zero_to_precision or b.is_zero_to_precision:
            continue
        s = a + b
        if s.is_zero_to_precision:
            assert a.val == b.val
            continue
        assert s.val >= min(a.val, b.val)
        if a.val != b.val:
            assert s.val == min(a.val, b.val)


def test_precision_soundness_double_precision():
    fld = field(3)
    for _ in range(8):
        r1, r2, r3 = (rand_ratfunc(fld) for _ in range(3))
        n = 20

        def pipeline(prec):
            a = Laurent.from_ratfunc(r1, prec)
            b = Laurent.from_ratfunc(r2, prec)
            c = Laurent.from_ratfunc(r3, prec)
            out = a * b + c
            if not out.is_zero_to_precision:
                out = out * out
            return out + a.qth_power(1)

        assert pipeline(n).agrees_with(pipeline(2 * n), through=pipeline(n).prec)


def test_mul_precision_rule():
    fld = field(3)
    a = Laurent(fld, 2, [1, 1], 10)   # val 2, prec 10
    b = Laurent(fld, -1, [2], 7)      # val -1, prec 7
    prod = a * b
    assert prod.prec == min(2 + 7, -1 + 10)
    assert prod.val == 1


def _rand_operand(fld, draw, size=30):
    """The exact zero, a zero to a finite prec, or a window of up to size
    digits, exact or with a prec at, before or past its end."""
    kind = draw.randrange(5)
    if kind == 0:
        return Laurent.zero(fld)
    if kind == 1:
        return Laurent.zero_to_prec(fld, draw.randrange(-5, 40))
    val = draw.randrange(-5, 40)
    coeffs = [draw.randrange(1, fld.q)] + [draw.randrange(fld.q) for _ in range(draw.randrange(size))]
    prec = INF if kind == 2 else val + draw.randrange(-3, len(coeffs) + 10)
    return Laurent(fld, val, coeffs, prec)


def _full_product(x, y):
    """x * y with both windows convolved in full, then cut to the product's
    prec: the product before ``__mul__`` shortened its operands."""
    fld = x.field
    prec = min(x.val + y.prec, y.val + x.prec)
    return Laurent(fld, int(x.val) + int(y.val), backend.convolve_mod(x.coeffs, y.coeffs, fld), prec)


@pytest.mark.parametrize("q", [2, 3, 5, 4, 9, 25])
def test_short_product_is_the_full_product_truncated(q):
    fld, draw = field(q), random.Random(q)
    cut = 0
    for _ in range(300):
        # windows long enough for the packed product past backend._pack_from
        x, y = (_rand_operand(fld, draw, size=draw.choice([30, 400])) for _ in range(2))
        if x.is_zero_to_precision or y.is_zero_to_precision:
            continue
        want = _full_product(x, y)
        assert x * y == want, (x, y)
        cut += want.prec != INF and x.coeffs.size + y.coeffs.size - 1 > want.prec - want.val + 1
    assert cut > 50


def _sum_over_the_union(x, y):
    """x + y over a zero window spanning both operands, each added in full:
    the formula before ``__add__`` copied the lower operand's window."""
    fld = x.field
    prec = min(x.prec, y.prec)
    if x.coeffs.size == 0 and y.coeffs.size == 0:
        return Laurent.zero(fld) if prec == INF else Laurent.zero_to_prec(fld, prec)
    lo = min(x.val if x.coeffs.size else INF, y.val if y.coeffs.size else INF)
    hi = max(x.val + x.coeffs.size - 1 if x.coeffs.size else -INF,
             y.val + y.coeffs.size - 1 if y.coeffs.size else -INF)
    hi = hi if prec == INF else min(hi, prec)
    if hi < lo:
        return Laurent.zero_to_prec(fld, prec)
    out = np.zeros(int(hi) - int(lo) + 1, dtype=np.int64)
    for src in (x, y):
        if src.coeffs.size:
            a = int(src.val) - int(lo)
            n = min(src.coeffs.size, out.size - a)
            if n > 0:
                out[a : a + n] = fld.add(out[a : a + n], src.coeffs[:n])
    return Laurent(fld, int(lo), out, prec)


@pytest.mark.parametrize("q", [2, 3, 5, 4, 9])
def test_sum_matches_the_sum_over_the_union(q):
    fld, draw = field(q), random.Random(100 + q)
    seen = {"overlap": 0, "disjoint": 0, "cancel": 0}
    for _ in range(600):
        x, y = _rand_operand(fld, draw), _rand_operand(fld, draw)
        if draw.randrange(4) == 0 and x.coeffs.size:
            # y cancels a stretch of x: the sum's window must be trimmed
            cut = draw.randrange(x.coeffs.size + 1)
            y = Laurent(fld, x.val + draw.randrange(2) * cut, fld.neg(x.coeffs[:cut]) if cut
                        else [], INF if draw.randrange(2) else x.val + draw.randrange(60))
            seen["cancel"] += 1
        if x.coeffs.size and y.coeffs.size:
            ends = sorted([(x.val, x.val + x.coeffs.size), (y.val, y.val + y.coeffs.size)])
            seen["overlap" if ends[1][0] < ends[0][1] else "disjoint"] += 1
        assert x + y == _sum_over_the_union(x, y), (x, y)
        assert y + x == _sum_over_the_union(y, x), (x, y)
    assert min(seen.values()) > 30, seen


def test_inv_precision_rule_and_involution():
    fld = field(5)
    a = Laurent(fld, -2, [3, 1, 4, 2, 1], 8)
    inv = a.inv()
    assert inv.prec == 8 - 2 * (-2)
    assert (a * inv).agrees_with(Laurent.one(fld))
    again = inv.inv()
    assert again.agrees_with(a)
    with pytest.raises(DomainError):
        Laurent.zero(fld).inv()
    with pytest.raises(DomainError):
        Laurent.zero_to_prec(fld, 5).inv()


def test_qth_power_frobenius():
    fld = field(2)
    a = Laurent(fld, 1, [1, 1], 6)  # theta^-1 + theta^-2
    sq = a.qth_power(1)
    assert sq.val == 2 and list(sq.coeffs) == [1, 0, 1]
    assert sq.agrees_with(a * a)
    one = Laurent.one(fld)
    assert one.qth_power(3) == one
    # q^m-fold power equals repeated multiplication through precision
    fld5 = field(5)
    x = Laurent.from_ratfunc(rand_ratfunc(fld5), 30)
    if not x.is_zero_to_precision:
        prod = Laurent.one(fld5)
        for _ in range(5):
            prod = prod * x
        assert x.qth_power(1).agrees_with(prod)


@pytest.mark.parametrize("val, coeffs, prec, want_val, want_prec, want_coeffs", [
    (3, [0, 0, 0], 10, 11, 10, []),             # all zero, finite prec
    (3, [0, 0, 0], INF, INF, INF, []),          # all zero, exact
    (-2, [0, 0, 1, 2], 9, 0, 9, [1, 2]),        # leading zeros only
    (-2, [1, 2, 0, 0], 9, -2, 9, [1, 2]),       # trailing zeros only
    (0, [0, 1, 0, 2, 0, 0], INF, 1, INF, [1, 0, 2]),
    (5, [1, 2, 3], 4, 5, 4, []),                # prec cut empties the window
    (5, [0, 0, 7, 1], 7, 7, 7, [7]),            # prec cut leaves one digit
    (4, [2], 6, 4, 6, [2]),                     # a single nonzero digit
    (4, [0, 0, 0, 2, 0], INF, 7, INF, [2]),
])
def test_init_trims_the_window(val, coeffs, prec, want_val, want_prec, want_coeffs):
    x = Laurent(field(11), val, coeffs, prec)
    assert x.val == want_val and x.prec == want_prec
    assert list(x.coeffs) == want_coeffs
    assert not x.coeffs.flags.writeable


def test_zero_to_precision_is_distinct_from_exact_zero():
    fld = field(3)
    fuzzy = Laurent.zero_to_prec(fld, 12)
    assert fuzzy.is_zero_to_precision and not fuzzy.is_exact_zero
    exact = Laurent.zero(fld)
    assert exact.is_exact_zero and exact.is_zero_to_precision
    # subtraction of equal values is fuzzy, not exact; a denominator that is
    # not a monomial gives a truncated value
    a = Laurent.from_ratfunc(RatFunc(Poly(fld, [2, 0, 1]), Poly(fld, [1, 1, 0, 2])), 15)
    assert a.prec != INF
    d = a - a
    assert d.is_zero_to_precision and not d.is_exact_zero


def test_json_roundtrip():
    fld = field(9)
    x = Laurent.from_ratfunc(rand_ratfunc(fld), 14)
    data = x.to_json()
    assert json.loads(json.dumps(data)) == data
    assert data == {"q": 9, "val": int(x.val), "prec": None if x.prec == INF else 14,
                    "coeffs": [int(c) for c in x.coeffs]}
    assert Laurent.zero(fld).to_json() == {"q": 9, "val": None, "prec": None, "coeffs": []}
    fuzzy = Laurent.zero_to_prec(fld, 7).to_json()
    assert fuzzy == {"q": 9, "val": 8, "prec": 7, "coeffs": []}


def test_arithmetic_never_reports_digits_beyond_precision():
    fld = field(3)
    a = Laurent(fld, 0, [1] * 11, 10)
    b = Laurent(fld, 5, [2], 6)
    s = a + b
    assert s.prec == 6
    assert s.val + s.coeffs.size - 1 <= 6


def test_format_renders_the_o_term_like_the_digits():
    fld = field(3)
    assert format_laurent(Laurent.zero_to_prec(fld, 4)) == "O(θ^-5)"
    assert format_laurent(Laurent.zero_to_prec(fld, -1)) == "O(1)"
    assert format_laurent(Laurent.zero_to_prec(fld, -5)) == "O(θ^4)"
    x = Laurent(fld, -3, [1, 0, 0, 2, 1], 1)
    assert format_laurent(x) == "θ^3 + 2 + θ^-1 + O(θ^-2)"
