"""Truncated Laurent arithmetic: expansion oracle, ring maps, valuations,
precision propagation and soundness."""

import random
from fractions import Fraction

import pytest

from ffzeta.errors import DomainError
from ffzeta.laurent import Laurent, format_laurent
from ffzeta.scalar import Poly, RatFunc, bracket_L, field

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
    assert theta.val == -1 and theta.is_exact and list(theta.coeffs) == [1]
    z = Laurent.from_ratfunc(RatFunc.zero(fld), 10)
    assert z.is_exact_zero


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


def test_zero_to_precision_is_distinct_from_exact_zero():
    fld = field(3)
    fuzzy = Laurent.zero_to_prec(fld, 12)
    assert fuzzy.is_zero_to_precision and not fuzzy.is_exact_zero
    exact = Laurent.zero(fld)
    assert exact.is_exact_zero and exact.is_zero_to_precision
    # subtraction of equal values is fuzzy, not exact
    a = Laurent.from_ratfunc(rand_ratfunc(fld), 15)
    d = a - a
    assert d.is_zero_to_precision and not d.is_exact_zero


def test_abs_value():
    f2 = field(2)
    theta = Laurent.from_poly(Poly.gen(f2))
    assert theta.abs_value() == Fraction(2)          # |theta| = q
    assert Laurent.one(f2).abs_value() == Fraction(1)
    # |1/L_1| = q^{-deg L_1} = q^{-q}
    inv_l1 = Laurent.from_ratfunc(RatFunc(Poly.one(f2), bracket_L(f2, 1)), 10)
    assert inv_l1.abs_value() == Fraction(1, 4)
    assert Laurent.zero(f2).abs_value() == 0
    with pytest.raises(DomainError):
        Laurent.zero_to_prec(f2, 3).abs_value()


def test_json_roundtrip():
    fld = field(9)
    x = Laurent.from_ratfunc(rand_ratfunc(fld), 14)
    data = x.to_json()
    assert set(data) == {"q", "val", "prec", "coeffs"}
    assert Laurent.from_json(data) == x
    z = Laurent.zero(fld)
    assert Laurent.from_json(z.to_json(), fld).is_exact_zero
    fuzzy = Laurent.zero_to_prec(fld, 7)
    back = Laurent.from_json(fuzzy.to_json(), fld)
    assert back.is_zero_to_precision and back.prec == 7


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
