"""Field tables, dense polynomials, brackets, gammas and twisting."""

import math
import random

import numpy as np
import pytest

from ffzeta.anderson import GradedSeries
from ffzeta.errors import DomainError, InvalidIndexError
from ffzeta.laurent import Laurent
from ffzeta.scalar import (
    BiPoly,
    Poly,
    RatFunc,
    bracket_D,
    bracket_L,
    carlitz_gamma,
    field,
    frobenius_twist,
    inverse_twist,
    poly_eval_at_theta_power,
)

rng = random.Random(11)


# -- independent oracle: schoolbook multiplication on plain lists -----------

def naive_mul(fld, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fld.add(out[i + j], fld.mul(int(x), int(y)))
    return out


def rand_poly(fld, max_deg, var="theta"):
    return Poly(fld, [rng.randrange(fld.q) for _ in range(max_deg + 1)], var)


# -- fields ------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 121, 256])
def test_field_tables_consistent(q):
    fld = field(q)
    assert fld.p ** fld.e == q
    for a in range(1, q):
        assert fld.mul(a, fld.inv(a)) == 1
    # additive structure: char p
    acc = 0
    for _ in range(fld.p):
        acc = fld.add(acc, 1)
    assert acc == 0


def test_field_rejects_non_prime_power():
    with pytest.raises(DomainError):
        field(6)
    with pytest.raises(DomainError):
        field(1 << 17)


def test_extension_field_records_irreducible():
    fld = field(4)
    assert fld.irreducible is not None and len(fld.irreducible) == 3
    assert fld.irreducible[-1] == 1  # monic


@pytest.mark.parametrize("q", [3, 4, 9])
def test_field_vector_ops_match_scalar(q):
    fld = field(q)
    a = np.array([rng.randrange(q) for _ in range(50)], dtype=np.int64)
    b = np.array([rng.randrange(q) for _ in range(50)], dtype=np.int64)
    for i in range(50):
        assert fld.add(a, b)[i] == fld.add(int(a[i]), int(b[i]))
        assert fld.mul(a, b)[i] == fld.mul(int(a[i]), int(b[i]))


# -- polynomials ---------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_poly_mul_matches_naive(q):
    fld = field(q)
    for _ in range(20):
        a = rand_poly(fld, rng.randrange(0, 12))
        b = rand_poly(fld, rng.randrange(0, 12))
        prod = a * b
        if a.is_zero or b.is_zero:
            assert prod.is_zero
            continue
        want = naive_mul(fld, a.coeffs, b.coeffs)
        got = list(prod.coeffs) + [0] * (len(want) - prod.coeffs.size)
        assert got == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_poly_divmod_roundtrip(q):
    fld = field(q)
    for _ in range(30):
        a = rand_poly(fld, rng.randrange(0, 14))
        b = rand_poly(fld, rng.randrange(0, 8))
        if b.is_zero:
            continue
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_bipoly_exact_div_t(q):
    fld = field(q)
    for _ in range(10):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 6)
        a = BiPoly(fld, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
        den = rand_poly(fld, rng.randrange(1, 5), var="t")
        if den.degree < 1:
            continue
        assert (a * den).exact_div_t(den) == a
        with pytest.raises(DomainError, match="not exact"):
            (a * den + BiPoly.one(fld)).exact_div_t(den)
        with pytest.raises(DomainError, match="not exact"):
            BiPoly.one(fld).exact_div_t(den)
        assert BiPoly.zero(fld).exact_div_t(den).is_zero


def test_poly_gcd_normalised():
    fld = field(3)
    g = Poly(fld, [1, 1])  # theta + 1
    a = g * Poly(fld, [2, 1])
    b = g * Poly(fld, [0, 0, 1])
    got = a.gcd(b)
    assert got == g
    assert got.is_monic


def test_zero_polynomial_degree_sentinel():
    fld = field(2)
    assert Poly.zero(fld).degree == -math.inf
    assert Poly.one(fld).degree == 0


# -- brackets and gamma --------------------------------------------------------

def test_bracket_L_examples():
    # L_0 = 1
    for q in (2, 3, 5):
        assert bracket_L(field(q), 0).is_one
    # q=2: L_1 = theta + theta^2 (char 2)
    assert list(bracket_L(field(2), 1).coeffs) == [0, 1, 1]
    # q=3, d=2: (theta - theta^3)(theta - theta^9), degree 12, vs naive oracle
    fld = field(3)
    f1 = [0, 1, 0, 2]            # theta - theta^3
    f2 = [0, 1] + [0] * 7 + [2]  # theta - theta^9
    want = naive_mul(fld, f1, f2)
    assert list(bracket_L(fld, 2).coeffs) == want
    assert bracket_L(fld, 2).degree == 12


def test_bracket_D_examples():
    for q in (2, 3, 5):
        assert bracket_D(field(q), 0).is_one
    # q=2: D_1 = theta^2 + theta
    assert list(bracket_D(field(2), 1).coeffs) == [0, 1, 1]
    # q=2: D_2 = (theta^4 + theta)(theta^4 + theta^2) via oracle
    fld = field(2)
    want = naive_mul(fld, [0, 1, 0, 0, 1], [0, 0, 1, 0, 1])
    assert list(bracket_D(fld, 2).coeffs) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bracket_degrees(q):
    fld = field(q)
    for d in range(6):
        assert bracket_L(fld, d).degree == (sum(q ** i for i in range(1, d + 1)) or 0)
        assert bracket_D(fld, d).degree == (d * q ** d if d else 0)


def test_carlitz_gamma_examples_and_digit_identity():
    for q in (2, 3, 5):
        fld = field(q)
        assert carlitz_gamma(fld, 1).is_one
        assert carlitz_gamma(fld, q).is_one          # digits of q-1: D_0^{q-1}
        assert carlitz_gamma(fld, q + 1) == bracket_D(fld, 1)
        # digit identity against an independent base-q expansion
        for n in (2, 7, q * q + 3):
            m = n - 1
            digits = []
            while m:
                digits.append(m % q)
                m //= q
            want = Poly.one(fld)
            for i, di in enumerate(digits):
                for _ in range(di):
                    want = want * bracket_D(fld, i)
            assert carlitz_gamma(fld, n) == want


def test_carlitz_gamma_rejects_nonpositive():
    with pytest.raises(InvalidIndexError):
        carlitz_gamma(field(3), 0)


# -- twisting --------------------------------------------------------------------

def test_twist_examples():
    f2, f3 = field(2), field(3)
    # twist(f, 0) = f
    f = rand_poly(f3, 5)
    assert frobenius_twist(f, 0) == f
    # q=2: twist(t + theta, 1) = t + theta^2
    tp = BiPoly(f2, [[0, 1], [1, 0]])  # theta + t
    want = BiPoly(f2, [[0, 0, 1], [1, 0, 0]])
    assert frobenius_twist(tp, 1) == want
    # q=3: twist((theta+1) t, 1) = (theta^3+1) t
    tp = BiPoly(f3, [[0, 0], [1, 1]])
    want = BiPoly(f3, [[0, 0, 0, 0], [1, 0, 0, 1]])
    assert frobenius_twist(tp, 1) == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_twist_is_ring_map(q):
    fld = field(q)
    for _ in range(10):
        a = rand_poly(fld, 6)
        b = rand_poly(fld, 6)
        n = rng.randrange(0, 3)
        assert frobenius_twist(a * b, n) == frobenius_twist(a, n) * frobenius_twist(b, n)


def test_inverse_twist_roundtrip_and_failure():
    fld = field(3)
    f = BiPoly(fld, [[1, 0, 0, 2], [0, 0, 0, 1]])
    assert inverse_twist(frobenius_twist(f, 1)) == f
    with pytest.raises(DomainError):
        inverse_twist(BiPoly(fld, [[0, 1]]))  # theta has exponent 1


def test_poly_eval_at_theta_power():
    fld = field(2)
    t_minus_theta = BiPoly(fld, [[0, 1], [1, 0]])
    assert poly_eval_at_theta_power(t_minus_theta, 0).is_zero
    t_only = BiPoly(fld, [[0], [1]])
    assert list(poly_eval_at_theta_power(t_only, 1).coeffs) == [0, 0, 1]
    # t^2 + theta*t at t=theta -> 2 theta^2 (= 0 in char 2, check at q=3)
    fld3 = field(3)
    f = BiPoly(fld3, [[0, 0], [0, 1], [1, 0]])
    assert list(poly_eval_at_theta_power(f, 0).coeffs) == [0, 0, 2]


# -- rational functions -----------------------------------------------------------

def test_ratfunc_reduction_idempotent_and_monic():
    fld = field(3)
    num = Poly(fld, [2, 1]) * Poly(fld, [1, 2])
    den = Poly(fld, [2, 1]) * Poly(fld, [0, 0, 2])
    r = RatFunc(num, den)
    assert r.den.is_monic
    again = RatFunc(r.num, r.den)
    assert again == r
    assert r.num.gcd(r.den).is_one


def test_ratfunc_arithmetic():
    fld = field(5)
    a = RatFunc(Poly(fld, [1]), Poly(fld, [0, 1]))        # 1/theta
    b = RatFunc(Poly(fld, [1]), Poly(fld, [1, 1]))        # 1/(theta+1)
    s = a + b
    assert s == RatFunc(Poly(fld, [1, 2]), Poly(fld, [0, 1]) * Poly(fld, [1, 1]))
    assert (a * b) / b == a
    assert (a - a).is_zero
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(fld), Poly.zero(fld))


# -- powers: one square-and-multiply for every ring type --------------------------

def _power_cases():
    f3, f4 = field(3), field(4)
    series = [Laurent(f3, -1, [1, 2, 1], 12), Laurent(f3, 2, [2, 0, 1], 20)]
    return {
        "poly": (Poly(f3, [1, 2, 0, 1]), Poly.one(f3)),
        "poly-t": (Poly(f4, [3, 0, 2], "t"), Poly.one(f4, "t")),
        "bipoly": (BiPoly(f3, [[1, 2], [0, 1]]), BiPoly.one(f3)),
        "laurent": (series[0], Laurent.one(f3)),
        "laurent-exact": (Laurent.from_poly(Poly(f4, [1, 1, 2])), Laurent.one(f4)),
        "graded": (GradedSeries(f3, -2, series, 4), GradedSeries.one(f3, 4)),
    }


def _as_key(x):
    return (x.grade, x.coeffs) if isinstance(x, GradedSeries) else x


@pytest.mark.parametrize("kind", sorted(_power_cases()))
def test_power_matches_repeated_product(kind):
    x, prod = _power_cases()[kind]
    for k in range(10):
        assert _as_key(x ** k) == _as_key(prod), (kind, k)
        prod = prod * x


def test_laurent_negative_power_is_power_of_inverse():
    x = Laurent(field(3), -1, [1, 2, 1], 12)
    inv = x.inv()
    prod = Laurent.one(x.field)
    for k in range(1, 10):
        prod = prod * inv
        assert x ** -k == prod, k
