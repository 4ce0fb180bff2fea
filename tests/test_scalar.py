"""Field tables, dense polynomials, brackets, gammas and twisting."""

import math
import random
import sys
import threading

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
    carlitz_gamma_degree,
    enumerate_monic,
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


def rand_poly(fld, max_deg):
    return Poly(fld, [rng.randrange(fld.q) for _ in range(max_deg + 1)])


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


# -- independent oracle: the table builder on plain F_p coefficient lists ----
# (the builder scalar.Field had before it ran on Poly and backend.convolve_mod)

def _fp_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_rem(a, b, p):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while a and len(a) - 1 >= db:
        f = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _fp_polymod(a, mod, p):
    # the remainder, padded to deg(mod) coefficients
    r = _fp_rem(a, mod, p)
    return r + [0] * (len(mod) - 1 - len(r))


def _fp_powmod_x(exp, mod, p):
    # x^exp mod (mod), coefficients mod p
    result = [1]
    base = [0, 1]
    while exp > 0:
        if exp & 1:
            result = _fp_polymod(_fp_polymul(result, base, p), mod, p)
        base = _fp_polymod(_fp_polymul(base, base, p), mod, p)
        exp >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while any(b):
        a, b = b, _fp_rem(a, b, p)
    while a and a[-1] == 0:
        a.pop()
    return a


def _prime_factors(n):
    return {d for d in range(2, n + 1) if n % d == 0 and all(d % k for k in range(2, d))}


def _prime_powers(limit):
    return [q for q in range(2, limit + 1) if len(_prime_factors(q)) == 1]


def _old_is_irreducible(f, p):
    # Rabin's test, f monic of degree e >= 2
    e = len(f) - 1
    probe = _fp_powmod_x(p ** e, f, p)
    probe[1] = (probe[1] - 1) % p
    if any(probe):
        return False
    for ell in _prime_factors(e):
        probe = _fp_powmod_x(p ** (e // ell), f, p)
        probe[1] = (probe[1] - 1) % p
        if len(_fp_gcd(probe, f, p)) - 1 > 0:
            return False
    return True


def _old_irreducible(p, e):
    for code in range(p ** e):
        f = [code // p ** i % p for i in range(e)] + [1]
        if f[0] and _old_is_irreducible(f, p):
            return tuple(f)


def _mul_slow(a, b, p, e, irreducible):
    if e == 1:
        return (a * b) % p
    da = [(a // p ** i) % p for i in range(e)]
    db = [(b // p ** i) % p for i in range(e)]
    prod = _fp_polymod(_fp_polymul(da, db, p), list(irreducible), p)
    return sum(c * p ** i for i, c in enumerate(prod))


def _old_tables(q):
    """(irreducible, exp, log) as the list builder made them."""
    (p,) = _prime_factors(q)
    e = round(math.log(q, p))
    irreducible = _old_irreducible(p, e) if e > 1 else None

    def pow_slow(a, k):
        r = 1
        while k:
            if k & 1:
                r = _mul_slow(r, a, p, e, irreducible)
            a = _mul_slow(a, a, p, e, irreducible)
            k >>= 1
        return r

    ells = _prime_factors(q - 1)
    g = next((g for g in range(2, q) if all(pow_slow(g, (q - 1) // ell) != 1 for ell in ells)), 1)
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    acc = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = acc
        log[acc] = i
        acc = _mul_slow(acc, g, p, e, irreducible)
    assert acc == 1
    return irreducible, exp, log


@pytest.mark.parametrize("q", _prime_powers(256) + [1024, 3125])
def test_field_tables_match_list_builder(q):
    fld = field(q)
    irreducible, exp, log = _old_tables(q)
    assert fld.irreducible == irreducible
    units = 2 * (q - 1)
    assert np.array_equal(fld._exp[:units], exp) and np.array_equal(fld._log[1:], log[1:])
    # the zero sentinel: every log sum with a zero operand reads 0
    assert fld._log[0] == units and fld._exp.size == 2 * units + 1
    assert not fld._exp[units:].any()


@pytest.mark.parametrize("q", [q for q in _prime_powers(625) if q not in _prime_factors(q)])
def test_irreducible_has_no_small_factor(q):
    fld = field(q)
    fp = field(fld.p)
    f = Poly(fp, fld.irreducible)
    assert f.degree == fld.e and f.is_monic
    for d in range(1, fld.e // 2 + 1):
        for g in enumerate_monic(fp, d):
            assert not (f % g).is_zero, (q, g)


def test_field_is_shared_under_concurrent_first_calls():
    # 2401 = 7^4 is built by no other test, so every thread asks for a new q
    barrier = threading.Barrier(4)
    got = []

    def build():
        barrier.wait()
        got.append(field(2401))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(interval)
    assert len({id(f) for f in got}) == 1


def test_field_rejects_non_prime_power():
    for q in (0, 1, 65537, 131072):
        with pytest.raises(DomainError, match=rf"^q must be a prime power in \[2, 65536\], got {q}$"):
            field(q)
    for q in (6, 12, 100):
        with pytest.raises(DomainError, match=rf"^q = {q} is not a prime power$"):
            field(q)


def test_extension_field_records_irreducible():
    # the CLI's meta.field.irreducible records these, so runs stay reproducible
    pinned = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1),
              25: (2, 0, 1), 27: (1, 2, 0, 1), 3125: (1, 4, 0, 0, 0, 1)}
    for q, irreducible in pinned.items():
        assert field(q).irreducible == irreducible


def _list_ops(q):
    """add, sub, neg and mul of F_q on base-p digit lists, one element at a
    time: the list builder's arithmetic."""
    (p,) = _prime_factors(q)
    e = round(math.log(q, p))
    irreducible = _old_irreducible(p, e)

    def digits(a):
        return [a // p ** i % p for i in range(e)]

    def join(ds):
        return sum(d % p * p ** i for i, d in enumerate(ds))

    return {
        "add": lambda a, b: join([x + y for x, y in zip(digits(a), digits(b))]),
        "sub": lambda a, b: join([x - y for x, y in zip(digits(a), digits(b))]),
        "neg": lambda a: join([-x for x in digits(a)]),
        "mul": lambda a, b: _mul_slow(a, b, p, e, irreducible),
    }


@pytest.mark.parametrize("q", [243, 3125, 59049, 65536])
def test_large_extension_ops_match_list_arithmetic(q):
    fld, ops = field(q), _list_ops(q)
    draw = np.random.default_rng(q)
    # every element at q = 243 and 3125, and with each a partner; a random
    # sample above; zeros on both sides
    a = np.arange(q) if q <= 3125 else draw.integers(0, q, 4000)
    b = draw.integers(0, q, a.size)
    a[:3], b[1:4] = 0, 0
    pairs = [(int(x), int(y)) for x, y in zip(a, b)]
    for name in ("add", "sub", "mul"):
        got = getattr(fld, name)(a, b)
        assert got.tolist() == [ops[name](x, y) for x, y in pairs], name
        x, y = pairs[5]
        assert getattr(fld, name)(x, y) == ops[name](x, y)
    assert fld.neg(a).tolist() == [ops["neg"](x) for x in a.tolist()]
    units = a[a != 0]
    inv = fld.inv(units)
    assert [ops["mul"](x, y) for x, y in zip(units.tolist(), inv.tolist())] == [1] * units.size
    if q == 243:  # every pair
        for x in range(q):
            row = fld.mul(np.full(q, x), np.arange(q)).tolist()
            assert row == [ops["mul"](x, y) for y in range(q)], x


@pytest.mark.parametrize("q", [3, 4, 9])
def test_field_vector_ops_match_scalar(q):
    fld = field(q)
    a = np.array([rng.randrange(q) for _ in range(50)], dtype=np.int64)
    b = np.array([rng.randrange(q) for _ in range(50)], dtype=np.int64)
    for i in range(50):
        assert fld.add(a, b)[i] == fld.add(int(a[i]), int(b[i]))
        assert fld.mul(a, b)[i] == fld.mul(int(a[i]), int(b[i]))


def _digit_loop(fld, a, b, op):
    """Reference for e > 1 addition: op on each base-p digit, one at a time."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(fld.e):
        out += op(a // fld.p ** i % fld.p, b // fld.p ** i % fld.p) % fld.p * fld.p ** i
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 256, 6561])
def test_extension_add_sub_neg_match_digit_loop(q):
    fld = field(q)
    # every pair below 256, a random sample above
    a, b = (np.arange(q * q) // q, np.arange(q * q) % q) if q < 256 else \
        np.random.default_rng(q).integers(0, q, (2, 3000))
    grid, row = np.resize(a, (4, 6)), np.resize(b, 6)
    for name, op in (("add", np.add), ("sub", np.subtract)):
        assert np.array_equal(getattr(fld, name)(a, b), _digit_loop(fld, a, b, op))
        assert np.array_equal(getattr(fld, name)(grid, row), _digit_loop(fld, grid, row, op))
        x, y = getattr(fld, name)(int(a[-1]), b[-2]), _digit_loop(fld, a[-1], b[-2], op)
        assert type(x) is int and x == y
    assert np.array_equal(fld.neg(a), _digit_loop(fld, 0, a, np.subtract))
    assert type(fld.neg(b[-1])) is int


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
        den = rand_bipoly(fld, rng.randrange(2, 6), 1)
        if den.t_degree < 1:
            continue
        assert (a * den).exact_div_t(den) == a
        for bad in (den + BiPoly.from_poly(Poly.gen(fld)), BiPoly(fld, [[0, 1]])):
            with pytest.raises(DomainError, match="polynomial in t"):
                (a * den).exact_div_t(bad)
        with pytest.raises(DomainError, match="polynomial kinds"):
            (a * den).exact_div_t(Poly.gen(fld))
        with pytest.raises(DomainError, match="not exact"):
            (a * den + BiPoly.one(fld)).exact_div_t(den)
        with pytest.raises(DomainError, match="not exact"):
            BiPoly.one(fld).exact_div_t(den)
        assert BiPoly.zero(fld).exact_div_t(den).is_zero


def _loop_trim(arr):
    """The trim as one row, then one column, at a time."""
    rows = arr.shape[0]
    while rows > 0 and not arr[rows - 1].any():
        rows -= 1
    cols = arr.shape[1] if rows else 0
    while cols > 0 and not arr[:rows, cols - 1].any():
        cols -= 1
    return arr[:rows, :cols]


def _trim_grids():
    draw = random.Random(5)
    grids = [np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((3, 5)),
             np.array([[0]]), np.array([[2]]),
             np.array([[1, 2], [0, 1], [0, 0], [0, 0]]),  # zero trailing rows only
             np.array([[1, 0, 0], [2, 1, 0]]),  # zero trailing columns only
             np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
             np.array([[0, 0, 1], [0, 0, 0]])]  # the widest column is not in the last row
    for _ in range(20):
        rows, cols = draw.randrange(1, 6), draw.randrange(1, 6)
        grids.append(np.array([[draw.choice((0, 0, 0, 1, 2)) for _ in range(cols)]
                               for _ in range(rows)]))
    return [g.astype(np.int64) for g in grids]


@pytest.mark.parametrize("grid", _trim_grids())
def test_bipoly_trim_matches_the_loop(grid):
    b = BiPoly(field(3), grid)
    want = _loop_trim(grid)
    assert b.coeffs.shape == want.shape and np.array_equal(b.coeffs, want)
    assert b.is_zero == (want.size == 0)
    assert not b.coeffs.flags.writeable and not np.shares_memory(b.coeffs, grid)


def test_poly_trim_matches_the_loop():
    def loop_trim(arr):
        n = len(arr)
        while n > 0 and arr[n - 1] == 0:
            n -= 1
        return arr[:n]

    draw = random.Random(8)
    cases = [[], [0], [0, 0, 0], [1, 2, 1], [2], [0, 0, 1], [1, 0, 0], [0, 2, 0, 0]]
    cases += [[draw.choice((0, 0, 1, 2)) for _ in range(draw.randrange(8))] for _ in range(20)]
    for coeffs in cases:
        arr = np.array(coeffs, dtype=np.int64)
        p = Poly(field(3), arr)
        assert p.coeffs.tolist() == loop_trim(coeffs), coeffs
        assert p.is_zero == (not any(coeffs))
        assert not p.coeffs.flags.writeable and not np.shares_memory(p.coeffs, arr)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_carlitz_gamma_degree_is_the_closed_form(q):
    fld = field(q)
    for n in range(1, 301):
        assert carlitz_gamma_degree(q, n) == carlitz_gamma(fld, n).degree, n


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


# -- the dense core shared by Poly and BiPoly ------------------------------------

DENSE_QS = [2, 3, 4, 9, 25]


def rand_bipoly(fld, rows, cols):
    return BiPoly(fld, [[rng.randrange(fld.q) for _ in range(cols)] for _ in range(rows)])


def _dense_samples(fld):
    """Random theta-Polys, t-polynomials (one-column BiPolys) and BiPolys of
    mismatched shapes, with the zero of each kind."""
    return {
        "theta": [rand_poly(fld, d) for d in (0, 3, 7)] + [Poly.zero(fld)],
        "t": [rand_bipoly(fld, r, 1) for r in (2, 6)] + [BiPoly.zero(fld)],
        "bipoly": [rand_bipoly(fld, r, c) for r, c in ((1, 4), (3, 2), (5, 9))]
        + [BiPoly.zero(fld)],
    }


def _constant_like(a, c):
    const = Poly.constant(a.field, c)
    return BiPoly.from_poly(const) if isinstance(a, BiPoly) else const


@pytest.mark.parametrize("q", DENSE_QS)
def test_dense_core_add_neg_sub_scale_hash(q):
    fld = field(q)
    for values in _dense_samples(fld).values():
        for a in values:
            assert (a + (-a)).is_zero and (-a + a).is_zero
            padded = np.zeros(tuple(n + 2 for n in a.coeffs.shape), dtype=np.int64)
            padded[tuple(map(slice, a.coeffs.shape))] = a.coeffs
            same = BiPoly(fld, padded) if isinstance(a, BiPoly) else Poly(fld, padded)
            assert same == a and hash(same) == hash(a)
            for c in (0, 1, q - 1, -1, q + 1, rng.randrange(q)):
                assert a.scale(c) == a * _constant_like(a, c), c
            for b in values:
                assert (a + b) - b == a
                assert a + b == b + a and hash(a + b) == hash(b + a)
                assert a - b == a + (-b)


@pytest.mark.parametrize("q", DENSE_QS)
def test_bipoly_from_poly_is_additive(q):
    fld = field(q)
    samples = _dense_samples(fld)["theta"]
    for embed in (BiPoly.from_poly, BiPoly.in_t):
        for f in samples:
            for g in samples:
                assert embed(f + g) == embed(f) + embed(g)


@pytest.mark.parametrize("q", DENSE_QS)
def test_twist_is_the_q_power_and_inverts(q):
    fld = field(q)
    samples = _dense_samples(fld)
    for f in samples["theta"]:
        for n in (0, 1, 2):
            assert f ** (q ** n) == frobenius_twist(f, n), (f, n)
    for f in samples["t"]:
        assert frobenius_twist(f, 2) == f
    for a in samples["bipoly"]:
        for b in samples["bipoly"]:
            assert frobenius_twist(a * b, 1) == frobenius_twist(a, 1) * frobenius_twist(b, 1)
    for h in samples["theta"] + samples["t"] + samples["bipoly"]:
        assert inverse_twist(frobenius_twist(h, 1)) == h


@pytest.mark.parametrize("q", DENSE_QS)
def test_inverse_twist_rejects_any_row_off_the_q_lattice(q):
    fld = field(q)
    h = frobenius_twist(rand_bipoly(fld, 4, 3) + BiPoly.t_minus_theta_power(fld, 1, 3), 1)
    rows, cols = h.coeffs.shape
    for i in range(rows):
        for j in (1, q - 1, q + 1):
            bad = np.zeros((rows, max(cols, j + 1)), dtype=np.int64)
            bad[i, j] = 1
            with pytest.raises(DomainError, match="not divisible by q"):
                inverse_twist(h + BiPoly(fld, bad))
    with pytest.raises(DomainError, match="not divisible by q"):
        inverse_twist(Poly.gen(fld).dilate(q) + Poly.gen(fld))


def test_dense_core_rejects_mixed_operands():
    f3 = field(3)
    theta, t = Poly.gen(f3), BiPoly.in_t(Poly.gen(f3))
    bi = BiPoly.from_poly(theta)
    for a, b in ((theta, bi), (bi, theta), (theta, t), (t, theta),
                 (theta, Poly.gen(field(9))), (t, BiPoly.in_t(Poly.gen(field(9))))):
        with pytest.raises(DomainError):
            a + b
        with pytest.raises(DomainError):
            a - b
    for a in (theta, bi):
        with pytest.raises(DomainError):
            a ** -1


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
        "poly-t": (BiPoly(f4, [[3], [0], [2]]), BiPoly.one(f4)),
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
