"""The F_q array kernels against oracles written with scalar Field ops."""

import random

import numpy as np
import pytest

from ffzeta import backend, cache, linalg, zeta
from ffzeta.laurent import Laurent
from ffzeta.scalar import Field, field

QS = [2, 3, 4, 5, 8, 9]

rng = random.Random(7)


def _rand(q, shape):
    return np.array([rng.randrange(q) for _ in range(int(np.prod(shape)))],
                    dtype=np.int64).reshape(shape)


def _schoolbook(fld, a, b):
    """Product of two coefficient arrays (1-D or 2-D), one term at a time."""
    out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=np.int64)
    for i, x in np.ndenumerate(a):
        for j, y in np.ndenumerate(b):
            k = tuple(np.add(i, j))
            out[k] = fld.add(int(out[k]), fld.mul(int(x), int(y)))
    return out


def _dot(fld, a, b):
    """sum_i a_i b_i over F_q, summed one base-p digit plane at a time."""
    prods = np.asarray(fld.mul(a, b))
    p = fld.p
    return sum(int((prods // p ** i % p).sum() % p) * p ** i for i in range(fld.e))


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_mul_p_matches_convolve_on_both_sides_of_the_crossover(p):
    cut = backend._pack_from(p)
    for la, lb in [(1, 1), (3, cut + 40), (cut - 1, cut - 1), (cut, cut),
                   (cut + 7, 2 * cut), (3 * cut, cut + 1)]:
        a, b = _rand(p, la), _rand(p, lb)
        assert np.array_equal(backend._mul_p(a, b, p), np.convolve(a, b) % p), (la, lb)
    # all-(p-1) operands make every product entry as large as it can be,
    # so they need the widest packing
    for n in (cut - 1, cut, 2 * cut + 3):
        a = np.full(n, p - 1, dtype=np.int64)
        assert np.array_equal(backend._mul_p(a, a, p), np.convolve(a, a) % p), n


@pytest.mark.parametrize("q", QS + [243, 59049])
def test_convolve_matches_schoolbook(q):
    fld = field(q)
    for _ in range(5):
        a = _rand(q, rng.randrange(1, 30))
        b = _rand(q, rng.randrange(1, 30))
        assert np.array_equal(backend.convolve_mod(a, b, fld), _schoolbook(fld, a, b))
    assert backend.convolve_mod(np.zeros(0, dtype=np.int64), a, fld).size == 0


def _bipoly_operands(q):
    """Random small grids, then (1,1) x wide, narrow x wide, single columns
    and grids with zero interior t-rows, each pair in both orders."""
    pairs = [(_rand(q, (rng.randrange(1, 5), rng.randrange(1, 7))),
              _rand(q, (rng.randrange(1, 4), rng.randrange(1, 6)))) for _ in range(5)]
    for sa, sb, hollow in [((1, 1), (3, 12), False), ((6, 2), (3, 12), False),
                           ((4, 1), (3, 1), False), ((5, 1), (2, 6), False),
                           ((1, 9), (7, 1), False), ((9, 8), (6, 3), True),
                           ((4, 2), (7, 5), True)]:
        a, b = _rand(q, sa), _rand(q, sb)
        if hollow:
            a[1:-1] = 0
        pairs += [(a, b), (b, a)]
    return pairs


@pytest.mark.parametrize("q", QS)
def test_bipoly_mul_matches_schoolbook(q):
    fld = field(q)
    for a, b in _bipoly_operands(q):
        assert np.array_equal(backend.bipoly_mul_mod(a, b, fld), _schoolbook(fld, a, b))


@pytest.mark.parametrize("q", QS + [251])
def test_bipoly_mul_matches_row_products_when_packed(q):
    # operands whose flattened rows are long enough for _mul_p to pack them;
    # the oracle sums one 1-D product per pair of rows, or of columns when
    # there are fewer of those
    fld = field(q)
    cut = backend._pack_from(fld.p)
    for sa, sb in [((cut // 40 + 2, 30), (cut // 40 + 2, 20)), ((1, cut + 5), (2, cut + 1)),
                   ((cut + 3, 1), (cut + 1, 1))]:
        a, b = _rand(q, sa), _rand(q, sb)
        by_columns = sa[0] * sb[0] > sa[1] * sb[1]
        x, y = (a.T, b.T) if by_columns else (a, b)
        want = np.zeros(tuple(np.add(x.shape, y.shape) - 1), dtype=np.int64)
        for i in range(x.shape[0]):
            for k in range(y.shape[0]):
                want[i + k] = fld.add(want[i + k], backend.convolve_mod(x[i], y[k], fld))
        want = want.T if by_columns else want
        assert np.array_equal(backend.bipoly_mul_mod(a, b, fld), want), (sa, sb)


@pytest.mark.parametrize("q", QS)
def test_series_recip_is_an_inverse(q):
    fld = field(q)
    m = 40
    for size in (1, 5, 40, 60):
        c = _rand(q, size)
        c[0] = rng.randrange(1, q)
        prod = _schoolbook(fld, c, backend.series_recip_mod(c, m, fld))[:m]
        assert prod[0] == 1 and not prod[1:].any()


def _recip_digit_loop(c, m, fld):
    """Reference: 1/c digit by digit, each digit one dot product with the
    digits already found."""
    out = np.zeros(m, dtype=np.int64)
    out[0] = fld.inv(int(c[0]))
    minus_inv0 = fld.neg(int(out[0]))
    for k in range(1, m):
        j = min(k, c.size - 1)
        out[k] = fld.mul(minus_inv0, _dot(fld, c[1:j + 1], out[k - 1::-1][:j]))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 65521])
def test_newton_recip_matches_digit_loop(q):
    fld = field(q)
    # the Newton products reach about m/2 digits, so m = 3 * cut puts
    # the last steps past the packing crossover
    long = 3 * backend._pack_from(fld.p)
    for size, m in [(1, 1), (7, 1), (1, 9), (40, 9), (9, 40), (60, 60),
                    (30, long), (long, long), (long + 50, long - 70)]:
        c = _rand(q, size)
        c[0] = rng.randrange(1, q)
        want = _recip_digit_loop(c, m, fld)
        assert np.array_equal(backend.series_recip_mod(c, m, fld), want), (size, m)


def test_series_recip_makes_no_per_digit_calls(monkeypatch):
    """At q = 9, 1500 digits cost O(log m) products and no scalar field op."""
    fld = field(9)
    m = 1500
    c = _rand(9, m)
    c[0] = 1
    calls = {"convolve_mod": 0, "scalar": 0}
    convolve = backend.convolve_mod

    def counting_convolve(a, b, f):
        calls["convolve_mod"] += 1
        return convolve(a, b, f)

    def scalar_spy(name):
        op = getattr(Field, name)

        def spy(self, *args):
            if all(np.ndim(x) == 0 for x in args):
                calls["scalar"] += 1
            return op(self, *args)
        return spy

    monkeypatch.setattr(backend, "convolve_mod", counting_convolve)
    for name in ("mul", "add", "sub", "neg"):
        monkeypatch.setattr(Field, name, scalar_spy(name))
    backend.series_recip_mod(c, m, fld)
    assert calls["convolve_mod"] <= 2 * m.bit_length()
    assert calls["scalar"] == 0


def _newton_unit_quotient(a, factors, fld):
    """Reference for ``unit_quotient_mod``: a times the explicit series
    (1 - x^gap)^-m, the power by products and, for m > 0, its inverse by
    the Newton reciprocal."""
    width = a.size
    out = a
    for gap, m in factors:
        if gap >= width or m == 0:
            continue
        base = np.zeros(gap + 1, dtype=np.int64)
        base[0], base[gap] = 1, fld.neg(1)
        power = np.ones(1, dtype=np.int64)
        for _ in range(abs(m)):
            power = backend.convolve_mod(power, base, fld)[:width]
        series = backend.series_recip_mod(power, width, fld) if m > 0 else power
        out = backend.convolve_mod(out, series, fld)[:width]
    return out


def _unit_factor_lists(p, width):
    """Factor lists with m = 0, m < p, m >= p, multiples of p, products
    (m < 0), a repeated gap whose exponents carry, and gaps >= width."""
    return [[], [(1, 0)], [(1, 1)], [(3, p - 1)], [(2, p)], [(1, p * p)], [(4, 2 * p + 1)],
            [(5, -1)], [(2, -(p + 1))], [(width, 3)], [(width + 7, -2)],
            [(3, p - 1), (3, 2), (6, -p), (1, 3 * p), (max(width - 1, 1), 1), (width, 5)]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 243, 59049])
def test_unit_quotient_matches_newton_quotient(q):
    fld, draw = field(q), np.random.default_rng(q)
    for width in (1, 2, 9, 64):
        for factors in _unit_factor_lists(fld.p, width):
            for a in (draw.integers(0, q, width), np.zeros(width, dtype=np.int64)):
                want = _newton_unit_quotient(a, factors, fld)
                got = backend.unit_quotient_mod(a, factors, fld)
                assert np.array_equal(got, want), (width, factors)


def _assert_reduced_echelon(r, piv, rank):
    assert rank == len(piv)
    assert list(piv) == sorted(set(piv))
    assert not r[rank:].any()
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        assert not r[i, :c].any()
        assert np.count_nonzero(r[:, c]) == 1


@pytest.mark.parametrize("q", QS)
def test_rref_and_nullspace(q):
    fld = field(q)
    for _ in range(10):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        a = _rand(q, (rows, cols))
        if rows > 2:
            a[-1] = fld.add(a[0], fld.mul(rng.randrange(q), a[1]))
        a[:, rng.randrange(cols)] = 0
        r, piv, rank = backend.rref_mod(a, fld)
        _assert_reduced_echelon(r, piv, rank)
        basis = linalg.nullspace(fld, a)
        assert len(basis) == cols - rank
        for vec in basis:
            assert all(_dot(fld, row, vec) == 0 for row in a)


def _gauss_jordan_nullspace(fld, a):
    """Reference: the kernel basis read off one Gauss-Jordan elimination of
    every row, one vector per free column with the free coordinate 1."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return [np.eye(n, dtype=np.int64)[i] for i in range(n)]
    r, piv, rank = linalg.rref(fld, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in piv]
    basis = []
    for fc in free:
        vec = np.zeros(cols, dtype=np.int64)
        vec[fc] = 1
        for row, pc in enumerate(piv):
            vec[pc] = fld.neg(int(r[row, fc]))
        basis.append(vec)
    return basis


def _planted(fld, draw, rows, cols, relations):
    """A random rows x cols matrix in which each of ``relations`` columns is
    a combination of the columns before it, so the kernel has at least
    that dimension and its free columns are spread out."""
    a = draw.integers(0, fld.q, (rows, cols))
    for j in draw.choice(np.arange(1, cols), size=min(relations, cols - 1), replace=False):
        for i in range(j):
            a[:, j] = fld.add(a[:, j], fld.mul(int(draw.integers(fld.q)), a[:, i]))
    return a


def _nullspace_cases(fld, draw):
    q = fld.q
    cases = [_planted(fld, draw, rows, cols, rel)
             for rows, cols, rel in [(300, 12, 3), (80, 18, 1), (45, 9, 0),
                                     (5, 12, 2), (3, 20, 6), (40, 40, 5)]]
    # one constraint, in the last row, after blocks that leave K unchanged
    # (the block doubles: 27, 54, 108, ...)
    late = np.zeros((400, 7), dtype=np.int64)
    late[-1] = draw.integers(1, q, 7)
    cases.append(late)
    # a first block that shrinks K, then zero rows, then one more constraint
    shrink = np.zeros((500, 6), dtype=np.int64)
    shrink[:3] = draw.integers(0, q, (3, 6))
    shrink[-1, 4] = 1
    cases.append(shrink)
    lead = _planted(fld, draw, 60, 10, 2)
    lead[:35] = 0  # leading zero rows
    cases.append(lead)
    cases += [np.zeros((50, 8), dtype=np.int64), np.zeros((3, 4), dtype=np.int64),
              draw.integers(0, q, (1, 6)), draw.integers(0, q, (2, 1)),
              np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
              np.zeros((0, 0), dtype=np.int64)]
    return cases


@pytest.mark.parametrize("q", QS + [25, 65536])
def test_nullspace_is_the_gauss_jordan_basis(q):
    fld, draw = field(q), np.random.default_rng(q)
    for a in _nullspace_cases(fld, draw):
        want = _gauss_jordan_nullspace(fld, a)
        got = linalg.nullspace(fld, a)
        assert len(got) == len(want), a.shape
        for u, v in zip(got, want):
            assert u.dtype == np.int64 and np.array_equal(u, v), a.shape


@pytest.mark.parametrize("q", QS + [243, 59049, 65536])
def test_matmul_matches_entrywise_dot(q):
    fld, draw = field(q), np.random.default_rng(q)
    for rows, inner, cols in [(1, 1, 1), (5, 0, 3), (9, 7, 1), (30, 18, 4), (4, 25, 6)]:
        a = draw.integers(0, q, (rows, inner))
        b = draw.integers(0, q, (inner, cols))
        got = backend.matmul_mod(a, b, fld)
        assert got.shape == (rows, cols) and got.dtype == np.int64
        want = [[_dot(fld, a[i], b[:, j]) for j in range(cols)] for i in range(rows)]
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(rows, cols))


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 243, 59049, 65536])
def test_extension_convolution_matches_entrywise_dot(q):
    """The F_{p^e} lift that convolve_mod shares with matmul_mod, on both
    sides of the packing crossover."""
    fld, draw = field(q), np.random.default_rng(q)
    for n, m in [(1, 1), (5, 3), (40, 17), (230, 260)]:
        a, b = draw.integers(0, q, n), draw.integers(0, q, m)
        want = []
        for k in range(n + m - 1):
            i = np.arange(max(0, k - m + 1), min(k, n - 1) + 1)
            want.append(_dot(fld, a[i], b[k - i]))
        assert np.array_equal(backend.convolve_mod(a, b, fld), np.array(want))


def _reduce_y_loop(c, fld):
    """Reference for the fold matrix: y^k = y^(k-e) y^e, with y^e = -(f_0 +
    f_1 y + ... + f_{e-1} y^(e-1)), applied one coefficient plane at a
    time from the top, then the digits recombined."""
    p, e, f = fld.p, fld.e, fld.irreducible
    c = c % p
    for k in range(2 * e - 2, e - 1, -1):
        for i in range(e):
            if f[i]:
                c[k - e + i] = (c[k - e + i] - f[i] * c[k]) % p
    return (p ** np.arange(e) @ c[:e].reshape(e, -1)).reshape(c.shape[1:])


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 243, 3125, 59049, 65536])
def test_fold_matrix_matches_the_reduction_loop(q):
    fld, draw = field(q), np.random.default_rng(q)
    e, p = fld.e, fld.p
    # y^k itself, and unreduced planes as large as a matrix product leaves
    # them: e pairs of inner products of length 50
    assert np.array_equal(backend._reduce_y(np.eye(2 * e - 1, dtype=np.int64), fld),
                          _reduce_y_loop(np.eye(2 * e - 1, dtype=np.int64), fld))
    for shape in [(7,), (4, 6)]:
        c = draw.integers(0, e * 50 * (p - 1) ** 2 + 1, (2 * e - 1,) + shape)
        got = backend._reduce_y(c.copy(), fld)
        assert got.shape == shape and np.array_equal(got, _reduce_y_loop(c, fld))


def _binom_table(rows, p):
    """Pascal's triangle mod p, rows x rows: the table the digit DP reads."""
    table = np.zeros((rows, rows), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, rows):
        table[i, 1:i + 1] = (table[i - 1, 1:i + 1] + table[i - 1, 0:i]) % p
    return table


def _power_sum_digits_one_degree(d, n, q, wmax, binom, p):
    """Reference: the digit DP run from layer 1 for one degree d alone."""
    step = q - 1
    f = np.zeros((wmax + 1, wmax + 1), dtype=np.int64)  # f[s, w]
    f[0, 0] = 1
    for i in range(1, d + 1):
        g = np.zeros_like(f)
        m = step
        while i * m <= wmax:
            smax = wmax - m
            coef = binom[n - 1 + m : n - 1 + m + smax + 1, m]
            g[m : m + smax + 1, i * m :] += (
                f[: smax + 1, : wmax + 1 - i * m] * coef[:, None]
            )
            m += step
        f = g % p
    signs = np.where(np.arange(wmax + 1) % 2 == 0, 1, p - 1)
    digits = (signs[:, None] * f).sum(axis=0) % p
    if d % 2 == 1:
        digits = (-digits) % p
    return digits


def _quadratic_val_bound(q, d, n):
    """The quadratic bound val S_d(n) >= n d + (q-1) d (d+1)/2, which picks
    the degrees the DP is compared at: every one below a window's end."""
    return n * d + (q - 1) * d * (d + 1) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_power_sum_pass_matches_per_degree_dp(q):
    fld = field(q)
    for n in (1, 2, 3, 7):
        for prec in (40, 150):
            d_max = 0
            while _quadratic_val_bound(q, d_max + 1, n) <= prec:
                d_max += 1
            binom = _binom_table(prec + 1, fld.p)
            got = backend.power_sum_digits(d_max, n, q, prec - n, binom, fld.p)
            assert len(got) == d_max
            for d in range(1, d_max + 1):
                want = _power_sum_digits_one_degree(d, n, q, prec - n * d, binom, fld.p)
                assert np.array_equal(got[d - 1], want), (q, n, prec, d)


def test_power_sum_series_matches_the_dp():
    """The interpolation-identity route against the digit DP, bit for bit,
    requested in a shuffled order so the memos see every cover pattern."""
    requests, dp = [], {}
    for q in (2, 3, 4, 5, 9, 25):
        fld = field(q)
        for n in range(1, 7):
            for prec in (60, 200):
                d_max = 0
                while _quadratic_val_bound(q, d_max + 1, n) <= prec:
                    d_max += 1
                dp[q, n, prec] = backend.power_sum_digits(
                    d_max, n, q, prec - n, _binom_table(prec + 1, fld.p), fld.p)
                requests += [(q, d, n, prec) for d in range(1, d_max + 1)]
    random.Random(12).shuffle(requests)
    cache.clear_memos()
    for q, d, n, prec in requests:
        fld = field(q)
        want = Laurent(fld, n * d, dp[q, n, prec][d - 1][: prec - n * d + 1], prec)
        assert zeta.power_sum_series(fld, d, n, prec) == want, (q, d, n, prec)
