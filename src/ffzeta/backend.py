"""Array arithmetic over F_q for every q: the one place that knows how F_q
coefficient arrays are stored.

Arrays are int64 and hold canonical field elements 0..q-1.  For q = p^e
the base-p digits of an element are the coefficients of its residue
polynomial in y modulo ``Field.irreducible``, so an array splits into e
digit planes over F_p.  Everything that depends on the field alone is
built once by ``Field`` and read here: an array splits into its planes by
one gather from the e x q digit table ``Field._digits``; a product of
arrays is computed over F_p, one product per pair of planes, into the
2e - 1 coefficient planes of y^0..y^{2e-2}, which one product with the
e x (2e-1) fold matrix ``Field._fold`` reduces modulo the irreducible;
and the e planes recombine through the place values ``Field._powers``.
For e = 1 that is the prime-field product alone.  These are
the inner loops that dominate runtime: polynomial convolution, truncated
series reciprocals, quotients by products of units (1 - x^gap)^m, matrix
products and Gaussian elimination.  The power-sum digit DP,
``power_sum_digits``, is no longer called by the package: it stays as the
tests' oracle for ``zeta.power_sum_series`` and because the benchmark's
tracer wraps it by name.

Every polynomial product over F_p, 2-D ones too, is ``_mul_p``:
``np.convolve`` while the shorter operand has fewer than
``_pack_from(p)`` entries, and above that one CPython int product
(Karatsuba) of operands packed by Kronecker substitution, digit i in
bytes [i*w, (i+1)*w) with w the least byte count such that 2^(8w) >
min(len a, len b) * (p-1)^2, so that no entry of the product carries
into the next.  The series reciprocal is Newton's iteration over it,
with no scalar field operation per digit.  The Carlitz units L_i,
Gamma_n and pi~^{q-1} need neither: a quotient by their factors
1 - x^gap is ``unit_quotient_mod``, running sums at stride gap on the
digit planes.  A matrix product, ``matmul_mod``, is one int64 ``@`` per
pair of planes.
"""

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "convolve_mod",
    "series_recip_mod",
    "unit_quotient_mod",
    "rref_mod",
    "matmul_mod",
    "bipoly_mul_mod",
    "power_sum_digits",
]

ACTIVE_BACKEND = "numpy"


# ---------------------------------------------------------------------------
# products over F_p, and their lift to F_{p^e}
# ---------------------------------------------------------------------------

def _pack_from(p):
    """Shorter-operand length from which _mul_p packs.  Fitted to the ties
    measured on random operands: about 150 entries at p = 2, 200 at p = 3,
    300 at 31, 800 at 251, 1800 at 4093 and 2800 at 65521."""
    return 150 + 10 * p.bit_length() ** 2


def _mul_p(a, b, p):
    """Full convolution of two 1-D F_p arrays."""
    n = min(a.size, b.size)
    if n < _pack_from(p):
        return np.convolve(a, b) % p
    # a product entry is < n (p-1)^2 < 2^(8 width); width <= 8 while p <= 2^16
    # and n < 2^32
    width = ((n * (p - 1) ** 2).bit_length() + 7) // 8
    size = a.size + b.size - 1
    packed = _pack(a, width) * _pack(b, width)
    out = np.zeros((size, 8), dtype=np.uint8)
    out[:, :width] = np.frombuffer(packed.to_bytes(size * width, "little"),
                                   dtype=np.uint8).reshape(size, width)
    return out.view("<u8").ravel().astype(np.int64) % p


def _pack(a, width):
    """The int sum a[i] 2^(8 width i), for 0 <= a[i] < 2^(8 width)."""
    digits = a.astype("<u8").view(np.uint8).reshape(a.size, 8)[:, :width]
    return int.from_bytes(digits.tobytes(), "little")


def _planes(a, fld):
    """The e base-p digit planes of an F_q array, stacked on a new first
    axis: one gather from the field's digit table."""
    return fld._digits.take(a, axis=1).astype(np.int64)


def _reduce_y(c, fld):
    """The F_q array whose digit planes are the F_p[y] polynomial with
    coefficient planes c[0..2e-2] (int64, any size, entries not yet
    reduced mod p), reduced modulo the irreducible by the field's fold
    matrix."""
    planes = fld._fold @ c.reshape(c.shape[0], -1) % fld.p
    return (fld._powers @ planes).reshape(c.shape[1:])


def _extension_product(a, b, fld, mul, shape):
    """Product over F_{p^e} (e > 1) of two arrays whose F_p product ``mul``
    has the given shape.  Both operands split into digit planes by one
    gather each from ``Field._digits``; ``mul`` runs once per pair of
    nonzero planes, and plane pair (i, j) adds into the coefficient of
    y^(i+j).  The 2e - 1 coefficient planes then fold onto e by one
    product with ``Field._fold`` and recombine through ``Field._powers``.
    """
    e = fld.e
    planes_a, planes_b = _planes(a, fld), _planes(b, fld)
    c = np.zeros((2 * e - 1,) + shape, dtype=np.int64)
    for i in range(e):
        if planes_a[i].any():
            for j in range(e):
                if planes_b[j].any():
                    c[i + j] += mul(planes_a[i], planes_b[j])
    return _reduce_y(c, fld)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def convolve_mod(a, b, fld):
    """Full convolution of F_q coefficient arrays (polynomial product)."""
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    if fld.e > 1:
        return _extension_product(a, b, fld, lambda x, y: _mul_p(x, y, fld.p),
                                  (a.size + b.size - 1,))
    return _mul_p(a, b, fld.p)


def matmul_mod(a, b, fld):
    """Matrix product of 2-D F_q arrays.  An entry of an F_p product is
    below n (p-1)^2 for inner dimension n, so int64 holds it before the one
    reduction; for e > 1 the digit planes multiply pairwise, as in a
    convolution, and the fold raises the bound to (2e-1) e n (p-1)^3,
    below 2^63 while n < 2^36."""
    if fld.e == 1:
        return a @ b % fld.p
    return _extension_product(a, b, fld, np.matmul, (a.shape[0], b.shape[1]))


def bipoly_mul_mod(a, b, fld):
    """2-D full convolution over F_q (product of bivariate polynomials), by
    Kronecker substitution in theta: with their rows padded to the product's
    theta-width w and laid end to end, the operands multiply as 1-D arrays,
    and no entry of a product row spills into the next."""
    rows, w = a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1
    flat_a, flat_b = np.zeros((a.shape[0], w), np.int64), np.zeros((b.shape[0], w), np.int64)
    flat_a[:, : a.shape[1]], flat_b[:, : b.shape[1]] = a, b
    # the product runs on for w - 1 zeros past its last row
    return convolve_mod(flat_a.ravel(), flat_b.ravel(), fld)[: rows * w].reshape(rows, w)


def series_recip_mod(c, m, fld):
    """First m >= 1 digits of 1/(c[0] + c[1] x + ...) over F_q; requires
    c[0] != 0.  Newton's iteration g <- g + g (1 - c g) doubles the number
    of correct digits with two products per step, so no scalar field
    operation runs per digit."""
    sizes = [m]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    g = np.zeros(m, dtype=np.int64)
    g[0] = fld.inv(int(c[0]))
    for k, n in zip(sizes[:0:-1], sizes[-2::-1]):
        # c g = 1 + x^k h (mod x^n), so g (1 - c g) = -x^k (g h mod x^(n-k))
        h = convolve_mod(c[:n], g[:k], fld)[k:n]
        gh = convolve_mod(g[:k], h, fld)[: n - k]
        g[k : k + gh.size] = fld.neg(gh)
    return g


def unit_quotient_mod(a, factors, fld):
    """The first len(a) digits of a / prod (1 - x^gap)^m over the (gap, m)
    in ``factors``; gap >= 1, and m < 0 multiplies.

    The factors have coefficients in F_p, so they act on each F_p digit
    plane of a alone.  In characteristic p, (1 - y)^m = prod_r (1 -
    y^(p^r))^(m_r) for the base-p digits m_r of m >= 0, so every pass is a
    difference or a running sum at stride gap p^r: no product and no
    reciprocal.  Factors with gap >= len(a) change no digit and are skipped;
    equal gaps are merged, since their exponents add.
    """
    n, p, e = a.size, fld.p, fld.e
    merged = {}
    for gap, m in factors:
        if gap < n and m:
            merged[gap] = merged.get(gap, 0) + m
    b = a[None, :].copy() if e == 1 else _planes(a, fld)
    for gap, m in merged.items():
        k, stride = abs(m), gap
        while k and stride < n:
            if m < 0:  # times (1 - x^stride)^(k mod p)
                for _ in range(k % p):
                    b[:, stride:] = (b[:, stride:] - b[:, :-stride]) % p
            elif k % p:  # over it: running sums down each residue class mod stride
                rows = -(-n // stride)
                padded = np.zeros((e, rows * stride), dtype=np.int64)
                padded[:, :n] = b
                classes = padded.reshape(e, rows, stride)
                for _ in range(k % p):
                    np.cumsum(classes, axis=1, out=classes)
                    classes %= p
                b = padded[:, :n]
            k, stride = k // p, stride * p
    return b[0] if e == 1 else fld._powers @ b


def rref_mod(a, fld):
    """Row-reduce a copy of ``a`` over F_q; returns (R, pivot_columns, rank)."""
    r = np.asarray(a, dtype=np.int64) % fld.q
    rows, cols = r.shape
    piv = []
    rank = 0
    for col in range(cols):
        sub = np.nonzero(r[rank:, col])[0]
        if sub.size == 0:
            continue
        best = rank + int(sub[0])
        if best != rank:
            r[[rank, best]] = r[[best, rank]]
        r[rank] = fld.mul(fld.inv(int(r[rank, col])), r[rank])
        hits = np.nonzero(r[:, col])[0]
        hits = hits[hits != rank]
        if hits.size:
            r[hits] = fld.sub(r[hits], fld.mul(r[hits, col][:, None], r[rank]))
        piv.append(col)
        rank += 1
        if rank == rows:
            break
    return r, np.array(piv, dtype=np.int64), rank


def power_sum_digits(d, n, q, wmax, binom, p):
    """Digit DP for power sums over monic polynomials, every degree 1..d in
    one pass.

    Returns a list whose entry k-1 holds the digits of S_k(n): entry w is
    the coefficient of theta^{-(n*k+w)}, for 0 <= w <= wmax - n*(k-1).  So
    ``wmax`` is the window of degree 1, and each further degree sees n
    fewer digits.  ``binom`` is a Pascal table mod p that is large enough
    to index binom[n-1+s, m] for s + m <= wmax.

    State f[s, w] after layer i is shared by every degree >= i.  Layer i
    runs on the window of degree i; cutting f to it first is exact,
    because entries only flow to larger (s, w).
    """
    step = q - 1
    f = np.zeros((wmax + 1, wmax + 1), dtype=np.int64)  # f[s, w]
    f[0, 0] = 1
    out = []
    for i in range(1, d + 1):
        win = wmax - n * (i - 1)
        f = f[: win + 1, : win + 1]
        g = np.zeros_like(f)
        m = step
        while i * m <= win:
            smax = win - m
            coef = binom[n - 1 + m : n - 1 + m + smax + 1, m]  # over s' = s+m
            g[m : m + smax + 1, i * m :] += (
                f[: smax + 1, : win + 1 - i * m] * coef[:, None]
            )
            m += step
        f = g % p
        # column sum signed by (-1)^(s+i), without an f-sized temporary
        signed = f[0::2].sum(axis=0) - f[1::2].sum(axis=0)
        out.append((-signed if i % 2 else signed) % p)
    return out
