"""Array arithmetic over F_q for every q: the one place that knows how F_q
coefficient arrays are stored.

Arrays are int64 and hold canonical field elements 0..q-1.  For q = p^e
the base-p digits of an element are the coefficients of its residue
polynomial in y modulo ``Field.irreducible``, so an array splits into e
digit planes over F_p.  A product of arrays is computed over F_p, one
product per pair of planes, and the y-degree is then reduced modulo the
irreducible; for e = 1 that is the prime-field product alone.  These are
the inner loops that dominate runtime: polynomial convolution, truncated
series reciprocals and Gaussian elimination.  The power-sum digit DP,
``power_sum_digits``, is no longer called by the package: it stays as the
tests' oracle for ``zeta.power_sum_series`` and because the benchmark's
tracer wraps it by name.

Every 1-D product over F_p is ``_mul_p``: ``np.convolve`` while the
shorter operand has fewer than ``_pack_from(p)`` entries, and above that
one CPython int product (Karatsuba) of operands packed by Kronecker
substitution, digit i in bytes [i*w, (i+1)*w) with w the least byte count
such that 2^(8w) > min(len a, len b) * (p-1)^2, so that no entry of the
product carries into the next.  The series reciprocal is Newton's
iteration over it, with no scalar field operation per digit.
"""

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "convolve_mod",
    "series_recip_mod",
    "rref_mod",
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


def _bipoly_mul_p(a, b, p):
    """2-D product over F_p by Kronecker substitution in theta: with the
    t-rows of b padded to the product's theta-width w and laid end to end,
    one convolution per nonzero t-row of a gives that row's contribution.
    Each costs about ca*rb*w, so the operand that makes the sum smaller
    becomes a (a sparse F_i times a dense H_m, say)."""
    rows_a = np.flatnonzero(a.any(axis=1))
    rows_b = np.flatnonzero(b.any(axis=1))
    if rows_b.size * b.shape[1] * a.shape[0] < rows_a.size * a.shape[1] * b.shape[0]:
        a, b, rows_a = b, a, rows_b
    ra, ca = a.shape
    rb, cb = b.shape
    w = ca + cb - 1
    flat_b = np.pad(b, ((0, 0), (0, ca - 1))).ravel()
    # a convolution runs ca - 1 (zero) entries past its rows: one spare row
    out = np.zeros((ra + rb) * w, dtype=np.int64)
    # an entry sums <= ra*ca products < 2^32 (p <= 2^16, Field's limit), so
    # int64 holds it while a has < 2^31 entries: one final reduction suffices.
    # A row's shorter operand, a theta-row of a, stays below _pack_from in
    # the AT towers, where _mul_p would add only a reduction per row.
    for i in rows_a:
        out[i * w : i * w + flat_b.size + ca - 1] += np.convolve(a[i], flat_b)
    return out[: (ra + rb - 1) * w].reshape(ra + rb - 1, w) % p


def _extension_product(product_p, a, b, fld):
    """Product over F_{p^e} (e > 1) from the F_p products of digit planes."""
    p, e = fld.p, fld.e
    powers = p ** np.arange(e)
    planes_a = a // powers.reshape((e,) + (1,) * a.ndim) % p
    planes_b = b // powers.reshape((e,) + (1,) * b.ndim) % p
    shape = tuple(np.add(a.shape, b.shape) - 1)
    c = np.zeros((2 * e - 1,) + shape, dtype=np.int64)
    for i in range(e):
        if planes_a[i].any():
            for j in range(e):
                if planes_b[j].any():
                    c[i + j] += product_p(planes_a[i], planes_b[j], p)
    c %= p
    # y^k = y^(k-e) * y^e and y^e = -(f_0 + f_1 y + ... + f_{e-1} y^(e-1))
    f = fld.irreducible
    for k in range(2 * e - 2, e - 1, -1):
        for i in range(e):
            if f[i]:
                c[k - e + i] = (c[k - e + i] - f[i] * c[k]) % p
    return np.tensordot(powers, c[:e], axes=1)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def convolve_mod(a, b, fld):
    """Full convolution of F_q coefficient arrays (polynomial product)."""
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    if fld.e > 1:
        return _extension_product(_mul_p, a, b, fld)
    return _mul_p(a, b, fld.p)


def bipoly_mul_mod(a, b, fld):
    """2-D full convolution over F_q (product of bivariate polynomials)."""
    if fld.e > 1:
        return _extension_product(_bipoly_mul_p, a, b, fld)
    return _bipoly_mul_p(a, b, fld.p)


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
