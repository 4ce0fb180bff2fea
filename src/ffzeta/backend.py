"""Array arithmetic over F_q for every q: the one place that knows how F_q
coefficient arrays are stored.

Arrays are int64 and hold canonical field elements 0..q-1.  For q = p^e
the base-p digits of an element are the coefficients of its residue
polynomial in y modulo ``Field.irreducible``, so an array splits into e
digit planes over F_p.  A product of arrays is computed over F_p, one
product per pair of planes, and the y-degree is then reduced modulo the
irreducible; for e = 1 that is the prime-field product alone.  These are
the inner loops that dominate runtime: polynomial convolution, truncated
series reciprocals, Gaussian elimination and the power-sum digit DP.
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

def _convolve_p(a, b, p):
    return np.convolve(a, b) % p


def _bipoly_mul_p(a, b, p):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra + rb - 1, ca + cb - 1), dtype=np.int64)
    for i in range(ra):
        row = a[i]
        if not row.any():
            continue
        for j in range(rb):
            if b[j].any():
                out[i + j, : ca + cb - 1] += np.convolve(row, b[j])
        out[i : i + rb, :] %= p
    return out % p


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
        return _extension_product(_convolve_p, a, b, fld)
    return _convolve_p(a, b, fld.p)


def bipoly_mul_mod(a, b, fld):
    """2-D full convolution over F_q (product of bivariate polynomials)."""
    if fld.e > 1:
        return _extension_product(_bipoly_mul_p, a, b, fld)
    return _bipoly_mul_p(a, b, fld.p)


def series_recip_mod(c, m, fld):
    """First m digits of 1/(c[0] + c[1] x + ...) over F_q; requires c[0] != 0."""
    p = fld.p
    prime = fld.e == 1
    out = np.zeros(m, dtype=np.int64)
    out[0] = fld.inv(int(c[0]))
    minus_inv0 = fld.neg(int(out[0]))
    for k in range(1, m):
        j = min(k, c.size - 1)
        # plain ints at e = 1: a Field call per digit costs more than the dot
        if prime:
            out[k] = minus_inv0 * int(np.dot(c[1:j + 1], out[k - 1::-1][:j])) % p
        else:
            out[k] = fld.mul(minus_inv0, fld.dot(c[1:j + 1], out[k - 1::-1][:j]))
    return out


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
    """Digit DP for power sums over monic polynomials of degree d.

    Returns ``digits`` with digits[w] = coefficient of theta^{-(n*d+w)} in
    S_d(n), for 0 <= w <= wmax.  ``binom`` is a Pascal table mod p that is
    large enough to index binom[n-1+s, m] for s + m <= wmax.
    """
    step = q - 1
    f = np.zeros((wmax + 1, wmax + 1), dtype=np.int64)  # f[s, w]
    f[0, 0] = 1
    for i in range(1, d + 1):
        g = np.zeros_like(f)
        m = step
        while i * m <= wmax:
            smax = wmax - m
            coef = binom[n - 1 + m : n - 1 + m + smax + 1, m]  # over s' = s+m
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
