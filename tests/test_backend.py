"""The F_q array kernels against oracles written with scalar Field ops."""

import random

import numpy as np
import pytest

from ffzeta import backend, linalg
from ffzeta.scalar import field

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


@pytest.mark.parametrize("q", QS)
def test_convolve_matches_schoolbook(q):
    fld = field(q)
    for _ in range(5):
        a = _rand(q, rng.randrange(1, 30))
        b = _rand(q, rng.randrange(1, 30))
        assert np.array_equal(backend.convolve_mod(a, b, fld), _schoolbook(fld, a, b))
    assert backend.convolve_mod(np.zeros(0, dtype=np.int64), a, fld).size == 0


@pytest.mark.parametrize("q", QS)
def test_bipoly_mul_matches_schoolbook(q):
    fld = field(q)
    for _ in range(5):
        a = _rand(q, (rng.randrange(1, 5), rng.randrange(1, 7)))
        b = _rand(q, (rng.randrange(1, 4), rng.randrange(1, 6)))
        assert np.array_equal(backend.bipoly_mul_mod(a, b, fld), _schoolbook(fld, a, b))


@pytest.mark.parametrize("q", QS)
def test_series_recip_is_an_inverse(q):
    fld = field(q)
    m = 40
    for size in (1, 5, 40, 60):
        c = _rand(q, size)
        c[0] = rng.randrange(1, q)
        prod = _schoolbook(fld, c, backend.series_recip_mod(c, m, fld))[:m]
        assert prod[0] == 1 and not prod[1:].any()


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
            assert all(fld.dot(row, vec) == 0 for row in a)
