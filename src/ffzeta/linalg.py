"""Dense kernel computation over F_q.

The relation hunts ask for the kernel of a tall matrix: thousands of
digit rows against a few dozen unknowns, with a kernel that is usually
small.  ``nullspace`` therefore never row-reduces the whole matrix.  It
keeps a basis K of the kernel of the rows read so far and shrinks it
block by block: the next rows C act on it through one F_q matrix product
C K, and only that small product is row-reduced.  Row reduction is the
backend's Gauss-Jordan elimination, one for every q, and matrix products
are ``backend.matmul_mod``.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .scalar import Field

# rows past dim K in a block, so that one block can empty K outright
_BLOCK_PAD = 20


def rref(fld: Field, a: np.ndarray):
    """Reduced row echelon form of a copy of ``a``; returns (R, pivots, rank)."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return a.copy(), [], 0
    r, piv, rank = backend.rref_mod(a, fld)
    return r, [int(c) for c in piv], int(rank)


def _kernel_columns(fld: Field, m: np.ndarray) -> np.ndarray:
    """The canonical kernel basis of m, as the columns of a matrix: one
    column per free column of rref(m), free coordinate 1, in free order."""
    r, piv, rank = rref(fld, m)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    n = np.zeros((m.shape[1], free.size), dtype=np.int64)
    n[free, np.arange(free.size)] = 1
    n[piv] = fld.neg(r[:rank, free])
    return n


def nullspace(fld: Field, a: np.ndarray) -> list[np.ndarray]:
    """Basis of {x : a x = 0} over F_q, one canonical vector per free column
    (the free coordinate is set to 1), in free-column order.

    Starting from K = I, each block C of rows replaces K by K N, with N the
    kernel of C K; a block has dim K + 20 rows, or twice the rows of the
    last block when that one left K as it was.  Every row is read unless K
    empties.  The free columns of ``a`` are the pivots of the echelon form
    of K^T with its columns reversed, and row i of that form, reversed, is
    the canonical vector of pivot i; those pivots run from the last free
    column down, so the rows are returned last first.
    """
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    k = np.eye(cols, dtype=np.int64)
    start, size = 0, cols + _BLOCK_PAD
    while k.shape[1] and start < rows:
        m = backend.matmul_mod(a[start : start + size], k, fld)
        start += size
        if m.any():
            k = backend.matmul_mod(k, _kernel_columns(fld, m), fld)
            size = k.shape[1] + _BLOCK_PAD
        else:
            size *= 2
    r, _, rank = rref(fld, k.T[:, ::-1])
    return [r[i, ::-1].copy() for i in range(rank - 1, -1, -1)]
