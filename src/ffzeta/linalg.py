"""Dense kernel computation over F_q.

Row reduction is the backend's Gauss-Jordan elimination, one for every q;
desk-scale systems (a few thousand rows/columns) need nothing faster.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .scalar import Field


def rref(fld: Field, a: np.ndarray):
    """Reduced row echelon form of a copy of ``a``; returns (R, pivots, rank)."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return a.copy(), [], 0
    r, piv, rank = backend.rref_mod(a, fld)
    return r, [int(c) for c in piv], int(rank)


def nullspace(fld: Field, a: np.ndarray) -> list[np.ndarray]:
    """Basis of {x : a x = 0} over F_q, one canonical vector per free column
    (the free coordinate is set to 1)."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return [np.eye(n, dtype=np.int64)[i] for i in range(n)]
    r, piv, rank = rref(fld, a)
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
