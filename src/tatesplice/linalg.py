"""Exact linear algebra over F_p on int64 numpy arrays.

This is the rank/solve engine behind graded_piece and every certificate.
The brute-force oracle in `harness` deliberately does not use this module.
"""

from __future__ import annotations

import numpy as np


def _eliminate(a, n, p):
    """Reduce `a` in place to reduced row echelon form, pivoting only on its
    first n columns, lowest pivot column first; returns the pivot columns."""
    m = a.shape[0]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        inv = pow(int(a[r, c]), -1, p)
        a[r, :] = a[r, :] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows, :] = (a[rows, :] - np.outer(col[rows], a[r, :])) % p
        pivots.append(c)
        r += 1
    return pivots


class FieldMatrix:
    """Dense matrix over F_p with elimination-based rank, solve, and nullspace."""

    __slots__ = ("p", "array", "_rref")

    def __init__(self, array, p):
        a = np.array(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        self.array = a % p
        self.p = p
        self._rref = None

    @classmethod
    def from_triplets(cls, rows, cols, triplets, p):
        a = np.zeros((rows, cols), dtype=np.int64)
        for r, c, v in triplets:
            a[r, c] = (a[r, c] + v) % p
        return cls(a, p)

    @property
    def shape(self):
        return self.array.shape

    def _compute_rref(self):
        """Row-reduce; cache (reduced array, pivot column list)."""
        if self._rref is None:
            a = self.array.copy()
            self._rref = (a, _eliminate(a, a.shape[1], self.p))
        return self._rref

    def rank(self):
        return len(self._compute_rref()[1])

    def nullspace(self):
        """Deterministic basis of the right kernel, one vector per free column."""
        a, pivots = self._compute_rref()
        n = self.shape[1]
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        basis = []
        for f in free:
            v = np.zeros(n, dtype=np.int64)
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = (-int(a[r, f])) % self.p
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution of A x = b with free variables set to 0, or None."""
        sols = self.solve_matrix(np.asarray(b, dtype=np.int64).reshape(-1, 1))
        return None if sols is None else sols[:, 0]

    def solve_matrix(self, B):
        """Solve A X = B columnwise; None if any column is inconsistent."""
        p = self.p
        m, n = self.shape
        B = np.asarray(B, dtype=np.int64) % p
        if B.shape[0] != m:
            raise ValueError("right-hand side has wrong length")
        aug = np.hstack([self.array, B])
        pivots = _eliminate(aug, n, p)
        # inconsistent iff a zero row of A meets a nonzero row of B
        if np.any(aug[len(pivots):, n:]):
            return None
        X = np.zeros((n, B.shape[1]), dtype=np.int64)
        for row, c in enumerate(pivots):
            X[c, :] = aug[row, n:]
        return X
