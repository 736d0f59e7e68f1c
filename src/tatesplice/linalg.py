"""Exact linear algebra over F_p on sparse columns: sparse exact mod-p
elimination behind rank, solve, solve_matrix and nullspace.

A matrix is a list of columns, each a dict {row: nonzero value mod p}, and
every vector that solve, solve_matrix and nullspace take or return is a dict
{index: nonzero value mod p} of the same kind. One loop (`_echelon`) takes
the columns in order and reduces each against the pivots found so far, keyed
by their leading row (smallest row index). A column that reduces to zero
depends on the columns before it; one that does not becomes a pivot.
Reducing a column touches only pivots that share a row with it, so fill-in
stays inside the column's connected block of the row/column incidence graph:
a matrix that splits into independent blocks is eliminated block by block
without being split explicitly. When only the rank is wanted, the columns
are taken sparsest first, which leaves the rank alone and keeps fill-in down
on the denser pieces.

Why the answers are those of the reduced row echelon form (RREF), whatever
the elimination order inside the loop: the RREF of a matrix is unique, so
each of these is determined by the matrix alone.
  * A column is a pivot column of the RREF iff it is independent of the
    columns before it, which is the test the loop makes; the rank is the
    number of pivots.
  * The nullspace basis has one vector per free column f with v[f] = 1 and
    0 on the other free columns; a vector of the kernel with those free
    coordinates is unique, and the loop's record of how column f reduced to
    zero is one.
  * The solution of A x = b that is 0 on every free column is unique; the
    record of how b reduces to zero against the pivots is one.

The brute-force oracle in `harness` deliberately does not use this module.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _axpy(v, c, w, p):
    """v -= c * w in place on sparse vectors; returns the keys v gained."""
    gained = []
    for key, a in w.items():
        old = v.get(key)
        x = ((0 if old is None else old) - c * a) % p
        if x:
            if old is None:
                gained.append(key)
            v[key] = x
        elif old is not None:
            del v[key]
    return gained


def _reduce_column(v, pivots, p, comb):
    """Reduce the sparse column v in place against `pivots` until its
    leading row is not a pivot row. Returns that row, or None when v reduced
    to zero.

    Each pivot is (column with 1 at its leading row, combination); with
    `comb` given, the same steps are applied to it, so that v == v0 + A comb
    holds throughout when it held at the start.
    """
    heap = list(v)
    heapify(heap)
    while heap:
        r = heappop(heap)
        c = v.get(r)
        if c is None:
            continue  # cancelled, or a repeated heap entry
        pivot = pivots.get(r)
        if pivot is None:
            return r
        col, pcomb = pivot
        # a pivot column has no row before its leading row, so the rows v
        # gains all come after r
        for row in _axpy(v, c, col, p):
            heappush(heap, row)
        if comb is not None:
            _axpy(comb, c, pcomb, p)
    return None


def _echelon(columns, p, track):
    """The one elimination loop. Returns (pivots, kernel): pivots maps the
    leading row of each reduced pivot column to (column, combination), and
    kernel lists, per dependent column in order, the combination of columns
    that sums to zero. Combinations are kept only with `track`; without it
    only the number of pivots means anything."""
    if not track:
        columns = sorted(columns, key=len)
    pivots = {}
    kernel = []
    for j, column in enumerate(columns):
        v = dict(column)
        comb = {j: 1} if track else None
        lead = _reduce_column(v, pivots, p, comb)
        if lead is None:
            if track:
                kernel.append(comb)
            continue
        inv = pow(v[lead], -1, p)
        if inv != 1:
            v = {r: x * inv % p for r, x in v.items()}
            if track:
                comb = {k: x * inv % p for k, x in comb.items()}
        pivots[lead] = (v, comb)
    return pivots, kernel


class FieldMatrix:
    """Sparse matrix over F_p with elimination-based rank, solve, and
    nullspace. Vectors in and out are sparse dicts {index: value mod p}."""

    __slots__ = ("p", "shape", "columns", "_reduced")

    def __init__(self, rows, columns, p):
        """Matrix with `rows` rows from sparse columns {row: nonzero value
        mod p}."""
        self.p = p
        self.columns = list(columns)
        self.shape = (rows, len(self.columns))
        self._reduced = None  # (pivots, kernel, tracked)

    @classmethod
    def from_triplets(cls, rows, cols, triplets, p):
        """Matrix from (row, col, value) triplets; repeated positions add up."""
        columns = [{} for _ in range(cols)]
        for r, c, v in triplets:
            col = columns[c]
            x = (col.get(r, 0) + v) % p
            if x:
                col[r] = x
            else:
                col.pop(r, None)
        return cls(rows, columns, p)

    def _eliminated(self, track):
        e = self._reduced
        if e is None or (track and not e[2]):
            e = self._reduced = (*_echelon(self.columns, self.p, track), track)
        return e

    def rank(self):
        return len(self._eliminated(False)[0])

    def nullspace(self):
        """Deterministic basis of the right kernel, one vector per free column
        in increasing order: 1 at that column, 0 at every other free column."""
        return [dict(comb) for comb in self._eliminated(True)[1]]

    def solve(self, b):
        """One solution of A x = b with free variables set to 0, or None."""
        sols = self.solve_matrix([b])
        return None if sols is None else sols[0]

    def solve_matrix(self, columns):
        """Solve A x = b for each right-hand side b; None if any of them is
        inconsistent."""
        p = self.p
        m = self.shape[0]
        pivots = self._eliminated(True)[0]
        solutions = []
        for b in columns:
            if any(not 0 <= r < m for r in b):
                raise ValueError("right-hand side has an index outside the rows")
            v = {r: x % p for r, x in b.items() if x % p}
            comb = {}
            # b reduces to zero iff b = -A comb: pivot columns only, so the
            # free variables are 0
            if _reduce_column(v, pivots, p, comb) is not None:
                return None
            solutions.append({k: -x % p for k, x in comb.items()})
        return solutions
