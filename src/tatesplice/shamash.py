"""The resolution of M = S/(f) over R = S/(g) from divided powers and Koszul data.

Term i is the direct sum over k >= 0 of D_k(R^c) (x) Lambda^{i-2k} R^n, with
generators labeled (alpha, T): alpha an exponent vector with |alpha| = k, T a
subset of {1..n}. `es_resolution` hands f and the columns a_j of the lift
matrix A (g_j = sum_i A[i][j] f_i) to `koszul.exterior_total_complex`, whose
differential is the Koszul differential on f plus, for each j, lowering
alpha_j by one while wedging with a_j. The vertical entries are drawn from
A's columns: degree bookkeeping forces this, and the d^2 = 0 and acyclicity
certificates adjudicate the construction.
"""

from __future__ import annotations

from .koszul import exterior_total_complex

MAX_LENGTH = 40


class ShamashResolution:
    """Underlying complex over R plus the bigraded generator labels."""

    def __init__(self, complex_, labels, lift, ring_R):
        self.complex = complex_
        self.labels = {i: tuple(labs) for i, labs in labels.items()}
        self.lift = lift
        self.ring = ring_R

    def koszul_indices(self, i):
        """Positions of the k = 0 layer (the R (x) Koszul subcomplex) at term i."""
        return [
            idx for idx, (alpha, _) in enumerate(self.labels.get(i, ())) if sum(alpha) == 0
        ]


def es_resolution(lift, ring_R, length):
    """Resolution of S/(f) over R = S/(g) to homological length `length`,
    from a LiftMatrix carrying f, g and A. The resolution needs f and g
    regular and (g) inside (f); `InstanceData` checks both when an instance
    is read."""
    if length < 0 or length > MAX_LENGTH:
        raise ValueError(f"length must be between 0 and {MAX_LENGTH}")
    columns = [lift.column(j) for j in range(lift.c)]
    complex_, labels = exterior_total_complex(lift.f, columns, ring_R, length)
    return ShamashResolution(complex_, labels, lift, ring_R)
