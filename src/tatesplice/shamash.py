"""The resolution of M = S/(f) over R = S/(g) from divided powers and Koszul data.

Term i is the direct sum over k >= 0 of D_k(R^c) (x) Lambda^{i-2k} R^n, with
generators labeled (alpha, T): alpha an exponent vector with |alpha| = k, T a
subset of {1..n}. `es_resolution` checks the preconditions, lifts each g_j
through f to the j-th column a_j of the matrix A, and hands f and the a_j to
`koszul.exterior_total_complex`, whose differential is the Koszul
differential on f plus, for each j, lowering alpha_j by one while wedging
with a_j. The vertical entries are drawn from A's columns: degree
bookkeeping forces this, and the d^2 = 0 and acyclicity certificates
adjudicate the construction. `verify_resolution` rechecks a resolution from
scratch; `is_minimal` looks for unit entries.
"""

from __future__ import annotations

from .errors import ContainmentError, NotInIdealError, NotRegularError
from .freecomplex import BaseRing, _first_homology, _h0_dim, d_squared_witness
from .groebner import buchberger, is_regular_sequence
from .koszul import LiftMatrix, exterior_total_complex

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


def es_resolution(f, g, ring_R, length, A=None, check=True):
    """Resolution of S/(f) over R = S/(g) to homological length `length`.

    When A is omitted it is produced by deterministic division-tracked
    lifting. Preconditions (checked when `check`): f and g are regular
    sequences and (g) is contained in (f).
    """
    f = list(f)
    g = list(g)
    if length < 0 or length > MAX_LENGTH:
        raise ValueError(f"length must be between 0 and {MAX_LENGTH}")
    if check:
        if not is_regular_sequence(f):
            raise NotRegularError("f is not a regular sequence")
        if not is_regular_sequence(g):
            raise NotRegularError("g is not a regular sequence")
    if A is None:
        try:
            A = LiftMatrix.from_lift(f, g)
        except NotInIdealError as exc:
            raise ContainmentError(f"(g) is not contained in (f): {exc}") from exc
    columns = [A.column(j) for j in range(A.c)]
    complex_, labels = exterior_total_complex(f, columns, ring_R, length)
    return ShamashResolution(complex_, labels, A, ring_R)


class ResolutionCertificate:
    """Re-verification record: whether d^2 vanishes, and every failure found."""

    def __init__(self, d2_ok, failures):
        self.d2_ok = d2_ok
        self.failures = list(failures)

    @property
    def passed(self):
        return not self.failures


def verify_resolution(resolution, dmax, ring_M=None):
    """Recompute everything from scratch: d^2 = 0 entrywise mod I, vanishing
    of H_i for 0 < i < length in all internal degrees <= dmax, and the
    Hilbert function of H_0 against that of S/(f). The d^2 and vanishing
    checks each report their first failure only."""
    C = resolution.complex
    failures = []
    witness = d_squared_witness(C)
    if witness is not None:
        failures.append("d^2 != 0 at position {}, entry ({},{}) = {}".format(*witness))
    failure = _first_homology(C, range(1, C.hi), range(dmax + 1))
    if failure is not None:
        failures.append("H_{} nonzero in degree {}: dim {}".format(*failure))
    if ring_M is None:
        ring_M = BaseRing(
            resolution.ring.ctx, resolution.ring.field, buchberger(list(resolution.lift.f))
        )
    for d in range(0, dmax + 1):
        # the d_1 ranks are store hits from the vanishing sweep
        dim0 = _h0_dim(C, d)
        dim_m = ring_M.dim_degree(d)
        if dim0 != dim_m:
            failures.append(
                f"H_0 Hilbert function differs in degree {d}: {dim0} vs {dim_m}"
            )
    return ResolutionCertificate(witness is None, failures)


def is_minimal(complex_):
    """No differential entry with a nonzero constant term (degree-0 entry)."""
    for i, d in complex_.diffs.items():
        for row in d.entries:
            for e in row:
                if not e.is_zero() and e.total_degree() == 0:
                    return False
    return True
