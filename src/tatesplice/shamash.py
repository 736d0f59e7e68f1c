"""The resolution of M = S/(f) over R = S/(g) from divided powers and Koszul data.

Term i is the direct sum over k >= 0 of D_k(R^c) (x) Lambda^{i-2k} R^n, with
generators labeled (alpha, T): alpha an exponent vector with |alpha| = k, T a
subset of {1..n}. The differential is

    d(y^alpha (x) w) = y^alpha (x) delta(w)
                     + sum_{j: alpha_j > 0} y^{alpha - e_j} (x) (a_j ^ w)

with a_j the j-th column of the lift matrix A; no binomial coefficients enter,
so the construction is characteristic-safe. The vertical entries are drawn
from A's columns: degree bookkeeping forces this, and the d^2 = 0 and
acyclicity certificates adjudicate the construction.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ContainmentError, NotInIdealError, NotRegularError
from .freecomplex import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    _first_homology,
    _h0_dim,
    d_squared_witness,
)
from .groebner import is_regular_sequence
from .koszul import LiftMatrix, merge_sign

MAX_LENGTH = 40


class DividedPowerBasis:
    """Basis of D_k(R^c): exponent vectors alpha in N^c with |alpha| = k,
    ordered lexicographically."""

    __slots__ = ("c", "k", "exponents", "index")

    def __init__(self, c, k):
        self.c = c
        self.k = k
        self.exponents = tuple(_compositions(c, k))
        self.index = {a: i for i, a in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)


def _compositions(c, k):
    """All alpha in N^c with sum k, lexicographically ascending."""
    if c == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(c - 1, k - first):
            yield (first,) + rest


def shamash_labels(n, c, i):
    """Generator labels (alpha, T) of term i, layers k ascending."""
    labels = []
    for k in range(i // 2 + 1):
        w = i - 2 * k
        if w < 0 or w > n:
            continue
        for alpha in DividedPowerBasis(c, k).exponents:
            for subset in combinations(range(1, n + 1), w):
                labels.append((alpha, subset))
    return labels


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


def _label_twist(label, f_degrees, g_degrees):
    alpha, subset = label
    return -(
        sum(a * dg for a, dg in zip(alpha, g_degrees))
        + sum(f_degrees[t - 1] for t in subset)
    )


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
    n, c = A.n, A.c
    f_degrees, g_degrees = A.f_degrees, A.g_degrees
    zero = ring_R.zero()

    labels = {i: shamash_labels(n, c, i) for i in range(length + 1)}
    terms = {
        i: GradedFreeModule(
            ring_R, [_label_twist(lab, f_degrees, g_degrees) for lab in labels[i]]
        )
        for i in range(length + 1)
    }
    diffs = {}
    for i in range(1, length + 1):
        tgt_index = {lab: r for r, lab in enumerate(labels[i - 1])}
        entries = [[zero] * len(labels[i]) for _ in range(len(labels[i - 1]))]
        for col, (alpha, subset) in enumerate(labels[i]):
            # horizontal: Koszul differential in the exterior factor
            for s, t in enumerate(subset):
                rest = subset[:s] + subset[s + 1 :]
                sign = -1 if s % 2 else 1
                r = tgt_index[(alpha, rest)]
                entries[r][col] = entries[r][col] + f[t - 1].scale(sign)
            # vertical: lower the divided power, wedge with the matching column
            for j in range(c):
                if alpha[j] == 0:
                    continue
                lowered = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                for t in range(1, n + 1):
                    coeff = A.A[t - 1][j]
                    if coeff.is_zero():
                        continue
                    sign, merged = merge_sign((t,), subset)
                    if sign == 0:
                        continue
                    r = tgt_index[(lowered, merged)]
                    entries[r][col] = entries[r][col] + coeff.scale(sign)
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], entries)
    complex_ = ChainComplex(ring_R, terms, diffs, validate=True)
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
        from .freecomplex import BaseRing
        from .groebner import buchberger

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
