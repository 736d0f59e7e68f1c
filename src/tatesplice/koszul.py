"""Koszul complexes, exterior-algebra bookkeeping, wedge maps, and alpha.

Subset bases are sorted tuples of 1-based indices in lexicographic order.
All signs are computed by counting inversions at the call site. The top
exterior power is trivialized by e_1 ^ ... ^ e_n |-> 1, which fixes the
duality iso beta used to identify the upper half of a splice.
"""

from __future__ import annotations

from itertools import combinations

from .arith import Polynomial
from .errors import LiftIdentityError, SelfCheckError
from .freecomplex import ChainComplex, GradedFreeModule, PolyMatrix
from .groebner import lift_through

MAX_AMBIENT_RANK = 24


class ExteriorBasis:
    """Basis of Lambda^k S^n: k-subsets of {1..n}, lex ordered."""

    __slots__ = ("n", "k", "subsets", "index")

    def __init__(self, n, k):
        if n > MAX_AMBIENT_RANK:
            raise ValueError(f"ambient rank {n} exceeds {MAX_AMBIENT_RANK}")
        self.n = n
        self.k = k
        if 0 <= k <= n:
            self.subsets = tuple(combinations(range(1, n + 1), k))
        else:
            self.subsets = ()
        self.index = {s: i for i, s in enumerate(self.subsets)}

    def __len__(self):
        return len(self.subsets)


def merge_sign(left, right):
    """e_left ^ e_right = sign * e_merged; (0, None) when subsets intersect."""
    if set(left) & set(right):
        return 0, None
    inversions = sum(1 for a in left for b in right if a > b)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(left + right))


def complement_sign(subset, n):
    """e_subset ^ e_complement = sign * e_{1..n}."""
    comp = tuple(i for i in range(1, n + 1) if i not in subset)
    sign, merged = merge_sign(subset, comp)
    if merged != tuple(range(1, n + 1)):
        raise SelfCheckError(f"{subset} is not a set of distinct indices in 1..{n}")
    return sign, comp


class ExteriorVector:
    """Element of Lambda^k S^n, homogeneous of a fixed internal degree.

    The internal degree is that of the element when e_T carries degree
    sum(deg f_t for t in T): coefficient degrees vary with T, the element
    degree does not.
    """

    __slots__ = ("n", "k", "coeffs", "degree")

    def __init__(self, n, k, coeffs, degree):
        self.n = n
        self.k = k
        self.coeffs = {t: p for t, p in coeffs.items() if not p.is_zero()}
        self.degree = degree

    def is_zero(self):
        return not self.coeffs

    def wedge(self, other):
        """Exterior product, self on the left."""
        if self.n != other.n:
            raise ValueError("ambient rank mismatch")
        coeffs = {}
        for t1, p1 in self.coeffs.items():
            for t2, p2 in other.coeffs.items():
                sign, merged = merge_sign(t1, t2)
                if sign == 0:
                    continue
                term = (p1 * p2).scale(sign)
                if merged in coeffs:
                    coeffs[merged] = coeffs[merged] + term
                else:
                    coeffs[merged] = term
        return ExteriorVector(
            self.n, self.k + other.k, coeffs, self.degree + other.degree
        )

    def __repr__(self):
        body = " + ".join(f"({p})*e{t}" for t, p in sorted(self.coeffs.items()))
        return f"ExteriorVector({body or '0'})"


def exterior_module(ring, n, k, f_degrees):
    """Lambda^k over the given ring, with twist -sum(deg f_t) per subset."""
    basis = ExteriorBasis(n, k)
    twists = [-sum(f_degrees[t - 1] for t in subset) for subset in basis.subsets]
    return GradedFreeModule(ring, twists)


def koszul_complex(f, ring):
    """Koszul complex on f over the given base ring (S or a quotient of it).

    d(e_{i1} ^ ... ^ e_{ik}) = sum_s (-1)^(s+1) f_{is} e_{...drop s...}.
    """
    f = list(f)
    n = len(f)
    f_degrees = [p.total_degree() for p in f]
    terms = {i: exterior_module(ring, n, i, f_degrees) for i in range(n + 1)}
    diffs = {}
    zero = ring.zero()
    for i in range(1, n + 1):
        src = ExteriorBasis(n, i)
        tgt = ExteriorBasis(n, i - 1)
        entries = [[zero] * len(src) for _ in range(len(tgt))]
        for c, subset in enumerate(src.subsets):
            for s, t in enumerate(subset):
                rest = subset[:s] + subset[s + 1 :]
                sign = -1 if s % 2 else 1
                entry = f[t - 1].scale(sign)
                r = tgt.index[rest]
                entries[r][c] = entries[r][c] + entry
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], entries)
    return ChainComplex(ring, terms, diffs, validate=True)


class LiftMatrix:
    """The n x c matrix A with g_j = sum_i A[i][j] * f_i, plus twist data.

    The defining identity is verified for every column at construction.
    """

    __slots__ = ("A", "f", "g", "f_degrees", "g_degrees")

    def __init__(self, A, f, g):
        self.f = tuple(f)
        self.g = tuple(g)
        self.f_degrees = tuple(p.total_degree() for p in self.f)
        self.g_degrees = tuple(p.total_degree() for p in self.g)
        n, c = len(self.f), len(self.g)
        if len(A) != n or any(len(row) != c for row in A):
            raise ValueError(f"lift matrix must be {n} x {c}")
        self.A = tuple(tuple(row) for row in A)
        ring, field = self.f[0].ring, self.f[0].field
        for j in range(c):
            acc = Polynomial.zero(ring, field)
            for i in range(n):
                entry = self.A[i][j]
                if not entry.is_zero():
                    if (
                        not entry.is_homogeneous()
                        or entry.total_degree()
                        != self.g_degrees[j] - self.f_degrees[i]
                    ):
                        raise LiftIdentityError(
                            f"entry A[{i}][{j}] = {entry} has wrong degree"
                        )
                acc = acc + entry * self.f[i]
            if acc != self.g[j]:
                raise LiftIdentityError(
                    f"column {j}: sum A[i][{j}]*f_i = {acc} != g_{j} = {self.g[j]}"
                )

    @classmethod
    def from_lift(cls, f, g, gb=None):
        """Deterministic A from division-tracked lifting of each g_j."""
        if gb is None:
            from .groebner import buchberger

            gb = buchberger(list(f))
        cols = [lift_through(gj, list(f), gb) for gj in g]
        n = len(f)
        A = [[cols[j][i] for j in range(len(g))] for i in range(n)]
        return cls(A, f, g)

    @property
    def n(self):
        return len(self.f)

    @property
    def c(self):
        return len(self.g)

    def column(self, j):
        """Column j as a 1-vector sum_i A[i][j] e'_i in Lambda^1 S^n."""
        coeffs = {(i + 1,): self.A[i][j] for i in range(self.n)}
        return ExteriorVector(self.n, 1, coeffs, self.g_degrees[j])


def _minor(entries, rows, cols):
    """Exact determinant of the submatrix by Laplace expansion."""
    if not rows:
        ring, field = None, None
        for row in entries:
            for e in row:
                ring, field = e.ring, e.field
                break
            break
        return Polynomial.constant(ring, field, 1)
    ring, field = entries[0][0].ring, entries[0][0].field
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    acc = Polynomial.zero(ring, field)
    r = rows[0]
    rest_rows = rows[1:]
    for idx, c in enumerate(cols):
        e = entries[r][c]
        if e.is_zero():
            continue
        rest_cols = cols[:idx] + cols[idx + 1 :]
        sub = _minor(entries, rest_rows, rest_cols)
        term = e * sub
        if idx % 2:
            term = -term
        acc = acc + term
    return acc


class AlphaElement(ExteriorVector):
    """Image of e_1 ^ ... ^ e_c under Lambda^c A: coefficients are the
    maximal minors of A indexed by row subsets."""

    __slots__ = ("lift",)

    def __init__(self, lift):
        n, c = lift.n, lift.c
        cols = tuple(range(c))
        coeffs = {}
        for subset in ExteriorBasis(n, c).subsets:
            rows = tuple(i - 1 for i in subset)
            m = _minor(lift.A, rows, cols)
            if not m.is_zero():
                coeffs[subset] = m
        super().__init__(n, c, coeffs, sum(lift.g_degrees))
        self.lift = lift


def alpha_element(lift):
    """alpha in Lambda^c S^n; orientation e_1^...^e_c |-> sum minors e'_T."""
    return AlphaElement(lift)


def wedge_map(v, i, f_degrees, ring):
    """Matrix of w |-> v ^ w from Lambda^i to Lambda^{i+k} (left multiplication).

    The target is twisted by the element degree of v so the map is degree 0.
    """
    n = v.n
    src_basis = ExteriorBasis(n, i)
    tgt_basis = ExteriorBasis(n, i + v.k)
    source = exterior_module(ring, n, i, f_degrees)
    target = exterior_module(ring, n, i + v.k, f_degrees).twist(v.degree)
    zero = ring.zero()
    entries = [[zero] * len(src_basis) for _ in range(len(tgt_basis))]
    for c, subset in enumerate(src_basis.subsets):
        for t, coeff in v.coeffs.items():
            sign, merged = merge_sign(t, subset)
            if sign == 0:
                continue
            r = tgt_basis.index[merged]
            entries[r][c] = entries[r][c] + coeff.scale(sign)
    return PolyMatrix(source, target, entries)


def koszul_homotopy(a, f, ring, g=None):
    """Homotopy for g = sum(a_i f_i) on the Koszul complex of f: exterior
    multiplication by sum(a_i e'_i). Returns {i: tau_i} with
    tau_i: K_i -> K_{i+1}(twisted); the identity d tau + tau d = g id is
    verified exactly on every term.
    """
    f = list(f)
    a = list(a)
    n = len(f)
    ring_poly = f[0].ring
    field = f[0].field
    acc = Polynomial.zero(ring_poly, field)
    for ai, fi in zip(a, f):
        acc = acc + ai * fi
    if g is None:
        g = acc
    elif acc != g:
        raise LiftIdentityError(f"sum a_i f_i = {acc} differs from g = {g}")
    if g.is_zero() or not g.is_homogeneous():
        raise LiftIdentityError("g must be nonzero homogeneous")
    dg = g.total_degree()
    f_degrees = [p.total_degree() for p in f]
    vec = ExteriorVector(n, 1, {(i + 1,): ai for i, ai in enumerate(a)}, dg)
    taus = {i: wedge_map(vec, i, f_degrees, ring) for i in range(n)}

    K = koszul_complex(f, ring)
    Ktw = K.twist(dg)
    for i in range(n + 1):
        lhs = PolyMatrix.zero(K.term(i), Ktw.term(i))
        if i < n:
            lhs = lhs + Ktw.diff(i + 1).compose(taus[i])
        if i > 0:
            lhs = lhs + taus[i - 1].compose(K.diff(i))
        want = PolyMatrix.scalar(K.term(i), g)
        if lhs != want:
            raise LiftIdentityError(f"homotopy identity fails on term {i}")
    return taus


def beta_matrix(ring, n, j, f_degrees):
    """The trivialization Lambda^j -> (Lambda^{n-j})* induced by
    e_1 ^ ... ^ e_n |-> 1: e_T |-> sign(T, T^c) (e_{T^c})^dual.

    The target is the dual module twisted by -sum(deg f), the twist of the
    top exterior power.
    """
    src_basis = ExteriorBasis(n, j)
    tgt_basis = ExteriorBasis(n, n - j)
    source = exterior_module(ring, n, j, f_degrees)
    total = sum(f_degrees)
    target = exterior_module(ring, n, n - j, f_degrees).dual().twist(-total)
    zero = ring.zero()
    one = ring.one()
    entries = [[zero] * len(src_basis) for _ in range(len(tgt_basis))]
    for c, subset in enumerate(src_basis.subsets):
        sign, comp = complement_sign(subset, n)
        entries[tgt_basis.index[comp]][c] = one.scale(sign)
    return PolyMatrix(source, target, entries)


def koszul_self_duality(g_list, ring):
    """Verify d_c == (-1)^(c+1) d_1^T under the beta trivializations of the
    Koszul complex on g_1..g_c; returns the global unit (-1)^(c+1)."""
    E = koszul_complex(g_list, ring)
    c = len(g_list)
    g_degrees = [p.total_degree() for p in g_list]
    beta_top = beta_matrix(ring, c, c, g_degrees)
    beta_next = beta_matrix(ring, c, c - 1, g_degrees)
    total = sum(g_degrees)
    lhs = beta_next.compose(E.diff(c))
    rhs = E.diff(1).transpose().twisted(-total).compose(beta_top)
    sign = -1 if c % 2 == 0 else 1
    if lhs != rhs.scale(sign):
        raise SelfCheckError("Koszul self-duality check failed")
    return sign
