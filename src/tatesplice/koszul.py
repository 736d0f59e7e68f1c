"""Exterior-algebra bookkeeping, the Koszul and divided-power complexes,
wedge maps, alpha and beta.

Subset bases are sorted tuples of 1-based indices in lexicographic order.
All signs are computed by counting inversions at the call site. Every
exterior-algebra map reads one of two term kernels: `koszul_terms` for the
Koszul differential and `wedge_terms` for left multiplication by a vector.
`exterior_total_complex` assembles the divided-power (x) exterior complex
from both; the Koszul complex is its case with no divided-power variables.
The top exterior power is trivialized by e_1 ^ ... ^ e_n |-> 1, which fixes
the duality iso beta used to identify the upper half of a splice.
"""

from __future__ import annotations

from itertools import combinations

from .arith import Polynomial
from .errors import LiftIdentityError, SelfCheckError
from .freecomplex import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    check_homotopy_identity,
    require_complex,
)
from .groebner import buchberger, lift_through


class ExteriorBasis:
    """Basis of Lambda^k S^n: k-subsets of {1..n}, lex ordered."""

    __slots__ = ("n", "k", "subsets", "index")

    def __init__(self, n, k):
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


def koszul_terms(subset):
    """(sign, t, rest) for each term sign * f_t e_rest of d(e_subset)."""
    for s, t in enumerate(subset):
        yield (-1 if s % 2 else 1), t, subset[:s] + subset[s + 1 :]


def wedge_terms(v, subset):
    """(merged, coefficient) for each nonzero term of v ^ e_subset."""
    for t, coeff in v.coeffs.items():
        sign, merged = merge_sign(t, subset)
        if sign:
            yield merged, coeff.scale(sign)


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
        for t2, p2 in other.coeffs.items():
            for merged, term in wedge_terms(self, t2):
                term = term * p2
                coeffs[merged] = coeffs[merged] + term if merged in coeffs else term
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


class DividedPowerBasis:
    """Basis of D_k(R^c): exponent vectors alpha in N^c with |alpha| = k,
    ordered lexicographically."""

    __slots__ = ("c", "k", "exponents")

    def __init__(self, c, k):
        self.c = c
        self.k = k
        self.exponents = tuple(_compositions(c, k))

    def __len__(self):
        return len(self.exponents)


def _compositions(c, k):
    """All alpha in N^c with sum k, lexicographically ascending."""
    if c == 0:
        if k == 0:
            yield ()
        return
    for first in range(k + 1):
        for rest in _compositions(c - 1, k - first):
            yield (first,) + rest


def shamash_labels(n, c, i):
    """Generator labels (alpha, T) of term i of D(R^c) (x) Lambda(R^n):
    |alpha| = k and |T| = i - 2k, layers k ascending."""
    return [
        (alpha, subset)
        for k in range(i // 2 + 1)
        for alpha in DividedPowerBasis(c, k).exponents
        for subset in ExteriorBasis(n, i - 2 * k).subsets
    ]


def exterior_total_complex(f, columns, ring, length):
    """The complex D(R^c) (x) Lambda(R^n) on f and the 1-vectors `columns`
    (c of them), terms 0..length. Term i is the sum over k >= 0 of
    D_k (x) Lambda^{i-2k}, generators labeled as in `shamash_labels`, e_T of
    degree sum(deg f_t) and y_j of degree `columns[j].degree`. The
    differential is

        d(y^alpha (x) e_T) = y^alpha (x) d(e_T)
                           + sum_{j: alpha_j > 0} y^{alpha - e_j} (x) (a_j ^ e_T)

    with d the Koszul differential on f and a_j = columns[j]; no binomial
    coefficients enter, so the construction is characteristic-safe.
    Returns (complex, labels) with labels[i] the generators of term i. d^2
    is not checked here: a build checks the products it reads in the one d^2
    check of its cone (`tate._splice`), and `koszul_complex` checks its own.
    """
    f = list(f)
    n = len(f)
    f_degrees = [p.total_degree() for p in f]
    labels = {i: shamash_labels(n, len(columns), i) for i in range(length + 1)}
    terms = {
        i: GradedFreeModule(
            ring,
            [
                -sum(a * col.degree for a, col in zip(alpha, columns))
                - sum(f_degrees[t - 1] for t in subset)
                for alpha, subset in labs
            ],
        )
        for i, labs in labels.items()
    }
    diffs = {}
    for i in range(1, length + 1):
        tgt_index = {lab: r for r, lab in enumerate(labels[i - 1])}
        cols = []
        for alpha, subset in labels[i]:
            # horizontal: the Koszul differential in the exterior factor
            col = {
                tgt_index[(alpha, rest)]: f[t - 1].scale(sign)
                for sign, t, rest in koszul_terms(subset)
            }
            # vertical: lower the divided power, wedge with the matching
            # column; no two terms of a column share a target generator
            for j, a_j in enumerate(columns):
                if not alpha[j]:
                    continue
                lowered = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                for merged, term in wedge_terms(a_j, subset):
                    col[tgt_index[(lowered, merged)]] = term
            cols.append(col)
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], cols)
    return ChainComplex(ring, terms, diffs), labels


def koszul_complex(f, ring):
    """Koszul complex on f over the given base ring (S or a quotient of it):
    the exterior total complex with no divided-power variables.

    d(e_{i1} ^ ... ^ e_{ik}) = sum_s (-1)^(s+1) f_{is} e_{...drop s...},
    checked for d^2 = 0.
    """
    f = list(f)
    return require_complex(exterior_total_complex(f, [], ring, len(f))[0])


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


def _minor(entries, rows, cols, memo):
    """Exact determinant of the submatrix by Laplace expansion along its first
    row; `memo` holds each sub-minor by (rows, cols), so each is formed once."""
    if (rows, cols) in memo:
        return memo[rows, cols]
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
        sub = _minor(entries, rest_rows, rest_cols, memo)
        term = e * sub
        if idx % 2:
            term = -term
        acc = acc + term
    memo[rows, cols] = acc
    return acc


def alpha_element(lift):
    """alpha = Lambda^c A (e_1 ^ ... ^ e_c) in Lambda^c S^n: the coefficient
    of e'_T is the maximal minor of A on the rows T."""
    n, c = lift.n, lift.c
    cols, memo = tuple(range(c)), {}
    coeffs = {
        subset: _minor(lift.A, tuple(i - 1 for i in subset), cols, memo)
        for subset in ExteriorBasis(n, c).subsets
    }
    return ExteriorVector(n, c, coeffs, sum(lift.g_degrees))


def wedge_map(v, i, f_degrees, ring):
    """Matrix of w |-> v ^ w from Lambda^i to Lambda^{i+k} (left multiplication).

    The target is twisted by the element degree of v so the map is degree 0.
    """
    n = v.n
    src_basis = ExteriorBasis(n, i)
    tgt_basis = ExteriorBasis(n, i + v.k)
    source = exterior_module(ring, n, i, f_degrees)
    target = exterior_module(ring, n, i + v.k, f_degrees).twist(v.degree)
    # v ^ e_subset has one term per subset of v, each landing on its own e_merged
    cols = [
        {tgt_basis.index[merged]: term for merged, term in wedge_terms(v, subset)}
        for subset in src_basis.subsets
    ]
    return PolyMatrix(source, target, cols)


def koszul_homotopy(a, f, K, g=None):
    """Homotopy for g = sum(a_i f_i) on K, the Koszul complex of f: exterior
    multiplication by sum(a_i e'_i). Returns {i: tau_i} with
    tau_i: K_i -> K_{i+1}(twisted); the identity d tau + tau d = g id is
    verified exactly on every term of K.
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
    taus = {i: wedge_map(vec, i, f_degrees, K.ring) for i in range(n)}
    check_homotopy_identity(K, g, taus)
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
    one = ring.one()
    cols = []
    for subset in src_basis.subsets:
        sign, comp = complement_sign(subset, n)
        cols.append({tgt_basis.index[comp]: one.scale(sign)})
    return PolyMatrix(source, target, cols)
