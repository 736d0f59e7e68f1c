"""Koszul complexes, wedge maps, homotopies, alpha, and sign conventions."""

import itertools
import random

import pytest

from tatesplice.arith import Polynomial, PrimeField, VariableContext, parse_polynomial
from tatesplice.errors import LiftIdentityError, SelfCheckError
from tatesplice.freecomplex import BaseRing, PolyMatrix, _homology_dim
from tatesplice.groebner import buchberger
from tatesplice.koszul import (
    ExteriorBasis,
    ExteriorVector,
    LiftMatrix,
    alpha_element,
    beta_matrix,
    complement_sign,
    koszul_complex,
    koszul_homotopy,
    merge_sign,
    wedge_map,
)

from crosschecks import koszul_self_duality

F = PrimeField(101)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])
S2 = BaseRing(XY, F)
S3 = BaseRing(XYZ, F)


def pxy(s):
    return parse_polynomial(s, XY, F)


def p3(s):
    return parse_polynomial(s, XYZ, F)


def test_exterior_basis_lex():
    b = ExteriorBasis(4, 2)
    assert b.subsets[:3] == ((1, 2), (1, 3), (1, 4))
    assert len(b) == 6


def test_merge_sign():
    assert merge_sign((1,), (2, 3)) == (1, (1, 2, 3))
    assert merge_sign((2,), (1, 3)) == (-1, (1, 2, 3))
    assert merge_sign((1, 2), (1,)) == (0, None)
    assert complement_sign((2,), 3) == (-1, (1, 3))


@pytest.mark.parametrize("subset", [(1, 4), (2, 2), (0,)])
def test_complement_sign_rejects_inconsistent_subset(subset):
    """The merge check is a raised error, so it holds under python -O."""
    with pytest.raises(SelfCheckError):
        complement_sign(subset, 3)


def test_koszul_two_variables():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert [K.term(i).rank for i in range(3)] == [1, 2, 1]
    assert K.diff(1).entries == ((pxy("x"), pxy("y")),)
    assert K.diff(2).entries == ((pxy("-y"),), (pxy("x"),))


def test_koszul_three_squares():
    K = koszul_complex([p3("x^2"), p3("y^2"), p3("z^2")], S3)
    assert [K.term(i).rank for i in range(4)] == [1, 3, 3, 1]
    assert [K.term(i).twists[0] for i in range(4)] == [0, -2, -4, -6]
    for i in (1, 2):
        for d in range(0, 11):
            assert _homology_dim(K, i, d) == 0
    for d in range(0, 11):
        assert _homology_dim(K, 3, d, hi_zero=True) == 0


def test_wedge_map_socle_entry():
    lift = LiftMatrix.from_lift([pxy("x"), pxy("y")], [pxy("x^2"), pxy("y^2")])
    alpha = alpha_element(lift)
    m = wedge_map(alpha, 0, [1, 1], S2)
    assert m.entries == ((pxy("x*y"),),)


def test_wedge_map_shuffle_sign():
    v = ExteriorVector(3, 2, {(1, 2): p3("1")}, 2)
    m = wedge_map(v, 1, [1, 1, 1], S3)
    basis = ExteriorBasis(3, 1)
    target = ExteriorBasis(3, 3)
    col_e3 = basis.index[(3,)]
    assert m.entries[target.index[(1, 2, 3)]][col_e3] == p3("1")
    for col in (basis.index[(1,)], basis.index[(2,)]):
        assert all(m.entries[r][col].is_zero() for r in range(len(target)))


def test_wedge_composition_is_wedge_of_product():
    rng = random.Random(7)
    ctx = VariableContext(["x", "y", "z", "w"])
    S4 = BaseRing(ctx, F)
    f_degs = [1, 1, 1, 1]

    def rand_vector(k, element_degree):
        coeffs = {}
        for subset in ExteriorBasis(4, k).subsets:
            cdeg = element_degree - sum(f_degs[t - 1] for t in subset)
            if cdeg < 0:
                continue
            from tatesplice.groebner import monomials_of_degree

            terms = {}
            for mono in monomials_of_degree(4, cdeg):
                if rng.random() < 0.4:
                    terms[mono] = rng.randrange(1, F.p)
            coeffs[subset] = Polynomial(ctx, F, terms)
        return ExteriorVector(4, k, coeffs, element_degree)

    for _ in range(5):
        v = rand_vector(1, 2)
        w = rand_vector(1, 1)
        i = rng.choice([0, 1, 2])
        lhs = wedge_map(v, i + 1, f_degs, S4).twisted(w.degree).compose(
            wedge_map(w, i, f_degs, S4)
        )
        rhs = wedge_map(v.wedge(w), i, f_degs, S4)
        assert lhs.entries == rhs.entries


def _plus(a, b):
    """a + b entry by entry, for matrices between the same modules."""
    cols = [dict(x) for x in a.columns]
    for col, y in zip(cols, b.columns):
        for r, e in y.items():
            col[r] = col[r] + e if r in col else e
    return PolyMatrix(a.source, a.target, cols)


def test_koszul_homotopy_examples():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    taus = koszul_homotopy([pxy("x"), pxy("0")], [pxy("x"), pxy("y")], K)
    # tau_0(1) = x e_1
    assert [row[0] for row in taus[0].entries] == [pxy("x"), pxy("0")]
    # identity checked at construction; spot-check d tau + tau d = x^2 on K_1
    Ktw = K.twist(2)
    lhs = _plus(Ktw.diff(2).compose(taus[1]), taus[0].compose(K.diff(1)))
    assert lhs == PolyMatrix.scalar(K.term(1), pxy("x^2"))


def test_koszul_homotopy_squares_to_zero():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    taus = koszul_homotopy([pxy("x"), pxy("0")], [pxy("x"), pxy("y")], K)
    square = taus[1].twisted(0).compose(taus[0].twisted(-2))
    assert square.is_zero()


def test_koszul_homotopy_rejects_bad_lift():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    with pytest.raises(LiftIdentityError):
        koszul_homotopy(
            [pxy("x"), pxy("0")], [pxy("x"), pxy("y")], K, g=pxy("x^2 + y^2")
        )


def test_from_lift_through_a_basis_larger_than_f():
    # the leads x^2 and x*y of f share x, so (f) has the third basis element
    # y^2*z - x*z^2, and the lift re-expands its quotients through the
    # representation buchberger built for it
    f = [p3("x^2 - y*z"), p3("x*y - z^2")]
    h = p3("y^2*z - x*z^2")
    g = [h, p3("x + y") * h + p3("x*z") * f[0], p3("y") * h - p3("z^2") * f[1]]
    assert len(buchberger(f).generators) == 3
    lift = LiftMatrix.from_lift(f, g)
    for j, gj in enumerate(g):
        assert sum((lift.A[i][j] * fi for i, fi in enumerate(f)), Polynomial.zero(XYZ, F)) == gj


def test_alpha_diag():
    lift = LiftMatrix.from_lift([pxy("x"), pxy("y")], [pxy("x^2"), pxy("y^2")])
    alpha = alpha_element(lift)
    assert alpha.coeffs == {(1, 2): pxy("x*y")}
    assert alpha.degree == 4


def test_alpha_instance_c():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    lift = LiftMatrix.from_lift(f, g)
    assert [[str(e) for e in row] for row in lift.A] == [
        ["x", "0"],
        ["0", "y"],
        ["0", "0"],
    ]
    alpha = alpha_element(lift)
    assert alpha.coeffs == {(1, 2): p3("x*y")}


def test_alpha_column_vector():
    lift = LiftMatrix([[pxy("x")], [pxy("y")]], [pxy("x"), pxy("y")], [pxy("x^2 + y^2")])
    alpha = alpha_element(lift)
    assert alpha.coeffs == {(1,): pxy("x"), (2,): pxy("y")}


def test_alpha_orthogonal_to_columns():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    lift = LiftMatrix.from_lift(f, g)
    alpha = alpha_element(lift)
    for j in range(lift.c):
        assert alpha.wedge(lift.column(j)).is_zero()


def _permutation_determinant(entries, rows, cols, ctx, field):
    """Independent minor oracle: sum over permutations with explicit signs."""
    acc = Polynomial.zero(ctx, field)
    k = len(rows)
    for perm in itertools.permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        term = Polynomial.constant(ctx, field, 1 if inversions % 2 == 0 else -1)
        for r_idx, c_idx in enumerate(perm):
            term = term * entries[rows[r_idx]][cols[c_idx]]
        acc = acc + term
    return acc


def test_alpha_coefficients_match_permutation_minors():
    ctx = VariableContext(["x", "y", "z", "w"])
    S4 = BaseRing(ctx, F)
    f = [parse_polynomial(s, ctx, F) for s in ("x^2", "y^2", "z^2", "w^2")]
    g = [parse_polynomial(s, ctx, F) for s in ("x^3 + y^2*w", "z^2*y + w^3")]
    lift = LiftMatrix.from_lift(f, g)
    alpha = alpha_element(lift)
    for subset in ExteriorBasis(4, 2).subsets:
        expected = _permutation_determinant(
            lift.A, [i - 1 for i in subset], [0, 1], ctx, F
        )
        got = alpha.coeffs.get(subset, Polynomial.zero(ctx, F))
        assert got == expected


def test_homotopies_anticommute():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    lift = LiftMatrix.from_lift(f, g)
    K = koszul_complex(f, S3)
    t1 = koszul_homotopy([lift.A[i][0] for i in range(3)], f, K)
    t2 = koszul_homotopy([lift.A[i][1] for i in range(3)], f, K)
    for i in range(0, 2):
        a = t1[i + 1].twisted(3).compose(t2[i])
        b = t2[i + 1].twisted(3).compose(t1[i])
        assert _plus(a, b).is_zero()


def test_beta_matrix_is_unimodular_pairing():
    b = beta_matrix(S3, 3, 1, [1, 1, 1])
    assert b.source.rank == 3 and b.target.rank == 3
    for row in b.entries:
        consts = [e for e in row if not e.is_zero()]
        assert len(consts) == 1 and consts[0].is_constant()


def test_koszul_self_duality_sign():
    assert koszul_self_duality([pxy("x^2"), pxy("y^2")], S2) == -1
    assert koszul_self_duality([pxy("x^2 + y^2")], S2) == 1
    assert koszul_self_duality([p3("x^2"), p3("y^2"), p3("z^2")], S3) == 1
