"""The divided-power resolution: ranks, differential structure, verification."""

from tatesplice.arith import PrimeField, VariableContext, parse_polynomial
from tatesplice.freecomplex import BaseRing, ChainComplex, PolyMatrix, is_minimal
from tatesplice.groebner import buchberger
from tatesplice.koszul import (
    DividedPowerBasis,
    ExteriorBasis,
    LiftMatrix,
    koszul_complex,
    shamash_labels,
    wedge_map,
)
from tatesplice.shamash import ShamashResolution, es_resolution

from crosschecks import verify_resolution

F = PrimeField(32003)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])


def pxy(s):
    return parse_polynomial(s, XY, F)


def p3(s):
    return parse_polynomial(s, XYZ, F)


def ring_r(gens):
    ctx = gens[0].ring
    return BaseRing(ctx, gens[0].field, buchberger(gens))


def test_divided_power_basis():
    b = DividedPowerBasis(2, 2)
    assert b.exponents == ((0, 2), (1, 1), (2, 0))
    assert len(DividedPowerBasis(3, 2)) == 6
    # no divided-power variables: the Koszul complex's labels
    assert DividedPowerBasis(0, 0).exponents == ((),)
    assert len(DividedPowerBasis(0, 2)) == 0


def test_labels_layering():
    labs = shamash_labels(2, 2, 4)
    ks = [sum(a) for a, _ in labs]
    assert ks == sorted(ks)
    assert len(labs) == 5  # ranks 1,2,3,4,5 for n = c = 2 at position 4
    assert shamash_labels(3, 0, 2) == [((), s) for s in ExteriorBasis(3, 2).subsets]


def test_instance_t_ranks_and_verification():
    f = [pxy("x"), pxy("y")]
    g = [pxy("x^2"), pxy("y^2")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 4)
    assert [res.complex.term(i).rank for i in range(5)] == [1, 2, 3, 4, 5]
    rows = verify_resolution(res, dmax=8)
    assert [(name, passed) for name, passed, _ in rows] == [
        ("d_squared_zero", True),
        ("acyclicity", True),
        ("minimality", True),
        ("h0_hilbert", True),
    ]


def test_h0_hilbert_row_fails_against_the_wrong_module():
    # t resolves S/(x, y); S/(x, y^2) has dim 1, not 0, in degree 1
    f = [pxy("x"), pxy("y")]
    g = [pxy("x^2"), pxy("y^2")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 4)
    wrong = ring_r([pxy("x"), pxy("y^2")])
    rows = {name: (passed, detail) for name, passed, detail in verify_resolution(res, 8, wrong)}
    assert rows["h0_hilbert"] == (False, "H_0 Hilbert function differs in degree 1: 0 vs 1")
    assert all(passed for name, (passed, _) in rows.items() if name != "h0_hilbert")


def test_hypersurface_ranks_and_periodicity():
    f = [pxy("x"), pxy("y")]
    g = [pxy("x^2 + y^2")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 6)
    ranks = [res.complex.term(i).rank for i in range(7)]
    assert ranks == [1, 2, 2, 2, 2, 2, 2]
    assert all(passed for _, passed, _ in verify_resolution(res, dmax=10))
    assert is_minimal(res.complex)
    # entrywise 2-periodicity from position 2 on
    for i in range(2, 5):
        assert res.complex.diff(i).entries == res.complex.diff(i + 2).entries


def test_length_zero():
    f = [pxy("x"), pxy("y")]
    g = [pxy("x^2"), pxy("y^2")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 0)
    assert res.complex.window == (0, 0)
    assert res.complex.term(0).rank == 1
    assert res.complex.term(0).twists == (0,)


def test_instance_c_verification():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 6)
    assert all(passed for _, passed, _ in verify_resolution(res, dmax=12))


def test_sabotage_detected_with_witness():
    f = [pxy("x"), pxy("y")]
    g = [pxy("x^2"), pxy("y^2")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 4)
    C = res.complex
    # drop the vertical (divided-power-lowering) component from d_3
    labels2 = res.labels[2]
    labels3 = res.labels[3]
    columns = [
        {r: e for r, e in col.items() if sum(labels2[r][0]) >= sum(alpha)}
        for col, (alpha, _) in zip(C.diff(3).columns, labels3)
    ]
    broken = dict(C.diffs)
    broken[3] = PolyMatrix(C.term(3), C.term(2), columns)
    damaged = ChainComplex(R, C.terms, broken)
    rows = verify_resolution(ShamashResolution(damaged, res.labels, res.lift, R), dmax=6)
    name, passed, detail = rows[0]
    assert name == "d_squared_zero" and not passed
    # surviving witness is an A-entry times an f-entry: x*y
    assert detail.startswith("d^2 != 0 at position 3: entry") and "x*y" in detail


def test_koszul_layer_is_subcomplex():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 5)
    K = koszul_complex(f, R)
    for i in range(1, 4):
        rows = res.koszul_indices(i - 1)
        cols = res.koszul_indices(i)
        sub = [
            [res.complex.diff(i).entries[r][c] for c in cols] for r in rows
        ]
        assert sub == [list(row) for row in K.diff(i).entries]


def test_vertical_blocks_are_wedge_maps():
    """Each block of d from layer alpha to alpha - e_j is wedge_map(a_j, w)."""
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 5)
    A = res.lift
    checked = 0
    for i in range(2, 6):
        entries = res.complex.diff(i).entries
        for alpha in {a for a, _ in res.labels[i] if sum(a)}:
            w = i - 2 * sum(alpha)
            cols = [k for k, (a, _) in enumerate(res.labels[i]) if a == alpha]
            assert [res.labels[i][k][1] for k in cols] == list(ExteriorBasis(3, w).subsets)
            for j in range(A.c):
                if not alpha[j]:
                    continue
                lowered = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                rows = [r for r, (a, _) in enumerate(res.labels[i - 1]) if a == lowered]
                block = [[entries[r][k] for k in cols] for r in rows]
                want = wedge_map(A.column(j), w, list(A.f_degrees), R)
                assert block == [list(row) for row in want.entries]
                checked += 1
    assert checked


def test_vertical_component_squares_to_zero():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 5)

    def vertical_only(i):
        labels = res.labels[i - 1]
        columns = [  # horizontal keeps the layer
            {r: e for r, e in col.items() if sum(labels[r][0]) != sum(alpha)}
            for col, (alpha, _) in zip(res.complex.diff(i).columns, res.labels[i])
        ]
        return PolyMatrix(res.complex.term(i), res.complex.term(i - 1), columns)

    for i in range(2, 5):
        assert vertical_only(i - 1).compose(vertical_only(i)).is_zero()


def test_minimality_when_ideal_in_m_times_j():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    R = ring_r(g)
    res = es_resolution(LiftMatrix.from_lift(f, g), R, 5)
    assert is_minimal(res.complex)
