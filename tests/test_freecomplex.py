"""Modules, matrices, complexes, duals, shifts, cones, graded pieces, homology."""

import json

import pytest

from tatesplice import freecomplex
from tatesplice.arith import PrimeField, VariableContext, parse_polynomial
from tatesplice.errors import (
    DegreeMismatchError,
    NotAComplexError,
    NotChainMapError,
    WindowEdgeError,
)
from tatesplice.freecomplex import (
    BaseRing,
    ChainComplex,
    DegreeLayout,
    GradedFreeModule,
    PolyMatrix,
    _homology_dim,
    complex_from_doc,
    complex_to_doc,
    graded_piece,
    homology_dims,
    is_chain_map,
    mapping_cone,
)
from tatesplice.groebner import buchberger
from tatesplice.harness import _oracle_basis, _oracle_matrix, oracle_homology
from tatesplice.koszul import koszul_complex

F = PrimeField(101)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])
S2 = BaseRing(XY, F)
S3 = BaseRing(XYZ, F)


def pxy(s):
    return parse_polynomial(s, XY, F)


def one_by_one(ring, entry, src_twist, tgt_twist):
    src = GradedFreeModule(ring, (src_twist,))
    tgt = GradedFreeModule(ring, (tgt_twist,))
    return src, tgt, PolyMatrix.from_rows(src, tgt, [[entry]])


def test_make_complex_koszul():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert K.window == (0, 2)
    assert [K.term(i).rank for i in range(3)] == [1, 2, 1]


def test_make_complex_rejects_x_squared_over_S():
    src1, mid, d1 = one_by_one(S2, pxy("x"), -1, 0)
    src2 = GradedFreeModule(S2, (-2,))
    d2 = PolyMatrix.from_rows(src2, src1, [[pxy("x")]])
    with pytest.raises(NotAComplexError) as e:
        ChainComplex(S2, {0: mid, 1: src1, 2: src2}, {1: d1, 2: d2}, validate=True)
    assert e.value.position == 2
    assert "x^2" in str(e.value)


def test_make_complex_accepts_x_squared_over_quotient():
    R = BaseRing(XY, F, buchberger([pxy("x^2")]))
    src1, mid, d1 = one_by_one(R, pxy("x"), -1, 0)
    src2 = GradedFreeModule(R, (-2,))
    d2 = PolyMatrix.from_rows(src2, src1, [[pxy("x")]])
    C = ChainComplex(R, {0: mid, 1: src1, 2: src2}, {1: d1, 2: d2}, validate=True)
    assert C.window == (0, 2)


def test_degree_mismatch_rejected():
    src = GradedFreeModule(S2, (-2,))
    tgt = GradedFreeModule(S2, (0,))
    with pytest.raises(DegreeMismatchError):
        PolyMatrix.from_rows(src, tgt, [[pxy("x")]])  # needs degree 2


def test_dual_of_multiplication():
    _, _, d = one_by_one(S2, pxy("x"), -1, 0)
    C = ChainComplex(S2, {0: d.target, 1: d.source}, {1: d})
    D = C.dual()
    assert D.window == (-1, 0)
    assert D.term(0).twists == (0,)
    assert D.term(-1).twists == (1,)
    # position 0 differential is the transpose of d_1 with sign (-1)^1
    assert D.diff(0).entries[0][0] == pxy("-x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: koszul_complex([pxy("x"), pxy("y")], S2),
        lambda: koszul_complex([pxy("x^2"), pxy("x*y + y^2")], S2),
        lambda: koszul_complex(
            [parse_polynomial(s, XYZ, F) for s in ("x^2 - y*z", "y^2 - x*z")], S3
        ).shift(3),
        lambda: koszul_complex([pxy("x"), pxy("y")], S2).twist(2).shift(-1),
    ],
)
def test_dual_involution_negates_differentials(build):
    K = build()
    DD = K.dual().dual()
    assert DD.window == K.window
    for i in range(K.lo + 1, K.hi + 1):
        assert DD.term(i).twists == K.term(i).twists
        assert DD.diff(i).entries == K.diff(i).scale(-1).entries


def test_dual_koszul_homology_at_top():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    D = K.dual()
    for d in range(-4, 5):
        assert _homology_dim(D, -1, d) == 0
    dims = {d: _homology_dim(D, -2, d, lo_zero=True) for d in range(-5, 4)}
    # Ext^2(S/(x,y), S) is one-dimensional, concentrated in degree -2
    assert dims == {d: (1 if d == -2 else 0) for d in range(-5, 4)}


def test_shift_identities():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert K.shift(0).diffs[1].entries == K.diffs[1].entries
    back = K.shift(2).shift(-2)
    for i in range(1, 3):
        assert back.diff(i).entries == K.diff(i).entries
    shifted = K.shift(3)
    assert shifted.window == (3, 5)
    assert shifted.diff(4).entries == K.diff(1).scale(-1).entries
    # shifted complexes still satisfy d^2 = 0
    ChainComplex(S2, shifted.terms, shifted.diffs, validate=True)


def test_subwindow_keeps_the_stored_ranks_of_its_differentials():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert [K.rank(i, 2) for i in (1, 2)] == [3, 1]
    sub = K.subwindow(1, 2)
    # d_2 is the same matrix in both; d_1 leaves the window, so its rank
    # there is the rank of the zero map
    assert sub._ranks == {(2, 2): 1}
    assert sub.rank(1, 2) == 0


def test_koszul_ranks_over_S_equal_built_pieces():
    # over S every degree has a larger basis, so no rank carries over
    K = koszul_complex([parse_polynomial(v, XYZ, F) for v in "xyz"], S3)
    for i in range(1, 4):
        for d in range(-1, 8):
            K.rank(i, d)
    for (i, d), r in K._ranks.items():
        assert r == graded_piece(K.diff(i), d).rank(), (i, d)


def test_rank_builds_the_piece_when_only_the_dims_repeat(monkeypatch):
    # R = F_7[x,y,z]/(yz, xz + 3z^2, xy + y^2) has dims 1, 3, 3, 3, ...; at
    # d = 3 the map (y): R(-1) -> R has the dims of d = 2, but the tables of
    # y differ, so the piece is built
    F7 = PrimeField(7)
    gens = [parse_polynomial(g, XYZ, F7) for g in ("y*z", "x*z + 3*z^2", "x*y + y^2")]
    R = BaseRing(XYZ, F7, buchberger(gens))
    assert [R.dim_degree(d) for d in range(6)] == [1, 3, 3, 3, 3, 3]
    src, tgt, m = one_by_one(R, parse_polynomial("y", XYZ, F7), -1, 0)
    C = ChainComplex(R, {0: tgt, 1: src}, {1: m})
    assert C.rank(1, 2) == 1
    built = []
    build = freecomplex.graded_piece
    monkeypatch.setattr(freecomplex, "graded_piece", lambda m, d: built.append(d) or build(m, d))
    assert C.rank(1, 3) == build(m, 3).rank()
    assert built == [3]
    # the tables of x repeat from degree 2 on: its rank at d = 4 is carried
    x = one_by_one(R, parse_polynomial("x", XYZ, F7), -1, 0)[2]
    X = ChainComplex(R, {0: tgt, 1: src}, {1: x})
    assert X.rank(1, 3) == 3
    built.clear()
    assert X.rank(1, 4) == 3 and built == []


def test_mapping_cone_zero_map_is_direct_sum():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    D = K.shift(1)
    phi = {i: PolyMatrix.zero(K.term(i), D.term(i)) for i in range(0, 3)}
    cone, layout = mapping_cone(phi, K, D)
    for i in range(cone.lo + 1, cone.hi + 1):
        nk = layout.get(i, 0)
        mat = cone.diff(i)
        for r in range(mat.target.rank):
            for c in range(mat.source.rank):
                upper_r = r >= layout.get(i - 1, 0)
                upper_c = c >= nk
                if upper_r != upper_c:
                    assert mat.entries[r][c].is_zero()


def test_mapping_cone_identity_is_exact():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    phi = {i: PolyMatrix.identity(K.term(i)) for i in range(0, 3)}
    cone, _ = mapping_cone(phi, K, K)
    for i in range(cone.lo + 1, cone.hi):
        for d in range(0, 6):
            assert _homology_dim(cone, i, d) == 0


def test_is_chain_map_witness():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    phi = {i: PolyMatrix.identity(K.term(i)) for i in range(0, 3)}
    is_chain_map(phi, K, K)
    bad = {i: m for i, m in phi.items()}
    bad[1] = PolyMatrix.from_rows(K.term(1), K.term(1), [[pxy("1"), pxy("0")], [pxy("0"), pxy("0")]])
    # d_1 o bad_1 = (x, 0) against id o d_1 = (x, y): the square at 1 fails
    # first, in entry (0, 1)
    with pytest.raises(NotChainMapError) as e:
        is_chain_map(bad, K, K)
    assert (e.value.position, e.value.row, e.value.col, e.value.witness) == (1, 0, 1, str(pxy("-y")))


def _antidiagonal():
    """[[0, x], [y, 0]] from S(-1)^2 to S^2: its first nonzero entry is
    (0, 1) row by row and (1, 0) column by column."""
    src = GradedFreeModule(S2, (-1, -1))
    tgt = GradedFreeModule(S2, (0, 0))
    return PolyMatrix.from_rows(src, tgt, [[pxy("0"), pxy("x")], [pxy("y"), pxy("0")]])


def test_d_squared_witness_is_the_row_major_first_entry():
    d1 = _antidiagonal()
    d2 = PolyMatrix.identity(d1.source)
    terms = {0: d1.target, 1: d1.source, 2: d2.source}
    C = ChainComplex(S2, terms, {1: d1, 2: d2}, validate=False)
    assert freecomplex.d_squared_witness(C) == (2, 0, 1, pxy("x"))
    with pytest.raises(NotAComplexError) as e:
        ChainComplex(S2, terms, {1: d1, 2: d2})
    assert (e.value.position, e.value.row, e.value.col) == (2, 0, 1)


def test_not_chain_map_witness_is_the_row_major_first_entry():
    # phi_0 o d_1 - d_1 o phi_1 is -x times the swap: x at (0, 1) and (1, 0)
    d1 = PolyMatrix.scalar(GradedFreeModule(S2, (-1, -1)), pxy("x"))
    C = ChainComplex(S2, {0: d1.target, 1: d1.source}, {1: d1})
    swap = [[pxy("0"), pxy("1")], [pxy("1"), pxy("0")]]
    phi = {
        0: PolyMatrix.from_rows(d1.target, d1.target, swap),
        1: PolyMatrix.zero(d1.source, d1.source),
    }
    with pytest.raises(NotChainMapError) as e:
        is_chain_map(phi, C, C)
    witness = (e.value.position, e.value.row, e.value.col, e.value.witness)
    assert witness == (1, 0, 1, str(pxy("-x")))


def test_from_rows_stores_no_zero_entry():
    m = _antidiagonal()
    assert m.columns == ({1: pxy("y")}, {0: pxy("x")})
    assert m.entries == ((pxy("0"), pxy("x")), (pxy("y"), pxy("0")))
    zero = PolyMatrix.from_rows(m.source, m.target, [[pxy("0"), pxy("0")]] * 2)
    assert zero.columns == ({}, {}) and zero.is_zero()
    assert zero == PolyMatrix.zero(m.source, m.target)


def test_graded_piece_polynomial_ring():
    src = GradedFreeModule(S2, (-1, -1))
    tgt = GradedFreeModule(S2, (0,))
    d = PolyMatrix.from_rows(src, tgt, [[pxy("x"), pxy("y")]])
    piece = graded_piece(d, 1)
    # degree-1 source basis (e1, e2) maps to target basis {x, y}: identity
    assert piece.shape == (2, 2)
    assert piece.columns == [{0: 1}, {1: 1}]
    below = graded_piece(d, -1)
    assert below.shape == (0, 0)


def test_graded_piece_multiplication_over_quotient():
    R = BaseRing(XY, F, buchberger([pxy("x^2"), pxy("y^2")]))
    src = GradedFreeModule(R, (-1,))
    tgt = GradedFreeModule(R, (0,))
    m = PolyMatrix.from_rows(src, tgt, [[pxy("x")]])
    piece = graded_piece(m, 2)
    # basis {x, y} -> {xy}: x*x = 0, x*y = xy
    assert piece.shape == (1, 2)
    assert piece.columns == [{}, {0: 1}]


def _piece_entries(m, d):
    """{(column label, row label): value} of graded_piece, every value a
    nonzero residue."""
    piece = graded_piece(m, d)
    rows = DegreeLayout(m.target, d).labels
    cols = DegreeLayout(m.source, d).labels
    assert piece.shape == (len(rows), len(cols))
    p = m.source.ring.field.p
    out = {}
    for c, col in enumerate(piece.columns):
        for r, v in col.items():
            assert 0 < v < p
            out[(cols[c], rows[r])] = v
    return out


def _oracle_entries(m, d):
    """The same from the dense oracle, whose bases are in its own order."""
    ring = m.source.ring
    grid, nrows, ncols = _oracle_matrix(m, d)
    # the oracle's order: generator by generator, its own basis within each
    rows, cols = (
        [(k, mono) for k, a in enumerate(mod.twists) for mono in _oracle_basis(ring, d + a)]
        for mod in (m.target, m.source)
    )
    assert (len(rows), len(cols)) == (nrows, ncols)
    p = ring.field.p
    return {
        (cols[c], rows[r]): grid[r][c] % p
        for r in range(nrows)
        for c in range(ncols)
        if grid[r][c] % p
    }


def _quotient(ctx, gens):
    return BaseRing(ctx, F, buchberger([parse_polynomial(g, ctx, F) for g in gens]))


def _matrix(ring, src_twists, tgt_twists, rows):
    src = GradedFreeModule(ring, src_twists)
    tgt = GradedFreeModule(ring, tgt_twists)
    entries = [[parse_polynomial(e, ring.ctx, F) for e in row] for row in rows]
    return PolyMatrix.from_rows(src, tgt, entries)


MIXED_3 = [
    ["x^2 + 3*y*z", "x - 2*z", "x*y*z + y^3"],
    ["y + z", "5", "x^2 - z^2"],
]


@pytest.mark.parametrize(
    "ring, src_twists, tgt_twists, rows",
    [
        (S3, (-2, -1, -3), (0, -1), MIXED_3),
        # x^2, y^2 and z^2 vanish: many products land in the ideal
        (_quotient(XYZ, ["x^2", "y^2", "z^2"]), (-2, -1, -3), (0, -1), MIXED_3),
        (_quotient(XY, ["x^2 + y^2"]), (-1, -2), (0,), [["x + 2*y", "x*y - y^2"]]),
        (
            _quotient(XYZ, ["x^2 + 2*x*y + 3*y*z + z^2", "y^2 + 5*x*z + 7*x*y + 11*z^2"]),
            (-2, -1, -3),
            (0, -1),
            MIXED_3,
        ),
        # x * (x - y) = x^2 - x*y = 0: the column of x cancels to nothing
        (_quotient(XY, ["x^2 - x*y"]), (-1, -2), (0, 0), [["x - y", "y^2"], ["y", "x*y"]]),
        (S2, (), (0, -1), [[], []]),
        (S2, (-1, -2), (), []),
    ],
    ids=["S", "monomial_quotient", "hypersurface", "dense_quadrics", "cancelling", "no_columns", "no_rows"],
)
def test_graded_piece_matches_dense_oracle(ring, src_twists, tgt_twists, rows):
    m = _matrix(ring, src_twists, tgt_twists, rows)
    for d in range(-2, 6):
        assert _piece_entries(m, d) == _oracle_entries(m, d), f"degree {d}"
        # a repeated request reads the cached tables and adds none
        before = (len(ring._tables), len(ring._rows))
        first = graded_piece(m, d)
        assert graded_piece(m, d).columns == first.columns
        assert (len(ring._tables), len(ring._rows)) == before


def test_homology_dims_koszul():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert homology_dims(K, 1, range(0, 7)) == [0] * 7
    with pytest.raises(WindowEdgeError):
        homology_dims(K, 0, [0])
    h0 = [_homology_dim(K, 0, d, lo_zero=True) for d in range(0, 5)]
    assert h0 == [1, 0, 0, 0, 0]


def test_koszul_not_resolution_over_quotient():
    gbI = buchberger([parse_polynomial("x^3", XYZ, F), parse_polynomial("y^3", XYZ, F)])
    R3 = BaseRing(XYZ, F, gbI)
    f = [parse_polynomial(s, XYZ, F) for s in ("x^2", "y^2", "z^2")]
    K = koszul_complex(f, R3)
    dims = homology_dims(K, 1, range(0, 9))
    dense = [oracle_homology(K, 1, d) for d in range(0, 9)]
    assert dims == dense
    assert any(dims)


def test_rank_bound_and_euler_characteristic():
    K = koszul_complex([pxy("x^2"), pxy("y^2")], S2)
    for d in range(0, 8):
        dim1 = K.term(1).degree_dim(d)
        r1 = graded_piece(K.diff(1), d).rank()
        r2 = graded_piece(K.diff(2), d).rank()
        assert r1 + r2 <= dim1
        assert r1 + r2 == dim1  # acyclic at position 1
        euler_terms = sum(
            (-1) ** i * K.term(i).degree_dim(d) for i in range(0, 3)
        )
        euler_homology = sum(
            (-1) ** i
            * _homology_dim(K, i, d, lo_zero=(i == 0), hi_zero=(i == 2))
            for i in range(0, 3)
        )
        assert euler_terms == euler_homology


def test_serialization_bit_exact_roundtrip():
    gbI = buchberger([pxy("x^2"), pxy("y^2")])
    R = BaseRing(XY, F, gbI)
    K = koszul_complex([pxy("x"), pxy("y")], R)
    doc = complex_to_doc(K)
    text = json.dumps(doc, sort_keys=True)
    K2 = complex_from_doc(json.loads(text))
    assert json.dumps(complex_to_doc(K2), sort_keys=True) == text
    assert K2.diff(1).entries == K.diff(1).entries
