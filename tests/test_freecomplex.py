"""Modules, matrices, complexes, duals, shifts, cones, graded pieces, homology."""

import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tatesplice import freecomplex
from tatesplice.arith import Polynomial, PrimeField, VariableContext, parse_polynomial
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
    require_complex,
    ring_from_doc,
    ring_to_doc,
)
from tatesplice.groebner import buchberger, divide_tracking, monomials_of_degree
from tatesplice.harness import _oracle_basis, _oracle_matrix, oracle_homology
from tatesplice.koszul import koszul_complex

from crosschecks import square_witness

F = PrimeField(101)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])
S2 = BaseRing(XY, F)
S3 = BaseRing(XYZ, F)


def pxy(s):
    return parse_polynomial(s, XY, F)


def _from_rows(source, target, rows):
    """The PolyMatrix whose entry (r, c) is rows[r][c]."""
    columns = [{r: row[c] for r, row in enumerate(rows)} for c in range(source.rank)]
    return PolyMatrix(source, target, columns)


def one_by_one(ring, entry, src_twist, tgt_twist):
    src = GradedFreeModule(ring, (src_twist,))
    tgt = GradedFreeModule(ring, (tgt_twist,))
    return src, tgt, _from_rows(src, tgt, [[entry]])


def test_make_complex_koszul():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert K.window == (0, 2)
    assert [K.term(i).rank for i in range(3)] == [1, 2, 1]


def test_make_complex_rejects_x_squared_over_S():
    src1, mid, d1 = one_by_one(S2, pxy("x"), -1, 0)
    src2 = GradedFreeModule(S2, (-2,))
    d2 = _from_rows(src2, src1, [[pxy("x")]])
    with pytest.raises(NotAComplexError) as e:
        require_complex(ChainComplex(S2, {0: mid, 1: src1, 2: src2}, {1: d1, 2: d2}))
    assert e.value.position == 2
    assert "x^2" in str(e.value)


def test_make_complex_accepts_x_squared_over_quotient():
    R = BaseRing(XY, F, buchberger([pxy("x^2")]))
    src1, mid, d1 = one_by_one(R, pxy("x"), -1, 0)
    src2 = GradedFreeModule(R, (-2,))
    d2 = _from_rows(src2, src1, [[pxy("x")]])
    C = require_complex(ChainComplex(R, {0: mid, 1: src1, 2: src2}, {1: d1, 2: d2}))
    assert C.window == (0, 2)


def test_S_is_the_quotient_by_the_empty_basis():
    S = BaseRing(XYZ, F)
    assert S.modulus.generators == ()
    assert S == S3 and hash(S) == hash(S3)
    assert S != BaseRing(XY, F) and S != BaseRing(XYZ, PrimeField(7))
    assert S != BaseRing(XYZ, F, buchberger([parse_polynomial("x^2", XYZ, F)]))
    p = parse_polynomial("x^3 + 2*x*y*z", XYZ, F)
    assert S.reduce(p) is p
    assert S.degree_basis(-1) == () and S.dim_degree(-1) == 0
    for d in range(6):
        # every monomial, descending grevlex, with the Hilbert count of S
        assert S.degree_basis(d) == monomials_of_degree(3, d)
        assert S.dim_degree(d) == comb(d + 2, 2)
        assert [S.modulus.nf_row(m) for m in S.degree_basis(d)] == [
            (i, 1) for i in range(S.dim_degree(d))
        ]


def test_ring_doc_of_S_has_no_modulus():
    doc = ring_to_doc(S3)
    assert "modulus" not in doc
    assert ring_from_doc(doc) == S3
    R = BaseRing(XY, F, buchberger([pxy("x^2")]))
    assert ring_to_doc(R)["modulus"] == ["x^2"] and ring_from_doc(ring_to_doc(R)) == R


def _not_a_complex():
    """The Koszul complex on x, y over S with d_2 replaced by (y, y), so
    that d_1 d_2 = x*y + y^2."""
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    d2 = _from_rows(K.term(2), K.term(1), [[pxy("y")], [pxy("y")]])
    return ChainComplex(S2, K.terms, {1: K.diff(1), 2: d2})


def test_require_complex_raises_at_the_d_squared_witness():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert require_complex(K) is K
    C = _not_a_complex()
    i, r, c, e = freecomplex.d_squared_witness(C)
    with pytest.raises(NotAComplexError) as exc:
        require_complex(C)
    assert (exc.value.position, exc.value.row, exc.value.col, exc.value.witness) == (i, r, c, str(e))
    assert (i, r, c, e) == (2, 0, 0, pxy("x*y + y^2"))


def test_degree_mismatch_rejected():
    src = GradedFreeModule(S2, (-2,))
    tgt = GradedFreeModule(S2, (0,))
    with pytest.raises(DegreeMismatchError):
        _from_rows(src, tgt, [[pxy("x")]])  # needs degree 2


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
    require_complex(ChainComplex(S2, shifted.terms, shifted.diffs))


def test_subwindow_keeps_the_stored_ranks_of_its_differentials():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    assert [K.rank(i, 2) for i in (1, 2)] == [3, 1]
    sub = K.subwindow(1, 2)
    # d_2 is the same matrix in both; d_1 leaves the window, so its rank
    # there is the rank of the zero map
    assert sub._ranks == {(2, 2): 1}
    assert sub.rank(1, 2) == 0


def test_koszul_ranks_over_S_equal_built_pieces():
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
    # in degree 0 the source R(-1) vanishes: rank 0, and no piece is built
    built.clear()
    assert C.rank(1, 0) == 0 and built == []


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
    bad[1] = _from_rows(K.term(1), K.term(1), [[pxy("1"), pxy("0")], [pxy("0"), pxy("0")]])
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
    return _from_rows(src, tgt, [[pxy("0"), pxy("x")], [pxy("y"), pxy("0")]])


def test_d_squared_witness_is_the_row_major_first_entry():
    d1 = _antidiagonal()
    d2 = PolyMatrix.identity(d1.source)
    terms = {0: d1.target, 1: d1.source, 2: d2.source}
    C = ChainComplex(S2, terms, {1: d1, 2: d2})
    assert freecomplex.d_squared_witness(C) == (2, 0, 1, pxy("x"))
    with pytest.raises(NotAComplexError) as e:
        require_complex(ChainComplex(S2, terms, {1: d1, 2: d2}))
    assert (e.value.position, e.value.row, e.value.col, e.value.witness) == (2, 0, 1, "x")


def test_is_chain_map_raises_not_a_complex_for_a_broken_complex():
    # every square of the identity commutes; the cone's d^2 check reports the
    # product of C, in C's coordinates
    C = _not_a_complex()
    phi = {i: PolyMatrix.identity(C.term(i)) for i in range(3)}
    with pytest.raises(NotAComplexError) as e:
        is_chain_map(phi, C, C)
    witness = (e.value.position, e.value.row, e.value.col, e.value.witness)
    assert witness == (2, 0, 0, str(pxy("x*y + y^2")))


def test_not_chain_map_witness_is_the_row_major_first_entry():
    # phi_0 o d_1 - d_1 o phi_1 is -x times the swap: x at (0, 1) and (1, 0)
    d1 = PolyMatrix.scalar(GradedFreeModule(S2, (-1, -1)), pxy("x"))
    C = ChainComplex(S2, {0: d1.target, 1: d1.source}, {1: d1})
    swap = [[pxy("0"), pxy("1")], [pxy("1"), pxy("0")]]
    phi = {
        0: _from_rows(d1.target, d1.target, swap),
        1: PolyMatrix.zero(d1.source, d1.source),
    }
    with pytest.raises(NotChainMapError) as e:
        is_chain_map(phi, C, C)
    witness = (e.value.position, e.value.row, e.value.col, e.value.witness)
    assert witness == (1, 0, 1, str(pxy("-x")))


def _chain_map_witness(phi, C, D):
    try:
        is_chain_map(phi, C, D)
    except NotChainMapError as e:
        return e.position, e.row, e.col, e.witness
    return None


QUOTIENT = buchberger([parse_polynomial(g, XYZ, F) for g in ("x^2 - y*z", "y^2 - x*z")])
R3 = BaseRing(XYZ, F, QUOTIENT)


def test_not_chain_map_witness_over_a_quotient_ring():
    # over R = S/(x^2 - yz, y^2 - xz), d_1 o phi_1 - phi_0 o d_1 is
    # (y*z - x^2, -x*y, -x*z): its first entry vanishes only in R
    K = koszul_complex([parse_polynomial(v, XYZ, F) for v in "xyz"], R3)
    D = K.twist(1)
    p = lambda s: parse_polynomial(s, XYZ, F)  # noqa: E731
    phi = {
        0: _from_rows(K.term(0), D.term(0), [[p("x")]]),
        1: _from_rows(
            K.term(1), D.term(1), [[p("0")] * 3, [p("z"), p("0"), p("0")], [p("0")] * 3]
        ),
    }
    assert _chain_map_witness(phi, K, D) == (1, 0, 1, str(p("-x*y")))
    assert square_witness(phi, K, D) == (1, 0, 1, str(p("-x*y")))


@given(st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_chain_map_witness_matches_two_compositions(data):
    K = koszul_complex([parse_polynomial(v, XYZ, F) for v in "xyz"], R3)
    D = K.twist(1)
    linear = st.sampled_from(["0", "0", "x", "y", "z", "x + 2*y", "3*z - x"])
    phi = {}
    for i in range(0, 4):
        rows = [
            [parse_polynomial(data.draw(linear), XYZ, F) for _ in range(K.term(i).rank)]
            for _ in range(D.term(i).rank)
        ]
        phi[i] = _from_rows(K.term(i), D.term(i), rows)
    assert _chain_map_witness(phi, K, D) == square_witness(phi, K, D)


def test_polymatrix_stores_no_zero_entry():
    m = _antidiagonal()
    assert m.columns == ({1: pxy("y")}, {0: pxy("x")})
    assert m.entries == ((pxy("0"), pxy("x")), (pxy("y"), pxy("0")))
    zero = PolyMatrix(m.source, m.target, [{0: pxy("0"), 1: pxy("0")}] * 2)
    assert zero.columns == ({}, {}) and zero.is_zero()
    assert zero == PolyMatrix.zero(m.source, m.target)


def test_scale_stores_no_zero_entry_and_keeps_the_matrix_for_one():
    m = _antidiagonal()
    for zero in (m.scale(0), m.scale(F.p)):
        assert zero.columns == ({}, {}) and zero == PolyMatrix.zero(m.source, m.target)
    assert m.scale(1) is m and m.scale(F.p + 1) is m
    negated = m.scale(-1)
    assert negated.columns == ({1: -pxy("y")}, {0: -pxy("x")})
    assert negated.scale(-1) == m
    assert m.scale(3).columns == ({1: pxy("3*y")}, {0: pxy("3*x")})


def test_block_matrix_keeps_rows_ascending_whatever_the_block_order():
    # blocks given bottom row first still make ascending columns, as the
    # checking constructor would store them
    m = _antidiagonal()
    block = freecomplex.block_matrix(
        [m.source], [m.target, m.target], {(1, 0): m.scale(2), (0, 0): m}
    )
    assert [list(col) for col in block.columns] == [[1, 3], [0, 2]]
    assert block == PolyMatrix(block.source, block.target, block.columns)


def test_graded_piece_polynomial_ring():
    src = GradedFreeModule(S2, (-1, -1))
    tgt = GradedFreeModule(S2, (0,))
    d = _from_rows(src, tgt, [[pxy("x"), pxy("y")]])
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
    m = _from_rows(src, tgt, [[pxy("x")]])
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
    return _from_rows(src, tgt, entries)


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
        before = (len(ring._tables), len(ring.modulus._rows))
        first = graded_piece(m, d)
        assert graded_piece(m, d).columns == first.columns
        assert (len(ring._tables), len(ring.modulus._rows)) == before


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


def _form(data, ctx, field, d, max_terms=4):
    """A random homogeneous form of degree d (zero when d < 0)."""
    terms = {}
    if d >= 0:
        monos = monomials_of_degree(ctx.nvars, d)
        for _ in range(data.draw(st.integers(0, max_terms))):
            terms[data.draw(st.sampled_from(monos))] = data.draw(st.integers(1, field.p - 1))
    return Polynomial(ctx, field, terms)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compose_and_normal_form_match_plain_arithmetic(data):
    """Over S/(g), g a basis from `buchberger` in 2 or 3 variables over F_7
    or F_32003: entry (r, c) of A o B is the normal form of sum_k a_rk * b_kc
    formed with Polynomial arithmetic; normal_form agrees with the division
    remainder, returns its argument exactly when every term is standard,
    and is additive."""
    field = PrimeField(data.draw(st.sampled_from((7, 32003))))
    ctx = data.draw(st.sampled_from((XY, XYZ)))
    gens = [
        _form(data, ctx, field, data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    # a nonzero modulus: x^2 when every drawn form is zero
    x2 = Polynomial.monomial(ctx, field, (2,) + (0,) * (ctx.nvars - 1))
    gb = buchberger([g for g in gens if not g.is_zero()] or [x2])
    ring = BaseRing(ctx, field, gb)
    mods = []
    for _ in range(3):
        rank = data.draw(st.integers(1, 3))
        mods.append(GradedFreeModule(ring, [data.draw(st.integers(-3, 0)) for _ in range(rank)]))

    def matrix(source, target):
        columns = [
            {r: _form(data, ctx, field, t - s) for r, t in enumerate(target.twists)}
            for s in source.twists
        ]
        return PolyMatrix(source, target, columns)

    B, A = matrix(mods[0], mods[1]), matrix(mods[1], mods[2])
    AB, zero = A.compose(B), ring.zero()
    for c in range(mods[0].rank):
        for r in range(mods[2].rank):
            total = zero
            for k in range(mods[1].rank):
                total = total + A.columns[k].get(r, zero) * B.columns[c].get(k, zero)
            assert AB.columns[c].get(r, zero) == gb.normal_form(total)
        assert list(AB.columns[c]) == sorted(AB.columns[c])

    d = data.draw(st.integers(0, 4))
    p, q = _form(data, ctx, field, d, 8), _form(data, ctx, field, d, 8)
    nf = gb.normal_form(p)
    assert nf == divide_tracking(p, gb.generators)[1]
    standard = all(e in gb.quotient_degree_basis(d).index for e in p.terms)
    assert (nf is p) == standard
    assert gb.normal_form(nf) is nf
    assert gb.normal_form(p + q) == nf + gb.normal_form(q)


def test_emitted_window_entries_are_normal_forms(build_c):
    C = complex_from_doc(build_c["tate"])
    entries = [e for i in C.diffs for col in C.diff(i).columns for e in col.values()]
    assert entries and all(C.ring.reduce(e) is e for e in entries)


def test_complex_from_doc_parses_only_nonzero_entries(monkeypatch):
    K = koszul_complex([parse_polynomial(v, XYZ, F) for v in "xyz"], S3)
    doc = json.loads(json.dumps(complex_to_doc(K)))
    entries = [s for columns in doc["diffs"].values() for col in columns for s in col]
    parse, parsed = freecomplex.parse_polynomial, []
    monkeypatch.setattr(
        freecomplex, "parse_polynomial", lambda s, *a: parsed.append(s) or parse(s, *a)
    )
    K2 = complex_from_doc(doc)
    # the document stores no zero, and each distinct string is parsed once
    assert "0" not in entries and len(entries) > len(set(entries))
    assert sorted(parsed) == sorted(set(entries))
    assert doc["rows"]["2"] == [[0, 1], [0, 2], [1, 2]]
    for i in map(int, doc["diffs"]):
        assert K2.diff(i).columns == K.diff(i).columns


def _rank_one_complex(ring, twists, entries=None):
    """R(twists[i]) at positions lo, lo + 1, ...; d_i multiplies by
    entries[i], or is zero without entries."""
    lo = -(len(twists) // 2)
    terms = {lo + k: GradedFreeModule(ring, (t,)) for k, t in enumerate(twists)}
    diffs = {
        i: _from_rows(terms[i], terms[i - 1], [[e]])
        for i, e in (entries or {}).items()
    }
    return ChainComplex(ring, terms, diffs)


def _acyclicity(complex_, dmax):
    rows, coverage = freecomplex.certify(complex_, dmax)
    return next(row for row in rows if row[0] == "acyclicity")[1:], coverage


def test_certify_fails_the_vacuous_complex():
    # R(-5) at -1, 0 and 1 with zero maps over the Artinian F_7[x,y]/(x^2, y^2):
    # H_0 sits in degree 5, above dmax = 4, and is still found
    F7 = PrimeField(7)
    R = BaseRing(XY, F7, buchberger([parse_polynomial(g, XY, F7) for g in ("x^2", "y^2")]))
    C = _rank_one_complex(R, (-5, -5, -5))
    (passed, detail), coverage = _acyclicity(C, 4)
    assert not passed and detail == "H_0 nonzero in degree 5 (dim 1)"
    assert coverage == {"degrees": [5, 7], "killed_variables": []}


# F_2[x,y]/(x^2 y + x y^2): the grevlex lead x^2 y has y in it, so no
# variable is killed, and R is not Artinian
F2 = PrimeField(2)
HYP = BaseRing(XY, F2, buchberger([parse_polynomial("x^2*y + x*y^2", XY, F2)]))


def test_certify_fails_a_sweep_that_covers_no_degree():
    # without an Artinian quotient the sweep stops at dmax, below every generator
    C = _rank_one_complex(HYP, (-5, -5, -5))
    (passed, detail), coverage = _acyclicity(C, 4)
    assert not passed and detail == "the sweep covers no degree"
    assert coverage == {"degrees": [], "killed_variables": []}


def test_certify_falls_back_to_dmax_without_a_regular_variable():
    # ... -> R -x-> R -(xy + y^2)-> R -x-> R: a matrix factorization of the
    # modulus, exact over R
    x, b = (parse_polynomial(e, XY, F2) for e in ("x", "x*y + y^2"))
    C = _rank_one_complex(HYP, (1, 0, -2, -3, -5), {-1: x, 0: b, 1: x, 2: b})
    (passed, _), coverage = _acyclicity(C, 8)
    assert passed
    assert HYP.regular_quotient() == (HYP, (), None)
    # from degree 0, the generator of position -1, up to dmax
    assert coverage == {"degrees": [0, 8], "killed_variables": []}
    # a broken link shows up below dmax
    broken = _rank_one_complex(HYP, (1, 0, -2, -3, -5), {-1: x, 0: b, 1: x})
    assert not _acyclicity(broken, 8)[0][0]
