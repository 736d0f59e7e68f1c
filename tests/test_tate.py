"""Splices, certificates, minimization, MCM extraction, duality."""

import json
from functools import partial

import pytest

from tatesplice import homotopy as homotopy_module
from tatesplice import tate as tate_module
from tatesplice.arith import MAX_VARIABLES, PrimeField, VariableContext, parse_polynomial
from tatesplice.errors import H0IsoError, LiftError, WindowTooSmallError
from tatesplice.freecomplex import (
    BaseRing,
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    _content_degree_range,
    _h0_dim,
    block_matrix,
    complex_from_doc,
    complex_to_doc,
)
from tatesplice.harness import run_build
from tatesplice.koszul import (
    ExteriorVector,
    LiftMatrix,
    alpha_element,
    beta_matrix,
    koszul_complex,
    wedge_map,
)
from tatesplice.shamash import es_resolution
from tatesplice.tate import (
    betti,
    expand_phi,
    general_splice,
    is_two_periodic,
    lift_matrix_to_S,
    mcm_generator_count,
    mcm_presentation,
    minimize,
    normalize_matrix_factorization,
    poly_exact_divide,
    tate_splice,
    _h0_iso_table,
    _splice,
)

from crosschecks import betti_dual_match, orthogonality_check
from syzygies import dual_module_presentation, minimal_resolution

F = PrimeField(32003)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])
S2 = BaseRing(XY, F)
S3 = BaseRing(XYZ, F)


def pxy(s):
    return parse_polynomial(s, XY, F)


def p3(s):
    return parse_polynomial(s, XYZ, F)


@pytest.fixture(scope="module")
def splice_t(inst_t):
    res = es_resolution(inst_t.lift, inst_t.ring_R, 6)
    return res, tate_splice(res, window=(-4, 5), dmax=10)


@pytest.fixture(scope="module")
def splice_c(inst_c):
    res = es_resolution(inst_c.lift, inst_c.ring_R, 7)
    return res, tate_splice(res, window=(-4, 6), dmax=12)


def _phi_prime(inst, i):
    """Entries of phi'_i, the block of phi_i on the Koszul layers."""
    res = _resolution(inst)
    phi, _ = expand_phi(res)
    cols = res.koszul_indices(i)
    rows = res.koszul_indices(len(inst.f) - len(inst.g) - i)
    return [[phi[i].entries[r][k] for k in cols] for r in rows]


def test_phi_prime_socle_component(inst_t):
    assert _phi_prime(inst_t, 0) == [[pxy("x*y")]]


def test_phi_prime_hypersurface_matrix_factorization(inst_h):
    K = koszul_complex(inst_h.f, inst_h.ring_S)
    phi0 = _phi_prime(inst_h, 0)
    phi1 = _phi_prime(inst_h, 1)
    # two components, 2x1 and 1x2
    assert (len(phi0), len(phi0[0])) == (2, 1) and (len(phi1), len(phi1[0])) == (1, 2)
    d2 = K.diff(2).entries
    prod = phi1[0][0] * d2[0][0] + phi1[0][1] * d2[1][0]
    assert prod == pxy("x^2 + y^2")


@pytest.mark.parametrize("rung", ["t", "h", "c", "41"])
def test_expand_phi_koszul_block_is_beta_after_wedge(rung, request):
    """On the Koszul layers, phi_i is beta o (alpha ^ -) from the library."""
    inst = request.getfixturevalue(f"inst_{rung}")
    res = _resolution(inst)
    phi, _ = expand_phi(res)
    alpha = alpha_element(inst.lift)
    n, c = alpha.n, alpha.k
    f_degrees = list(inst.lift.f_degrees)
    for i in range(0, n - c + 1):
        cols = res.koszul_indices(i)
        rows = res.koszul_indices(n - c - i)
        block = [[phi[i].entries[r][k] for k in cols] for r in rows]
        beta = beta_matrix(inst.ring_R, n, i + c, f_degrees).twisted(alpha.degree)
        want = beta.compose(wedge_map(alpha, i, f_degrees, inst.ring_R))
        assert block == [list(row) for row in want.entries]


def _zero_phi_splice(inst_t, window, monkeypatch):
    """tate_splice of t's resolution with the comparison map replaced by 0."""
    res = es_resolution(inst_t.lift, inst_t.ring_R, 6)
    real = tate_module.expand_phi

    def zero_phi(resolution):
        phi, target = real(resolution)
        return {i: PolyMatrix.zero(m.source, m.target) for i, m in phi.items()}, target

    monkeypatch.setattr(tate_module, "expand_phi", zero_phi)
    return tate_splice(res, window=window, dmax=6)


def test_zero_comparison_map_rejected_by_h0(inst_t, monkeypatch):
    with pytest.raises(H0IsoError):
        _zero_phi_splice(inst_t, (-2, 3), monkeypatch)


def test_zero_comparison_map_rejected_by_computed_h0_table(inst_t, monkeypatch):
    # on window [-1, 2] the sweep still reaches position -1 of the assembled
    # cone; it fails there and the computed table names the H_0 failure
    with pytest.raises(H0IsoError):
        _zero_phi_splice(inst_t, (-1, 2), monkeypatch)


def _resolution(inst):
    lo, hi = inst.instance.window
    m = len(inst.f) - len(inst.g)
    length = max(hi, m - 1 - lo) + 1
    return es_resolution(inst.lift, inst.ring_R, length)


@pytest.mark.parametrize("rung", ["t", "h", "c", "41", "52w", "52"])
def test_derived_h0_table_equals_computed_table(rung, request):
    """The H_0 rows read off the cone's sweep at positions -1 and 0 equal
    the table computed from H_0 of both halves and the induced map."""
    inst = request.getfixturevalue(f"inst_{rung}")
    dmax = inst.instance.max_internal_degree
    tate = tate_splice(_resolution(inst), window=inst.instance.window, dmax=dmax)
    res = _resolution(inst)
    phi, target = expand_phi(res)
    degrees = sorted(
        set(
            _content_degree_range(res.complex, 0, 0, dmax)
            + _content_degree_range(target, 0, 0, dmax)
        )
    )
    table = _h0_iso_table(res.complex, target, phi, degrees)
    assert table and any(h for h, _, _ in table.values())
    assert tate.certificates["h0_iso"]["table"] == {
        str(d): list(row) for d, row in table.items()
    }


def test_h0_table_computed_only_after_a_failed_sweep(inst_t, inst_c, inst_52, monkeypatch):
    calls, dims = [], []
    real, real_dim = tate_module._h0_iso_table, tate_module._h0_dim

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_dim(*args):
        dims.append(args)
        return real_dim(*args)

    monkeypatch.setattr(tate_module, "_h0_iso_table", counting)
    # a passing build reads H_0 off the Hilbert series of S/(f)
    monkeypatch.setattr(tate_module, "_h0_dim", counting_dim)
    run_build(inst_c.instance)  # window [-4, 6]
    run_build(inst_52.instance)  # window [-1, 2]
    assert calls == [] and dims == []
    with pytest.raises(H0IsoError):
        _zero_phi_splice(inst_t, (-1, 2), monkeypatch)
    assert len(calls) == 1


def _koszul_and_sum(lo):
    """K = Koszul(x, y) and K (+) K(-5) with empty terms down to `lo`, and
    the summand's inclusion and projection."""
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    K5 = K.twist(-5)
    terms = {i: GradedFreeModule(S2, ()) for i in range(lo, 0)}
    into, onto = {}, {}
    for i in range(3):
        parts = [K.term(i), K5.term(i)]
        terms[i] = GradedFreeModule(S2, K.term(i).twists + K5.term(i).twists)
        identity = {(0, 0): PolyMatrix.identity(K.term(i))}
        into[i] = block_matrix([K.term(i)], parts, identity)
        onto[i] = block_matrix(parts, [K.term(i)], identity)
    diffs = {
        i: block_matrix(
            [K.term(i), K5.term(i)],
            [K.term(i - 1), K5.term(i - 1)],
            {(0, 0): K.diff(i), (1, 1): K5.diff(i)},
        )
        for i in (1, 2)
    }
    return K, ChainComplex(S2, terms, diffs), into, onto


def test_splice_sweep_sees_h0_not_onto_on_a_window_from_minus_one():
    # K -> K (+) K(-5) is injective on H_0 but not onto; only H_{-1} of the
    # cone shows it (in degree 5)
    K, KK, into, _ = _koszul_and_sum(-1)
    with pytest.raises(H0IsoError) as e:
        _splice(K, KK, into, partial(_h0_dim, K), (-1, 2), dmax=6)
    assert e.value.degree == 5


def test_splice_sweep_sees_h0_not_injective_on_a_window_ending_at_zero():
    # K (+) K(-5) -> K is onto on H_0 but not injective; only H_0 of the
    # cone shows it, and position 0 is the window's edge
    K, KK, _, onto = _koszul_and_sum(0)
    K = ChainComplex(S2, {-2: GradedFreeModule(S2, ()), **K.terms}, K.diffs)
    with pytest.raises(H0IsoError) as e:
        _splice(KK, K, onto, partial(_h0_dim, KK), (-3, 0), dmax=6)
    assert e.value.degree == 5


def test_tate_splice_needs_the_cone_below_position_minus_one(inst_52):
    # length 3 puts F*[m] at positions 0..3, so the assembled cone starts at
    # -1 and the H_{-1} that the H_0 isomorphism is read off sits on its edge
    res = es_resolution(inst_52.lift, inst_52.ring_R, 3)
    with pytest.raises(WindowTooSmallError):
        tate_splice(res, window=(0, 2), dmax=4)


def test_tate_splice_instance_t(splice_t):
    _, tate = splice_t
    ranks = [tate.complex.term(i).rank for i in range(-4, 6)]
    assert ranks == [4, 3, 2, 1, 1, 2, 3, 4, 5, 6]
    assert all(cert["passed"] for cert in tate.certificates.values())
    # splice entry: the socle generator det A = xy
    assert tate.complex.diff(0).entries == ((pxy("x*y"),),)
    # lower half carries generator degree i at position i, upper its mirror
    table = betti(tate.complex)
    for i in range(0, 6):
        assert table[i] == {-i: i + 1}
    for j in range(0, 4):
        assert table[-1 - j] == {j + 2: j + 1}


def test_tate_splice_instance_c(splice_c):
    _, tate = splice_c
    assert all(cert["passed"] for cert in tate.certificates.values())
    assert tate.certificates["minimal"]["passed"]  # x^3 in m*(x^2)
    assert tate.complex.term(0).rank == 2


def test_tate_splice_provenance_labels(splice_t):
    _, tate = splice_t
    at0 = tate.provenance[0]
    assert [lab["half"] for lab in at0] == ["lower"]
    at_m1 = tate.provenance[-1]
    assert [lab["half"] for lab in at_m1] == ["upper"]


def test_hypersurface_cone_two_periodic(inst_h):
    res = es_resolution(inst_h.lift, inst_h.ring_R, 7)
    tate = tate_splice(res, window=(-4, 5), dmax=10)
    minimized = minimize(tate.complex)
    normalized = normalize_matrix_factorization(minimized, inst_h.g[0], inst_h.ring_S)
    assert is_two_periodic(normalized)
    g = inst_h.g[0]
    for i in range(normalized.lo + 1, normalized.hi):
        left = lift_matrix_to_S(normalized.diff(i), inst_h.ring_S)
        right = lift_matrix_to_S(normalized.diff(i + 1), inst_h.ring_S)
        prod = left.compose(right)
        expected = PolyMatrix.scalar(right.source, g)
        assert prod.entries == expected.entries


def test_general_splice_reproduces_instance_t(splice_t, inst_t):
    res, tate = splice_t
    # F = G: S/(f) is self-dual up to shift and twist, so the splice is its
    # own dual
    other = general_splice(res.complex, res.complex, 0, window=(-4, 5), dmax=10)
    assert betti_dual_match(other, other, 0, other.meta["twist_offset"])
    assert other.meta["twist_offset"] == 2
    for i in range(-4, 6):
        assert sorted(other.complex.term(i).twists) == sorted(
            tate.complex.term(i).twists
        )


def test_general_splice_duality_instance_c(inst_c, splice_c):
    res, tate_direct = splice_c
    # F = G: S/(f) is self-dual up to shift and twist, so the splice is its
    # own dual
    tate = general_splice(res.complex, res.complex, 1, window=(-3, 4), dmax=10)
    assert betti_dual_match(tate, tate, 1, tate.meta["twist_offset"])
    assert tate.meta["twist_offset"] == 0
    # the two construction routes agree positionwise on the shared window
    for i in range(-3, 5):
        assert sorted(tate.complex.term(i).twists) == sorted(
            tate_direct.complex.term(i).twists
        )


def test_general_splice_solves_each_twist_once(splice_c, monkeypatch):
    # phi_1 solves through the three columns of phi_0 o d_1, all of one
    # twist: one graded piece and one solve for them together
    res, _ = splice_c
    built = []
    build = homotopy_module.graded_piece
    monkeypatch.setattr(
        homotopy_module, "graded_piece", lambda m, d: built.append(d) or build(m, d)
    )
    general_splice(res.complex, res.complex, 1, window=(-3, 4), dmax=10)
    assert len(built) == 1


def test_general_splice_rejects_free_module(inst_t):
    R = inst_t.ring_R
    free = ChainComplex(
        R, {0: GradedFreeModule(R, (0,)), 1: GradedFreeModule(R, ())}, {}
    )
    with pytest.raises(LiftError):
        general_splice(free, free, 0, window=(-1, 1), dmax=4)


def test_sparse_document_reads_back_as_the_matrix(splice_c):
    _, tate = splice_c
    doc = json.loads(json.dumps(complex_to_doc(tate.complex)))
    back = complex_from_doc(doc)
    for i, d in tate.complex.diffs.items():
        assert back.diff(i) == d
        # each column lists its nonzero entries, rows ascending
        assert doc["rows"][str(i)] == [sorted(col) for col in d.columns]
        assert "0" not in (s for col in doc["diffs"][str(i)] for s in col)


def test_minimize_fixpoint(splice_t):
    _, tate = splice_t
    once = minimize(tate.complex)
    twice = minimize(once)
    assert [once.term(i).twists for i in range(-4, 6)] == [
        twice.term(i).twists for i in range(-4, 6)
    ]
    for i in range(-3, 6):
        assert once.diff(i).entries == twice.diff(i).entries


def test_minimize_returns_input_without_units(splice_t):
    _, tate = splice_t
    assert minimize(tate.complex) is tate.complex
    out, labels = minimize(tate.complex, labels=tate.provenance)
    assert out is tate.complex and labels is tate.provenance


def test_minimize_splits_trivial_pair():
    # Koszul(x, y) d_1 padded with a unit summand R <-1- R
    t1 = GradedFreeModule(S2, (-1, -1, 0))
    t0 = GradedFreeModule(S2, (0, 0))
    d1 = PolyMatrix(t1, t0, [{0: pxy("x")}, {0: pxy("y")}, {1: pxy("1")}])
    C = ChainComplex(S2, {0: t0, 1: t1}, {1: d1})
    out = minimize(C)
    assert out.term(0).twists == (0,)
    assert out.term(1).twists == (-1, -1)
    assert out.diff(1).entries == ((pxy("x"), pxy("y")),)


def test_minimize_nonminimal_splice_matches_direct_build():
    # g_1 = f_1 makes the splice non-minimal; after minimization the interior
    # matches the directly-built minimal hypersurface k[t]/(t^2) instance
    from tatesplice.harness import ProblemInstance

    inst = ProblemInstance(
        field_char=32003, variables=["x", "y"], f=["x", "y"], g=["x", "y^2"],
        window=(-3, 4), max_internal_degree=8,
    )
    doc = run_build(inst)
    assert not doc["certificates"]["minimal"]["passed"]
    assert doc["certificates"]["minimal_after_reduction"]["passed"]
    direct = ProblemInstance(
        field_char=32003, variables=["t"], f=["t"], g=["t^2"],
        window=(-3, 4), max_internal_degree=8,
    )
    doc_direct = run_build(direct)
    for i in range(-2, 4):  # interior; edge ranks depend on the cut window
        assert sum(doc["betti"][str(i)].values()) == sum(
            doc_direct["betti"][str(i)].values()
        )


def test_mcm_presentation_instance_t(splice_t):
    _, tate = splice_t
    pres = mcm_presentation(minimize(tate.complex), 2, 2)
    assert pres["generator_count"] == 1
    assert pres["minimal"]
    assert (pres["matrix"], pres["rows"]) == ([["x"], ["y"]], [[0], [0]])
    assert pres["twists"] == [0]
    assert pres["formula_count"] == 1


def test_mcm_presentation_window_too_small(splice_t):
    _, tate = splice_t
    small = tate.complex.subwindow(-4, 0)
    with pytest.raises(WindowTooSmallError):
        mcm_presentation(small, 2, 2)


def test_mcm_generator_count_formula():
    assert mcm_generator_count(3, 2) == 2
    assert mcm_generator_count(5, 2) == 13
    assert mcm_generator_count(4, 1) == 8
    assert mcm_generator_count(2, 2) == 1
    for n in range(1, 11):
        # c = 1: rank of the matrix factorization of k over a hypersurface
        assert mcm_generator_count(n, 1) == 2 ** (n - 1)
        # c = n: R/J is the residue field of a complete intersection
        assert mcm_generator_count(n, n) == 1
    with pytest.raises(ValueError):
        mcm_generator_count(2, 3)
    # len(f) never exceeds the variable bound, so neither may n
    assert mcm_generator_count(MAX_VARIABLES, 1) == 2 ** (MAX_VARIABLES - 1)
    for n in (MAX_VARIABLES + 1, 20000):
        with pytest.raises(ValueError, match=f"need n <= {MAX_VARIABLES}"):
            mcm_generator_count(n, 1)


def test_orthogonality_instance_c(inst_c):
    assert orthogonality_check(inst_c.lift)


def test_orthogonality_random_lift():
    import random

    rng = random.Random(11)
    ctx = VariableContext(["x", "y", "z", "w"])
    field = PrimeField(32003)
    names = ["x", "y", "z", "w"]
    f = [parse_polynomial(f"{v}^2", ctx, field) for v in names]
    from tatesplice.arith import Polynomial

    lin = [parse_polynomial(v, ctx, field) for v in names]
    A = [
        [
            sum(
                (l.scale(rng.randrange(field.p)) for l in lin),
                Polynomial.zero(ctx, field),
            )
            for _ in range(2)
        ]
        for _ in range(4)
    ]
    g = []
    for j in range(2):
        acc = Polynomial.zero(ctx, field)
        for i in range(4):
            acc = acc + A[i][j] * f[i]
        g.append(acc)
    lift = LiftMatrix(A, f, g)
    assert orthogonality_check(lift)


def test_corrupted_alpha_detected(inst_c):
    alpha = alpha_element(inst_c.lift)
    bad = ExteriorVector(3, 2, {**alpha.coeffs, (1, 3): p3("z^2")}, alpha.degree)
    a2 = inst_c.lift.column(1)
    composite = wedge_map(bad, 1, [2, 2, 2], S3).twisted(a2.degree).compose(
        wedge_map(a2, 0, [2, 2, 2], S3)
    )
    assert not composite.is_zero()


def test_poly_exact_divide():
    q = poly_exact_divide(pxy("x^3 + x*y^2"), pxy("x"))
    assert q == pxy("x^2 + y^2")
    with pytest.raises(ValueError):
        poly_exact_divide(pxy("x^2 + y^2"), pxy("x"))


def test_syzygy_cross_check_instance_t(splice_t, inst_t):
    """The cokernel presentation agrees with the double-syzygy-dual route:
    Omega^2 of the dual of Omega^2(M), compared as graded Betti numbers up
    to a uniform twist."""
    res, tate = splice_t
    minimized = minimize(tate.complex)
    gens_tate = sorted(minimized.term(0).twists)
    rels_tate = sorted(minimized.term(1).twists)

    d3 = res.complex.diff(3)  # presents Omega^2(k) over R
    _, relations = dual_module_presentation(d3, 12)
    resolved = minimal_resolution(relations, 3, 14)
    gens_syz = sorted(resolved.term(2).twists)
    rels_syz = sorted(resolved.term(3).twists)
    assert len(gens_syz) == len(gens_tate) and len(rels_syz) == len(rels_tate)
    shift = gens_syz[0] - gens_tate[0]
    assert [t - shift for t in gens_syz] == gens_tate
    assert [t - shift for t in rels_syz] == rels_tate


def test_duality_betti_relation(splice_c, inst_c):
    res, tate = splice_c
    other = general_splice(res.complex, res.complex, 1, window=(-4, 6), dmax=12)
    assert betti_dual_match(tate, other, 1, other.meta["twist_offset"])
