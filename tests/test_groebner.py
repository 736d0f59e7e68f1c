"""Buchberger, normal forms, lifting, quotient bases, regularity."""

import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tatesplice.arith import (
    Polynomial,
    PrimeField,
    VariableContext,
    monomial_div,
    monomial_divides,
    parse_polynomial,
)
from tatesplice.errors import InhomogeneousInputError, NotInIdealError, SelfCheckError
from tatesplice.groebner import (
    GroebnerBasis,
    _hilbert_numerator,
    _regular_basis,
    buchberger,
    divide_tracking,
    hilbert_dim_from_leads,
    is_regular_sequence,
    lift_through,
    monomials_of_degree,
    times_complete_intersection,
)
from tatesplice.harness import _oracle_rank

from crosschecks import lead_ideal_dimension

F = PrimeField(101)
XYZ = VariableContext(["x", "y", "z"])
XY = VariableContext(["x", "y"])


def poly(s, ctx=XYZ, field=F):
    return parse_polynomial(s, ctx, field)


def pxy(s):
    return parse_polynomial(s, XY, F)


def brute_quotient_dims(gb, dmax):
    """Independent oracle: dimension of (S/I)_d as the rank of the span of
    normal forms of all degree-d monomials, by dense elimination over F_p."""
    dims = []
    for d in range(dmax + 1):
        monos = monomials_of_degree(gb.ring.nvars, d)
        col_index = {m: i for i, m in enumerate(monos)}
        rows = []
        for m in monos:
            nf = gb.normal_form(Polynomial.monomial(gb.ring, gb.field, m))
            row = [0] * len(monos)
            for e, c in nf.terms.items():
                row[col_index[e]] = c
            rows.append(row)
        dims.append(_oracle_rank(rows, gb.field.p))
    return dims


def test_buchberger_coprime_leads():
    gb = buchberger([pxy("x^2"), pxy("y^2")])
    assert [str(g) for g in gb.generators] == ["y^2", "x^2"]


def test_buchberger_linear_elimination():
    gb = buchberger([pxy("x + y"), pxy("x - y")])
    assert {str(g) for g in gb.generators} == {"x", "y"}


def test_buchberger_twisted_cubic_hilbert():
    gens = [poly("x^2 - y*z"), poly("y^2 - x*z"), poly("z^2 - x*y")]
    gb = buchberger(gens)
    expected = [len(gb.quotient_degree_basis(d)) for d in range(7)]
    assert expected == brute_quotient_dims(gb, 6)
    # the twisted-cubic cone has Hilbert function 1, 3, 3, 3, ...
    assert expected == [1, 3, 3, 3, 3, 3, 3]


def test_buchberger_rejects_inhomogeneous():
    with pytest.raises(InhomogeneousInputError):
        buchberger([pxy("x + y^2")])


def test_normal_form_examples():
    gb = buchberger([pxy("x^2"), pxy("y^2")])
    assert gb.normal_form(pxy("x^2*y")).is_zero()
    assert gb.normal_form(pxy("x*y")) == pxy("x*y")
    assert gb.normal_form(pxy("x^3 + x*y")) == pxy("x*y")


def test_normal_form_over_several_degrees():
    # terms in degrees 0 to 3; x^3, x^2*y and x^2 are not standard, and
    # each reduces within its own degree
    gb = buchberger([poly("x^2 - y*z"), poly("y^2 - x*z")])
    f = poly("x^3 + 2*x^2*y + x^2 + 3*x*z + z + 5")
    nf = gb.normal_form(f)
    assert nf == divide_tracking(f, gb.generators)[1]
    assert {sum(e) for e in nf.terms} == {0, 1, 2, 3}
    standard = poly("y*z + x*z + z + 5")
    assert gb.normal_form(standard) is standard


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_normal_form_idempotent_and_linear(data):
    gb = buchberger([poly("x^2 - y*z"), poly("y^2 - x*z")])
    monos = [m for d in range(4) for m in monomials_of_degree(3, d)]
    def rand_poly():
        terms = {}
        for _ in range(data.draw(st.integers(0, 5))):
            terms[data.draw(st.sampled_from(monos))] = data.draw(st.integers(0, 100))
        return Polynomial(XYZ, F, terms)
    a, b = rand_poly(), rand_poly()
    c = data.draw(st.integers(0, 100))
    nf_a = gb.normal_form(a)
    assert gb.normal_form(nf_a) == nf_a
    assert gb.normal_form(a + b.scale(c)) == nf_a + gb.normal_form(b).scale(c)


def test_ideal_member():
    gb = buchberger([pxy("x^2"), pxy("y^2")])
    assert gb.is_member(pxy("x^3"))
    assert not gb.is_member(pxy("x*y"))
    f2 = PrimeField(2)
    gb2 = buchberger(
        [parse_polynomial("x^2", XY, f2), parse_polynomial("y^2", XY, f2)]
    )
    square = parse_polynomial("(x + y)^2", XY, f2)
    assert gb2.is_member(square)


def test_lift_through_monomial():
    f = [poly("x^2"), poly("y^2"), poly("z^2")]
    q = lift_through(poly("x^3"), f)
    assert [str(c) for c in q] == ["x", "0", "0"]


def test_lift_through_linear():
    f = [pxy("x"), pxy("y")]
    q = lift_through(pxy("x^2 + y^2"), f)
    assert [str(c) for c in q] == ["x", "y"]


def test_lift_through_division_tracked():
    f = [pxy("x^2"), pxy("y^2")]
    g = pxy("x^2*y^2 + x^4")
    q = lift_through(g, f)
    total = q[0] * f[0] + q[1] * f[1]
    assert total == g
    # deterministic division path: x^4 falls to x^2, then x^2*y^2 to y^2
    # (basis elements are tried in ascending lead order, so y^2 comes first)
    assert [str(c) for c in q] == ["x^2", "x^2"]
    assert q == lift_through(g, f)


def test_lift_through_not_in_ideal():
    with pytest.raises(NotInIdealError):
        lift_through(pxy("x*y"), [pxy("x^2"), pxy("y^2")])


def test_quotient_degree_basis():
    gb = buchberger([pxy("x^2"), pxy("y^2")])
    b2 = gb.quotient_degree_basis(2)
    assert b2.monomials == ((1, 1),)
    assert len(gb.quotient_degree_basis(3)) == 0
    assert gb.quotient_degree_basis(0).monomials == ((0, 0),)


@pytest.mark.parametrize("gens", [["x^3", "z", "y^2 + x*y"], ["y", "x", "z"], ["x^2 - y*z", "z"]])
def test_quotient_basis_lists_only_variables_that_are_not_leads(gens):
    # the same monomials, in the same grevlex order, as filtering all of S_d
    gb = buchberger([poly(g) for g in gens])
    leads = gb.lead_monomials()
    for d in range(7):
        full = [m for m in monomials_of_degree(3, d) if not any(monomial_divides(l, m) for l in leads)]
        assert gb.quotient_degree_basis(d).monomials == tuple(full)


def test_hilbert_dim_from_leads_matches_enumeration():
    gb = buchberger([poly("x^2 - y*z"), poly("y^2 - x*z")])
    leads = gb.lead_monomials()
    for d in range(7):
        assert hilbert_dim_from_leads(leads, 3, d) == len(gb.quotient_degree_basis(d))


def test_is_regular_sequence():
    assert is_regular_sequence([poly("x^2"), poly("y^2"), poly("z^2")])
    assert not is_regular_sequence([pxy("x"), pxy("x*y")])
    assert is_regular_sequence([poly("x^2 - y*z"), poly("y^2 - x*z")])


def test_regular_pair_matches_complete_intersection_hilbert():
    # dim (S/(q1,q2))_d for a regular pair of quadrics equals the CI series
    # (1-t^2)^2/(1-t)^3 = (1+t)^2/(1-t): 1, 3, 4, 4, ...
    gb = buchberger([poly("x^2 - y*z"), poly("y^2 - x*z")])
    assert brute_quotient_dims(gb, 5) == [1, 3, 4, 4, 4, 4]


def test_too_many_generators_not_regular():
    assert not is_regular_sequence(
        [pxy("x^2"), pxy("y^2"), pxy("x*y")]
    )


def test_representations_certified():
    f = [poly("x^2 - y*z"), poly("y^2 - x*z"), poly("z^2 - x*y")]
    gb = buchberger(f)
    for g, rep in zip(gb.generators, gb.representations):
        acc = Polynomial.zero(XYZ, F)
        for q, orig in zip(rep, gb.originals):
            acc = acc + q * orig
        assert acc == g


def test_basis_of_a_smaller_ideal_fails_its_certificate():
    # x = 1*x + 0*(x + y) holds and (x) has no S-pair, but x + y is not in (x)
    x, xy = pxy("x"), pxy("x + y")
    one, zero = Polynomial.constant(XY, F, 1), Polynomial.zero(XY, F)
    with pytest.raises(SelfCheckError, match="not in the ideal"):
        GroebnerBasis(XY, F, [x], [[one, zero]], [x, xy])


def _ci_numerator(gens):
    return times_complete_intersection({0: 1}, [g.total_degree() for g in gens])


def _random_sequence(rng):
    """1..n sparse forms of degrees 1..3 in n = 2..4 variables over a small
    field or F_32003: dependent leads and non-regular sequences are common."""
    n = rng.choice((2, 3, 4))
    ctx, field = CONTEXTS[n], PrimeField(rng.choice((2, 3, 5, 7, 32003)))
    gens = []
    for _ in range(rng.randint(1, n)):
        monos = monomials_of_degree(n, rng.randint(1, 3))
        terms = {rng.choice(monos): rng.randrange(1, field.p) for _ in range(rng.randint(1, 4))}
        gens.append(Polynomial(ctx, field, terms))
    return gens


def test_hilbert_driven_buchberger_matches_the_full_pair_loop():
    # skipping the degrees whose lead count meets the complete-intersection
    # bound changes no generator and no representation, regular or not, and
    # the numerator decides regularity as the Krull dimension of the leads does
    rng, regular = random.Random(30), 0
    for _ in range(400):
        gens = _random_sequence(rng)
        full = buchberger(gens)
        driven = buchberger(gens, _ci_numerator(gens))
        assert driven.generators == full.generators
        assert driven.representations == full.representations
        n = gens[0].ring.nvars
        expected = lead_ideal_dimension(full.lead_monomials(), n) == n - len(gens)
        gb = _regular_basis(gens)
        assert (gb is not None) == expected
        if gb is not None:
            assert gb.generators == full.generators
        regular += expected
    assert 100 < regular < 350


def test_numerator_certificate_still_checks_representations():
    # the leads still meet the numerator, but one coefficient of each element
    # in turn is doubled: the identity generator == sum(rep_i * original_i) fails
    f = [poly("x^2 - y*z"), poly("y^2 - x*z")]
    gb = _regular_basis(f)
    for k, rep in enumerate(gb.representations):
        j = next(j for j, r in enumerate(rep) if not r.is_zero())
        reps = [list(r) for r in gb.representations]
        reps[k][j] = rep[j].scale(2)
        with pytest.raises(SelfCheckError, match="representation identity"):
            GroebnerBasis(XYZ, F, gb.generators, reps, gb.originals, _ci_numerator(f))


def test_a_numerator_that_differs_falls_back_to_the_s_pair_certificate():
    # (x) has the numerator 1 - t, not (1 - t)^2, so the certificate reduces
    # the originals, and x + y is not in (x)
    x, xy = pxy("x"), pxy("x + y")
    one, zero = Polynomial.constant(XY, F, 1), Polynomial.zero(XY, F)
    with pytest.raises(SelfCheckError, match="not in the ideal"):
        GroebnerBasis(XY, F, [x], [[one, zero]], [x, xy], _ci_numerator([x, xy]))


# --- the division kernel and the Hilbert count against plain references ------


def _reference_divide_tracking(f, divisors):
    """The division loop as it was before the heap kernel, kept verbatim as
    the reference: rescan for the leading term, rebuild polynomials."""
    ring, field = f.ring, f.field
    quotients = [Polynomial.zero(ring, field) for _ in divisors]
    remainder = {}
    leads = [d.leading_monomial() for d in divisors]
    work = f
    while not work.is_zero():
        lm = work.leading_monomial()
        lc = work.terms[lm]
        for k, dlm in enumerate(leads):
            if monomial_divides(dlm, lm):
                q = monomial_div(lm, dlm)
                quotients[k] = quotients[k] + Polynomial.monomial(ring, field, q, lc)
                work = work - divisors[k].term_mul(q, lc)
                break
        else:
            remainder[lm] = lc
            work = work - Polynomial.monomial(ring, field, lm, lc)
    return quotients, Polynomial(ring, field, remainder)


CONTEXTS = {n: VariableContext(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


def _random_form(data, ctx, field, degree, max_terms):
    monos = monomials_of_degree(ctx.nvars, degree)
    terms = {}
    for _ in range(data.draw(st.integers(1, max_terms))):
        terms[data.draw(st.sampled_from(monos))] = data.draw(st.integers(1, field.p - 1))
    return Polynomial(ctx, field, terms)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_divide_tracking_matches_reference_loop(data):
    ctx = CONTEXTS[data.draw(st.sampled_from((2, 3, 4)))]
    field = PrimeField(data.draw(st.sampled_from((2, 3, 32003))))
    divisors = []
    for _ in range(data.draw(st.integers(0, 4))):
        d = _random_form(data, ctx, field, data.draw(st.integers(1, 3)), 4)
        if not d.is_zero():
            divisors.append(d.monic())
    f = _random_form(data, ctx, field, data.draw(st.integers(0, 5)), 12)
    quots, rem = divide_tracking(f, divisors)
    ref_quots, ref_rem = _reference_divide_tracking(f, divisors)
    # same terms in the same order, so everything built from them is too
    assert [list(q.terms.items()) for q in quots] == [
        list(q.terms.items()) for q in ref_quots
    ]
    assert list(rem.terms.items()) == list(ref_rem.terms.items())


def _brute_standard_monomials(leads, nvars, d):
    return sum(
        1
        for expo in product(range(d + 1), repeat=nvars)
        if sum(expo) == d
        and not any(all(a <= b for a, b in zip(lead, expo)) for lead in leads)
    )


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hilbert_dim_from_leads_counts_standard_monomials(data):
    nvars = data.draw(st.integers(2, 4))
    leads = [
        data.draw(st.sampled_from(monomials_of_degree(nvars, data.draw(st.integers(1, 3)))))
        for _ in range(data.draw(st.integers(0, 6)))
    ]
    for d in range(-1, 7):
        expected = _brute_standard_monomials(leads, nvars, d) if d >= 0 else 0
        assert hilbert_dim_from_leads(leads, nvars, d) == expected


def _inclusion_exclusion_numerator(leads, nvars):
    """The Hilbert numerator by the sum over all 2^k subsets of the leads."""
    counts = {}
    for mask in range(1 << len(leads)):
        lcm, sign = (0,) * nvars, 1
        for i, lead in enumerate(leads):
            if mask >> i & 1:
                lcm, sign = tuple(map(max, lcm, lead)), -sign
        counts[sum(lcm)] = counts.get(sum(lcm), 0) + sign
    return {k: n for k, n in counts.items() if n}


def test_hilbert_numerator_matches_inclusion_exclusion():
    rng = random.Random(13)
    for _ in range(40):
        nvars = rng.randint(1, 5)
        leads = tuple(
            rng.choice(monomials_of_degree(nvars, rng.randint(1, 4)))
            for _ in range(rng.randint(0, 9))
        )
        assert _hilbert_numerator(leads, nvars) == _inclusion_exclusion_numerator(leads, nvars)
        for d in range(7):
            assert hilbert_dim_from_leads(leads, nvars, d) == _brute_standard_monomials(leads, nvars, d)


def test_hilbert_dim_of_a_power_of_the_maximal_ideal():
    # 28 leads, more than the 2^k subset sum could take
    leads = monomials_of_degree(3, 6)
    assert len(leads) == 28
    assert [hilbert_dim_from_leads(leads, 3, d) for d in range(7)] == [1, 3, 6, 10, 15, 21, 0]


# --- the memoized normal-form kernel against plain division ------------------

TWISTED_CUBIC = ["x*z - y^2", "x*w - y*z", "y*w - z^2"]


@given(st.data())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_nf_row_matches_division_remainder(data):
    """nf_row and normal_form agree with the division remainder on every
    monomial up to degree 6, asked for in a random order: seeded dense
    quadrics and cubics in 3 or 4 variables, or the binomial ideal of the
    twisted cubic."""
    case = data.draw(st.sampled_from(["binomial", (2, 2), (2, 3), (2, 2, 3)]))
    if case == "binomial":
        ctx = CONTEXTS[4]
        gens = [poly(g, ctx) for g in TWISTED_CUBIC]
    else:
        ctx = CONTEXTS[data.draw(st.sampled_from((3, 4)))]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        dense = [monomials_of_degree(ctx.nvars, d) for d in case]
        gens = [Polynomial(ctx, F, {m: rng.randrange(1, F.p) for m in monos}) for monos in dense]
    gb = buchberger(gens)
    monos = [m for d in range(7) for m in monomials_of_degree(ctx.nvars, d)]
    data.draw(st.randoms()).shuffle(monos)
    for m in monos:
        mono = Polynomial.monomial(ctx, F, m)
        _, rem = divide_tracking(mono, gb.generators)
        assert gb.normal_form(mono) == rem
        index = gb.quotient_degree_basis(sum(m)).index
        row = gb.nf_row(m)
        assert dict(zip(row[::2], row[1::2])) == {index[e]: c for e, c in rem.terms.items()}


def test_nf_row_long_chain_without_recursion():
    # modulo x - y, x^d reduces through x^(d-1)*y, ..., x*y^(d-1) to y^d, the
    # one standard monomial of degree d: a chain longer than the recursion limit
    gb = buchberger([pxy("x - y")])
    d = 3 * sys.getrecursionlimit()
    assert gb.nf_row((d, 0)) == (0, 1)
    assert gb.normal_form(pxy(f"x^{d}")) == pxy(f"y^{d}")


def _macaulay_rank(gens, d):
    """dim (gens)_d: the F_p rank of the products m * g over all monomials m
    with deg(m * g) == d, by dense elimination."""
    ctx, field = gens[0].ring, gens[0].field
    monos = monomials_of_degree(ctx.nvars, d)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for m in monomials_of_degree(ctx.nvars, d - g.total_degree()):
            row = [0] * len(monos)
            for e, c in g.term_mul(m).terms.items():
                row[col[e]] = c
            rows.append(row)
    return _oracle_rank(rows, field.p) if rows else 0


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_buchberger_basis_spans_the_ideal(data):
    """In each degree up to one past the basis's top degree, the standard
    monomials of the computed leads count S_d / (g)_d, with (g)_d read off
    the Macaulay matrix of the input: an independent check that the pruned
    pair loop still returns a Groebner basis of (g). Over F_7 sparse forms
    make dependent leads and repeated lcms common."""
    field = PrimeField(data.draw(st.sampled_from((7, 32003))))
    gens = [
        _random_form(data, CONTEXTS[3], field, data.draw(st.integers(1, 3)), 6)
        for _ in range(data.draw(st.integers(2, 4)))
    ]
    gb = buchberger(gens)
    leads = gb.lead_monomials()
    for d in range(max(sum(l) for l in leads) + 2):
        standard = hilbert_dim_from_leads(leads, 3, d)
        assert len(monomials_of_degree(3, d)) - standard == _macaulay_rank(gens, d)


def test_lead_ideal_dimension_of_squares_in_16_variables():
    n = 16
    squares = [tuple(2 * (j == i) for j in range(n)) for i in range(n)]
    assert lead_ideal_dimension(squares, n) == 0
    assert lead_ideal_dimension(squares[:2], n) == 14
    assert lead_ideal_dimension([(0,) * n], n) == -1
