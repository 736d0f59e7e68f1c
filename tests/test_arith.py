"""Field, polynomial, and parser tests."""

import pytest
from hypothesis import given, settings, strategies as st

from tatesplice.arith import (
    MAX_DEGREE,
    MAX_VARIABLES,
    SHIFT,
    Polynomial,
    PrimeField,
    VariableContext,
    grevlex_key,
    monomial_divides,
    monomial_lcm,
    parse_polynomial,
)
from tatesplice.errors import (
    ContextMismatchError,
    DegreeLimitError,
    NegativeExponentError,
    PolynomialSyntaxError,
    UnknownVariableError,
)

from crosschecks import (
    exponent_terms,
    from_exponents,
    tuple_divides,
    tuple_grevlex_key,
    tuple_lcm,
    tuple_product,
)

F101 = PrimeField(101)
XYZ = VariableContext(["x", "y", "z"])
XY = VariableContext(["x", "y"])


def poly(s, ctx=XYZ, field=F101):
    return parse_polynomial(s, ctx, field)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(91)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(2).p == 2
    assert PrimeField(32003).p == 32003


def test_parse_basic_terms():
    p = poly("x^2*y - 3*z")
    assert exponent_terms(p) == {(2, 1, 0): 1, (0, 0, 1): 98}


def test_parse_zero():
    assert poly("0").terms == {}


def test_parse_expand_cancel():
    p = parse_polynomial("(x+y)*(x-y)", XY, F101)
    assert exponent_terms(p) == {(2, 0): 1, (0, 2): 100}


def test_parse_errors_carry_offsets():
    with pytest.raises(UnknownVariableError) as e:
        poly("x + w^2")
    assert e.value.offset == 4
    with pytest.raises(PolynomialSyntaxError) as e:
        poly("x + * y")
    assert e.value.offset == 4
    with pytest.raises(NegativeExponentError):
        poly("x^-2")
    with pytest.raises(PolynomialSyntaxError):
        poly("(x + y")
    with pytest.raises(PolynomialSyntaxError):
        poly("x $ y")


def test_poly_arith_examples():
    assert poly("x^2") * poly("y^2") == poly("x^2*y^2")
    assert (poly("x + y") + poly("-x - y")).is_zero()
    assert (poly("x + y") - poly("x + y")).is_zero()
    f2 = PrimeField(2)
    s = parse_polynomial("x + y", XY, f2)
    assert s * s == parse_polynomial("x^2 + y^2", XY, f2)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        poly("x") + parse_polynomial("x", XY, F101)


def test_total_degree():
    assert poly("x^2*y").total_degree() == 3
    assert poly("5").total_degree() == 0
    assert poly("0").total_degree() is None


def test_grevlex_order():
    # x > y > z in equal degree; x*y^2 beats x^2*z in grevlex
    key = lambda expo: grevlex_key(XYZ.pack(expo))  # noqa: E731
    assert key((1, 0, 0)) > key((0, 1, 0)) > key((0, 0, 1))
    assert key((1, 2, 0)) > key((2, 0, 1))


def test_printing_descending_order():
    p = poly("z + x^2 + y^2*x")
    assert str(p) == "x*y^2 + x^2 + z"


def _random_poly(draw, ctx, field, max_deg=3, max_terms=4):
    n = ctx.nvars
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_deg)) for _ in range(n))
        terms[expo] = draw(st.integers(0, field.p - 1))
    return from_exponents(ctx, field, terms)


@st.composite
def polys(draw, ctx=XYZ, field=F101):
    return _random_poly(draw, ctx, field)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(polys())
@settings(max_examples=60, deadline=None)
def test_parse_print_roundtrip(a):
    assert parse_polynomial(str(a), XYZ, F101) == a


@st.composite
def homogeneous_polys(draw, degree, ctx=XYZ, field=F101):
    from tatesplice.groebner import monomials_of_degree

    monos = monomials_of_degree(ctx.nvars, degree)
    terms = {}
    for m in monos:
        terms[m] = draw(st.integers(0, field.p - 1))
    return Polynomial(ctx, field, terms)


@given(homogeneous_polys(2), homogeneous_polys(2), homogeneous_polys(3))
@settings(max_examples=30, deadline=None)
def test_homogeneity_preserved(a, b, c):
    assert (a * c).is_homogeneous()
    assert (a + b).is_homogeneous()
    s = a * a + c  # mixing degrees 4 and 3
    if not a.is_zero() and not c.is_zero():
        assert not s.is_homogeneous()


def test_parenthesized_power():
    p = parse_polynomial("(x + y)^2", XY, F101)
    assert p == parse_polynomial("x^2 + 2*x*y + y^2", XY, F101)


# An expression tree drawn for the parser test: (text, polynomial built by
# arithmetic, kind, signed). kind is the tightest grammar rule the text
# matches (atom < power < product < sum); signed marks a leading unary sign,
# which the grammar allows only at the start of an expression.
_TIGHT = ("atom", "power", "product")


def _operand(node, kinds):
    text, _, kind, signed = node
    return text if kind in kinds and not signed else f"({text})"


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            n = draw(st.one_of(st.integers(0, 200), st.integers(0, 10**30)))
            return str(n), Polynomial.constant(XYZ, F101, n), "atom", False
        name = draw(st.sampled_from(XYZ.names))
        return name, Polynomial.variable(XYZ, F101, name), "atom", False
    op = draw(st.sampled_from(["+", "-", "*", "^", "neg", "()"]))
    a = draw(expressions(depth - 1))
    if op == "^":
        n = draw(st.integers(0, 4))
        value = Polynomial.constant(XYZ, F101, 1)
        for _ in range(n):
            value = value * a[1]
        return f"{_operand(a, ('atom',))}^{n}", value, "power", False
    if op == "neg":
        return f"-{_operand(a, _TIGHT)}", -a[1], "sum", True
    if op == "()":
        return f"({a[0]})", a[1], "atom", False
    b = draw(expressions(depth - 1))
    if op == "*":
        return f"{_operand(a, _TIGHT)}*{_operand(b, _TIGHT)}", a[1] * b[1], "product", False
    value = a[1] + b[1] if op == "+" else a[1] - b[1]
    return f"{a[0]} {op} {_operand(b, _TIGHT)}", value, "sum", a[3]


@given(expressions())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_matches_arithmetic(expr):
    text, value, _, _ = expr
    assert parse_polynomial(text, XYZ, F101) == value


# --- packed monomials against the tuple oracle --------------------------------


@st.composite
def exponent_pairs(draw):
    """(nvars, a, b): two exponent tuples in 1 to 16 variables, each of degree
    at most MAX_DEGREE, often with one field at MAX_DEGREE itself, where its
    guard bit is next, and half the time with b dividing a."""
    n = draw(st.integers(1, MAX_VARIABLES))

    def expo():
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.integers(0, n - 1))
            return tuple(MAX_DEGREE if v == i else 0 for v in range(n))
        cap = draw(st.sampled_from((3, MAX_DEGREE // n)))
        return tuple(draw(st.integers(0, cap)) for _ in range(n))

    a, b = expo(), expo()
    if draw(st.booleans()):  # b then divides a
        b = tuple(map(min, a, b))
    return n, a, b


@given(exponent_pairs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_packed_monomials_match_the_tuple_oracle(case):
    n, a, b = case
    ctx = VariableContext([f"x{i}" for i in range(1, n + 1)])
    pa, pb = ctx.pack(a), ctx.pack(b)
    assert ctx.unpack(pa) == a and pa >> SHIFT == sum(a)
    assert monomial_divides(pa, pb) == tuple_divides(a, b)
    assert monomial_divides(pb, pa) == tuple_divides(b, a)
    assert ctx.unpack(monomial_lcm(pa, pb)) == tuple_lcm(a, b)
    assert monomial_lcm(pa, pb) >> SHIFT == sum(tuple_lcm(a, b))
    assert (grevlex_key(pa) > grevlex_key(pb)) == (tuple_grevlex_key(a) > tuple_grevlex_key(b))
    if sum(a) + sum(b) <= MAX_DEGREE:
        assert ctx.unpack(pa + pb) == tuple_product(a, b) and (pa + pb) >> SHIFT == sum(a) + sum(b)
        if tuple_divides(a, b):
            assert ctx.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
    else:
        with pytest.raises(DegreeLimitError):
            Polynomial.monomial(ctx, F101, a) * Polynomial.monomial(ctx, F101, b)


def test_every_field_at_its_largest_exponent():
    # x_i^MAX_DEGREE in each of 16 variables: it divides itself and no other,
    # its lcm with x_j^MAX_DEGREE holds both, and grevlex puts x_16 lowest
    ctx = VariableContext([f"x{i}" for i in range(1, MAX_VARIABLES + 1)])
    tops = [
        ctx.pack(MAX_DEGREE if v == i else 0 for v in range(MAX_VARIABLES))
        for i in range(MAX_VARIABLES)
    ]
    for i, a in enumerate(tops):
        assert ctx.unpack(a)[i] == MAX_DEGREE
        for j, b in enumerate(tops):
            assert monomial_divides(a, b) == (i == j)
            assert ctx.unpack(monomial_lcm(a, b)) == tuple(
                MAX_DEGREE if v in (i, j) else 0 for v in range(MAX_VARIABLES)
            )
            assert (grevlex_key(a) > grevlex_key(b)) == (i < j)


def test_degree_limit_is_refused():
    x = Polynomial.variable(XY, F101, "x")
    top = poly(f"x^{MAX_DEGREE}", XY)
    assert top.total_degree() == MAX_DEGREE
    for over in (lambda: top * x, lambda: top.term_mul(XY.pack((0, 1)))):
        with pytest.raises(DegreeLimitError, match=f"degree {MAX_DEGREE + 1} is above the limit"):
            over()
    for text in (f"x^{MAX_DEGREE + 1}", f"x^{MAX_DEGREE}*y", f"(x + y)^{MAX_DEGREE + 1}"):
        with pytest.raises(DegreeLimitError):
            poly(text, XY)
    with pytest.raises(DegreeLimitError):
        XY.pack((MAX_DEGREE, 1))
    with pytest.raises(ValueError, match="wrong length"):
        XY.pack((1, 2, 3))
