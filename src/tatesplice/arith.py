"""Prime-field scalars, sparse multivariate polynomials, and the expression parser.

A monomial is one packed int (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): the exponent
of variable i sits in bits [WIDTH*i, WIDTH*(i+1)), whose top bit is a guard
that is always clear, and the total degree sits above all MAX_VARIABLES
fields, at SHIFT, unbounded. So a product is e1 + e2, a quotient b - a, the
degree e >> SHIFT, and whether a divides b one subtraction
(`monomial_divides`).
Monomials compare in graded reverse lexicographic order everywhere, which is
plain int order on `grevlex_key`. Every exponent stays below the guard bit
because every degree stays at most MAX_DEGREE: the parser, `pack` and each
product refuse a larger one (DegreeLimitError) before it is used. Exponent
tuples appear only at the boundaries: `VariableContext.pack` and `unpack`,
`Polynomial.monomial`, and the text the parser reads and `__str__` writes.
"""

from __future__ import annotations

from .errors import (
    ContextMismatchError,
    DegreeLimitError,
    NegativeExponentError,
    PolynomialSyntaxError,
    UnknownVariableError,
)

MAX_VARIABLES = 16
WIDTH = 16  # bits per exponent field, the guard bit included
SHIFT = WIDTH * MAX_VARIABLES  # the total degree's bit offset
MAX_DEGREE = (1 << (WIDTH - 1)) - 1  # so no exponent reaches its field's guard bit
FIELD_MASK = (1 << WIDTH) - 1
GUARD = sum(1 << (WIDTH * i + WIDTH - 1) for i in range(MAX_VARIABLES))
LOW = (1 << SHIFT) - 1  # every exponent field

_UNSET = object()  # leading monomial not computed yet


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond the desk-scale bound on p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p; elements are canonical ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 2**31:
            raise ValueError(f"modulus {p} is too large: p must be below 2^31")
        self.p = p

    def inv(self, n):
        return pow(n % self.p, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class VariableContext:
    """Ordered variable names; fixes the meaning of exponent tuples and of
    the packed monomials' fields, variable i in field i."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(names) == 0:
            raise ValueError("at least one variable required")
        if len(names) > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"variables must be identifiers, got {name!r}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self):
        return len(self.names)

    def pack(self, expo):
        """The packed monomial of an exponent tuple, one entry per variable;
        ValueError for a wrong length or a negative entry, DegreeLimitError
        above MAX_DEGREE."""
        expo = tuple(expo)
        if len(expo) != len(self.names):
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        if sum(expo) > MAX_DEGREE:
            raise _over_limit(sum(expo))
        return sum(e << (WIDTH * i) for i, e in enumerate(expo)) | sum(expo) << SHIFT

    def unpack(self, mono):
        """The exponent tuple of a packed monomial."""
        return tuple(mono >> (WIDTH * i) & FIELD_MASK for i in range(len(self.names)))

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableContext({self.names})"


def _over_limit(d):
    return DegreeLimitError(f"degree {d} is above the limit of {MAX_DEGREE}")


def _unit(i):
    """The monomial of variable i."""
    return 1 << (WIDTH * i) | 1 << SHIFT


def grevlex_key(expo):
    """Sort key under which larger key means larger monomial in grevlex:
    the degree decides first, and then, from the last variable down, the
    smaller exponent wins, which flipping every exponent field turns into
    the larger int."""
    return expo ^ LOW


def monomial_divides(a, b):
    """Whether a divides b: each field of b, its guard bit set, minus a's
    field keeps the guard bit exactly when b's exponent is at least a's,
    and no field borrows from the next."""
    return ((b | GUARD) - a) & GUARD == GUARD


def monomial_lcm(a, b):
    """Fieldwise max: a guard bit left in (a | GUARD) - b marks a field where
    a's exponent is the larger, and spread over its field it takes a's
    exponent there and b's elsewhere. The degree is the sum of the fields,
    which is the exponent part mod 2^WIDTH - 1 (as a decimal number is its
    digit sum mod 9), since that sum is at most 2 * MAX_DEGREE."""
    take = ((a | GUARD) - b) & GUARD
    take -= take >> (WIDTH - 1)
    e = (a & take) | (b & ~take & LOW)
    return e | (e % FIELD_MASK) << SHIFT


def _add_product(terms, a, b, sign=1):
    """Add sign * a * b for term dicts a and b into `terms`, which it returns
    with coefficients unreduced: polynomials, the parser and `compose` use it.
    The largest keys of a and b hold their largest degrees, so one check
    refuses a product whose degree would pass MAX_DEGREE before it is formed."""
    if a and b and (max(a) + max(b)) >> SHIFT > MAX_DEGREE:
        raise _over_limit((max(a) + max(b)) >> SHIFT)
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = e1 + e2
            terms[e] = terms.get(e, 0) + c1 * c2
    return terms


class Polynomial:
    """Sparse polynomial over F_p: a map from packed monomials to nonzero scalars."""

    __slots__ = ("ring", "field", "terms", "_hash", "_lead")

    def __init__(self, ring, field, terms):
        self.ring = ring
        self.field = field
        p = field.p
        self.terms = {e: v for e, c in terms.items() if (v := c % p)}
        self._hash = None
        self._lead = _UNSET

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring, field):
        return cls(ring, field, {})

    @classmethod
    def constant(cls, ring, field, value):
        return cls(ring, field, {0: value})

    @classmethod
    def variable(cls, ring, field, name):
        return cls(ring, field, {_unit(ring.index[name]): 1})

    @classmethod
    def monomial(cls, ring, field, expo, coeff=1):
        """coeff * x^expo for an exponent tuple `expo`."""
        return cls(ring, field, {ring.pack(expo): coeff})

    # --- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)

    def constant_value(self):
        return self.terms.get(0, 0)

    def total_degree(self):
        """Max total degree; None for the zero polynomial (never -1 or 0)."""
        if not self.terms:
            return None
        return max(self.terms) >> SHIFT

    def is_homogeneous(self):
        return not self.terms or min(self.terms) >> SHIFT == max(self.terms) >> SHIFT

    # --- arithmetic ---------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring or self.field != other.field:
            raise ContextMismatchError("operands live over different rings")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        p = self.field.p
        for e, c in other.terms.items():
            v = (terms.get(e, 0) + c) % p
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return Polynomial(self.ring, self.field, terms)

    def __neg__(self):
        p = self.field.p
        return Polynomial(self.ring, self.field, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # the constructor takes each coefficient mod p once and drops zeros
        return Polynomial(self.ring, self.field, _add_product({}, self.terms, other.terms))

    def scale(self, scalar):
        s = scalar % self.field.p
        return Polynomial(self.ring, self.field, {e: c * s for e, c in self.terms.items()})

    def term_mul(self, expo, coeff=1):
        """Multiply by a single term coeff * x^expo, expo packed."""
        return Polynomial(self.ring, self.field, _add_product({}, self.terms, {expo: coeff}))

    # --- term access ---------------------------------------------------
    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_monomial(self):
        # cached: nothing mutates .terms after construction; the largest
        # grevlex key, flipped back
        if self._lead is _UNSET:
            self._lead = max(map(LOW.__xor__, self.terms)) ^ LOW if self.terms else None
        return self._lead

    def leading_coefficient(self):
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else 0

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    # --- comparison / hashing ------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.field.p, frozenset(self.terms.items())))
        return self._hash

    # --- printing -------------------------------------------------------
    def _monomial_str(self, expo):
        parts = []
        for name, e in zip(self.ring.names, self.ring.unpack(expo)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in self.sorted_terms():
            mono = self._monomial_str(expo)
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            else:
                pieces.append(f"{coeff}*{mono}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"<{self} over F_{self.field.p}>"


# --- parser -------------------------------------------------------------

_SYMBOLS = "+-*^()"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar: sums of products of powers of atoms.
    Values are term dicts {packed monomial: coeff} until the one Polynomial at
    the end; a power or product of degree above MAX_DEGREE is refused."""

    def __init__(self, text, ctx, field):
        self.ctx = ctx
        self.field = field
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolynomialSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2]
            )
        return tok

    def parse(self):
        result = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise PolynomialSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return Polynomial(self.ctx, self.field, result)

    def expression(self):
        tok = self.peek()
        if tok[0] in "+-":
            self.advance()
        result = self.term()
        if tok[0] == "-":
            result = {e: -c for e, c in result.items()}
        while self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
            for e, c in self.term().items():
                result[e] = result.get(e, 0) + sign * c
        return result

    def term(self):
        factors = self.power()
        while self.peek()[0] == "*":
            self.advance()
            factors += self.power()
        result = factors[0]
        for factor in factors[1:]:
            result = _add_product({}, result, factor)
        return result

    def power(self):
        """The factors of a power: a power of one term is one term, with its
        exponents scaled, and a power of a sum is that many copies of it."""
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] == "-":
                raise NegativeExponentError(tok[2])
            n = int(self.expect("int")[1])
            d = (max(base) >> SHIFT) * n  # the largest key has the largest degree
            if d > MAX_DEGREE:
                raise _over_limit(d)
            if len(base) == 1:
                ((e, c),) = base.items()
                return [{e * n: pow(c, n, self.field.p)}]
            return [base] * n or [{0: 1}]
        return [base]

    def atom(self):
        tok = self.advance()
        kind, value, offset = tok
        if kind == "int":
            return {0: int(value)}
        if kind == "name":
            if value not in self.ctx.index:
                raise UnknownVariableError(value, offset)
            return {_unit(self.ctx.index[value]): 1}
        if kind == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}", offset)


def parse_polynomial(text, ctx, field):
    """Parse polynomial text (integers, context variables, + - * ^, parens)."""
    return _Parser(text, ctx, field).parse()
