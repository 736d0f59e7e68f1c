"""Prime-field scalars, sparse multivariate polynomials, and the expression parser.

Monomials are dense exponent tuples (one entry per context variable) compared
in graded reverse lexicographic order everywhere.
"""

from __future__ import annotations

from operator import add, le, sub

from .errors import (
    ContextMismatchError,
    NegativeExponentError,
    PolynomialSyntaxError,
    UnknownVariableError,
)

MAX_VARIABLES = 16

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
    """Ordered variable names; fixes the meaning of exponent tuples."""

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

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableContext({self.names})"


def grevlex_key(expo):
    """Sort key under which larger key means larger monomial in grevlex."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """Whether a divides b."""
    return all(map(le, a, b))


def monomial_div(b, a):
    return tuple(map(sub, b, a))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _add_product(terms, a, b, sign=1):
    """Add sign * a * b for term dicts a and b into `terms`, which it returns
    with coefficients unreduced: polynomials, the parser and `compose` use it."""
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return terms


class Polynomial:
    """Sparse polynomial over F_p: a map from exponent tuples to nonzero scalars."""

    __slots__ = ("ring", "field", "terms", "_hash", "_lead")

    def __init__(self, ring, field, terms):
        self.ring = ring
        self.field = field
        clean = {}
        nv = ring.nvars
        for expo, coeff in terms.items():
            c = coeff % field.p
            if c:
                if len(expo) != nv:
                    raise ValueError("exponent tuple has wrong length")
                clean[expo] = c
        self.terms = clean
        self._hash = None
        self._lead = _UNSET

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring, field):
        return cls(ring, field, {})

    @classmethod
    def constant(cls, ring, field, value):
        return cls(ring, field, {(0,) * ring.nvars: value})

    @classmethod
    def variable(cls, ring, field, name, power=1):
        expo = [0] * ring.nvars
        expo[ring.index[name]] = power
        return cls(ring, field, {tuple(expo): 1})

    @classmethod
    def monomial(cls, ring, field, expo, coeff=1):
        return cls(ring, field, {tuple(expo): coeff})

    # --- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.ring.nvars, 0)

    def total_degree(self):
        """Max total degree; None for the zero polynomial (never -1 or 0)."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

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
        """Multiply by a single term coeff * x^expo."""
        return Polynomial(
            self.ring,
            self.field,
            {monomial_mul(e, expo): c * coeff for e, c in self.terms.items()},
        )

    # --- term access ---------------------------------------------------
    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_monomial(self):
        # cached: nothing mutates .terms after construction
        if self._lead is _UNSET:
            self._lead = max(self.terms, key=grevlex_key) if self.terms else None
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
        for name, e in zip(self.ring.names, expo):
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
    Values are term dicts {expo: coeff} until the one Polynomial at the end."""

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
            if len(base) == 1:
                ((e, c),) = base.items()
                return [{tuple(k * n for k in e): pow(c, n, self.field.p)}]
            return [base] * n or [{(0,) * self.ctx.nvars: 1}]
        return [base]

    def atom(self):
        tok = self.advance()
        kind, value, offset = tok
        if kind == "int":
            return {(0,) * self.ctx.nvars: int(value)}
        if kind == "name":
            if value not in self.ctx.index:
                raise UnknownVariableError(value, offset)
            return {tuple(int(name == value) for name in self.ctx.names): 1}
        if kind == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}", offset)


def parse_polynomial(text, ctx, field):
    """Parse polynomial text (integers, context variables, + - * ^, parens)."""
    return _Parser(text, ctx, field).parse()
