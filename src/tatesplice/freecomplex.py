"""Graded free modules, polynomial matrices, and chain complexes over S or S/I.

Conventions fixed here and relied on everywhere else:
  * twists are Macaulay2-style: the term S(a) is recorded as the integer a,
    so the Koszul complex on three quadrics has twists (0, -2, -4, -6) and a
    generator of S(a) lives in internal degree -a;
  * a nonzero entry in row r, column c is homogeneous of degree
    target.twists[r] - source.twists[c];
  * the dual places the transpose of d_i at position 1-i with sign (-1)^i;
  * shifting by k reindexes term_i to term_{i-k} and scales differentials
    by (-1)^k;
  * the cone of a degree-0 chain map phi: C -> D has term_i = C_i (+) D_{i+1}
    and block differential ((d_C, 0), ((-1)^i phi_i, d_D)).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import add

from .arith import Polynomial, PrimeField, VariableContext, parse_polynomial
from .errors import (
    DegreeMismatchError,
    H0IsoError,
    LiftIdentityError,
    NotAComplexError,
    NotChainMapError,
    WindowEdgeError,
)
from .groebner import GroebnerBasis, monomials_of_degree
from .linalg import FieldMatrix


class BaseRing:
    """Ring tag: polynomial ring S over F_p, or the quotient R = S/I.

    `graded_piece` reads a product monomial's normal form as one flat row
    (idx0, v0, idx1, v1, ...) in its degree's basis: over R the modulus owns
    the one row store (`GroebnerBasis.nf_row`), over S `_rows` keeps (index,
    1). `_tables` maps (mu, e) to a list whose slot j is the shared row of mu
    times basis monomial j of degree e, so a table never copies a row.
    """

    __slots__ = ("ctx", "field", "modulus", "_rows", "_tables")

    def __init__(self, ctx, field, modulus=None):
        self.ctx = ctx
        self.field = field
        self.modulus = modulus  # GroebnerBasis of I, or None for S itself
        self._rows = {}
        self._tables = {}

    def reduce(self, poly):
        if self.modulus is None:
            return poly
        return self.modulus.normal_form(poly)

    def degree_basis(self, d):
        """Monomial basis of the degree-d piece, descending grevlex."""
        if d < 0:
            return ()
        if self.modulus is None:
            return monomials_of_degree(self.ctx.nvars, d)
        return self.modulus.quotient_degree_basis(d).monomials

    def dim_degree(self, d):
        if d < 0:
            return 0
        if self.modulus is None:
            return comb(d + self.ctx.nvars - 1, self.ctx.nvars - 1)
        return len(self.modulus.quotient_degree_basis(d))

    def _row(self, mono):
        if self.modulus is not None:
            return self.modulus.nf_row(mono)
        row = self._rows.get(mono)
        if row is None:
            # every monomial of S_d is a basis element: fill the degree
            for i, m in enumerate(monomials_of_degree(self.ctx.nvars, sum(mono))):
                self._rows[m] = (i, 1)
            row = self._rows[mono]
        return row

    def _table(self, mu, e):
        table = self._tables.get((mu, e))
        if table is None:
            table = self._tables[(mu, e)] = [
                self._row(tuple(map(add, mu, m))) for m in self.degree_basis(e)
            ]
        return table

    def zero(self):
        return Polynomial.zero(self.ctx, self.field)

    def one(self):
        return Polynomial.constant(self.ctx, self.field, 1)

    def __eq__(self, other):
        if not isinstance(other, BaseRing):
            return NotImplemented
        if self.ctx != other.ctx or self.field != other.field:
            return False
        if (self.modulus is None) != (other.modulus is None):
            return False
        if self.modulus is None:
            return True
        return self.modulus.generators == other.modulus.generators

    def __hash__(self):
        gens = None if self.modulus is None else self.modulus.generators
        return hash((self.ctx, self.field, gens))

    def __repr__(self):
        if self.modulus is None:
            return f"S = F_{self.field.p}[{','.join(self.ctx.names)}]"
        gens = ", ".join(str(g) for g in self.modulus.generators)
        return f"R = F_{self.field.p}[{','.join(self.ctx.names)}]/({gens})"


class GradedFreeModule:
    """Free module with one twist per generator."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self):
        return len(self.twists)

    def dual(self):
        return GradedFreeModule(self.ring, tuple(-t for t in self.twists))

    def twist(self, t):
        return GradedFreeModule(self.ring, tuple(a + t for a in self.twists))

    def degree_dim(self, d):
        return sum(self.ring.dim_degree(d + a) for a in self.twists)

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"Free(rank {self.rank}, twists {self.twists})"


def direct_sum(modules):
    modules = list(modules)
    if not modules:
        raise ValueError("empty direct sum needs an explicit ring")
    ring = modules[0].ring
    twists = []
    for m in modules:
        if m.ring != ring:
            raise ValueError("mixed rings in direct sum")
        twists.extend(m.twists)
    return GradedFreeModule(ring, twists)


class DegreeLayout:
    """Coordinates of a module's degree-d piece; its basis is (generator
    index, monomial) pairs, generator by generator."""

    __slots__ = ("module", "degree", "labels", "index")

    def __init__(self, module, d):
        self.module = module
        self.degree = d
        basis = module.ring.degree_basis
        self.labels = [(k, m) for k, a in enumerate(module.twists) for m in basis(d + a)]
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def dim(self):
        return len(self.labels)

    def coordinates(self, polys):
        """Sparse coordinates {index: value} of an element given as one
        polynomial per generator."""
        ring = self.module.ring
        vec = {}
        for k, poly in enumerate(polys):
            poly = ring.reduce(poly)
            for mono, coeff in poly.terms.items():
                idx = self.index.get((k, mono))
                if idx is None:
                    raise ValueError(
                        f"term {mono} of generator {k} is not in degree {self.degree}"
                    )
                vec[idx] = coeff
        return vec

    def element(self, vec):
        """Inverse of coordinates: a list of polynomials, one per generator."""
        ring = self.module.ring
        polys = [dict() for _ in range(self.module.rank)]
        for idx in sorted(vec):
            k, mono = self.labels[idx]
            polys[k][mono] = vec[idx]
        return [Polynomial(ring.ctx, ring.field, t) for t in polys]


class PolyMatrix:
    """Degree-compatible polynomial matrix between graded free modules.

    Over a quotient ring every entry is stored in normal form.
    """

    __slots__ = ("source", "target", "entries")

    def __init__(self, source, target, entries, reduce=True):
        if source.ring != target.ring:
            raise ValueError("source and target over different rings")
        self.source = source
        self.target = target
        ring = source.ring
        rows = []
        if len(entries) != target.rank:
            raise ValueError("row count does not match target rank")
        for r, row in enumerate(entries):
            if len(row) != source.rank:
                raise ValueError("column count does not match source rank")
            new_row = []
            for c, e in enumerate(row):
                if reduce:
                    e = ring.reduce(e)
                if not e.is_zero():
                    want = target.twists[r] - source.twists[c]
                    if not e.is_homogeneous() or e.total_degree() != want:
                        raise DegreeMismatchError(
                            f"entry ({r},{c}) = {e} must be homogeneous of degree {want}"
                        )
                new_row.append(e)
            rows.append(tuple(new_row))
        self.entries = tuple(rows)

    # --- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, source, target):
        z = source.ring.zero()
        return cls(
            source,
            target,
            [[z] * source.rank for _ in range(target.rank)],
            reduce=False,
        )

    @classmethod
    def identity(cls, module):
        z = module.ring.zero()
        one = module.ring.one()
        return cls(
            module,
            module,
            [
                [one if r == c else z for c in range(module.rank)]
                for r in range(module.rank)
            ],
        )

    @classmethod
    def scalar(cls, module, poly):
        """poly * identity, landing in the module twisted by deg(poly)."""
        d = poly.total_degree()
        if d is None:
            return cls.zero(module, module)
        z = module.ring.zero()
        return cls(
            module,
            module.twist(d),
            [
                [poly if r == c else z for c in range(module.rank)]
                for r in range(module.rank)
            ],
        )

    # --- structure ------------------------------------------------------
    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target != self.source:
            raise ValueError("composition shape/twist mismatch")
        ring = self.source.ring
        rows = []
        for r in range(self.target.rank):
            row = []
            for c in range(other.source.rank):
                acc = ring.zero()
                for k in range(self.source.rank):
                    a = self.entries[r][k]
                    b = other.entries[k][c]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return PolyMatrix(other.source, self.target, rows)

    def transpose(self):
        return PolyMatrix(
            self.target.dual(),
            self.source.dual(),
            [
                [self.entries[c][r] for c in range(self.target.rank)]
                for r in range(self.source.rank)
            ],
            reduce=False,
        )

    def twisted(self, t):
        """Same entries between modules twisted by t."""
        return PolyMatrix(
            self.source.twist(t), self.target.twist(t), self.entries, reduce=False
        )

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("sum shape/twist mismatch")
        return PolyMatrix(
            self.source,
            self.target,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, scalar):
        return PolyMatrix(
            self.source,
            self.target,
            [[e.scale(scalar) for e in row] for row in self.entries],
            reduce=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.source == other.source
            and self.target == other.target
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def block_matrix(col_modules, row_modules, blocks):
    """Assemble a PolyMatrix from blocks[(i, j)]: col_modules[j] -> row_modules[i]."""
    source = direct_sum(col_modules)
    target = direct_sum(row_modules)
    ring = source.ring
    z = ring.zero()
    entries = [[z] * source.rank for _ in range(target.rank)]
    row_off = []
    pos = 0
    for m in row_modules:
        row_off.append(pos)
        pos += m.rank
    col_off = []
    pos = 0
    for m in col_modules:
        col_off.append(pos)
        pos += m.rank
    for (i, j), blk in blocks.items():
        if blk is None:
            continue
        if blk.source != col_modules[j] or blk.target != row_modules[i]:
            raise ValueError(f"block ({i},{j}) has wrong shape or twists")
        for r in range(blk.target.rank):
            for c in range(blk.source.rank):
                entries[row_off[i] + r][col_off[j] + c] = blk.entries[r][c]
    return PolyMatrix(source, target, entries)


class ChainComplex:
    """Window of a complex of graded free modules; d_i maps term_i to term_{i-1}.

    Immutable after construction: `dual`, `shift`, `twist` and `subwindow`
    return new complexes, so the rank store below never goes stale.
    """

    __slots__ = ("ring", "lo", "hi", "terms", "diffs", "_ranks")

    def __init__(self, ring, terms, diffs, validate=True):
        if not terms:
            raise ValueError("complex needs at least one term")
        self.ring = ring
        self.lo = min(terms)
        self.hi = max(terms)
        self.terms = dict(terms)
        for i in range(self.lo, self.hi + 1):
            if i not in self.terms:
                self.terms[i] = GradedFreeModule(ring, ())
        self.diffs = dict(diffs)
        self._ranks = {}  # (i, d) -> rank of d_i in internal degree d
        if validate:
            self._validate()

    def _validate(self):
        for i, d in self.diffs.items():
            if not (self.lo < i <= self.hi):
                raise ValueError(f"differential at {i} outside window")
            if d.source != self.term(i) or d.target != self.term(i - 1):
                raise DegreeMismatchError(
                    f"differential at {i} does not match its terms"
                )
        witness = d_squared_witness(self)
        if witness is not None:
            i, r, c, e = witness
            raise NotAComplexError(i, r, c, str(e))

    def term(self, i):
        return self.terms.get(i, GradedFreeModule(self.ring, ()))

    def diff(self, i):
        d = self.diffs.get(i)
        if d is None:
            return PolyMatrix.zero(self.term(i), self.term(i - 1))
        return d

    def rank(self, i, d):
        """Rank of d_i in internal degree d; its graded piece is built at most
        once per complex, and only the rank is kept. The rank at (i, d - 1)
        carries over, building nothing, when `_same_piece` shows the pieces
        equal, as past the regularity of a 1-dimensional R, where x_n is a
        nonzerodivisor and normal forms commute with it (Bayer-Stillman 1987)."""
        r = self._ranks.get((i, d))
        if r is None:
            r = self._ranks.get((i, d - 1))
            if r is None or not _same_piece(self.diff(i), d):
                r = graded_piece(self.diff(i), d).rank()
            self._ranks[(i, d)] = r
        return r

    @property
    def window(self):
        return (self.lo, self.hi)

    def dual(self):
        """Contravariant dual: term at -i is term_i dualized; the transpose of
        d_i sits at position 1-i with sign (-1)^i."""
        terms = {-i: self.term(i).dual() for i in range(self.lo, self.hi + 1)}
        diffs = {}
        for i, d in self.diffs.items():
            sign = -1 if i % 2 else 1
            diffs[1 - i] = d.transpose().scale(sign)
        return ChainComplex(self.ring, terms, diffs, validate=False)

    def shift(self, k):
        """term_i of the output is term_{i-k}; differentials pick up (-1)^k."""
        sign = -1 if k % 2 else 1
        terms = {i + k: m for i, m in self.terms.items()}
        diffs = {i + k: d.scale(sign) for i, d in self.diffs.items()}
        return ChainComplex(self.ring, terms, diffs, validate=False)

    def twist(self, t):
        terms = {i: m.twist(t) for i, m in self.terms.items()}
        diffs = {i: d.twisted(t) for i, d in self.diffs.items()}
        return ChainComplex(self.ring, terms, diffs, validate=False)

    def subwindow(self, lo, hi):
        terms = {i: self.term(i) for i in range(lo, hi + 1)}
        diffs = {i: self.diffs[i] for i in self.diffs if lo < i <= hi}
        sub = ChainComplex(self.ring, terms, diffs, validate=False)
        # the same matrices sit at lo < i <= hi, so their stored ranks hold
        sub._ranks = {key: r for key, r in self._ranks.items() if lo < key[0] <= hi}
        return sub

    def __repr__(self):
        ranks = " <- ".join(
            str(self.term(i).rank) for i in range(self.lo, self.hi + 1)
        )
        return f"ChainComplex[{self.lo},{self.hi}]({ranks})"


def _first_nonzero(matrix):
    """(row, col, entry) of the first nonzero entry, rows then columns
    ascending; None for the zero matrix."""
    for r, row in enumerate(matrix.entries):
        for c, e in enumerate(row):
            if not e.is_zero():
                return r, c, e
    return None


def d_squared_witness(complex_):
    """The first (i, r, c, entry) with entry (r, c) of d_{i-1} d_i nonzero,
    positions ascending; None when every product vanishes."""
    for i in range(complex_.lo + 2, complex_.hi + 1):
        witness = _first_nonzero(complex_.diff(i - 1).compose(complex_.diff(i)))
        if witness is not None:
            return (i, *witness)
    return None


def graded_piece(matrix, d):
    """Exact sparse F_p matrix of the degree-d component of a PolyMatrix.

    Rows and columns are ordered as in `DegreeLayout`: generator by
    generator, each through its ring's degree basis. Column (k, m) holds the
    coordinates of m times column k of the matrix, built in one pass from the
    ring's cached multiplication tables: an entry in row r with term a*mu
    adds a times slot j of table (mu, d + twist_k), m being basis monomial j,
    shifted by the offset of generator r. No product, normal form or layout
    key is formed per entry."""
    ring = matrix.source.ring
    p = ring.field.p
    dims = (ring.dim_degree(d + t) for t in matrix.target.twists)
    offsets = list(accumulate(dims, initial=0))  # one more: the row count
    columns = []
    for k, a in enumerate(matrix.source.twists):
        e = d + a
        n = ring.dim_degree(e)
        if not n:
            continue
        terms = [
            (offsets[r], coeff, ring._table(mu, e))
            for r, row in enumerate(matrix.entries)
            for mu, coeff in row[k].terms.items()
        ]
        for j in range(n):
            col = {}
            for off, coeff, table in terms:
                it = iter(table[j])
                for i, v in zip(it, it):
                    i += off
                    x = (col.get(i, 0) + coeff * v) % p
                    if x:
                        col[i] = x
                    else:
                        col.pop(i, None)
            columns.append(col)
    return FieldMatrix(offsets[-1], columns, p)


def _same_piece(matrix, d):
    """Whether graded_piece(matrix, d) equals graded_piece(matrix, d - 1).
    A piece reads only the dims (row offsets, column counts) and the tables
    of the entry terms, so it is enough that every dim, and then every table
    (mu, e) of a nonzero column, equals its value one degree lower."""
    ring = matrix.source.ring
    dim = ring.dim_degree
    if any(dim(d + t) != dim(d - 1 + t) for t in matrix.source.twists + matrix.target.twists):
        return False
    return all(
        ring._table(mu, d + a) == ring._table(mu, d - 1 + a)
        for k, a in enumerate(matrix.source.twists)
        if dim(d + a)
        for row in matrix.entries
        for mu in row[k].terms
    )


def _homology_dim(complex_, i, d, lo_zero=False, hi_zero=False):
    """dim H_i in internal degree d; missing boundary differentials are taken
    to be zero maps only when the corresponding *_zero flag says the complex
    genuinely ends there."""
    if i < complex_.lo or i > complex_.hi:
        raise WindowEdgeError(f"position {i} outside window {complex_.window}")
    dim_here = complex_.term(i).degree_dim(d)
    if i > complex_.lo:
        rank_out = complex_.rank(i, d)
    elif lo_zero:
        rank_out = 0
    else:
        raise WindowEdgeError(f"no differential out of position {i}")
    if i < complex_.hi:
        rank_in = complex_.rank(i + 1, d)
    elif hi_zero:
        rank_in = 0
    else:
        raise WindowEdgeError(f"no differential into position {i}")
    return dim_here - rank_out - rank_in


def homology_dims(complex_, i, degrees):
    """dim H_i per internal degree; requires i interior to the window."""
    if not (complex_.lo < i < complex_.hi):
        raise WindowEdgeError(
            f"position {i} is not interior to window {complex_.window}"
        )
    return [_homology_dim(complex_, i, d) for d in degrees]


def induced_rank(phi_i, D, i, d):
    """Rank in internal degree d of the map into H_i(D) induced by phi_i:
    rank [phi_i(d) | D.d_{i+1}(d)] - rank D.d_{i+1}(d). A missing d_{i+1}
    counts as the zero map; the boundary piece is built once and its rank
    goes into D's rank store."""
    image = graded_piece(phi_i, d)
    if i >= D.hi:
        return image.rank()
    boundary = graded_piece(D.diff(i + 1), d)
    rank_in = D._ranks.get((i + 1, d))
    if rank_in is None:
        rank_in = D._ranks[(i + 1, d)] = boundary.rank()
    stacked = FieldMatrix(image.shape[0], image.columns + boundary.columns, image.p)
    return stacked.rank() - rank_in


def _first_homology(complex_, positions, degrees):
    """First (i, d, dim) with dim H_i(complex_)_d != 0, sweeping `positions`
    (each interior to the window) in order and the degrees within each;
    None when all vanish."""
    for i in positions:
        for d in degrees:
            dim = _homology_dim(complex_, i, d)
            if dim:
                return i, d, dim
    return None


def _h0_dim(C, d):
    """dim H_0(C) in internal degree d, the complex ending at its window
    edges; 0 when position 0 lies outside the window."""
    if not C.lo <= 0 <= C.hi:
        return 0
    return _homology_dim(C, 0, d, lo_zero=True, hi_zero=True)


def _h0_iso_table(C, D, phi, degrees):
    """Per internal degree: dims of H_0 on both sides and the rank of the
    map induced by phi_0; an isomorphism shows as three equal numbers.
    Raises H0IsoError at the first degree where they differ."""
    table = {}
    for d in degrees:
        h0c = _h0_dim(C, d)
        # phi is a chain map, so the induced map factors through H_0(C) and
        # is 0 where H_0(C) is; taking it before H_0(D) lets induced_rank
        # store the d_1 rank of D from the one piece it builds
        induced = induced_rank(phi[0], D, 0, d) if h0c else 0
        h0d = _h0_dim(D, d)
        if not h0c == h0d == induced:
            raise H0IsoError(d, f"dim H_0 = {h0c} and {h0d}, induced rank = {induced}")
        table[d] = (h0c, h0d, induced)
    return table


def _content_degree_range(complex_, lo, hi, dmax):
    """Internal degrees from the lowest generator degree of terms lo..hi up
    to dmax; empty when those terms have no generator."""
    twists = [t for i in range(lo, hi + 1) for t in complex_.term(i).twists]
    return list(range(-max(twists), dmax + 1)) if twists else []


def is_minimal(complex_):
    """No differential entry with a nonzero constant term (degree-0 entry)."""
    return not any(
        not e.is_zero() and e.total_degree() == 0
        for d in complex_.diffs.values()
        for row in d.entries
        for e in row
    )


def certify(complex_, dmax):
    """The rows (name, passed, detail) d_squared_zero, acyclicity and
    minimality of complex_, and the internal degrees the acyclicity sweep
    covers: from the lowest generator degree up to dmax, at every interior
    position. A window with no interior position fails acyclicity."""
    witness = d_squared_witness(complex_)
    d2_detail = "all products vanish"
    if witness is not None:
        d2_detail = "d^2 != 0 at position {}: entry ({},{}) = {}".format(*witness)
    degrees = []
    if complex_.hi - complex_.lo < 2:
        failure = "WindowEdge: window too narrow to certify interior homology"
    else:
        degrees = _content_degree_range(complex_, complex_.lo, complex_.hi, dmax)
        failure = _first_homology(complex_, range(complex_.lo + 1, complex_.hi), degrees)
        if failure is not None:
            failure = "H_{} nonzero in degree {} (dim {})".format(*failure)
    minimal = is_minimal(complex_)
    rows = [
        ("d_squared_zero", witness is None, d2_detail),
        ("acyclicity", failure is None, failure or "interior homology vanishes"),
        ("minimality", minimal, "no unit entries" if minimal else "unit entry present"),
    ]
    return rows, degrees


def is_chain_map(phi, C, D):
    """Check d_D o phi_i == phi_{i-1} o d_C on every aligned square; raises
    NotChainMapError at the first nonzero entry of a failing square."""
    for i, f in phi.items():
        if f.source != C.term(i) or f.target != D.term(i):
            raise ValueError(f"component {i} has wrong source/target")
    for i in sorted(phi):
        if i - 1 not in phi and C.term(i - 1).rank and D.term(i - 1).rank:
            if C.lo < i and D.lo < i:
                raise ValueError(f"component {i-1} missing below component {i}")
        lhs = D.diff(i).compose(phi[i]) if D.lo < i <= D.hi else None
        rhs = (
            phi[i - 1].compose(C.diff(i))
            if (i - 1 in phi and C.lo < i <= C.hi)
            else None
        )
        if lhs is None and rhs is None:
            continue
        if lhs is None:
            diff = rhs
        elif rhs is None:
            diff = lhs
        else:
            diff = lhs - rhs
        witness = _first_nonzero(diff)
        if witness is not None:
            r, c, e = witness
            raise NotChainMapError(i, r, c, str(e))


def check_homotopy_identity(K, g, tau):
    """Check d tau + tau d = g id on every nonzero term of K, for tau
    {i: K_i -> K_{i+1} twisted by deg g}; a missing component counts as the
    zero map. Raises LiftIdentityError naming the first failing term."""
    Ktw = K.twist(g.total_degree())
    for i in range(K.lo, K.hi + 1):
        if K.term(i).rank == 0:
            continue
        lhs = PolyMatrix.zero(K.term(i), Ktw.term(i))
        if i < K.hi and i in tau:
            lhs = lhs + Ktw.diff(i + 1).compose(tau[i])
        if i > K.lo and i - 1 in tau:
            lhs = lhs + tau[i - 1].compose(K.diff(i))
        if lhs != PolyMatrix.scalar(K.term(i), g):
            raise LiftIdentityError(
                f"homotopy identity d tau + tau d = ({g}) id fails on term {i}"
            )


def mapping_cone(phi, C, D):
    """Cone of a degree-0 chain map phi: C -> D, which `is_chain_map`
    verifies first.

    cone_i = C_i (+) D_{i+1}; the phi block carries sign (-1)^i. Returns the
    complex together with a layout dict {i: rank of the C-part at i}.
    """
    is_chain_map(phi, C, D)
    ring = C.ring
    lo = min(C.lo, D.lo - 1)
    hi = max(C.hi, D.hi - 1)
    terms = {}
    layout = {}
    for i in range(lo, hi + 1):
        upper = D.term(i + 1)
        lower = C.term(i)
        terms[i] = GradedFreeModule(ring, lower.twists + upper.twists)
        layout[i] = lower.rank
    diffs = {}
    for i in range(lo + 1, hi + 1):
        sign = -1 if i % 2 else 1
        dC = C.diff(i) if C.lo < i <= C.hi else PolyMatrix.zero(C.term(i), C.term(i - 1))
        dD = (
            D.diff(i + 1)
            if D.lo < i + 1 <= D.hi
            else PolyMatrix.zero(D.term(i + 1), D.term(i))
        )
        f = phi.get(i)
        if f is None:
            f = PolyMatrix.zero(C.term(i), D.term(i))
        blocks = {(0, 0): dC, (1, 0): f.scale(sign), (1, 1): dD}
        diffs[i] = block_matrix(
            [C.term(i), D.term(i + 1)], [C.term(i - 1), D.term(i)], blocks
        )
        if diffs[i].source.rank == 0 and diffs[i].target.rank == 0:
            del diffs[i]
    # a cone of a chain map between complexes is a complex
    cone = ChainComplex(ring, terms, diffs, validate=False)
    return cone, layout


# --- serialization --------------------------------------------------------


def ring_to_doc(ring):
    doc = {
        "field_char": ring.field.p,
        "variables": list(ring.ctx.names),
    }
    if ring.modulus is not None:
        doc["modulus"] = [str(g) for g in ring.modulus.generators]
    return doc


def ring_from_doc(doc):
    field = PrimeField(doc["field_char"])
    ctx = VariableContext(doc["variables"])
    modulus = None
    if "modulus" in doc:
        gens = [parse_polynomial(s, ctx, field) for s in doc["modulus"]]
        if not gens:
            raise ValueError("empty modulus")
        # certified as stored, each element representing itself: no Buchberger
        units = [[Polynomial.constant(ctx, field, int(g is h)) for h in gens] for g in gens]
        modulus = GroebnerBasis(ctx, field, gens, units, gens, [g.total_degree() for g in gens])
    return BaseRing(ctx, field, modulus)


def complex_to_doc(complex_):
    return {
        "ring": ring_to_doc(complex_.ring),
        "window": [complex_.lo, complex_.hi],
        "terms": {
            str(i): list(complex_.term(i).twists)
            for i in range(complex_.lo, complex_.hi + 1)
        },
        "diffs": {
            str(i): [[str(e) for e in row] for row in d.entries]
            for i, d in sorted(complex_.diffs.items())
        },
    }


def complex_from_doc(doc, validate=True):
    ring = ring_from_doc(doc["ring"])
    lo, hi = doc["window"]
    terms = {
        int(i): GradedFreeModule(ring, twists) for i, twists in doc["terms"].items()
    }
    diffs = {}
    for i_str, rows in doc["diffs"].items():
        i = int(i_str)
        entries = [
            [parse_polynomial(s, ring.ctx, ring.field) for s in row] for row in rows
        ]
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], entries)
    return ChainComplex(ring, terms, diffs, validate=validate)
