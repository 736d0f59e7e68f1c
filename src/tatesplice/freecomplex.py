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

from itertools import accumulate, count
from operator import add

from .arith import Polynomial, PrimeField, VariableContext, _add_product, parse_polynomial
from .errors import (
    DegreeMismatchError,
    H0IsoError,
    LiftIdentityError,
    NotAComplexError,
    NotChainMapError,
    WindowEdgeError,
)
from .groebner import GroebnerBasis, times_complete_intersection
from .linalg import FieldMatrix


class BaseRing:
    """Ring tag: the quotient R = S/I of the polynomial ring S over F_p by the
    ideal of its `modulus`; S itself is the quotient by the empty basis.

    `graded_piece` reads a product monomial's normal form as one flat row
    (idx0, v0, idx1, v1, ...) in its degree's basis from the modulus's one row
    store (`GroebnerBasis.nf_row`). `_tables` maps (mu, e) to a list whose
    slot j is the shared row of mu times basis monomial j of degree e, so a
    table never copies a row.
    """

    __slots__ = ("ctx", "field", "modulus", "_tables", "_quotient")

    def __init__(self, ctx, field, modulus=None):
        self.ctx = ctx
        self.field = field
        self.modulus = modulus or _stored_basis(ctx, field, [])  # GroebnerBasis of I
        self._tables = {}
        self._quotient = None

    def regular_quotient(self):
        """(Rbar, killed, top), built once. Rbar = R/(x_n, ..., x_{n-k+1})
        kills the longest run of last variables that divide no lead monomial
        of the modulus: in grevlex each is then a nonzerodivisor modulo those
        after it, and the reduced basis with them set to 0, plus them, is the
        reduced basis of Rbar (Bayer-Stillman, Invent. Math. 87, 1987). So
        Rbar has R's Hilbert numerator times (1 - t)^k, which certifies that
        basis without S-pairs. killed names them; top is Rbar's top
        degree, or None unless Rbar is Artinian. Rbar is R when k = 0."""
        if self._quotient is None:
            ctx, field = self.ctx, self.field
            gens = self.modulus.generators
            leads = [g.leading_monomial() for g in gens]
            keep = ctx.nvars
            while keep and not any(l[keep - 1] for l in leads):
                keep -= 1
            ring = self
            if keep < ctx.nvars:
                cut = [{e: c for e, c in g.terms.items() if not any(e[keep:])} for g in gens]
                gens = [Polynomial(ctx, field, t) for t in cut]
                gens += [Polynomial.variable(ctx, field, v) for v in ctx.names[keep:]]
                numerator = times_complete_intersection(
                    self.modulus.hilbert_numerator(), [1] * (ctx.nvars - keep)
                )
                ring = BaseRing(ctx, field, _stored_basis(ctx, field, gens, numerator))
            top = None  # Artinian iff every variable kept has a pure power lead
            if all(any(l[v] and l[v] == sum(l) for l in leads) for v in range(keep)):
                top = next(d for d in count() if not ring.dim_degree(d)) - 1
            self._quotient = ring, ctx.names[keep:], top
        return self._quotient

    def reduce(self, poly):
        return self.modulus.normal_form(poly)

    def degree_basis(self, d):
        """Monomial basis of the degree-d piece, descending grevlex."""
        return self.modulus.quotient_degree_basis(d).monomials

    def dim_degree(self, d):
        return len(self.modulus.quotient_degree_basis(d))

    def _table(self, mu, e):
        table = self._tables.get((mu, e))
        if table is None:
            row = self.modulus.nf_row
            table = self._tables[(mu, e)] = [
                row(tuple(map(add, mu, m))) for m in self.degree_basis(e)
            ]
        return table

    def zero(self):
        return Polynomial.zero(self.ctx, self.field)

    def one(self):
        return Polynomial.constant(self.ctx, self.field, 1)

    def __eq__(self, other):
        if not isinstance(other, BaseRing):
            return NotImplemented
        return (self.ctx, self.field, self.modulus.generators) == (
            other.ctx, other.field, other.modulus.generators
        )

    def __hash__(self):
        return hash((self.ctx, self.field, self.modulus.generators))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.modulus.generators)
        return f"F_{self.field.p}[{','.join(self.ctx.names)}]/({gens})"


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

    def coordinates(self, column):
        """Sparse coordinates {index: value} of an element given as a sparse
        column {generator: polynomial}."""
        ring = self.module.ring
        vec = {}
        for k, poly in column.items():
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
        """Inverse of coordinates: a sparse column {generator: polynomial},
        generators ascending."""
        ring = self.module.ring
        polys = {}
        for idx in sorted(vec):
            k, mono = self.labels[idx]
            polys.setdefault(k, {})[mono] = vec[idx]
        return {k: Polynomial(ring.ctx, ring.field, t) for k, t in polys.items()}


class PolyMatrix:
    """Degree-compatible polynomial matrix between graded free modules.

    Only nonzero entries are stored: `columns[c]` maps row r to entry (r, c),
    rows ascending, each in normal form over a quotient ring. The constructor
    checks every entry; `_derived` checks none, for the matrices whose entries
    come from checked ones (`scale`, `transpose`, `twisted`, `block_matrix`,
    `compose` and `ChainComplex.reduced`).
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns, reduce=True):
        if source.ring != target.ring:
            raise ValueError("source and target over different rings")
        self.source = source
        self.target = target
        ring = source.ring
        if len(columns) != source.rank:
            raise ValueError("column count does not match source rank")
        cols = []
        for c, column in enumerate(columns):
            col = {}
            for r in sorted(column):
                e = column[r]
                if reduce:
                    e = ring.reduce(e)
                if e.is_zero():
                    continue
                if not 0 <= r < target.rank:
                    raise ValueError(f"row {r} outside target rank {target.rank}")
                want = target.twists[r] - source.twists[c]
                if any(sum(m) != want for m in e.terms):
                    raise DegreeMismatchError(
                        f"entry ({r},{c}) = {e} must be homogeneous of degree {want}"
                    )
                col[r] = e
            cols.append(col)
        self.columns = tuple(cols)

    # --- constructors ---------------------------------------------------
    @classmethod
    def _derived(cls, source, target, columns):
        """The matrix with these columns as given, each already as the
        constructor would store it."""
        matrix = object.__new__(cls)
        matrix.source = source
        matrix.target = target
        matrix.columns = tuple(columns)
        return matrix

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{}] * source.rank, reduce=False)

    @classmethod
    def identity(cls, module):
        return cls.scalar(module, module.ring.one())

    @classmethod
    def scalar(cls, module, poly):
        """poly * identity, landing in the module twisted by deg(poly)."""
        d = poly.total_degree()
        if d is None:
            return cls.zero(module, module)
        return cls(module, module.twist(d), [{c: poly} for c in range(module.rank)])

    @property
    def entries(self):
        """Read-only dense view: rows of entries, zeros included."""
        zero = self.source.ring.zero()
        rows = [[zero] * self.source.rank for _ in range(self.target.rank)]
        for c, col in enumerate(self.columns):
            for r, e in col.items():
                rows[r][c] = e
        return tuple(map(tuple, rows))

    # --- structure ------------------------------------------------------
    def is_zero(self):
        return not any(self.columns)

    def compose(self, other):
        """self o other (apply other first)."""
        return _sum_of_products(other.source, self.target, [(1, self, other)])

    def transpose(self, sign=1):
        """The transpose between the dual modules, its entries times `sign`
        (1 or -1), in one construction."""
        rows = [{} for _ in range(self.target.rank)]
        for c, col in enumerate(self.columns):
            for r, e in col.items():
                rows[r][c] = e if sign == 1 else -e
        return PolyMatrix._derived(self.target.dual(), self.source.dual(), rows)

    def twisted(self, t):
        """Same entries between modules twisted by t."""
        return PolyMatrix._derived(self.source.twist(t), self.target.twist(t), self.columns)

    def scale(self, scalar):
        """Every entry times `scalar`: the matrix itself for 1, no entry for 0."""
        s = scalar % self.source.ring.field.p
        if s == 1:
            return self
        return PolyMatrix._derived(
            self.source,
            self.target,
            [{r: e.scale(s) for r, e in col.items()} if s else {} for col in self.columns],
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.source == other.source
            and self.target == other.target
            and self.columns == other.columns
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def _sum_of_products(source, target, products):
    """The PolyMatrix source -> target of sum(sign * (a o b)) over `products`
    (sign, a, b): every product of entries lands unreduced in one term dict
    per entry, which the modulus's kernel then reduces once. Products and
    normal forms keep the degrees, so only vanishing entries are dropped."""
    if any((a.source, a.target, b.source) != (b.target, target, source) for _, a, b in products):
        raise ValueError("composition shape/twist mismatch")
    ring = source.ring
    reduce = ring.modulus.reduce_terms
    columns = []
    for c in range(source.rank):
        col = {}
        for sign, a, b in products:
            for k, y in b.columns[c].items():
                for r, x in a.columns[k].items():
                    _add_product(col.setdefault(r, {}), x.terms, y.terms, sign)
        entries = ((r, Polynomial(ring.ctx, ring.field, reduce(col[r]))) for r in sorted(col))
        columns.append({r: e for r, e in entries if e.terms})
    return PolyMatrix._derived(source, target, columns)


def block_matrix(col_modules, row_modules, blocks):
    """Assemble a PolyMatrix from blocks[(i, j)]: col_modules[j] -> row_modules[i],
    taken by row index so that each column's rows stay ascending."""
    source = direct_sum(col_modules)
    target = direct_sum(row_modules)
    row_off = list(accumulate((m.rank for m in row_modules), initial=0))
    col_off = list(accumulate((m.rank for m in col_modules), initial=0))
    columns = [{} for _ in range(source.rank)]
    for (i, j), blk in sorted(blocks.items()):
        if blk is None:
            continue
        if blk.source != col_modules[j] or blk.target != row_modules[i]:
            raise ValueError(f"block ({i},{j}) has wrong shape or twists")
        for c, col in enumerate(blk.columns):
            columns[col_off[j] + c].update((row_off[i] + r, e) for r, e in col.items())
    return PolyMatrix._derived(source, target, columns)


class ChainComplex:
    """Window of a complex of graded free modules; d_i maps term_i to term_{i-1}.
    The constructor checks nothing; `require_complex` checks shapes and d^2.

    Immutable after construction: `dual`, `shift`, `twist` and `subwindow`
    return new complexes, so neither the rank store below nor the record of
    positions i whose product d_{i-1} d_i was found zero goes stale.
    """

    __slots__ = ("ring", "lo", "hi", "terms", "diffs", "_ranks", "_reduced", "_checked")

    def __init__(self, ring, terms, diffs):
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
        self._reduced = None  # the complex over ring.regular_quotient()
        self._checked = set()  # i with d_{i-1} d_i found zero (`d_squared_witness`)

    def term(self, i):
        return self.terms.get(i, GradedFreeModule(self.ring, ()))

    def diff(self, i):
        d = self.diffs.get(i)
        if d is None:
            return PolyMatrix.zero(self.term(i), self.term(i - 1))
        return d

    def rank(self, i, d):
        """Rank of d_i in internal degree d; its graded piece is built at most
        once per complex, and none is built when its source or target
        vanishes. Only the rank is kept."""
        r = self._ranks.get((i, d))
        if r is None:
            m = self.diff(i)
            r = 0
            if m.source.degree_dim(d) and m.target.degree_dim(d):
                r = graded_piece(m, d).rank()
            self._ranks[(i, d)] = r
        return r

    def reduced(self):
        """This complex over Rbar = `ring.regular_quotient()`, entries in
        normal form there, built once with its own rank store; the complex
        itself when Rbar is its ring.

        Each entry drops every term that contains a killed variable, and
        nothing else: an entry over R is in normal form, so its monomials are
        standard, and Rbar's lead ideal is R's plus the killed variables
        (`regular_quotient`), so the terms left are already Rbar's normal
        form, which `base_change` would compute term by term; an entry left
        with no term goes."""
        ring, killed, _ = self.ring.regular_quotient()
        if ring is self.ring:
            return self
        if self._reduced is None:
            keep = ring.ctx.nvars - len(killed)  # the killed variables are the last
            ctx, field = ring.ctx, ring.field

            def cut(col):
                out = {}
                for r, e in col.items():
                    kept = {m: a for m, a in e.terms.items() if not any(m[keep:])}
                    if len(kept) == len(e.terms):
                        out[r] = e
                    elif kept:
                        out[r] = Polynomial(ctx, field, kept)
                return out

            terms = {i: GradedFreeModule(ring, m.twists) for i, m in self.terms.items()}
            diffs = {
                i: PolyMatrix._derived(terms[i], terms[i - 1], map(cut, d.columns))
                for i, d in self.diffs.items()
            }
            self._reduced = ChainComplex(ring, terms, diffs)
        return self._reduced

    @property
    def window(self):
        return (self.lo, self.hi)

    def dual(self):
        """Contravariant dual: term at -i is term_i dualized; the transpose of
        d_i sits at position 1-i with sign (-1)^i."""
        terms = {-i: self.term(i).dual() for i in range(self.lo, self.hi + 1)}
        diffs = {1 - i: d.transpose(-1 if i % 2 else 1) for i, d in self.diffs.items()}
        return ChainComplex(self.ring, terms, diffs)

    def shift(self, k):
        """term_i of the output is term_{i-k}; differentials pick up (-1)^k."""
        sign = -1 if k % 2 else 1
        terms = {i + k: m for i, m in self.terms.items()}
        diffs = {i + k: d.scale(sign) for i, d in self.diffs.items()}
        return ChainComplex(self.ring, terms, diffs)

    def twist(self, t):
        terms = {i: m.twist(t) for i, m in self.terms.items()}
        diffs = {i: d.twisted(t) for i, d in self.diffs.items()}
        return ChainComplex(self.ring, terms, diffs)

    def subwindow(self, lo, hi):
        """Terms lo..hi and the differentials between them, with the ranks
        stored for those differentials and the record of the products
        d_{i-1} d_i among them found zero: the same matrices sit at
        lo < i <= hi, so both still hold."""
        terms = {i: self.term(i) for i in range(lo, hi + 1)}
        diffs = {i: self.diffs[i] for i in self.diffs if lo < i <= hi}
        sub = ChainComplex(self.ring, terms, diffs)
        sub._ranks = {key: r for key, r in self._ranks.items() if lo < key[0] <= hi}
        sub._checked = {i for i in self._checked if lo + 2 <= i <= hi}
        if self._reduced is not None:
            sub._reduced = self._reduced.subwindow(lo, hi)
        return sub

    def __repr__(self):
        ranks = " <- ".join(
            str(self.term(i).rank) for i in range(self.lo, self.hi + 1)
        )
        return f"ChainComplex[{self.lo},{self.hi}]({ranks})"


def base_change(complex_, ring):
    """complex_ over `ring`: the same twists, entries in normal form there."""
    terms = {i: GradedFreeModule(ring, m.twists) for i, m in complex_.terms.items()}
    diffs = {
        i: PolyMatrix(terms[i], terms[i - 1], d.columns) for i, d in complex_.diffs.items()
    }
    return ChainComplex(ring, terms, diffs)


def require_complex(C):
    """C itself, once every differential lies inside the window between its
    terms (else ValueError or DegreeMismatchError) and every product
    d_{i-1} d_i vanishes (else NotAComplexError at `d_squared_witness`)."""
    for i, d in C.diffs.items():
        if not (C.lo < i <= C.hi):
            raise ValueError(f"differential at {i} outside window")
        if d.source != C.term(i) or d.target != C.term(i - 1):
            raise DegreeMismatchError(f"differential at {i} does not match its terms")
    witness = d_squared_witness(C)
    if witness is not None:
        i, r, c, e = witness
        raise NotAComplexError(i, r, c, str(e))
    return C


def _first_nonzero(matrix):
    """(row, col, entry) of the first nonzero entry, rows then columns
    ascending; None for the zero matrix."""
    firsts = [(next(iter(col)), c) for c, col in enumerate(matrix.columns) if col]
    if not firsts:
        return None
    r, c = min(firsts)
    return r, c, matrix.columns[c][r]


def d_squared_witness(complex_, positions=None):
    """The first (i, r, c, entry) with entry (r, c) of d_{i-1} d_i nonzero,
    i ascending through `positions` (by default lo + 2 <= i <= hi, every
    product inside the window); None when every product vanishes. The complex
    records each i whose product is zero, and a recorded product is not
    formed again."""
    if positions is None:
        positions = range(complex_.lo + 2, complex_.hi + 1)
    for i in positions:
        if i in complex_._checked:
            continue
        witness = _first_nonzero(complex_.diff(i - 1).compose(complex_.diff(i)))
        if witness is not None:
            return (i, *witness)
        complex_._checked.add(i)
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
    for a, column in zip(matrix.source.twists, matrix.columns):
        e = d + a
        n = ring.dim_degree(e)
        if not n:
            continue
        terms = [
            (offsets[r], coeff, ring._table(mu, e))
            for r, entry in column.items()
            for mu, coeff in entry.terms.items()
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


def acyclicity_sweep(complex_, positions, dmax, quotient=True):
    """Sweep H_i(complex_ (x) Rbar) at `positions`, interior to the window,
    Rbar being `ring.regular_quotient()` (the ring itself without
    `quotient`). H_i(F/xF) = 0 for a nonzerodivisor x of degree 1 makes x
    onto on H_i(F), by the long exact sequence of 0 -> F(-1) -> F -> F/xF,
    so H_i(F) = 0 in every degree (graded Nakayama). Position i is swept
    from its lowest generator degree up to its highest plus Rbar's top
    degree or, when Rbar is not Artinian, up to dmax. Returns the first
    (i, d, dim) with nonzero homology or None, and the coverage
    {"degrees": span swept, [] when none, "killed_variables": names}."""
    _, killed, top = complex_.ring.regular_quotient() if quotient else (None, (), None)
    ranges = {}
    for i in positions:
        twists = complex_.term(i).twists
        if twists:
            end = dmax if top is None else top - min(twists)
            ranges[i] = range(-max(twists), end + 1)
    spans = [r for r in ranges.values() if r]
    coverage = {
        "degrees": [min(r[0] for r in spans), max(r[-1] for r in spans)] if spans else [],
        "killed_variables": list(killed),
    }
    bar = complex_.reduced() if quotient else complex_
    for i, degrees in ranges.items():
        for d in degrees:
            dim = _homology_dim(bar, i, d)
            if dim:
                return (i, d, dim), coverage
    return None, coverage


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
        e.total_degree() == 0
        for d in complex_.diffs.values()
        for col in d.columns
        for e in col.values()
    )


def certify(complex_, dmax, quotient=True):
    """The rows (name, passed, detail) d_squared_zero, acyclicity and
    minimality of complex_, and the coverage of its `acyclicity_sweep` at
    every interior position. d^2 and minimality are checked over the
    complex's own ring; a product the complex records as checked (a window
    cut from a cone whose products `tate._splice` checked) is not formed
    again. A window with no interior position, or a sweep that covers no
    degree, fails acyclicity."""
    witness = d_squared_witness(complex_)
    d2_detail = "all products vanish"
    if witness is not None:
        d2_detail = "d^2 != 0 at position {}: entry ({},{}) = {}".format(*witness)
    positions = range(complex_.lo + 1, complex_.hi)
    failure, coverage = acyclicity_sweep(complex_, positions, dmax, quotient)
    if not positions:
        failure = "WindowEdge: window too narrow to certify interior homology"
    elif not coverage["degrees"]:
        failure = "the sweep covers no degree"
    elif failure is not None:
        failure = "H_{} nonzero in degree {} (dim {})".format(*failure)
    minimal = is_minimal(complex_)
    rows = [
        ("d_squared_zero", witness is None, d2_detail),
        ("acyclicity", failure is None, failure or "interior homology vanishes"),
        ("minimality", minimal, "no unit entries" if minimal else "unit entry present"),
    ]
    return rows, coverage


def is_chain_map(phi, C, D):
    """Check that phi: C -> D is a chain map, and C and D complexes, by the
    one d^2 check of their cone (`mapping_cone`): every square of phi is a
    block of the cone's d^2. Raises at its first nonzero entry
    (`_raise_d_squared`)."""
    witness = d_squared_witness(mapping_cone(phi, C, D)[0])
    if witness is not None:
        _raise_d_squared(C, *witness)


def _raise_d_squared(C, i, r, c, e):
    """Raise for a nonzero entry (r, c) = e of d_{i-1} d_i of the cone of
    phi: C -> D, in the coordinates of the block it lies in. The block
    D_{i-1} <- C_i is (-1)^i times d_D phi_i - phi_{i-1} d_C, the square of
    phi at i, which raises NotChainMapError with the square's entry; the
    blocks C_{i-2} <- C_i and D_{i-1} <- D_{i+1} are the products at i of C
    and at i + 1 of D, which raise NotAComplexError."""
    rows, cols = C.term(i - 2).rank, C.term(i).rank
    if r < rows:
        raise NotAComplexError(i, r, c, str(e))
    if c >= cols:
        raise NotAComplexError(i + 1, r - rows, c - cols, str(e))
    raise NotChainMapError(i, r - rows, c, str(-e if i % 2 else e))


def check_homotopy_identity(K, g, tau):
    """Check d tau + tau d = g id on every nonzero term of K, for tau
    {i: K_i -> K_{i+1} twisted by deg g}; a missing component counts as the
    zero map. Raises LiftIdentityError naming the first failing term."""
    Ktw = K.twist(g.total_degree())
    for i in range(K.lo, K.hi + 1):
        if K.term(i).rank == 0:
            continue
        products = [(1, Ktw.diff(i + 1), tau[i])] if i < K.hi and i in tau else []
        if i > K.lo and i - 1 in tau:
            products.append((1, tau[i - 1], K.diff(i)))
        if _sum_of_products(K.term(i), Ktw.term(i), products) != PolyMatrix.scalar(K.term(i), g):
            raise LiftIdentityError(
                f"homotopy identity d tau + tau d = ({g}) id fails on term {i}"
            )


def mapping_cone(phi, C, D):
    """Cone of a degree-0 map phi: C -> D, assembled without a check.

    cone_i = C_i (+) D_{i+1}; the phi block carries sign (-1)^i. Returns the
    complex together with a layout dict {i: rank of the C-part at i}. The
    cone's d_{i-1} d_i has the blocks d_C^2 (C_{i-2} <- C_i), d_D^2
    (D_{i-1} <- D_{i+1}) and (-1)^i (d_D phi_i - phi_{i-1} d_C), the square
    of phi at i (D_{i-1} <- C_i), so one d^2 check of the cone checks C, D
    and phi at once (`is_chain_map` and `tate._splice` run it).
    """
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
    cone = ChainComplex(ring, terms, diffs)
    return cone, layout


# --- serialization --------------------------------------------------------


def ring_to_doc(ring):
    doc = {
        "field_char": ring.field.p,
        "variables": list(ring.ctx.names),
    }
    if ring.modulus.generators:
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
        if any(g.total_degree() == 0 for g in gens):
            raise ValueError("modulus generates the unit ideal")
        modulus = _stored_basis(ctx, field, gens)
    return BaseRing(ctx, field, modulus)


def _stored_basis(ctx, field, gens, numerator=None):
    """The GroebnerBasis of `gens` as given, each element representing
    itself; its constructor certifies it, by `numerator` when that is given,
    and no Buchberger runs."""
    units = [[Polynomial.constant(ctx, field, int(g is h)) for h in gens] for g in gens]
    return GroebnerBasis(ctx, field, gens, units, gens, numerator)


def matrix_to_doc(matrix):
    """(entries, rows) as a document stores a PolyMatrix: for each column, the
    strings of its nonzero entries and their row indices, rows ascending."""
    columns = matrix.columns
    return (
        [[str(e) for e in col.values()] for col in columns],
        [list(col) for col in columns],
    )


def complex_to_doc(complex_):
    diffs = {str(i): matrix_to_doc(d) for i, d in sorted(complex_.diffs.items())}
    return {
        "ring": ring_to_doc(complex_.ring),
        "window": [complex_.lo, complex_.hi],
        "terms": {
            str(i): list(complex_.term(i).twists)
            for i in range(complex_.lo, complex_.hi + 1)
        },
        "diffs": {i: entries for i, (entries, _) in diffs.items()},
        "rows": {i: rows for i, (_, rows) in diffs.items()},
    }


def complex_from_doc(doc, validate=True):
    """The complex `complex_to_doc` wrote; ValueError unless every twist is an
    int (a bool is not), the window is the least and greatest position, and
    `rows` gives each entry of `diffs` an int row index below the target rank.
    Each distinct entry string is parsed and reduced once."""
    ring = ring_from_doc(doc["ring"])
    terms = {}
    for i, twists in doc["terms"].items():
        if any(type(t) is not int for t in twists):
            raise ValueError(f"twists at position {i} must be integers, got {twists!r}")
        terms[int(i)] = GradedFreeModule(ring, twists)
    if doc["window"] != [min(terms), max(terms)] or any(type(v) is not int for v in doc["window"]):
        raise ValueError(f"window {doc['window']!r} is not the least and greatest term position")
    diffs, parsed = {}, {}
    for i_str, columns in doc["diffs"].items():
        i, rows = int(i_str), doc["rows"][i_str]
        if len(rows) != len(columns) or any(len(r) != len(c) for r, c in zip(rows, columns)):
            raise ValueError(f"rows {i_str} and diffs {i_str} differ in shape")
        rank = terms[i - 1].rank
        if any(type(r) is not int or not 0 <= r < rank for col in rows for r in col):
            raise ValueError(f"rows {i_str} must hold integers from 0 to {rank - 1}")
        for s in (s for col in columns for s in col if s not in parsed):
            parsed[s] = ring.reduce(parse_polynomial(s, ring.ctx, ring.field))
        cols = [dict(zip(r, map(parsed.__getitem__, c))) for r, c in zip(rows, columns)]
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], cols, reduce=False)
    complex_ = ChainComplex(ring, terms, diffs)
    return require_complex(complex_) if validate else complex_
