"""Buchberger's algorithm, normal forms, lifting, and graded quotient bases.

Everything is homogeneous and uses the global grevlex order. Gröbner bases
track representations of their elements over the original generators so that
membership certificates can be re-expressed in the input sequence.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb

from .arith import (
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .errors import InhomogeneousInputError, NotInIdealError, SelfCheckError

_MAX_LEAD_GENERATORS = 24


def _require_homogeneous(polys):
    for p in polys:
        if not p.is_homogeneous():
            raise InhomogeneousInputError(f"{p} is not homogeneous")


def divide_tracking(f, divisors):
    """Multivariate division of f by monic divisors, in fixed order.

    Returns (quotients, remainder) with f == sum(q_k * divisors[k]) + remainder
    and no remainder term divisible by any divisor lead monomial. Deterministic:
    the leading term of the running polynomial is always processed next, against
    the first divisor whose lead monomial divides it.

    The running polynomial is one mutable term dict, and a heap of negated
    grevlex keys yields its leading term (cf. Monagan-Pearce, CASC 2007). A
    heap entry whose term has since cancelled is skipped when popped. With
    monic divisors each step only adds terms below the one it removes, so no
    monomial is processed twice.
    """
    p = f.field.p
    leads = [d.leading_monomial() for d in divisors]
    tails = [
        [(e, c) for e, c in d.terms.items() if e != lead]
        for d, lead in zip(divisors, leads)
    ]
    work = dict(f.terms)
    heap = [_heap_key(e) for e in work]
    heapify(heap)
    quotients = [{} for _ in divisors]
    remainder = {}
    while heap:
        lm = heappop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        for k, dlm in enumerate(leads):
            if monomial_divides(dlm, lm):
                q = monomial_div(lm, dlm)
                quotients[k][q] = lc
                for e, c in tails[k]:
                    m = monomial_mul(e, q)
                    v = work.get(m)
                    if v is None:
                        work[m] = -lc * c % p
                        heappush(heap, _heap_key(m))
                    else:
                        v = (v - lc * c) % p
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                break
        else:
            remainder[lm] = lc
    ring, field = f.ring, f.field
    return (
        [Polynomial(ring, field, q) for q in quotients],
        Polynomial(ring, field, remainder),
    )


def _heap_key(expo):
    """(negated grevlex key, expo): the heap minimum is the grevlex maximum."""
    return (-sum(expo), expo[::-1]), expo


@lru_cache(maxsize=None)
def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending grevlex order."""
    def gen(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from gen(prefix + (e,), remaining - e, slots - 1)

    monos = list(gen((), d, nvars))
    monos.sort(key=grevlex_key, reverse=True)
    return tuple(monos)


def hilbert_dim_from_leads(leads, nvars, d):
    """dim_F (S / lead-term ideal)_d by inclusion-exclusion over generator lcms."""
    if d < 0:
        return 0
    leads = tuple(leads)
    if len(leads) > _MAX_LEAD_GENERATORS:
        raise ValueError("too many lead-term generators for inclusion-exclusion")
    return sum(
        n * comb(d - k + nvars - 1, nvars - 1)
        for k, n in _hilbert_numerator(leads, nvars).items()
        if k <= d
    )


@lru_cache(maxsize=None)
def _hilbert_numerator(leads, nvars):
    """{k: n_k}, the signed count of lead-monomial subsets whose lcm has
    degree k: the Hilbert series of S / (leads) is sum n_k t^k / (1 - t)^nvars."""
    counts = {}
    for mask in range(1 << len(leads)):
        lcm = (0,) * nvars
        sign = 1
        m = mask
        i = 0
        while m:
            if m & 1:
                lcm = monomial_lcm(lcm, leads[i])
                sign = -sign
            m >>= 1
            i += 1
        k = sum(lcm)
        counts[k] = counts.get(k, 0) + sign
    return {k: n for k, n in counts.items() if n}


def lead_ideal_dimension(leads, nvars):
    """Krull dimension of S / (monomial ideal): size of the largest variable
    subset containing no generator's support. Returns -1 for the unit ideal."""
    supports = [frozenset(i for i, e in enumerate(mono) if e) for mono in leads]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, -1, -1):
        for mask in range(1 << nvars):
            if bin(mask).count("1") != size:
                continue
            subset = {i for i in range(nvars) if mask >> i & 1}
            if all(not s <= subset for s in supports):
                return size
    return 0


class QuotientDegreeBasis:
    """Field basis of (S/I)_degree: normal-form monomials, descending grevlex."""

    __slots__ = ("degree", "monomials", "index")

    def __init__(self, degree, monomials):
        self.degree = degree
        self.monomials = tuple(monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)


class GroebnerBasis:
    """Reduced monic Gröbner basis with representation tracking.

    Every generator records a vector over the original input sequence.
    Construction certifies the basis, computed or given: monic, homogeneous,
    inter-reduced generators, generator == sum(rep_i * original_i), and every
    S-pair reducing to zero. `nf_row` is the one memoized normal-form kernel.
    """

    def __init__(self, ring, field, generators, representations, originals, ideal_degrees):
        self.ring = ring
        self.field = field
        self.generators = tuple(generators)
        self.representations = tuple(tuple(r) for r in representations)
        self.originals = tuple(originals)
        self.ideal_degrees = tuple(ideal_degrees)
        self._leads = [(g.leading_monomial(), g.terms) for g in self.generators]
        self._rows = {}
        self._qbasis_cache = {}
        self._certify()

    def _certify(self):
        _require_homogeneous(self.generators)
        leads = self.lead_monomials()
        for g, rep in zip(self.generators, self.representations):
            if g.leading_coefficient() != 1:
                raise SelfCheckError("basis element not monic")
            acc = Polynomial.zero(self.ring, self.field)
            for q, orig in zip(rep, self.originals):
                acc = acc + q * orig
            if acc != g:
                raise SelfCheckError("representation identity fails")
        for i, g in enumerate(self.generators):
            # a lead divides no term of g but lead(g), which only its own divides
            if any(sum(monomial_divides(l, e) for l in leads) != (e == leads[i]) for e in g.terms):
                raise SelfCheckError("basis not fully inter-reduced")
            for j in range(i + 1, len(self.generators)):
                if not self.normal_form(_spoly(g, (), self.generators[j], ())[0]).is_zero():
                    raise SelfCheckError("S-pair does not reduce to zero")

    def lead_monomials(self):
        return tuple(g.leading_monomial() for g in self.generators)

    def nf_row(self, mono):
        """Normal form of the monomial `mono`, memoized, as a flat row (idx0,
        v0, idx1, v1, ...) in its degree's quotient basis. A standard monomial
        is (index, 1); any other m is q * lead(g_k) for the first such k, and
        its row is -sum c * row(q*t) over the tail terms c*t of g_k. Each q*t
        lies below m in the same degree, so a stack fills those rows first."""
        rows = self._rows
        if mono in rows:
            return rows[mono]
        index = self.quotient_degree_basis(sum(mono)).index
        p, stack = self.field.p, [mono]
        while stack:
            m = stack[-1]
            if m in index:
                rows[stack.pop()] = (index[m], 1)
                continue
            lead, terms = next(lt for lt in self._leads if monomial_divides(lt[0], m))
            q = monomial_div(m, lead)
            parts = [(monomial_mul(q, t), c) for t, c in terms.items() if t != lead]
            missing = [u for u, _ in parts if u not in rows]
            if missing:
                stack += missing
                continue
            acc = {}
            for u, c in parts:
                it = iter(rows[u])
                for j, v in zip(it, it):
                    acc[j] = (acc.get(j, 0) - c * v) % p
            rows[stack.pop()] = tuple(x for j, v in acc.items() if v for x in (j, v))
        return rows[mono]

    def normal_form(self, poly):
        """Remainder modulo the basis: the sum of coeff * nf_row(mono) over
        the terms of poly, read back through each degree's quotient basis."""
        p, out, bases = self.field.p, {}, {}
        for expo, coeff in poly.terms.items():
            d = sum(expo)
            if d not in bases:
                bases[d] = self.quotient_degree_basis(d).monomials
            monos, it = bases[d], iter(self.nf_row(expo))
            for j, v in zip(it, it):
                out[monos[j]] = (out.get(monos[j], 0) + coeff * v) % p
        return Polynomial(self.ring, self.field, out)

    def is_member(self, poly):
        return self.normal_form(poly).is_zero()

    def quotient_degree_basis(self, d):
        """All normal-form monomials of degree d, checked against the
        inclusion-exclusion Hilbert count of the lead-term ideal."""
        if d < 0:
            return QuotientDegreeBasis(d, ())
        cached = self._qbasis_cache.get(d)
        if cached is not None:
            return cached
        leads = self.lead_monomials()
        monos = [
            m
            for m in monomials_of_degree(self.ring.nvars, d)
            if not any(monomial_divides(l, m) for l in leads)
        ]
        expected = hilbert_dim_from_leads(leads, self.ring.nvars, d)
        if len(monos) != expected:
            raise SelfCheckError(
                f"quotient basis in degree {d} has {len(monos)} monomials, "
                f"Hilbert count expects {expected}"
            )
        basis = QuotientDegreeBasis(d, monos)
        self._qbasis_cache[d] = basis
        return basis

    def dimension(self):
        return lead_ideal_dimension(self.lead_monomials(), self.ring.nvars)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis({gens})"


def _spoly(f, rep_f, g, rep_g):
    """The S-polynomial of f and g, and its representation from theirs."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    uf, ug = monomial_div(lcm, lf), monomial_div(lcm, lg)
    s = f.term_mul(uf) - g.term_mul(ug)
    rep = [a.term_mul(uf) - b.term_mul(ug) for a, b in zip(rep_f, rep_g)]
    return s, rep


def buchberger(gens):
    """Reduced Gröbner basis in grevlex with the normal selection strategy.

    Pairs are processed by (lcm total degree, pair index); output is
    deterministic for a fixed input order.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    ring, field = gens[0].ring, gens[0].field
    for g in gens:
        if g.ring != ring or g.field != field:
            raise InhomogeneousInputError("mixed contexts in generating set")
    _require_homogeneous(gens)

    def unit_vector(i, scale=1):
        return [
            Polynomial.constant(ring, field, scale) if j == i else Polynomial.zero(ring, field)
            for j in range(len(gens))
        ]

    basis = []  # (monic poly, representation over gens)
    pairs = []  # heap of (lcm total degree, (i, j)); keys are unique

    def add_element(poly, rep):
        inv = field.inv(poly.leading_coefficient())
        poly = poly.scale(inv)
        rep = [r.scale(inv) for r in rep]
        k = len(basis)
        basis.append((poly, rep))
        lead = poly.leading_monomial()
        for i in range(k):
            lcm = monomial_lcm(basis[i][0].leading_monomial(), lead)
            heappush(pairs, (sum(lcm), (i, k)))

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        add_element(g, unit_vector(i))

    while pairs:
        _, (i, j) = heappop(pairs)
        fi, fj = basis[i][0], basis[j][0]
        li, lj = fi.leading_monomial(), fj.leading_monomial()
        if monomial_lcm(li, lj) == monomial_mul(li, lj):
            continue  # coprime lead terms: S-pair reduces to zero
        s, rep_s = _spoly(fi, basis[i][1], fj, basis[j][1])
        quots, rem = divide_tracking(s, [b[0] for b in basis])
        if rem.is_zero():
            continue
        rep = [
            acc - sum((q * basis[k][1][idx] for k, q in enumerate(quots)),
                      Polynomial.zero(ring, field))
            for idx, acc in enumerate(rep_s)
        ]
        add_element(rem, rep)

    # minimalize: drop elements whose lead monomial is divisible by another's
    basis.sort(key=lambda br: grevlex_key(br[0].leading_monomial()))
    kept = []
    for poly, rep in basis:
        if not any(
            monomial_divides(other.leading_monomial(), poly.leading_monomial())
            for other, _ in kept
        ):
            kept.append((poly, rep))

    # inter-reduce tails against the rest, updating representations
    reduced = []
    for idx, (poly, rep) in enumerate(kept):
        others = [kept[k][0] for k in range(len(kept)) if k != idx]
        other_reps = [kept[k][1] for k in range(len(kept)) if k != idx]
        quots, rem = divide_tracking(poly, others)
        new_rep = list(rep)
        for q, orep in zip(quots, other_reps):
            new_rep = [a - q * b for a, b in zip(new_rep, orep)]
        inv = field.inv(rem.leading_coefficient())
        reduced.append((rem.scale(inv), [r.scale(inv) for r in new_rep]))

    reduced.sort(key=lambda br: grevlex_key(br[0].leading_monomial()))
    return GroebnerBasis(
        ring,
        field,
        [poly for poly, _ in reduced],
        [rep for _, rep in reduced],
        gens,
        [g.total_degree() for g in gens],
    )


def lift_through(g, f, gb=None):
    """Coefficients (q_1, ..., q_n) with g == sum(q_i * f_i), deterministic.

    Obtained by quotient-tracked division against the Gröbner basis of (f)
    and re-expansion through the basis representations. Raises NotInIdealError
    when g is outside (f).
    """
    _require_homogeneous([g] + list(f))
    if gb is None:
        gb = buchberger(f)
    quots, rem = divide_tracking(g, gb.generators)
    if not rem.is_zero():
        raise NotInIdealError(f"{g} is not in the ideal; normal form {rem}")
    ring, field = g.ring, g.field
    coeffs = [Polynomial.zero(ring, field) for _ in f]
    for q, rep in zip(quots, gb.representations):
        if q.is_zero():
            continue
        for i, r in enumerate(rep):
            coeffs[i] = coeffs[i] + q * r
    acc = Polynomial.zero(ring, field)
    for c, fi in zip(coeffs, f):
        acc = acc + c * fi
    if acc != g:
        raise SelfCheckError("lift identity failed after re-expansion")
    for c, fi in zip(coeffs, f):
        if not c.is_zero():
            if not c.is_homogeneous() or c.total_degree() != g.total_degree() - fi.total_degree():
                raise SelfCheckError("lift coefficient has wrong degree")
    return coeffs


def is_regular_sequence(f):
    """Whether the homogeneous sequence f is regular; the empty one is."""
    f = list(f)
    return not f or _regular_basis(f) is not None


def _regular_basis(f):
    """The Gröbner basis of (f) when the nonempty sequence f is regular, else
    None. Codimension test: for homogeneous f in a polynomial ring,
    regularity is equivalent to dim S/(f) == nvars - len(f), read off the
    lead-term ideal. The cheap checks run before Buchberger."""
    _require_homogeneous(f)
    nvars = f[0].ring.nvars
    if any(g.is_zero() or g.total_degree() == 0 for g in f):
        return None
    if len(f) > nvars:
        return None
    gb = buchberger(f)
    return gb if gb.dimension() == nvars - len(f) else None
