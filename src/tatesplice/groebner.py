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
    _add_product,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .errors import InhomogeneousInputError, InvalidInstanceError, NotInIdealError, SelfCheckError

MAX_LISTING = 10**6  # monomials in one degree's listing


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
    if not nvars:
        return ((),) if d == 0 else ()
    # nothing bounds the degrees a Gröbner basis reaches: check each listing
    count = comb(d + nvars - 1, nvars - 1) if d > 0 else 1
    if count > MAX_LISTING:
        raise InvalidInstanceError(f"degree {d} has {count} monomials (limit {MAX_LISTING})")

    def gen(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from gen(prefix + (e,), remaining - e, slots - 1)

    monos = list(gen((), d, nvars))
    monos.sort(key=grevlex_key, reverse=True)
    return tuple(monos)


def _embed(mono, free, n):
    """The exponent tuple in n variables with mono's exponents at `free`."""
    out = [0] * n
    for v, e in zip(free, mono):
        out[v] = e
    return tuple(out)


def hilbert_dim_from_leads(leads, nvars, d):
    """dim_F (S / lead-term ideal)_d from the Hilbert numerator of the leads."""
    return _series_coefficient(_hilbert_numerator(tuple(leads), nvars), nvars, d)


def _series_coefficient(numerator, nvars, d):
    """The degree-d coefficient of numerator(t) / (1 - t)^nvars."""
    if d < 0:
        return 0
    return sum(n * comb(d - k + nvars - 1, nvars - 1) for k, n in numerator.items() if k <= d)


def times_complete_intersection(numerator, degrees):
    """numerator(t) * prod(1 - t^d for d in degrees), as {k: n_k}. From {0: 1}
    it is the Hilbert numerator of S/(g) for a regular sequence g of those
    degrees (Stanley, Adv. Math. 28, 1978)."""
    for d in degrees:
        out = dict(numerator)
        for k, n in numerator.items():
            out[k + d] = out.get(k + d, 0) - n
        numerator = {k: n for k, n in out.items() if n}
    return numerator


@lru_cache(maxsize=None)
def _hilbert_numerator(leads, nvars):
    """{k: n_k}, the Hilbert series of S / (leads) being sum n_k t^k / (1 - t)^nvars,
    by the colon recursion N(I' + (m)) = N(I') - t^deg(m) N(I' : m) on the last
    lead m, with I' : m generated by lcm(l, m) / m (Bayer-Stillman 1992)."""
    if not leads:
        return {0: 1}
    *rest, m = leads
    colon = {monomial_div(monomial_lcm(l, m), m) for l in rest}
    minimal = sorted(c for c in colon if not any(o != c and monomial_divides(o, c) for o in colon))
    counts = dict(_hilbert_numerator(tuple(rest), nvars))
    for k, n in _hilbert_numerator(tuple(minimal), nvars).items():
        counts[k + sum(m)] = counts.get(k + sum(m), 0) - n
    return {k: n for k, n in counts.items() if n}


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
    inter-reduced generators and generator == sum(rep_i * original_i), so
    the basis lies in the ideal J of the originals. `numerator`, when given,
    is a Hilbert numerator whose series bounds dim (S/J)_d from below in
    every degree; if the leads' numerator equals it, in(basis) has the
    Hilbert function of S/J while lying in in(J), so the two are equal and
    the basis generates J (Traverso, J. Symbolic Comput. 22, 1996).
    Otherwise every S-pair must reduce to zero and every original must be
    in the ideal of the basis. `nf_row` memoizes the normal form of each
    monomial, and `reduce_terms` is the one kernel that sums them.
    """

    def __init__(self, ring, field, generators, representations, originals, numerator=None):
        self.ring = ring
        self.field = field
        self.generators = tuple(generators)
        self.representations = tuple(tuple(r) for r in representations)
        self.originals = tuple(originals)
        self._leads = [  # (lead, tail terms) of each generator
            (lm, [(t, c) for t, c in g.terms.items() if t != lm])
            for g, lm in zip(self.generators, self.lead_monomials())
        ]
        self._rows = {}
        self._qbasis_cache = {}
        self._certify(numerator)

    def _certify(self, numerator):
        _require_homogeneous(self.generators)
        leads = self.lead_monomials()
        for g, rep in zip(self.generators, self.representations):
            if g.leading_coefficient() != 1:
                raise SelfCheckError("basis element not monic")
            if not _minus_products(g, zip(rep, self.originals)).is_zero():
                raise SelfCheckError("representation identity fails")
        for i, g in enumerate(self.generators):
            # a lead divides no term of g but lead(g), which only its own divides
            if any(sum(monomial_divides(l, e) for l in leads) != (e == leads[i]) for e in g.terms):
                raise SelfCheckError("basis not fully inter-reduced")
        if numerator is not None and self.hilbert_numerator() == numerator:
            return
        for i, j in _criterion_pairs(leads):
            s = _spoly(self.generators[i], self.generators[j])[0]
            if not self.normal_form(s).is_zero():
                raise SelfCheckError("S-pair does not reduce to zero")
        if not all(self.is_member(o) for o in self.originals):
            raise SelfCheckError("an original is not in the ideal of the basis")

    def hilbert_numerator(self):
        """{k: n_k}, the Hilbert series of S / in(basis) being sum n_k t^k / (1 - t)^nvars."""
        return _hilbert_numerator(self.lead_monomials(), self.ring.nvars)

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
            lead, tail = next(lt for lt in self._leads if monomial_divides(lt[0], m))
            q = monomial_div(m, lead)
            parts = [(monomial_mul(q, t), c) for t, c in tail]
            missing = [u for u, _ in parts if u not in rows]
            if missing:
                stack += missing
                continue
            acc = {}
            for u, c in parts:
                it = iter(rows[u])
                for j, v in zip(it, it):
                    acc[j] = acc.get(j, 0) - c * v
            rows[stack.pop()] = tuple(x for j, v in acc.items() if v % p for x in (j, v % p))
        return rows[mono]

    def normal_form(self, poly):
        """Remainder modulo the basis: poly itself when every term is a
        standard monomial, else `reduce_terms` of its terms."""
        bases = {d: self.quotient_degree_basis(d) for d in {sum(e) for e in poly.terms}}
        if all(e in bases[sum(e)].index for e in poly.terms):
            return poly
        return Polynomial(self.ring, self.field, self.reduce_terms(poly.terms))

    def reduce_terms(self, terms):
        """The normal form of an unreduced term dict {expo: coeff} as a term
        dict: coeff * nf_row(expo) is summed into one list per degree, indexed
        by quotient-basis position, and the dict is built once from them."""
        rows, sums, p = self._rows, {}, self.field.p
        for expo, coeff in terms.items():
            coeff %= p
            if coeff:
                d = sum(expo)
                if d not in sums:
                    monos = self.quotient_degree_basis(d).monomials
                    sums[d] = monos, [0] * len(monos)
                acc, it = sums[d][1], iter(rows.get(expo) or self.nf_row(expo))
                for j, v in zip(it, it):
                    acc[j] += coeff * v
        return {m: v % p for monos, acc in sums.values() for m, v in zip(monos, acc) if v % p}

    def is_member(self, poly):
        return self.normal_form(poly).is_zero()

    def quotient_degree_basis(self, d):
        """All normal-form monomials of degree d, checked against the
        Hilbert count of the lead-term ideal."""
        if d < 0:
            return QuotientDegreeBasis(d, ())
        cached = self._qbasis_cache.get(d)
        if cached is not None:
            return cached
        leads, n = self.lead_monomials(), self.ring.nvars
        # a variable that is itself a lead is in no standard monomial; leaving
        # it out keeps grevlex order and the listing to the other variables
        free = [v for v in range(n) if not any(l[v] == sum(l) == 1 for l in leads)]
        if len(free) < n:
            candidates = [_embed(m, free, n) for m in monomials_of_degree(len(free), d)]
        else:
            candidates = monomials_of_degree(n, d)
        monos = [m for m in candidates if not any(monomial_divides(l, m) for l in leads)]
        expected = hilbert_dim_from_leads(leads, n, d)
        if len(monos) != expected:
            raise SelfCheckError(
                f"quotient basis in degree {d} has {len(monos)} monomials, "
                f"Hilbert count expects {expected}"
            )
        basis = QuotientDegreeBasis(d, monos)
        self._qbasis_cache[d] = basis
        return basis

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis({gens})"


def _criterion_pairs(leads):
    """The pairs (i, j) whose S-polynomials a certificate must reduce.
    Buchberger's criteria skip coprime leads, and (i, j) when another lead_k
    divides lcm_ij while lcm_ik and lcm_jk are proper divisors of it, since
    induction on the lcm covers that pair (Gebauer-Moller 1988)."""
    for j, lj in enumerate(leads):
        for i, li in enumerate(leads[:j]):
            m = monomial_lcm(li, lj)
            if m != monomial_mul(li, lj) and not any(
                monomial_divides(lk, m) and m not in (monomial_lcm(li, lk), monomial_lcm(lj, lk))
                for lk in leads[:i] + leads[i + 1:j] + leads[j + 1:]
            ):
                yield i, j


def _spoly(f, g):
    """The S-polynomial u_f * f - u_g * g of f and g, with u_f and u_g."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    uf, ug = monomial_div(lcm, lf), monomial_div(lcm, lg)
    return f.term_mul(uf) - g.term_mul(ug), uf, ug


def _minus_products(acc, products):
    """acc - sum(q * b for q, b in products), formed in one term dict; a zero
    q adds no work."""
    terms = dict(acc.terms)
    for q, b in products:
        _add_product(terms, q.terms, b.terms, -1)
    return Polynomial(acc.ring, acc.field, terms)


def buchberger(gens, numerator=None):
    """Reduced Gröbner basis in grevlex with the normal selection strategy.

    Each element joining the basis updates the pairs as Gebauer and Moller
    do (J. Symbolic Comput. 6, 1988), with t its lead: an old pair whose
    lcm t divides, equal to neither of its lcms with t, goes (B); a new pair
    goes when another new pair's lcm properly divides its lcm (M); of the
    new pairs with one lcm only the first stays, and none if one of them has
    coprime leads (F). The pair of least (lcm total degree, (i, j)) is
    reduced next, so the output is deterministic for a fixed input order.
    Representations are formed only for remainders that join the basis.

    `numerator`, when given, is a Hilbert numerator whose series bounds
    dim (S/(gens))_d from below in every degree, as prod(1 - t^deg g) does
    for c <= nvars forms of positive degree: the rank of (a_i) -> sum a_i g_i
    in degree d is largest for generic forms, which are regular, and
    x_1^d_1, ..., x_c^d_c attain it. When the leads meet that bound in the
    degree of the next pair, they span in(gens) in that degree, so every
    pair of that degree reduces to zero and all of them are dropped
    unreduced. The basis is then certified by the same numerator.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    ring, field = gens[0].ring, gens[0].field
    for g in gens:
        if g.ring != ring or g.field != field:
            raise InhomogeneousInputError("mixed contexts in generating set")
    _require_homogeneous(gens)

    basis, leads = [], []  # (monic poly, representation over gens); its lead
    pairs = {}  # (i, j) -> lcm of leads i and j

    def add_element(poly, rep):
        inv = field.inv(poly.leading_coefficient())
        k, t = len(basis), poly.leading_monomial()
        for (i, j), m in list(pairs.items()):
            if monomial_divides(t, m) and m not in (
                monomial_lcm(leads[i], t), monomial_lcm(leads[j], t)
            ):
                del pairs[i, j]
        new = {}
        for i, l in enumerate(leads):
            new.setdefault(monomial_lcm(l, t), []).append(i)
        for m, idx in new.items():
            if not any(o != m and monomial_divides(o, m) for o in new) and not any(
                m == monomial_mul(leads[i], t) for i in idx
            ):
                pairs[idx[0], k] = m
        basis.append((poly.scale(inv), [r.scale(inv) for r in rep]))
        leads.append(t)

    zero, one = Polynomial.zero(ring, field), Polynomial.constant(ring, field, 1)
    for i, g in enumerate(gens):
        if not g.is_zero():
            add_element(g, [one if j == i else zero for j in range(len(gens))])

    while pairs:
        i, j = min(pairs, key=lambda ij: (sum(pairs[ij]), ij))
        if numerator is not None:
            d, n = sum(pairs[i, j]), ring.nvars
            if hilbert_dim_from_leads(leads, n, d) == _series_coefficient(numerator, n, d):
                for ij in [ij for ij, m in pairs.items() if sum(m) == d]:
                    del pairs[ij]
                continue
        del pairs[i, j]
        (fi, rep_i), (fj, rep_j) = basis[i], basis[j]
        s, ui, uj = _spoly(fi, fj)
        quots, rem = divide_tracking(s, [b[0] for b in basis])
        if rem.is_zero():
            continue
        rep = [
            _minus_products(a.term_mul(ui) - b.term_mul(uj), zip(quots, (r[n] for _, r in basis)))
            for n, (a, b) in enumerate(zip(rep_i, rep_j))
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
        others = kept[:idx] + kept[idx + 1:]
        quots, rem = divide_tracking(poly, [o[0] for o in others])
        new_rep = [
            _minus_products(a, zip(quots, (r[n] for _, r in others))) for n, a in enumerate(rep)
        ]
        inv = field.inv(rem.leading_coefficient())
        reduced.append((rem.scale(inv), [r.scale(inv) for r in new_rep]))

    reduced.sort(key=lambda br: grevlex_key(br[0].leading_monomial()))
    return GroebnerBasis(
        ring,
        field,
        [poly for poly, _ in reduced],
        [rep for _, rep in reduced],
        gens,
        numerator,
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
    None. For c <= nvars forms of positive degree, f is regular exactly when
    S/(f) has the series prod(1 - t^deg g) / (1 - t)^nvars, read off the
    leads of its basis; Buchberger runs with that numerator as its bound.
    The cheap checks run before Buchberger."""
    _require_homogeneous(f)
    if any(g.is_zero() or g.total_degree() == 0 for g in f) or len(f) > f[0].ring.nvars:
        return None
    numerator = times_complete_intersection({0: 1}, [g.total_degree() for g in f])
    gb = buchberger(f, numerator)
    return gb if gb.hilbert_numerator() == numerator else None
