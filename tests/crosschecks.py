"""Test helper: identities of the construction that no build or verify checks.

Each recomputes a classical identity from the package's public pieces, so
the acceptance criteria and unit tests can assert it: the Betti duality of
a splice and its dual splice, the self-duality of the Koszul complex under
the beta trivializations, Cramer orthogonality of the wedge maps, a
from-scratch check of a divided-power resolution, and the chain-map
condition square by square. `lead_ideal_dimension` is the Krull dimension
oracle that regularity decisions are checked against.
"""

from __future__ import annotations

from itertools import combinations

from tatesplice.errors import SelfCheckError
from tatesplice.freecomplex import BaseRing, _h0_dim, certify
from tatesplice.groebner import buchberger, divide_tracking
from tatesplice.koszul import alpha_element, beta_matrix, koszul_complex, wedge_map
from tatesplice.tate import betti, minimize


def betti_dual_match(tate_m, tate_dual, m, offset):
    """Graded Betti numbers of the minimized window of one splice, read
    backwards with twists negated and shifted, against the minimized dual
    splice: entry (j, t) of the dual must equal entry (m-1-j, offset-t)."""
    A, B = minimize(tate_m.complex), minimize(tate_dual.complex)
    asym, bsym = betti(A), betti(B)
    for j in range(B.lo + 1, B.hi):
        i = m - 1 - j
        if i <= A.lo or i >= A.hi:
            continue
        expected = {offset - t: cnt for t, cnt in asym[i].items()}
        if bsym[j] != expected:
            return False
    return True


def koszul_self_duality(g_list, ring):
    """Verify d_c == (-1)^(c+1) d_1^T under the beta trivializations of the
    Koszul complex on g_1..g_c; returns the global unit (-1)^(c+1)."""
    E = koszul_complex(g_list, ring)
    c = len(g_list)
    g_degrees = [p.total_degree() for p in g_list]
    beta_top = beta_matrix(ring, c, c, g_degrees)
    beta_next = beta_matrix(ring, c, c - 1, g_degrees)
    total = sum(g_degrees)
    lhs = beta_next.compose(E.diff(c))
    rhs = E.diff(1).transpose().twisted(-total).compose(beta_top)
    sign = -1 if c % 2 == 0 else 1
    if lhs != rhs.scale(sign):
        raise SelfCheckError("Koszul self-duality check failed")
    return sign


def orthogonality_check(lift):
    """Cramer orthogonality: wedge(alpha) o wedge(a_j) vanishes entrywise
    over S for every column a_j of A."""
    alpha = alpha_element(lift)
    ring = BaseRing(lift.f[0].ring, lift.f[0].field)
    n, c = lift.n, lift.c
    f_degs = list(lift.f_degrees)
    for j in range(c):
        a_j = lift.column(j)
        for i in range(0, n - c):
            first = wedge_map(a_j, i, f_degs, ring)
            second = wedge_map(alpha, i + 1, f_degs, ring).twisted(a_j.degree)
            if not second.compose(first).is_zero():
                return False
    return True


def verify_resolution(resolution, dmax, ring_M=None):
    """The rows of `certify` for the resolution's complex, plus an h0_hilbert
    row comparing the Hilbert function of H_0 with that of ring_M = S/(f)
    (computed when omitted) in internal degrees 0..dmax."""
    C = resolution.complex
    # over R, not its regular quotient: H_0 = M is nonzero, so the resolution
    # tensored with Rbar has homology Tor_1(M, Rbar) wherever a killed
    # variable is a zerodivisor on M
    rows, _ = certify(C, dmax, quotient=False)
    if ring_M is None:
        ring_M = BaseRing(
            resolution.ring.ctx, resolution.ring.field, buchberger(list(resolution.lift.f))
        )
    # the d_1 ranks are store hits from the acyclicity sweep
    differs = next((d for d in range(dmax + 1) if _h0_dim(C, d) != ring_M.dim_degree(d)), None)
    detail = "H_0 has the Hilbert function of S/(f)"
    if differs is not None:
        detail = (
            f"H_0 Hilbert function differs in degree {differs}: "
            f"{_h0_dim(C, differs)} vs {ring_M.dim_degree(differs)}"
        )
    rows.append(("h0_hilbert", differs is None, detail))
    return rows


def square_witness(phi, C, D):
    """The first failing entry (i, row, col, str(entry)) of the chain-map
    condition by its definition, or None: per square, d_D o phi_i and
    phi_{i-1} o d_C as two compositions in plain Polynomial arithmetic over
    S, their difference reduced by plain division by the generators of the
    ring's modulus, rows then columns."""
    zero, gens = C.ring.zero(), C.ring.modulus.generators
    for i in sorted(phi):
        lhs = D.lo < i <= D.hi
        rhs = i - 1 in phi and C.lo < i <= C.hi
        if not (lhs or rhs):
            continue
        for r in range(D.term(i - 1).rank):
            for c in range(C.term(i).rank):
                e = zero
                if lhs:
                    a, b = D.diff(i).entries, phi[i].entries
                    for k in range(D.term(i).rank):
                        e = e + a[r][k] * b[k][c]
                if rhs:
                    a, b = phi[i - 1].entries, C.diff(i).entries
                    for k in range(C.term(i - 1).rank):
                        e = e - a[r][k] * b[k][c]
                e = divide_tracking(e, gens)[1]
                if not e.is_zero():
                    return i, r, c, str(e)
    return None


def lead_ideal_dimension(leads, nvars):
    """Krull dimension of S / (monomial ideal): size of the largest variable
    subset containing no generator's support. Returns -1 for the unit ideal."""
    supports = [frozenset(i for i, e in enumerate(mono) if e) for mono in leads]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, 0, -1):
        for subset in map(set, combinations(range(nvars), size)):
            if not any(s <= subset for s in supports):
                return size
    return 0
