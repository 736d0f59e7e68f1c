"""Splicing resolutions into Tate resolutions and extracting MCM approximations.

The upper half of a splice is the dual of the lower half shifted by
m = n - c and twisted by D0 = sum(deg g) - sum(deg f); with the dual/shift
sign conventions of `freecomplex`, the comparison map built from wedge
multiplication by alpha followed by the beta trivialization is a chain map
as-is (the alternating sign accounted in the dual's (-1)^i placement).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from math import comb
from typing import NamedTuple

from .arith import MAX_VARIABLES, Polynomial
from .errors import AcyclicityError, LiftError, WindowTooSmallError
from .freecomplex import (
    ChainComplex,
    DegreeLayout,
    GradedFreeModule,
    PolyMatrix,
    _content_degree_range,
    _h0_dim,
    _h0_iso_table,
    _raise_d_squared,
    acyclicity_sweep,
    d_squared_witness,
    graded_piece,
    is_minimal,
    mapping_cone,
    matrix_to_doc,
)
from .groebner import divide_tracking, hilbert_dim_from_leads
from .homotopy import _solve_through
from .koszul import ExteriorVector, alpha_element, beta_matrix, wedge_map
from .linalg import FieldMatrix


class TateResolution(NamedTuple):
    """A spliced window with its provenance labels, certificates and meta."""

    complex: ChainComplex
    provenance: dict
    certificates: dict
    meta: dict


def betti(complex_):
    """Graded Betti numbers: position -> {twist: count}."""
    return {i: Counter(complex_.term(i).twists) for i in range(complex_.lo, complex_.hi + 1)}


def window_meta(route, m, twist_offset, window, dmax, mf_normalized=False):
    """The `meta` section of a Tate window: its route, m = len(f) - len(g), the
    upper half's twist, [lo, hi], dmax, and whether it was normalized."""
    return {
        "m": m,
        "twist_offset": twist_offset,
        "window": list(window),
        "dmax": dmax,
        "route": route,
        "mf_normalized": mf_normalized,
    }


def expand_phi(resolution):
    """Lift phi' through the projection onto the Koszul layer: the full map
    phi = pi* o phi' o pi on the divided-power resolution, zero on every
    layer with divided-power degree > 0. Returns (phi, target complex)."""
    F = resolution.complex
    alpha = alpha_element(resolution.lift)
    # the minors in normal form over F's ring once, not once per wedge column
    coeffs = {t: F.ring.reduce(e) for t, e in alpha.coeffs.items()}
    alpha = ExteriorVector(alpha.n, alpha.k, coeffs, alpha.degree)
    n, c = alpha.n, alpha.k
    m = n - c
    f_degrees = resolution.lift.f_degrees
    D0 = alpha.degree - sum(f_degrees)
    target = F.dual().shift(m).twist(D0)

    phi = {}
    for i in range(F.lo, F.hi + 1):
        cols = [{} for _ in resolution.labels.get(i, ())]
        if 0 <= i <= m:
            # phi'_i = beta o (alpha ^ -) on Lambda^i; the Koszul layer lists
            # its subsets in ExteriorBasis order, as the blocks' bases do
            beta = beta_matrix(F.ring, n, i + c, f_degrees).twisted(alpha.degree)
            block = beta.compose(wedge_map(alpha, i, f_degrees, F.ring))
            rows = resolution.koszul_indices(m - i)
            for col, block_col in zip(resolution.koszul_indices(i), block.columns):
                cols[col] = {rows[r]: e for r, e in block_col.items()}
        phi[i] = PolyMatrix(F.term(i), target.term(i), cols)
    return phi, target


def _splice(C, D, phi, h0, window, dmax):
    """Shared cone + certificate machinery for both splice entry points;
    h0(d) is dim H_0(C)_d.

    The cone cone_i = C_i (+) D_{i+1} gives the exact segment
    H_0(cone) -> H_0(C) -> H_0(D) -> H_{-1}(cone) with phi_* in the middle
    (Weibel, An Introduction to Homological Algebra, 1.5). Its d^2 is made of
    d_C^2, d_D^2 and the squares of phi (`mapping_cone`), so one d^2 check of
    the cone checks all three. It runs over the cone's terms
    [min(lo, s - 1), top] = [min(lo, -2), top], which hold the window
    [lo, hi] and every term the sweep reads, the sweep running over
    positions s = min(lo + 1, -1) to top - 1 with top = max(hi, 1). The
    `chain_map` certificate records that check of phi's squares there. A
    nonzero product raises the error of the block it lies in
    (`_raise_d_squared`), and the window keeps the record, so `certify`
    forms none of these products again.

    The assembled cone is swept (`acyclicity_sweep`) before it is cut to the
    window, at positions -1 and 0 as well as the window interior, so a
    passing sweep certifies phi_* an isomorphism in every degree: each row of
    the table, up to dmax, reads (h, h, h) with h = h0(d). The window keeps
    the ranks the sweep stored. Where the sweep fails, the table is computed
    so that a broken H_0 isomorphism is still reported as such. The
    certificates are chain_map, h0_iso and minimal; acyclicity is the
    emitted window's."""
    lo, hi = window
    top = max(hi, 1)
    cone, layout = mapping_cone(phi, C, D)
    if cone.lo > min(lo, -2) or cone.hi < top:
        raise WindowTooSmallError(
            f"assembled cone window {cone.window} does not cover {window} "
            "with -1 and 0 interior"
        )
    witness = d_squared_witness(cone, range(min(lo, -2) + 2, top + 1))
    if witness is not None:
        _raise_d_squared(C, *witness)
    h0_degrees = _content_degree_range(C, 0, 0, dmax) + _content_degree_range(D, 0, 0, dmax)
    h0_degrees = sorted(set(h0_degrees))
    failure, _ = acyclicity_sweep(cone, range(min(lo + 1, -1), top), dmax)
    if failure is not None:
        _h0_iso_table(C, D, phi, h0_degrees)
        raise AcyclicityError(*failure)
    cone = cone.subwindow(lo, hi)

    certificates = {
        "chain_map": {"passed": True},
        "h0_iso": {
            "passed": True,
            "table": {str(d): [h0(d)] * 3 for d in h0_degrees},
        },
        "minimal": {"passed": is_minimal(cone)},
    }
    return cone, layout, certificates


def tate_splice(resolution, window, dmax):
    """Mapping-cone Tate resolution of M = S/(f) over R from the divided-power
    resolution and the wedge-with-alpha comparison map.

    Certificates recorded (all recomputed, nothing trusted): the chain-map
    property of phi, checked with F's products in the one d^2 check of the
    cone (`_splice`), the degreewise H_0 isomorphism, and entrywise
    minimality. Total acyclicity is swept here too; a failing sweep raises.
    """
    F = resolution.complex
    lift = resolution.lift
    m = lift.n - lift.c
    phi, target = expand_phi(resolution)
    # H_0(F) = S/(f) with f regular (`InstanceData` checks it), so its
    # Hilbert function is that of the monomial ideal (x_i^deg f_i)
    nvars = F.ring.ctx.nvars
    powers = [
        tuple(e if v == i else 0 for v in range(nvars)) for i, e in enumerate(lift.f_degrees)
    ]
    h0 = partial(hilbert_dim_from_leads, powers, nvars)
    cone, layout, certificates = _splice(F, target, phi, h0, window, dmax)

    provenance = {}
    for i in range(cone.lo, cone.hi + 1):
        lower = resolution.labels.get(i, ())
        upper = resolution.labels.get(m - 1 - i, ())
        provenance[i] = [
            {"half": "lower", "power": list(a), "subset": list(t)} for a, t in lower
        ] + [
            {"half": "upper", "power": list(a), "subset": list(t)} for a, t in upper
        ]

    meta = window_meta("tate_splice", m, sum(lift.g_degrees) - sum(lift.f_degrees), window, dmax)
    return TateResolution(cone, provenance, certificates, meta)


def general_splice(F, G, m, window, dmax):
    """Tate resolution of M from R-free resolutions F of M and G of the dual
    module, by lifting the degree-0 homology isomorphism into the dualized,
    shifted G and coning off.

    Cyclic M only (rank-one F_0); inputs resolving a free module are
    rejected since free modules have trivial essential approximation.
    """
    if m < 0:
        raise ValueError("codimension must be >= 0")
    if F.term(0).rank != 1:
        raise LiftError("general splice supports cyclic modules (rank-one F_0)")
    if F.term(1).rank == 0:
        raise LiftError(
            "input resolves a free module; the essential MCM approximation is zero"
        )
    if G.hi <= m:
        raise WindowTooSmallError("G must extend beyond homological degree m")

    T0 = G.dual().shift(m)
    offset = _match_h0_offset(F, T0, dmax)
    T = T0.twist(offset)

    phi = {0: _bottom_class_map(F, T)}
    top = min(F.hi, m)
    for i in range(1, top + 1):
        rhs = phi[i - 1].compose(F.diff(i))
        sol = _solve_through(T.diff(i), rhs)
        if sol is None:
            raise LiftError(f"comparison map does not lift at position {i}")
        phi[i] = sol
    for i in range(top + 1, F.hi + 1):
        phi[i] = PolyMatrix.zero(F.term(i), T.term(i))

    cone, layout, certificates = _splice(F, T, phi, partial(_h0_dim, F), window, dmax)

    provenance = {
        i: [{"half": "lower", "index": k} for k in range(layout.get(i, 0))]
        + [
            {"half": "upper", "index": k}
            for k in range(cone.term(i).rank - layout.get(i, 0))
        ]
        for i in range(cone.lo, cone.hi + 1)
    }
    meta = window_meta("general_splice", m, offset, window, dmax)
    return TateResolution(cone, provenance, certificates, meta)


def _match_h0_offset(F, T0, dmax):
    """Twist t with H_0(F)_d == H_0(T0)_{d+t} degreewise, found by aligning
    the bottom degrees of the two Hilbert functions."""
    f_start = min((-t for t in F.term(0).twists), default=0)
    t_start = min(
        (-t for i in (-1, 0, 1) for t in T0.term(i).twists), default=0
    )
    f_bottom = next((d for d in range(f_start, f_start + dmax + 1) if _h0_dim(F, d)), None)
    t_bottom = next((d for d in range(t_start, t_start + dmax + 1) if _h0_dim(T0, d)), None)
    if f_bottom is None or t_bottom is None:
        raise LiftError("could not locate the bottom degree of H_0 on both sides")
    if _h0_dim(F, f_bottom) != 1 or _h0_dim(T0, t_bottom) != 1:
        raise LiftError("bottom degree of H_0 is not one-dimensional (non-cyclic)")
    return t_bottom - f_bottom


def _bottom_class_map(F, T):
    """phi_0: F_0 -> T_0 sending the generator to a cycle representing the
    generator of H_0(T); deterministic first choice."""
    u0 = -F.term(0).twists[0]
    layout = DegreeLayout(T.term(0), u0)
    # a missing d_0 is a zero map into an empty module: every vector a cycle
    cycles = graded_piece(T.diff(0), u0).nullspace()
    # a missing d_1 gives a piece with no columns: no boundaries
    boundaries = graded_piece(T.diff(1), u0)
    for z in cycles:
        if boundaries.solve(z) is None:
            return PolyMatrix(F.term(0), T.term(0), [layout.element(z)])
    raise LiftError("no nonzero class available for phi_0")


def minimize(complex_, labels=None):
    """Split off unit entries until none remain.

    A unit pivot at (r, k) of d_i removes generator k of term_i and
    generator r of term_{i-1}; d_i receives the rank-one Gaussian
    correction, d_{i+1} loses row k, d_{i-1} loses column r. Each
    cancellation is a homotopy equivalence (Gaussian elimination: Bar-Natan,
    Fast Khovanov homology computations, 2007, Lemma 4.2), so homology is
    unchanged. Pivots are scanned from position 0 outward, leftmost column
    first, until no degree-0 entry is left. A complex with no unit entry is
    returned as it is, with the same labels.
    """
    ring = complex_.ring
    zero = ring.zero()
    lo, hi = complex_.lo, complex_.hi
    twists = {i: list(complex_.term(i).twists) for i in range(lo, hi + 1)}
    mats = {i: list(map(dict, complex_.diff(i).columns)) for i in range(lo + 1, hi + 1)}
    order = sorted(range(lo + 1, hi + 1), key=abs)

    def find_unit():
        for i in order:
            for k, col in enumerate(mats[i]):
                units = [r for r, e in col.items() if e.total_degree() == 0]
                if units:
                    return i, min(units), k
        return None

    def drop_row(col, row):
        """The column without `row`, the rows below it moved up by one."""
        return {q - (q > row): e for q, e in col.items() if q != row}

    found = find_unit()
    if found is None:
        return complex_ if labels is None else (complex_, labels)
    labs = None if labels is None else {i: list(v) for i, v in labels.items()}

    while found is not None:
        i, r, k = found
        pivot = mats[i].pop(k)
        uinv = ring.field.inv(pivot.pop(r).constant_value())
        pivot = {q: b.scale(uinv) for q, b in pivot.items()}
        for col in mats[i]:
            c = col.get(r)
            if c is None:
                continue
            for q, b in pivot.items():
                e = ring.reduce(col.get(q, zero) - b * c)
                if e.is_zero():
                    col.pop(q, None)
                else:
                    col[q] = e
        mats[i] = [drop_row(col, r) for col in mats[i]]
        if i + 1 in mats:
            mats[i + 1] = [drop_row(col, k) for col in mats[i + 1]]
        if i - 1 in mats:
            mats[i - 1].pop(r)
        twists[i].pop(k)
        twists[i - 1].pop(r)
        if labs is not None:
            if i in labs:
                labs[i].pop(k)
            if i - 1 in labs:
                labs[i - 1].pop(r)
        found = find_unit()

    terms = {i: GradedFreeModule(ring, twists[i]) for i in range(lo, hi + 1)}
    diffs = {}
    for i in range(lo + 1, hi + 1):
        diffs[i] = PolyMatrix(terms[i], terms[i - 1], mats[i])
    out = ChainComplex(ring, terms, diffs)
    if labels is not None:
        return out, labs
    return out


def mcm_presentation(complex_, n, c):
    """The `mcm` section of an output document: the 1 -> 0 differential of
    a minimized Tate window, which presents the essential MCM approximation,
    its source twists, and the closed-form count for n = len(f), c = len(g)."""
    if not (complex_.lo <= 0 and complex_.hi >= 1):
        raise WindowTooSmallError(
            f"window {complex_.window} does not contain positions 0 and 1"
        )
    matrix = complex_.diff(1)
    entries, rows = matrix_to_doc(matrix)
    return {
        "generator_count": complex_.term(0).rank,
        "twists": list(complex_.term(0).twists),
        "matrix": entries,
        "rows": rows,
        "minimal": all(e.total_degree() > 0 for col in matrix.columns for e in col.values()),
        "formula_count": mcm_generator_count(n, c),
    }


def mcm_generator_count(n, c):
    """The number of generators of the essential MCM approximation of R/J,
    i.e. rank T_0 of the minimal Tate resolution, for n = len(f), c = len(g):
    1 + sum over 0 <= i <= (n-c-1)/2 of C(n, c+1+2i) * C(c-1+i, i).

    For c = 1 this is 2^(n-1), the rank of the matrix factorization of the
    residue field over a hypersurface; for c = n it is 1."""
    if not 1 <= c <= n:
        raise ValueError("need 1 <= c <= n")
    if n > MAX_VARIABLES:  # len(f) never exceeds the number of variables
        raise ValueError(f"need n <= {MAX_VARIABLES}, the bound on variables")
    total = 1
    i = 0
    while 2 * i <= n - c - 1:
        total += comb(n, c + 1 + 2 * i) * comb(c - 1 + i, i)
        i += 1
    return total


# --- hypersurface (c = 1) normalization ------------------------------------


def poly_exact_divide(p, g):
    """Exact division p / g for homogeneous p in (g); raises if not divisible."""
    (q,), remainder = divide_tracking(p, [g.monic()])
    if not remainder.is_zero():
        raise ValueError(f"{p} is not divisible by {g}")
    return q.scale(p.field.inv(g.leading_coefficient()))


def lift_matrix_to_S(matrix, ring_S):
    """The same entries read over S (normal forms are S-polynomials)."""
    src = GradedFreeModule(ring_S, matrix.source.twists)
    tgt = GradedFreeModule(ring_S, matrix.target.twists)
    return PolyMatrix(src, tgt, matrix.columns, reduce=False)


def normalize_matrix_factorization(complex_, g, ring_S):
    """Basis-normalize a minimized hypersurface window so that consecutive
    S-lifted differentials multiply to exactly g * identity; this forces
    entrywise 2-periodicity. Sweeps left to right, absorbing the constant
    unit factor of each product into the next term's basis.

    Requires the terms to pair up: term_{i-1} == term_{i+1} twisted by
    deg g, which holds on the periodic part of any hypersurface window.
    """
    ring = complex_.ring
    p = ring.field.p
    dg = g.total_degree()
    mats = {i: complex_.diff(i) for i in range(complex_.lo + 1, complex_.hi + 1)}
    for i in range(complex_.lo + 1, complex_.hi):
        if complex_.term(i + 1).twist(dg) != complex_.term(i - 1):
            raise ValueError(
                f"terms at {i + 1} and {i - 1} do not pair up as a matrix factorization"
            )
        left = lift_matrix_to_S(mats[i], ring_S)
        right = lift_matrix_to_S(mats[i + 1], ring_S)
        prod = left.compose(right)
        size = prod.target.rank
        U = [{} for _ in range(size)]  # sparse columns
        for c, col in enumerate(prod.columns):
            for r, e in col.items():
                q = poly_exact_divide(e, g)
                if not q.is_constant():
                    raise ValueError(
                        "product of consecutive differentials is not g * constant"
                    )
                U[c][r] = q.constant_value()
        V = FieldMatrix(size, U, p).solve_matrix([{k: 1} for k in range(size)])
        if V is None:
            raise ValueError("unit factor of the matrix factorization is singular")
        src = mats[i + 1].source

        def const_endo(columns):
            constant = partial(Polynomial.constant, ring.ctx, ring.field)
            return PolyMatrix(
                src, src, [{r: constant(v) for r, v in col.items()} for col in columns]
            )

        mats[i + 1] = mats[i + 1].compose(const_endo(V))
        if i + 2 in mats:
            mats[i + 2] = const_endo(U).compose(mats[i + 2])
    terms = {i: complex_.term(i) for i in range(complex_.lo, complex_.hi + 1)}
    # a change of basis keeps d^2 = 0; run_build certifies the result
    return ChainComplex(ring, terms, mats)


def is_two_periodic(complex_):
    """Entrywise d_{i+2} == d_i across the window (twists shift by deg g)."""
    for i in range(complex_.lo + 1, complex_.hi - 1):
        a, b = complex_.diff(i), complex_.diff(i + 2)
        if (a.target.rank, a.columns) != (b.target.rank, b.columns):
            return False
    return True
