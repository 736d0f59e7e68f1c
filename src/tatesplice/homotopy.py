"""Homotopies on S-free resolutions, composed sigma maps, and certificates.

A homotopy for g on (K, d) is a degree +1 graded map tau with
d tau + tau d = g id. For Koszul complexes the closed wedge form is used;
for arbitrary finite resolutions a degreewise linear solver produces one.
Composites tau_{i1} o ... o tau_{is} over increasing indices realize the
comparison maps from the Koszul resolution of the base quotient.
"""

from __future__ import annotations

from itertools import combinations

from .errors import LiftIdentityError, NoSolutionError
from .freecomplex import (
    DegreeLayout,
    PolyMatrix,
    _h0_iso_table,
    _sum_of_products,
    base_change,
    check_homotopy_identity,
    graded_piece,
    is_chain_map,
)
from .koszul import koszul_complex, koszul_homotopy


class HomotopySystem:
    """A base resolution K over S plus one homotopy per generator, each
    verified by the constructor that made it (`koszul_homotopy` or
    `solve_homotopy`)."""

    def __init__(self, K, g_list, taus, provenance):
        self.K = K
        self.g_list = tuple(g_list)
        self.taus = [dict(t) for t in taus]
        self.provenance = provenance

    @classmethod
    def koszul_wedge(cls, lift, ring):
        """Wedge homotopies for every column of a lift matrix A, each checked
        against the one Koszul complex of f."""
        K = koszul_complex(list(lift.f), ring)
        taus = []
        for j in range(lift.c):
            a = [lift.A[i][j] for i in range(lift.n)]
            taus.append(koszul_homotopy(a, lift.f, K, g=lift.g[j]))
        system = cls(K, lift.g, taus, "koszul-wedge")
        system.lift = lift
        return system

    @classmethod
    def solved(cls, K, g_list):
        taus = [solve_homotopy(K, g) for g in g_list]
        return cls(K, g_list, taus, "solved")

    def tau(self, j):
        """Homotopy for g_j (1-based index, matching the paper's subscripts)."""
        return self.taus[j - 1]

    @property
    def c(self):
        return len(self.g_list)


def solve_homotopy(K, g):
    """Find tau with d tau + tau d = g id by exact degreewise linear solves.

    Proceeds up the window; at each homological degree the unknown block is
    solved columnwise through the next differential (pivoted elimination in
    fixed column order). Raises NoSolutionError when inconsistent: g does not
    annihilate H_0, or the window is too short to close the system.
    """
    if not g.is_homogeneous() or g.is_zero():
        raise NoSolutionError("g must be nonzero homogeneous")
    dg = g.total_degree()
    Ktw = K.twist(dg)
    taus = {}
    for i in range(K.lo, K.hi):
        src = K.term(i)
        tgt = Ktw.term(i + 1)
        if src.rank == 0:
            taus[i] = PolyMatrix.zero(src, tgt)
            continue
        # g id - tau_{i-1} o d_i, summed and reduced once per entry
        products = [(1, PolyMatrix.scalar(src, g), PolyMatrix.identity(src))]
        if i > K.lo and taus.get(i - 1) is not None:
            products.append((-1, taus[i - 1], K.diff(i)))
        rhs = _sum_of_products(src, Ktw.term(i), products)
        through = Ktw.diff(i + 1)
        sol = _solve_through(through, rhs)
        if sol is None:
            raise NoSolutionError(
                f"no homotopy for {g} at position {i}: g does not act "
                "null-homotopically or the window is too short"
            )
        taus[i] = sol
    try:
        check_homotopy_identity(K, g, taus)
    except LiftIdentityError as exc:
        raise NoSolutionError(
            f"homotopy system does not close: {exc} (window too short?)"
        ) from exc
    return taus


def _solve_through(through, rhs):
    """X with through o X == rhs; None if inconsistent. The columns of rhs
    with the same twist share one graded piece and one solve."""
    columns = list(rhs.columns)
    for twist in dict.fromkeys(rhs.source.twists):
        cols = [c for c, t in enumerate(rhs.source.twists) if t == twist]
        target = DegreeLayout(rhs.target, -twist)
        xs = graded_piece(through, -twist).solve_matrix(
            [target.coordinates(columns[c]) for c in cols]
        )
        if xs is None:
            return None
        source = DegreeLayout(through.source, -twist)
        for c, x in zip(cols, xs):
            columns[c] = source.element(x)
    return PolyMatrix(rhs.source, through.source, columns)


def sigma_component(system, indices, j):
    """sigma on e_{i1}^...^e_{is} (x) K_j: the composite tau_{i1} o ... o tau_{is},
    rightmost factor applied first; indices are 1-based and strictly increasing."""
    indices = tuple(indices)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly increasing")
    K = system.K
    if not indices:
        return PolyMatrix.identity(K.term(j))
    acc = None
    pos = j
    twist_acc = 0
    for idx in reversed(indices):
        tau = system.tau(idx).get(pos)
        if tau is None:
            # composite leaves the stored window: the zero map onto nothing
            src = K.term(j) if acc is None else acc.source
            dg = sum(system.g_list[i - 1].total_degree() for i in indices)
            return PolyMatrix.zero(src, K.term(j + len(indices)).twist(dg))
        step = tau.twisted(twist_acc)
        acc = step if acc is None else step.compose(acc)
        twist_acc += system.g_list[idx - 1].total_degree()
        pos += 1
    return acc


def sigma_maps(system, s):
    """All components sigma_{s,j} indexed by (subset, j), subsets lex ordered."""
    K = system.K
    out = {}
    for subset in combinations(range(1, system.c + 1), s):
        for j in range(K.lo, K.hi + 1 - s):
            out[(subset, j)] = sigma_component(system, subset, j)
    return out


def sigma_c_chain_map(system, ring_R, dmax):
    """sigma_c = tau_1 o ... o tau_c reduced mod I, certified.

    Returns (components over R, target complex, iso table). Raises
    NotChainMapError unless sigma_c: R (x) K -> R (x) K[-c] is a chain map, and
    H0IsoError unless, per internal degree d <= dmax, the induced map
    H_0 -> H_c is an isomorphism; the table maps d to (dim H_0, dim H_c, rank).
    """
    K = system.K
    c = system.c
    D = sum(g.total_degree() for g in system.g_list)
    f_top = K.hi

    RK = base_change(K, ring_R)
    target = RK.shift(-c).twist(D)
    sigma = {}
    for i in range(RK.lo, RK.hi + 1):
        if i + c > f_top:
            sigma[i] = PolyMatrix.zero(RK.term(i), target.term(i))
            continue
        over_S = sigma_component(system, tuple(range(1, c + 1)), i)
        sigma[i] = PolyMatrix(RK.term(i), target.term(i), over_S.columns)

    is_chain_map(sigma, RK, target)

    # H_c(R (x) K) in degree d + D is H_0 of the target in degree d; position
    # 0 of the target lies outside its window (dim 0) when c exceeds K.hi
    iso_table = _h0_iso_table(RK, target, sigma, range(dmax + 1))
    return sigma, target, iso_table


def tor_identity_check(g_list, ring_M, dmax, slot=None):
    """Graded comparison dim Tor_slot(R, M)_d == dim M_{d - D}, D = sum deg g.

    Computed from the Koszul complex of g tensored with M, as in the kernel
    description Tor_c = ker(E_c (x) M -> E_{c-1} (x) M); with the correct
    slot (= c) this holds degreewise, with a wrong slot it fails.
    Returns (ok, table of (dim_ker, dim_M_shifted) per degree).
    """
    c = len(g_list)
    if slot is None:
        slot = c
    if not 1 <= slot <= c:
        raise ValueError("slot must be between 1 and c")
    D = sum(g.total_degree() for g in g_list)
    EM = koszul_complex(list(g_list), ring_M)
    table = {}
    ok = True
    for d in range(0, dmax + 1):
        dim_ker = EM.term(slot).degree_dim(d) - EM.rank(slot, d)
        dim_m = ring_M.dim_degree(d - D)
        table[d] = (dim_ker, dim_m)
        if dim_ker != dim_m:
            ok = False
    return ok, table
