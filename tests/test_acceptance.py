"""Acceptance suite: every criterion at its stated tolerance, exact arithmetic.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run with -s
to see them live). All comparisons are exact integer/matrix equality.
"""

import functools
import random


from tatesplice.arith import Polynomial, PrimeField, VariableContext, parse_polynomial
from tatesplice.freecomplex import (
    BaseRing,
    _homology_dim,
    complex_from_doc,
)
from tatesplice.groebner import buchberger
from tatesplice.harness import dump_output, oracle_homology, run_build
from tatesplice.homotopy import HomotopySystem, sigma_c_chain_map, tor_identity_check
from tatesplice.koszul import LiftMatrix
from tatesplice.shamash import es_resolution
from tatesplice.tate import (
    PolyMatrix,
    betti_dual_match,
    general_splice,
    is_two_periodic,
    lift_matrix_to_S,
    mcm_generator_count,
    orthogonality_check,
    tate_splice,
)


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {n} ({label}): FAIL", flush=True)
                raise
            print(f"[acceptance] criterion {n} ({label}): PASS", flush=True)
        return run
    return wrap


def ranks_of(doc):
    lo, hi = doc["tate"]["window"]
    return [sum(doc["betti"][str(i)].values()) for i in range(lo, hi + 1)]


@criterion(1, "Example 1 reproduction")
def test_criterion_1(build_t):
    # splice entry equals det A = x*y, a socle generator
    assert build_t["tate"]["diffs"]["0"] == [["x*y"]]
    # Betti numbers over [-4, 5]: (4,3,2,1 | 1,2,3,4,5,6)
    assert ranks_of(build_t) == [4, 3, 2, 1, 1, 2, 3, 4, 5, 6]
    betti = {int(i): {int(t): n for t, n in v.items()} for i, v in build_t["betti"].items()}
    for i in range(0, 6):
        assert betti[i] == {-i: i + 1}, "b_i = i + 1 with generator degree i"
    for j in range(0, 4):
        assert sum(betti[-1 - j].values()) == sum(betti[j].values())
    # certified totally acyclic along both the sparse path and the dense oracle
    assert build_t["certificates"]["acyclicity"]["passed"]
    C = complex_from_doc(build_t["tate"], validate=False)
    for i in range(C.lo + 1, C.hi):
        for d in range(-6, 11):
            sparse = _homology_dim(C, i, d)
            assert sparse == oracle_homology(C, i, d) == 0


@criterion(2, "generator-count formula")
def test_criterion_2_formula():
    assert mcm_generator_count(3, 2) == 2
    assert mcm_generator_count(5, 2) == 13
    assert mcm_generator_count(4, 1) == 8


@criterion(2, "built presentations realize the formula")
def test_criterion_2_built_presentations(build_c, build_52, build_41):
    """Built-and-minimized presentations versus the closed form.

    The three builds are certified (chain map, H0 isomorphism, total
    acyclicity, minimality with (g) inside m*(f)), so the generator count of
    the essential MCM approximation is forced to be rank(T_0) by Nakayama.
    The closed form must agree with these independently certified counts.
    """
    built = {
        (3, 2): build_c["mcm"]["generator_count"],
        (5, 2): build_52["mcm"]["generator_count"],
        (4, 1): build_41["mcm"]["generator_count"],
    }
    for pair in built:
        assert built[pair] == mcm_generator_count(*pair), (
            f"criterion 2: built presentation for (n, c) = {pair} has "
            f"{built[pair]} generators, printed formula gives "
            f"{mcm_generator_count(*pair)}"
        )


@criterion(3, "sigma_c chain map and H0 -> H_c isomorphism")
def test_criterion_3(inst_t, inst_c):
    for bundle in (inst_t, inst_c):
        system = HomotopySystem.koszul_wedge(bundle.lift, bundle.ring_S)
        sigma, target, iso_table = sigma_c_chain_map(system, bundle.ring_R, dmax=10)
        assert sorted(iso_table) == list(range(11))
        for d, (h0, hc, rank) in iso_table.items():
            assert h0 == hc == rank


@criterion(4, "Tor identity")
def test_criterion_4(inst_t, inst_c):
    ok, _ = tor_identity_check(inst_t.g, inst_t.ring_M, dmax=10)
    assert ok
    ok, _ = tor_identity_check(inst_c.g, inst_c.ring_M, dmax=10)
    assert ok
    # one random monomial instance (seeded)
    rng = random.Random(2026)
    a, b, c = (rng.choice([2, 3]) for _ in range(3))
    field = PrimeField(32003)
    ctx = VariableContext(["x", "y", "z"])
    f = [
        parse_polynomial(s, ctx, field)
        for s in (f"x^{a}", f"y^{b}", f"z^{c}")
    ]
    g = [parse_polynomial(s, ctx, field) for s in (f"x^{a + 1}", f"y^{b + 2}")]
    ring_m = BaseRing(ctx, field, buchberger(f))
    ok, _ = tor_identity_check(g, ring_m, dmax=12)
    assert ok


@criterion(5, "hypersurface matrix factorization")
def test_criterion_5(build_h, inst_h):
    C = complex_from_doc(build_h["tate"], validate=False)
    # 2-periodic in both directions, entrywise
    assert build_h["certificates"]["two_periodic"]["passed"]
    assert is_two_periodic(C)
    for i in range(C.lo + 1, C.hi - 1):
        assert C.diff(i).entries == C.diff(i + 2).entries
    # consecutive S-lifted differentials multiply to g * identity both ways
    g = inst_h.g[0]
    for i in range(C.lo + 1, C.hi):
        left = lift_matrix_to_S(C.diff(i), inst_h.ring_S)
        right = lift_matrix_to_S(C.diff(i + 1), inst_h.ring_S)
        assert left.compose(right).entries == PolyMatrix.scalar(right.source, g).entries


@criterion(6, "minimality when (g) is inside m*(f)")
def test_criterion_6(build_t, build_c, build_h, build_52, build_41):
    for doc in (build_t, build_c, build_h, build_52, build_41):
        assert doc["certificates"]["minimal"]["passed"], (
            "pre-minimization splice has a unit entry"
        )


@criterion(7, "duality of the two splice routes")
def test_criterion_7(inst_t, inst_c):
    for bundle, m, window, dmax in (
        (inst_t, 0, (-4, 5), 10),
        (inst_c, 1, (-4, 6), 12),
    ):
        length = max(window[1], m - 1 - window[0]) + 1
        res = es_resolution(bundle.lift, bundle.ring_R, length)
        tate = tate_splice(res, window=window, dmax=dmax)
        dual = general_splice(res.complex, res.complex, m, window=window, dmax=dmax)
        # the splice from the other side: G and F swapped
        other = general_splice(res.complex, res.complex, m, window=window, dmax=dmax)
        assert betti_dual_match(dual, other, m, dual.meta["twist_offset"])
        assert betti_dual_match(tate, dual, m, dual.meta["twist_offset"])


@criterion(8, "Cramer orthogonality on randomized lifts")
def test_criterion_8():
    rng = random.Random(14)
    field = PrimeField(32003)
    shapes = [(3, 2), (4, 2), (4, 3)]
    names = ["x", "y", "z", "w"]
    done = 0
    trial = 0
    while done < 20:
        n, c = shapes[trial % len(shapes)]
        trial += 1
        ctx = VariableContext(names[:n])
        f = [parse_polynomial(f"{v}^2", ctx, field) for v in names[:n]]
        lin = [parse_polynomial(v, ctx, field) for v in names[:n]]
        A = [
            [
                functools.reduce(
                    lambda p, q: p + q,
                    (l.scale(rng.randrange(field.p)) for l in lin),
                )
                for _ in range(c)
            ]
            for _ in range(n)
        ]
        g = []
        for j in range(c):
            acc = Polynomial.zero(ctx, field)
            for i in range(n):
                acc = acc + A[i][j] * f[i]
            g.append(acc)
        if any(gj.is_zero() for gj in g):
            continue
        assert orthogonality_check(LiftMatrix(A, f, g))
        done += 1
    assert done == 20


@criterion(9, "sparse/dense homology oracle agreement")
def test_criterion_9(build_t, build_c, build_h, build_52, build_41):
    for doc in (build_t, build_c, build_h, build_52, build_41):
        C = complex_from_doc(doc["tate"], validate=False)
        dmax = doc["meta"]["dmax"]
        start = min(-t for i in range(C.lo, C.hi + 1) for t in C.term(i).twists)
        for i in range(C.lo, C.hi + 1):
            for d in range(start, dmax + 1):
                sparse = _homology_dim(
                    C, i, d, lo_zero=(i == C.lo), hi_zero=(i == C.hi)
                )
                assert sparse == oracle_homology(C, i, d)


@criterion(10, "byte-identical determinism")
def test_criterion_10(inst_t, inst_c, inst_h, inst_52, inst_41,
                      build_t, build_c, build_h, build_52, build_41):
    pairs = [
        (inst_t, build_t),
        (inst_c, build_c),
        (inst_h, build_h),
        (inst_52, build_52),
        (inst_41, build_41),
    ]
    for bundle, first in pairs:
        again = run_build(bundle.instance)
        assert dump_output(again) == dump_output(first)
