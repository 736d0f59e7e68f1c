"""Solved homotopies, sigma composites, the sigma_c certificate, Tor identity."""

import pytest

from tatesplice.arith import PrimeField, VariableContext, parse_polynomial
from tatesplice import freecomplex, homotopy, koszul
from tatesplice.errors import H0IsoError, LiftIdentityError, NoSolutionError, NotChainMapError
from tatesplice.freecomplex import BaseRing, GradedFreeModule, PolyMatrix
from tatesplice.groebner import buchberger
from tatesplice.homotopy import (
    HomotopySystem,
    sigma_c_chain_map,
    sigma_component,
    sigma_maps,
    solve_homotopy,
    tor_identity_check,
)
from tatesplice.koszul import LiftMatrix, alpha_element, koszul_complex, wedge_map
from tatesplice.syzygies import minimal_resolution

F = PrimeField(32003)
XY = VariableContext(["x", "y"])
XYZ = VariableContext(["x", "y", "z"])
S2 = BaseRing(XY, F)
S3 = BaseRing(XYZ, F)


def pxy(s):
    return parse_polynomial(s, XY, F)


def p3(s):
    return parse_polynomial(s, XYZ, F)


def test_solve_homotopy_on_koszul():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    tau = solve_homotopy(K, pxy("x^2"))
    # contract is the identity, not equality with the wedge homotopy
    Ktw = K.twist(2)
    for i in range(0, 2):
        lhs = Ktw.diff(i + 1).compose(tau[i])
        if i > 0:
            lhs = lhs + tau[i - 1].compose(K.diff(i))
        assert lhs == PolyMatrix.scalar(K.term(i), pxy("x^2"))


def test_solve_homotopy_rejects_non_annihilator():
    K = koszul_complex([p3("x"), p3("y")], S3)
    with pytest.raises(NoSolutionError):
        solve_homotopy(K, p3("z"))


def test_solve_homotopy_window_too_short():
    K = koszul_complex([pxy("x"), pxy("y")], S2).subwindow(0, 1)
    with pytest.raises(NoSolutionError):
        solve_homotopy(K, pxy("x^2"))


def test_solve_homotopy_on_syzygy_resolution():
    # minimal resolution of S/(x,y)^2: ranks 1, 3, 2
    gens = [pxy("x^2"), pxy("x*y"), pxy("y^2")]
    target = GradedFreeModule(S2, (0,))
    source = GradedFreeModule(S2, (-2, -2, -2))
    pres = PolyMatrix.from_rows(source, target, [[g for g in gens]])
    res = minimal_resolution(pres, 2, 8)
    assert [res.term(i).rank for i in range(3)] == [1, 3, 2]
    tau = solve_homotopy(res, pxy("x^2"))
    Ktw = res.twist(2)
    for i in range(0, 3):
        lhs = PolyMatrix.zero(res.term(i), Ktw.term(i))
        if i < 2:
            lhs = lhs + Ktw.diff(i + 1).compose(tau[i])
        if i > 0:
            lhs = lhs + tau[i - 1].compose(res.diff(i))
        assert lhs == PolyMatrix.scalar(res.term(i), pxy("x^2"))


def _system_t():
    lift = LiftMatrix.from_lift([pxy("x"), pxy("y")], [pxy("x^2"), pxy("y^2")])
    return HomotopySystem.koszul_wedge(lift, S2), lift


def _system_c():
    f = [p3("x^2"), p3("y^2"), p3("z^2")]
    g = [p3("x^3"), p3("y^3")]
    lift = LiftMatrix.from_lift(f, g)
    return HomotopySystem.koszul_wedge(lift, S3), lift


def test_koszul_wedge_checks_each_homotopy_once(monkeypatch):
    calls = []
    real = freecomplex.check_homotopy_identity

    def counting(K, g, tau):
        calls.append(g)
        return real(K, g, tau)

    for module in (freecomplex, koszul, homotopy):
        monkeypatch.setattr(module, "check_homotopy_identity", counting)
    system, lift = _system_c()
    assert calls == list(lift.g)
    assert system.c == 2


def test_koszul_wedge_builds_one_koszul_complex(monkeypatch):
    calls = []
    real = koszul.koszul_complex

    def counting(f, ring):
        calls.append(tuple(f))
        return real(f, ring)

    for module in (koszul, homotopy):
        monkeypatch.setattr(module, "koszul_complex", counting)
    system, lift = _system_c()
    assert system.c == 2
    assert calls == [lift.f]


def test_sigma_empty_index_is_identity():
    system, _ = _system_t()
    for j in range(0, 3):
        assert sigma_component(system, (), j).entries == PolyMatrix.identity(
            system.K.term(j)
        ).entries


def test_sigma_single_index_is_tau():
    system, _ = _system_t()
    for j in range(0, 2):
        assert sigma_component(system, (1,), j).entries == system.tau(1)[j].entries


def test_sigma_c_equals_wedge_alpha_on_k0():
    system, lift = _system_c()
    alpha = alpha_element(lift)
    composite = sigma_component(system, (1, 2), 0)
    direct = wedge_map(alpha, 0, list(lift.f_degrees), S3)
    assert composite.entries == direct.entries


def test_sigma_maps_family_shape():
    system, _ = _system_c()
    fam = sigma_maps(system, 1)
    assert ((1,), 0) in fam and ((2,), 1) in fam


def test_homotopy_order_anticommutes_mod_ideal():
    system, lift = _system_c()
    gb_I = buchberger(list(lift.g))
    t1, t2 = system.tau(1), system.tau(2)
    for i in range(0, 2):
        forward = t1[i + 1].twisted(3).compose(t2[i])
        backward = t2[i + 1].twisted(3).compose(t1[i])
        total = forward + backward
        for row in total.entries:
            for e in row:
                assert gb_I.is_member(e)


def _assert_iso(iso_table, dmax):
    assert sorted(iso_table) == list(range(dmax + 1))
    for h0, hc, rank in iso_table.values():
        assert h0 == hc == rank


def test_sigma_c_certificate_instance_t():
    system, lift = _system_t()
    R = BaseRing(XY, F, buchberger(list(lift.g)))
    sigma, target, iso_table = sigma_c_chain_map(system, R, dmax=10)
    _assert_iso(iso_table, 10)
    assert sigma[0].entries == ((pxy("x*y"),),)


def test_sigma_c_certificate_instance_c():
    system, lift = _system_c()
    R = BaseRing(XYZ, F, buchberger(list(lift.g)))
    sigma, target, iso_table = sigma_c_chain_map(system, R, dmax=10)
    _assert_iso(iso_table, 10)


def _system_h():
    lift = LiftMatrix([[pxy("x")], [pxy("y")]], [pxy("x"), pxy("y")], [pxy("x^2 + y^2")])
    R = BaseRing(XY, F, buchberger(list(lift.g)))
    return HomotopySystem.koszul_wedge(lift, S2), R


def test_sigma_c_certificate_hypersurface():
    system, R = _system_h()
    sigma, target, iso_table = sigma_c_chain_map(system, R, dmax=8)
    _assert_iso(iso_table, 8)
    # sigma_1 is wedge by x e_1 + y e_2
    assert [row[0] for row in sigma[0].entries] == [pxy("x"), pxy("y")]


def test_sigma_c_rejects_a_map_that_is_not_a_chain_map(monkeypatch):
    # 2 sigma_0 beside sigma_1 breaks the square at position 1
    system, R = _system_h()
    real = homotopy.sigma_component
    monkeypatch.setattr(
        homotopy,
        "sigma_component",
        lambda sys_, subset, j: real(sys_, subset, j).scale(2 if j == 0 else 1),
    )
    with pytest.raises(NotChainMapError) as e:
        sigma_c_chain_map(system, R, dmax=8)
    assert e.value.position == 1


def test_sigma_c_rejects_a_chain_map_without_h0_isomorphism(monkeypatch):
    # the zero map is a chain map, and it kills H_0 = F_p in degree 0
    system, R = _system_h()
    real = homotopy.sigma_component

    def zero(sys_, subset, j):
        m = real(sys_, subset, j)
        return PolyMatrix.zero(m.source, m.target)

    monkeypatch.setattr(homotopy, "sigma_component", zero)
    with pytest.raises(H0IsoError) as e:
        sigma_c_chain_map(system, R, dmax=8)
    assert e.value.degree == 0


def test_corrupted_lift_rejected_upstream():
    with pytest.raises(LiftIdentityError):
        LiftMatrix(
            [[pxy("x"), pxy("0")], [pxy("0"), pxy("0")]],
            [pxy("x"), pxy("y")],
            [pxy("x^2"), pxy("y^2")],
        )


def test_solved_system_matches_contract():
    K = koszul_complex([pxy("x"), pxy("y")], S2)
    system = HomotopySystem.solved(K, [pxy("x^2"), pxy("y^2")])
    assert system.provenance == "solved"


def test_tor_identity_instances():
    ring_m2 = BaseRing(XY, F, buchberger([pxy("x"), pxy("y")]))
    ok, table = tor_identity_check([pxy("x^2"), pxy("y^2")], ring_m2, dmax=10)
    assert ok and table[4] == (1, 1)

    ring_m3 = BaseRing(XYZ, F, buchberger([p3("x^2"), p3("y^2"), p3("z^2")]))
    ok, _ = tor_identity_check([p3("x^3"), p3("y^3")], ring_m3, dmax=10)
    assert ok

    ok, _ = tor_identity_check([pxy("x^2 + y^2")], ring_m2, dmax=8)
    assert ok


def test_tor_identity_wrong_slot():
    ring_m3 = BaseRing(XYZ, F, buchberger([p3("x^2"), p3("y^2"), p3("z^2")]))
    ok, _ = tor_identity_check([p3("x^3"), p3("y^3")], ring_m3, dmax=8, slot=1)
    assert not ok
