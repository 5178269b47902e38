from fractions import Fraction

import pytest

from dawcox import rootsys
from dawcox.rootsys import build, parse_label, vadd, vscale, vsub
from dawcox.weyl import WeylGroup

ALL_LABELS = [
    "A1(1)", "A2(1)", "A3(1)", "B3(1)", "B4(1)", "C2(1)", "C3(1)",
    "D4(1)", "D5(1)", "E6(1)", "E7(1)", "E8(1)", "F4(1)", "G2(1)",
    "A2(2)", "A4(2)", "A6(2)", "A3(2)", "A5(2)", "A7(2)",
    "D3(2)", "D4(2)", "D5(2)", "E6(2)", "D4(3)",
]

TWIST = {"(1)": 1, "(2)": 2, "(3)": 3}


@pytest.fixture(scope="module")
def systems():
    return {lab: build(lab) for lab in ALL_LABELS}


def test_parse_roundtrip():
    lab = parse_label("A4(2)")
    assert (lab.letter, lab.N, lab.twist) == ("A", 4, 2)
    assert str(lab) == "A4(2)"
    with pytest.raises(rootsys.UnknownTypeError):
        parse_label("H3(1)")
    # "²" is a digit to str.isdigit but no rank
    with pytest.raises(rootsys.UnknownTypeError, match="cannot parse affine label 'A²\\(1\\)'"):
        parse_label("A²(1)")
    with pytest.raises(rootsys.UnknownTypeError):
        build("B2(1)")


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_cartan_invariants(systems, lab):
    rs = systems[lab]
    c = rs.cartan
    n = c.n
    # a_0^v = 1 always; a_0 = 1 except A_{2n}^(2).
    assert c.comarks[0] == 1
    even_a2 = lab[0] == "A" and lab.endswith("(2)") and int(lab[1:-3]) % 2 == 0
    assert c.a0 == (2 if even_a2 else 1)
    # twist equals the table number.
    assert c.twist == TWIST[lab[-3:]]
    # the symmetrized matrix d_i^{-1} a_ij must be symmetric.
    for i in range(n + 1):
        for j in range(n + 1):
            assert c.cartan[i][j] / c.d[i] == c.cartan[j][i] / c.d[j]


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_bilinear_form_basics(systems, lab):
    rs = systems[lab]
    # (delta, delta) = 0, (delta, Lambda0) = 1, (Lambda0, Lambda0) = 0.
    assert rs.bilinear(rs.delta, rs.delta) == 0
    assert rs.bilinear(rs.delta, rs.Lambda0) == 1
    assert rs.bilinear(rs.Lambda0, rs.Lambda0) == 0
    # (alpha_0, alpha_j) = d_0^{-1} a_0j even though alpha_0 is derived.
    for j in range(rs.n):
        expect = rs.cartan.cartan[0][j + 1] / rs.cartan.d[0]
        assert rs.bilinear(rs.alpha0, rs.simple_roots[j]) == expect
    assert rs.bilinear(rs.alpha0, rs.alpha0) == 2 / rs.cartan.d[0]
    # delta = a_0 alpha_0 + theta exactly.
    assert vadd(vscale(rs.a0, rs.alpha0), rs.theta) == rs.delta


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_nu_of_coroots(systems, lab):
    rs = systems[lab]
    for i, a in enumerate(rs.simple_roots):
        assert rs.coroot(a) == vscale(rs.cartan.d[i + 1], a)


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_max_root_norm_is_2r(systems, lab):
    rs = systems[lab]
    assert rs.max_root_norm() == 2 * rs.twist


@pytest.mark.parametrize("lab", ["A3(1)", "C3(1)", "G2(1)", "D4(3)", "A4(2)"])
def test_root_norms_are_computed_once(systems, lab, monkeypatch):
    rs = systems[lab]
    wg = WeylGroup(rs)

    def norm_facts():
        simply_laced = wg.is_simply_laced()
        short = None if simply_laced else wg.short_dominant()
        return simply_laced, short, rs.max_root_norm()

    first = norm_facts()
    calls = []
    bilinear = rootsys.RootSystemData.bilinear

    def counting(self, x, y):
        calls.append(1)
        return bilinear(self, x, y)

    monkeypatch.setattr(rootsys.RootSystemData, "bilinear", counting)
    assert norm_facts() == first
    assert calls == []


@pytest.mark.parametrize("lab,count", [("A1(1)", 1), ("A2(1)", 3), ("C2(1)", 4),
                                       ("B3(1)", 9), ("F4(1)", 24), ("G2(1)", 6),
                                       ("E6(1)", 36), ("A4(2)", 4), ("D4(3)", 6)])
def test_positive_root_counts(systems, lab, count):
    assert len(systems[lab].pos_roots) == count


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_theta_phi(systems, lab):
    rs = systems[lab]
    untwisted = rs.twist == 1
    even_a2 = lab[0] == "A" and lab.endswith("(2)") and int(lab[1:-3]) % 2 == 0
    if untwisted or even_a2:
        assert rs.theta == rs.phi
    else:
        assert rs.theta != rs.phi
        # theta short dominant, phi long dominant, (phi^v, theta) = 1.
        assert rs.bilinear(rs.theta, rs.theta) == 2
        assert rs.bilinear(rs.phi, rs.phi) == 2 * rs.twist
        assert rs.pairing(rs.theta, rs.phi) == 1
        # theta'/phi' orthogonality holds in the doubly-laced cases; for
        # the triply-laced system (theta', theta) = r - 2 instead.
        theta_prime, phi_prime = rs.primed(rs.theta, rs.phi)
        if rs.twist == 2:
            assert rs.bilinear(theta_prime, rs.theta) == 0
            assert rs.bilinear(phi_prime, rs.phi) == 0
        else:
            assert rs.bilinear(theta_prime, rs.theta) == rs.twist - 2
        assert rs.coroot(phi_prime) == vsub(rs.coroot(rs.theta), rs.coroot(rs.phi))
        assert theta_prime in rs.root_set
        assert phi_prime in rs.root_set
    for a in rs.simple_roots:
        assert rs.bilinear(rs.theta, a) >= 0
        assert rs.bilinear(rs.phi, a) >= 0


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_m_lattice(systems, lab):
    rs = systems[lab]
    mb = rs.m_basis()
    # a_0^{-1} theta = nu(theta^v) lies in M.
    nu_thetav = rs.coroot(rs.theta)
    assert nu_thetav == vscale(Fraction(1, rs.a0), rs.theta)
    assert rs.lattice_coords(nu_thetav, mb) is not None
    # M = nu(Qring^v) for r=1 and Qring for r=2,3; for A_{2n}^(2) the
    # a_0 = 2 rescaling makes M strictly larger than Qring.
    if rs.a0 == 2:
        target = [rs.coroot(r) for r in rs.pos_roots if rs.bilinear(r, r) == 4]
        for v in mb:
            assert any(
                rs.lattice_coords(v, [t] + list(mb[1:])) for t in target
            ) or rs.lattice_coords(v, mb)
        # W(a_0^{-1} theta) generates M: spot-check the orbit inclusion.
        for r in rs.pos_roots:
            if rs.bilinear(r, r) == 4:
                assert rs.lattice_coords(rs.coroot(r), mb) is not None
        return
    target = rs.qcheck_basis() if rs.twist == 1 else rs.simple_roots
    for v in mb:
        assert rs.lattice_coords(v, target) is not None
    for v in target:
        assert rs.lattice_coords(v, mb) is not None


def test_specific_norms(systems):
    # (theta, theta) = 2 in A_1^(1); bilinear example values from the text.
    rs = systems["A1(1)"]
    assert rs.bilinear(rs.theta, rs.theta) == 2
    assert systems["D4(3)"].max_root_norm() == 6
    assert systems["A2(2)"].max_root_norm() == 4


def test_ell0_values(systems):
    assert systems["A1(1)"].ell0() == 4
    assert systems["C2(1)"].ell0() == 2
    assert systems["C3(1)"].ell0() == 2
    assert systems["B3(1)"].ell0() == 1
    assert systems["D3(2)"].ell0() == 2
    assert systems["A3(2)"].ell0() == 2
    assert systems["A5(2)"].ell0() == 1
    assert systems["E6(2)"].ell0() == 1
    assert systems["D4(3)"].ell0() == 1


def test_isotropic_coroot_rejected(systems):
    rs = systems["A1(1)"]
    with pytest.raises(ValueError):
        rs.coroot(rs.delta)
