from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from dawcox import cli, diagrams, rootsys
from dawcox.rootsys import RootSystemData, build, parse_label
from dawcox.weyl import WeylGroup
from references import ambient, coroot, pairing, simple_roots, unit, vadd, vscale, vsub

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


# The labels of Kac's Tables Aff 1-3, as {(twist, letter): accepted N}.
KAC_TABLES = {
    (1, "A"): range(1, 10), (1, "B"): range(3, 10), (1, "C"): range(2, 10),
    (1, "D"): range(4, 10), (1, "E"): (6, 7, 8), (1, "F"): (4,), (1, "G"): (2,),
    (2, "A"): range(2, 10), (2, "D"): range(3, 10), (2, "E"): (6,),
    (3, "D"): (4,),
}


def test_affine_cartan_accepts_exactly_the_labels_of_the_tables():
    accepted = []
    for letter in "ABCDEFG":
        for N in range(10):
            for twist in (1, 2, 3):
                label = rootsys.AffineLabel(letter, N, twist)
                if N in KAC_TABLES.get((twist, letter), ()):
                    assert rootsys.affine_cartan(label).label == label
                    accepted.append(label)
                else:
                    with pytest.raises(rootsys.UnknownTypeError, match="is not in Tables Aff 1-3"):
                        rootsys.affine_cartan(label)
    assert len(accepted) == 52


KAC_LABELS = [
    str(rootsys.AffineLabel(letter, N, twist))
    for (twist, letter), ranks in KAC_TABLES.items()
    for N in ranks
]


@pytest.mark.parametrize("label", KAC_LABELS)
def test_lattice_diagonals_state_the_bases(label):
    rs = build(label)
    m, q = rs.lattice_diagonals
    # the bases as their definitions read: A_i = e_i alpha_i, and
    # nu(alpha_i^v) = 2 alpha_i / (alpha_i, alpha_i) from the bilinear form
    e = rs.cartan.e[1:]
    simple = simple_roots(rs)
    assert rs.m_basis() == tuple(vscale(x, a) for x, a in zip(e, simple))
    assert rs.qcheck_basis() == tuple(coroot(rs, a) for a in simple)
    for basis, diag in ((rs.m_basis(), m), (rs.qcheck_basis(), q)):
        assert basis == tuple(vscale(x, a) for x, a in zip(diag, simple))
    assert rs.m_scales == references.lattice_scales(rs.m_basis())
    assert rs.qcheck_scales == references.lattice_scales(rs.qcheck_basis())
    assert rs.pairing_table == references.pairing_table(rs)


@pytest.mark.parametrize("label", KAC_LABELS)
def test_coroot_coords_match_the_fraction_coroot(label):
    # nu(r^v) = 2 r / (r, r) for every root r, in both lattice bases:
    # the coordinates where the reference finds them, ValueError where
    # nu(r^v) is off the lattice
    rs = build(label)
    for root in rs.pos_roots:
        nu = coroot(rs, ambient(root))
        for diag, basis in zip(rs.lattice_diagonals, (rs.m_basis(), rs.qcheck_basis())):
            try:
                want = references.coords(nu, basis)
            except ValueError:
                with pytest.raises(ValueError, match="coroot coordinate"):
                    rs.coroot_coords(root, diag)
            else:
                assert rs.coroot_coords(root, diag) == want


def test_lattice_scales_reject_a_basis_that_is_not_diagonal():
    basis = build("G2(1)").m_basis()
    for bad in (
        basis[1:] + basis[:1],  # a permuted basis
        (vadd(basis[0], basis[-1]),) + basis[1:],  # a sheared one
        (vscale(0, basis[0]),) + basis[1:],  # a degenerate one
    ):
        with pytest.raises(ValueError, match="not a multiple of a simple root"):
            references.lattice_scales(bad)


def _primes_dividing(n, most):
    return [p for p in range(2, most + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-10**6, 10**6) | st.fractions(max_denominator=60), max_size=8),
    st.none() | st.integers(1, 60),
)
def test_clear_denominators_against_fraction_arithmetic(xs, den):
    if den is None:
        nums, lcd = rootsys.clear_denominators(xs)
        den = 1
    else:
        nums, lcd = rootsys.clear_denominators(xs, den)
    assert type(lcd) is int and all(type(x) is int for x in nums)
    assert [Fraction(x, lcd) for x in nums] == xs
    assert lcd > 0 and lcd % den == 0
    # least: for each prime p dividing L, L / p is not a multiple of den
    # that clears every x (every prime of L divides den or a denominator)
    for p in _primes_dividing(lcd, 60):
        c = lcd // p
        assert c % den or any((x * c).denominator != 1 for x in xs), (xs, den, p)


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_cartan_invariants(systems, lab):
    rs = systems[lab]
    c = rs.cartan
    n = c.n
    # the comarks a_i^v = a_i / d_i are the left null vector of the
    # Cartan matrix in positive integers, with a_0^v = 1 always
    comarks = [a / d for a, d in zip(c.marks, c.d)]
    assert comarks[0] == 1 and all(x > 0 and x.denominator == 1 for x in comarks)
    assert not any(sum(x * row[j] for x, row in zip(comarks, c.cartan)) for j in range(n + 1))
    # a_0 = 1 except A_{2n}^(2).
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
    lambda0 = unit(rs, rs.n + 1)
    assert rs.bilinear(rs.delta, lambda0) == 1
    assert rs.bilinear(lambda0, lambda0) == 0
    # (alpha_0, alpha_j) = d_0^{-1} a_0j even though alpha_0 is derived.
    for j, a in enumerate(simple_roots(rs)):
        expect = rs.cartan.cartan[0][j + 1] / rs.cartan.d[0]
        assert rs.bilinear(rs.alpha0, a) == expect
    assert rs.bilinear(rs.alpha0, rs.alpha0) == 2 / rs.cartan.d[0]
    # delta = a_0 alpha_0 + theta exactly.
    assert vadd(vscale(rs.a0, rs.alpha0), ambient(rs.theta)) == rs.delta


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_nu_of_coroots(systems, lab):
    rs = systems[lab]
    for i, a in enumerate(simple_roots(rs)):
        assert coroot(rs, a) == vscale(rs.cartan.d[i + 1], a)


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_max_root_norm_is_2r(systems, lab):
    rs = systems[lab]
    assert max(*rs.pos_root_norms, rs.bilinear(rs.alpha0, rs.alpha0)) == 2 * rs.label.twist


@pytest.mark.parametrize("lab", ["A3(1)", "C3(1)", "G2(1)", "D4(3)", "A4(2)"])
def test_root_norms_are_computed_once(systems, lab, monkeypatch):
    rs = systems[lab]
    wg = WeylGroup(rs)

    def norm_facts():
        simply_laced = wg.is_simply_laced()
        short = None if simply_laced else wg.short_dominant()
        return simply_laced, short, max(rs.pos_root_norms)

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
    untwisted = rs.label.twist == 1
    even_a2 = lab[0] == "A" and lab.endswith("(2)") and int(lab[1:-3]) % 2 == 0
    theta, phi = ambient(rs.theta), ambient(rs.phi)
    if untwisted or even_a2:
        assert rs.theta == rs.phi
    else:
        assert rs.theta != rs.phi
        # theta short dominant, phi long dominant, (phi^v, theta) = 1.
        assert rs.bilinear(theta, theta) == 2
        assert rs.bilinear(phi, phi) == 2 * rs.label.twist
        assert pairing(rs, theta, phi) == 1
        # theta'/phi' orthogonality holds in the doubly-laced cases; for
        # the triply-laced system (theta', theta) = r - 2 instead.
        theta_prime, phi_prime = rs.primed(rs.theta, rs.phi)
        assert ambient(theta_prime) == vsub(phi, theta)
        assert ambient(phi_prime) == vsub(vscale(pairing(rs, phi, theta), theta), phi)
        if rs.label.twist == 2:
            assert rs.bilinear(ambient(theta_prime), theta) == 0
            assert rs.bilinear(ambient(phi_prime), phi) == 0
        else:
            assert rs.bilinear(ambient(theta_prime), theta) == rs.label.twist - 2
        assert coroot(rs, ambient(phi_prime)) == vsub(coroot(rs, theta), coroot(rs, phi))
        roots = set(rs.pos_roots) | {tuple(-c for c in r) for r in rs.pos_roots}
        assert theta_prime in roots
        assert phi_prime in roots
    for a in simple_roots(rs):
        assert rs.bilinear(theta, a) >= 0
        assert rs.bilinear(phi, a) >= 0


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_m_lattice(systems, lab):
    rs = systems[lab]
    mb = rs.m_basis()
    # a_0^{-1} theta = nu(theta^v) lies in M.
    nu_thetav = coroot(rs, ambient(rs.theta))
    assert nu_thetav == vscale(Fraction(1, rs.a0), ambient(rs.theta))
    assert rs.lattice_coords(nu_thetav, mb) is not None
    # M = nu(Qring^v) for r=1 and Qring for r=2,3; for A_{2n}^(2) the
    # a_0 = 2 rescaling makes M strictly larger than Qring.
    roots = [ambient(r) for r in rs.pos_roots]
    if rs.a0 == 2:
        target = [coroot(rs, r) for r in roots if rs.bilinear(r, r) == 4]
        for v in mb:
            assert any(
                rs.lattice_coords(v, [t] + list(mb[1:])) for t in target
            ) or rs.lattice_coords(v, mb)
        # W(a_0^{-1} theta) generates M: spot-check the orbit inclusion.
        for r in roots:
            if rs.bilinear(r, r) == 4:
                assert rs.lattice_coords(coroot(rs, r), mb) is not None
        return
    target = rs.qcheck_basis() if rs.label.twist == 1 else simple_roots(rs)
    for v in mb:
        assert rs.lattice_coords(v, target) is not None
    for v in target:
        assert rs.lattice_coords(v, mb) is not None


def test_specific_norms(systems):
    # (theta, theta) = 2 in A_1^(1); bilinear example values from the text.
    rs = systems["A1(1)"]
    assert rs.bilinear(ambient(rs.theta), ambient(rs.theta)) == 2
    for lab, norm in (("D4(3)", 6), ("A2(2)", 4)):
        rs = systems[lab]
        assert max(*rs.pos_root_norms, rs.bilinear(rs.alpha0, rs.alpha0)) == norm


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


def _nodes_touching(rs, root):
    """The bilinear definition: finite nodes j with (root, alpha_j) != 0."""
    return [j + 1 for j, a in enumerate(simple_roots(rs)) if rs.bilinear(ambient(root), a) != 0]


@pytest.mark.parametrize(
    "lab", sorted({str(diagrams.correspondence(diagrams.parse(n))) for n in cli.LABELS + cli.LARGE})
)
def test_theta_and_phi_nodes_match_the_bilinear_reference(lab, monkeypatch):
    rs = build(lab)
    theta_nodes, phi_nodes = _nodes_touching(rs, rs.theta), _nodes_touching(rs, rs.phi)
    a = rs.cartan.cartan
    ell0 = a[0][theta_nodes[0]] * a[theta_nodes[0]][0]

    def no_bilinear(self, x, y):
        raise AssertionError("bilinear called")

    # the integer pairings make no bilinear call
    monkeypatch.setattr(RootSystemData, "bilinear", no_bilinear)
    assert rs.i_theta() == theta_nodes[0]
    assert rs.ell0() == ell0
    if len(phi_nodes) == 1:
        assert rs.i_phi() == phi_nodes[0]
    else:
        with pytest.raises(ValueError, match="finite nodes are not orthogonal to phi"):
            rs.i_phi()


@pytest.mark.parametrize("lab", ALL_LABELS)
def test_affine_cartan_is_solved_once_per_label(lab):
    label = parse_label(lab)
    assert rootsys.affine_cartan(label) is rootsys.affine_cartan(label)
    assert diagrams.affine_cartan is rootsys.affine_cartan


def test_a_verify_pass_solves_each_labels_comarks_once(capsys, monkeypatch):
    # _affine_table runs once per comark solve; a warm process solves none
    solved = []
    real = rootsys._affine_table

    def counting(label):
        solved.append(label)
        return real(label)

    monkeypatch.setattr(rootsys, "_affine_table", counting)
    assert cli.main(["verify", "--suite", "all", "--large"]) == 0
    capsys.readouterr()
    assert len(solved) == len(set(solved))
    # the diagrams read the solved data again, and solve nothing
    first = list(solved)
    for name in cli.LABELS + cli.LARGE:
        diagrams.build_diagram(name)
    assert solved == first
