import random
from fractions import Fraction

import pytest

from dawcox import cli, dagroup, diagrams
from dawcox.dagroup import a2n2_comparison, comparison_image, context, lam_word, tau_word
from dawcox.rootsys import build, mat_inv, parse_label
from dawcox.weyl import WeylElement, element, mat_mul, mat_vec
from references import ambient, coroot, vadd, vneg, vscale, vsub, weyl_act

LABELS = ["A1(1)", "C2(1)", "A2(2)", "D3(2)", "G2(1)", "D4(3)", "B3(1)", "E6(2)"]


@pytest.fixture(scope="module")
def ctxs():
    return {lab: context(lab) for lab in LABELS}


def random_element(ctx, rng, size=2):
    g = ctx.identity()
    n = ctx.n
    syms = [f"s{i}" for i in range(n + 1)]
    syms += [f"lam_A{i}" for i in range(1, n + 1)]
    syms += [f"tau_a{i}" for i in range(1, n + 1)]
    syms += ["tau_delta", "tau_alpha0"]
    for _ in range(rng.randint(1, 3 * size)):
        g = g * ctx.generator(rng.choice(syms)) ** rng.choice([-2, -1, 1, 2])
    return g


def random_points(ctx, rng, count=5):
    pts = []
    for _ in range(count):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.n)]
        coords.append(Fraction(rng.randint(-3, 3)))
        coords.append(Fraction(rng.choice([1, 2])))  # nonzero level
        pts.append(tuple(coords))
    return pts


@pytest.mark.parametrize("lab", LABELS)
def test_generator_squares_and_inverses(ctxs, lab):
    ctx = ctxs[lab]
    for i in range(ctx.n + 1):
        s = ctx.s(i)
        assert (s * s).is_identity()
    rng = random.Random(11)
    for _ in range(25):
        g = random_element(ctx, rng)
        assert (g * g.inv()).is_identity()
        assert (g.inv() * g).is_identity()
        assert g.inv().inv() == g
        # powers against repeated products, including g**0 = identity
        assert g**0 == ctx.identity()
        pos = neg = ctx.identity()
        for e in (1, 2, 3):
            pos = pos * g
            neg = neg * g.inv()
            assert g**e == pos
            assert g**-e == neg


@pytest.mark.parametrize("lab", LABELS)
def test_lam_tau_commutator_cocycle(ctxs, lab):
    # lam_mu tau_beta = tau_beta lam_mu tau_delta^{-(beta,mu)}, so the
    # commutator is tau_delta^{-(beta,mu)}; cross-checked against the
    # defining action in test_action_is_homomorphism.
    ctx = ctxs[lab]
    rs = ctx.rs
    for mu in rs.m_basis():
        for beta in rs.qcheck_basis():
            comm = (
                ctx.lam(mu)
                * ctx.tau(beta)
                * ctx.lam(mu).inv()
                * ctx.tau(beta).inv()
            )
            pair = rs.bilinear(beta, mu)
            assert pair.denominator == 1
            assert comm == ctx.tau_delta(-pair)
            # the defining relation spelled out:
            assert ctx.lam(mu) * ctx.tau(beta) == ctx.tau(beta) * ctx.lam(
                mu
            ) * ctx.tau_delta(-pair)


@pytest.mark.parametrize("lab", LABELS)
def test_conjugation_relations(ctxs, lab):
    # w lam_mu w^{-1} = lam_{w(mu)}; w tau_beta w^{-1} = tau_{w(beta)}
    ctx = ctxs[lab]
    rs = ctx.rs
    for i in range(1, ctx.n + 1):
        s = ctx.s(i)
        for mu in rs.m_basis():
            assert s * ctx.lam(mu) * s.inv() == ctx.lam(weyl_act(ctx.wg.simples[i - 1], mu))
        for beta in rs.qcheck_basis():
            assert s * ctx.tau(beta) * s.inv() == ctx.tau(weyl_act(ctx.wg.simples[i - 1], beta))
    # s_0 as well: s_0(beta) picks up a delta component, which lands in k.
    s0 = ctx.s(0)
    for beta in rs.qcheck_basis():
        img = s0.act(beta)  # the linear action on the root
        k = img[ctx.n]
        finite = img[: ctx.n] + (Fraction(0), Fraction(0))
        expect = ctx.tau(finite) * ctx.tau_delta(k)
        assert s0 * ctx.tau(beta) * s0.inv() == expect


@pytest.mark.parametrize("lab", LABELS)
def test_action_is_homomorphism(ctxs, lab):
    rng = random.Random(5)
    ctx = ctxs[lab]
    pts = random_points(ctx, rng)
    for _ in range(60):
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        g12 = g1 * g2
        for p in pts:
            assert g12.act(p) == g1.act(g2.act(p))


@pytest.mark.parametrize("lab", LABELS)
def test_associativity(ctxs, lab):
    rng = random.Random(17)
    ctx = ctxs[lab]
    for _ in range(40):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_associativity_200_triples(ctxs):
    rng = random.Random(19)
    ctx = ctxs["C2(1)"]
    for _ in range(200):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_tau_delta_translation(ctxs):
    ctx = ctxs["A1(1)"]
    p = tuple(map(Fraction, [1, 2, 1]))
    q = ctx.tau_delta().act(p)
    assert q == vadd(p, ctx.rs.delta)


def test_s0_equals_reflection_matrix(ctxs):
    # s0 = s_theta lam_{-a0^{-1}theta} acts like the linear reflection
    # in alpha_0 on the full space.
    for lab in LABELS:
        ctx = ctxs[lab]
        rs = ctx.rs
        s0 = ctx.s(0)
        rng = random.Random(1)
        for p in random_points(ctx, rng, 4):
            direct = vadd(
                p, vscale(-rs.bilinear(p, coroot(rs, rs.alpha0)), rs.alpha0)
            )
            assert s0.act(p) == direct


def test_lam_fixes_level_zero_orthogonal(ctxs):
    ctx = ctxs["A1(1)"]
    mu = ctx.rs.m_basis()[0]
    p = (Fraction(0), Fraction(3), Fraction(0))  # delta direction only
    assert ctx.lam(mu).act(p) == p


def lam_reference(rs, mu, x):
    """lam_mu(x) = x + (x, delta) mu - ((x, mu) + (mu, mu)/2 (x, delta)) delta,
    term by term with the full bilinear form."""
    xd = rs.bilinear(x, rs.delta)
    coeff = rs.bilinear(x, mu) + rs.bilinear(mu, mu) / 2 * xd
    return vsub(vadd(x, vscale(xd, mu)), vscale(coeff, rs.delta))


def test_lam_linear_matches_reflection_composition(ctxs):
    # lam_{a0^{-1} theta} = s_0 s_theta; the Kac translation formula must
    # agree with the composition of reflections on random points.
    rng = random.Random(23)
    for lab in LABELS:
        ctx = ctxs[lab]
        rs = ctx.rs
        comp = ctx.s(0) * ctx.w(ctx.s_theta)
        lam = ctx.lam(coroot(rs, ambient(rs.theta)))
        assert comp == lam
        for p in random_points(ctx, rng, 3):  # points at level 1 or 2
            assert comp.act(p) == lam.act(p)
            assert lam.act(p) == lam_reference(rs, lam.mu, p)
            # mu = 0: lam_0 is the identity
            assert ctx.lam((Fraction(0),) * rs.dim).act(p) == p
            # k != 0: the point is shifted by k delta before lam_mu acts
            for k in (Fraction(-2), Fraction(1, 2), Fraction(3)):
                shifted = vadd(p, vscale(k, rs.delta))
                assert ctx.tau_delta(k).act(p) == shifted
                g = ctx.lam(lam.mu) * ctx.tau_delta(k)
                assert g.act(p) == lam_reference(rs, lam.mu, shifted)


# -- The integer action against the term-by-term reference, on every
# affine type the verify labels reach and on the half-delta extensions.

ACTION_LABELS = sorted(
    {str(diagrams.correspondence(diagrams.parse(lab))) for lab in cli.LABELS + cli.LARGE}
)
ACTION_CASES = [(lab, False) for lab in ACTION_LABELS] + [
    (f"A{2 * n}(2)", True) for n in (1, 2, 3)
]


def action_points(ctx, rng):
    """Points at level 0, at integer and at non-integer levels, and one
    with plain int entries."""
    pts = []
    for level in (0, 1, -2, Fraction(1, 2), Fraction(-5, 3)):
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.n)]
        pts.append((*x, Fraction(rng.randint(-3, 3), rng.choice([1, 2])), Fraction(level)))
    pts.append((*(rng.randint(-3, 3) for _ in range(ctx.n)), rng.randint(-2, 2), 1))
    return pts


def act_reference(g, p):
    """g.act(p) as w(lam_mu(p + k delta + beta)), term by term with the
    full bilinear form."""
    rs = g.ctx.rs
    shifted = vadd(vadd(tuple(map(Fraction, p)), vscale(g.k, rs.delta)), g.beta)
    return weyl_act(g.w, lam_reference(rs, g.mu, shifted))


@pytest.mark.parametrize("lab, half_delta", ACTION_CASES)
def test_action_matches_the_term_by_term_reference(lab, half_delta):
    ctx = context(lab, half_delta)
    rng = random.Random(37)
    pts = action_points(ctx, rng)
    for _ in range(20):
        g = random_element(ctx, rng)
        if half_delta:
            g = g * ctx.tau_delta(Fraction(rng.choice([-3, -1, 1, 3]), 2))
        for p in pts:
            got, want = g.act(p), act_reference(g, p)
            # values and their text: the benchmark serializes with str
            assert got == want
            assert [str(c) for c in got] == [str(c) for c in want]


def _mul_act_mismatches(ctx, rng, right=None):
    """How often (g h).act(p) differs from g.act(h.act(p)) over seeded
    random g and h (h = right if given)."""
    pts = action_points(ctx, rng)
    bad = 0
    for _ in range(30):
        g = random_element(ctx, rng)
        h = right or random_element(ctx, rng)
        bad += sum((g * h).act(p) != g.act(h.act(p)) for p in pts)
    return bad


def test_the_action_does_not_read_the_pairing_table(monkeypatch):
    # A wrong cocycle table breaks the multiplication only: a context
    # built after the change still acts as the reference says, also on
    # normal forms whose (beta, mu) reads the changed entry, so the
    # oracle catches the mismatch.
    rs = build("C2(1)")
    assert _mul_act_mismatches(context("C2(1)"), random.Random(41)) == 0
    table = rs.pairing_table
    shifted = ((table[0][0] + 1, *table[0][1:]), *table[1:])
    monkeypatch.setitem(rs.__dict__, "pairing_table", shifted)
    ctx = dagroup.DaweylContext(rs)
    assert _mul_act_mismatches(ctx, random.Random(41)) > 0
    rng = random.Random(43)
    elements = [random_element(ctx, rng) for _ in range(30)]
    assert any(g.beta_coords[0] and g.mu_coords[0] for g in elements)
    pts = action_points(ctx, rng)
    assert all(g.act(p) == act_reference(g, p) for g in elements for p in pts)


def test_the_action_does_not_read_the_lattice_matrices(monkeypatch):
    # Likewise for one entry of the M-basis matrix of s_1^{-1}, which
    # every product with s_1 on the right reads.
    ctx = context("C2(1)")
    s1 = ctx.s(1)
    assert _mul_act_mismatches(ctx, random.Random(47), right=s1) == 0
    inverse = s1.w.inv()
    m = inverse.m_matrix
    monkeypatch.setitem(inverse.__dict__, "m_matrix", ((m[0][0] + 1, *m[0][1:]), *m[1:]))
    assert _mul_act_mismatches(ctx, random.Random(47), right=s1) > 0


def test_the_action_reads_none_of_the_multiplication_tables(monkeypatch):
    # Every table the multiplication computes with raises on access; the
    # action, its own table built only now, still matches the reference.
    rs = build("G2(1)")
    ctx = dagroup.DaweylContext(rs)
    rng = random.Random(53)
    elements = [random_element(ctx, rng) for _ in range(10)]
    pts = action_points(ctx, rng)
    want = [[act_reference(g, p) for p in pts] for g in elements]

    def boom(self):
        raise AssertionError("the action read a table of the multiplication")

    for name in ("pairing_table", "m_scales", "qcheck_scales", "finite_form"):
        monkeypatch.setattr(type(rs), name, property(boom))
    for name in ("inv", "m_matrix", "qcheck_matrix"):
        monkeypatch.setattr(WeylElement, name, property(boom))
    assert "action_table" not in ctx.__dict__
    assert [[g.act(p) for p in pts] for g in elements] == want


def test_s0s1_infinite_order_a11(ctxs):
    ctx = ctxs["A1(1)"]
    g = ctx.s(0) * ctx.s(1)
    acc = ctx.identity()
    for _ in range(50):
        acc = acc * g
        assert not acc.is_identity()


def _failed(records):
    return [name for name, lhs, rhs in records if lhs != rhs]


def _bernstein_failures(lab):
    return set(_failed(dagroup.verify_bernstein_relations(lab)))


@pytest.mark.parametrize("lab", LABELS)
def test_center(ctxs, lab, monkeypatch):
    # the Bernstein report checks tau_delta central and of infinite order
    assert _bernstein_failures(lab) == set()
    with monkeypatch.context() as m:
        m.setattr(dagroup.DaweylContext, "tau_delta", lambda self, k=1: self.identity())
        assert _bernstein_failures(lab) == {"tau_delta non-torsion"}
        (torsion,) = (lhs for name, lhs, _ in dagroup.verify_bernstein_relations(lab)
                      if name == "tau_delta non-torsion")
        assert torsion == list(range(1, 11))
    with monkeypatch.context() as m:
        m.setattr(dagroup.DaweylContext, "tau_delta", lambda self, k=1: self.s(1))
        failed = _bernstein_failures(lab)
        assert "tau_delta non-torsion" in failed
        assert any(name.startswith("center gen=") for name in failed)
    ctx = ctxs[lab]
    assert not ctx.tau_delta().is_identity()
    # tau_delta is the normal form (1, 0, 0, k = 1), with k an int
    td = ctx.tau_delta()
    assert (td.w, td.mu_coords, td.beta_coords, td.k) == (
        ctx.wg.id, ctx.zero_coords, ctx.zero_coords, 1
    )
    assert type(td.k) is int and ctx.tau_delta(Fraction(1)) == td


@pytest.mark.parametrize("lab", LABELS)
def test_faithfulness_on_test_points(ctxs, lab):
    ctx = ctxs[lab]
    rng = random.Random(29)
    pts = random_points(ctx, rng, 8)
    seen = {}
    count = 500 if lab == "A1(1)" else 120
    for _ in range(count):
        g = random_element(ctx, rng)
        key = tuple(g.act(p) for p in pts)
        if key in seen:
            assert seen[key] == g, "distinct elements agree on all points"
        seen[key] = g


@pytest.mark.parametrize("lab", LABELS)
def test_subgroup_generated_by_s_has_no_tau(ctxs, lab):
    ctx = ctxs[lab]
    rng = random.Random(31)
    for _ in range(30):
        g = ctx.identity()
        for _ in range(rng.randint(1, 12)):
            g = g * ctx.s(rng.randint(0, ctx.n))
        assert not any(g.beta)
        assert g.k == 0


@pytest.mark.parametrize("lab", ["A1(1)", "C2(1)", "D3(2)", "G2(1)", "A2(2)"])
def test_alcove_walk_roundtrips(ctxs, lab):
    ctx = ctxs[lab]
    rs = ctx.rs
    for mu in rs.m_basis():
        for v in (mu, vneg(mu), vscale(2, mu)):
            word = lam_word(ctx, v)  # evaluate() inside asserts equality
            assert all(0 <= i <= ctx.n for i in word)
    for beta in rs.qcheck_basis():
        for v in (beta, vneg(beta)):
            tau_word(ctx, v)


@pytest.mark.parametrize("lab", LABELS)
def test_bernstein_relations(ctxs, lab):
    records = dagroup.verify_bernstein_relations(lab)
    assert _failed(records) == []
    assert all(isinstance(name, str) for name, _, _ in records)
    assert any(name.startswith("center gen=") for name, _, _ in records)


def test_pairing_two_relation_presence():
    # the pairing-2 relation appears for C2(1) and not for B3(1), and
    # the presence record says so
    presence = "pairing-2 relation present iff C-family"
    for lab, present in (("C2(1)", True), ("B3(1)", False)):
        records = dagroup.verify_bernstein_relations(lab)
        assert _failed(records) == []
        assert (presence, present, present) in records
        assert any(name.startswith("t0-comm-long") for name, _, _ in records) == present


def _full_delta_for_half(monkeypatch):
    """tau_{delta/2} built as tau_delta: the second kernel generator of
    the A_{2n}^(2) comparison then does not vanish."""
    real = dagroup.DaweylContext.tau_delta
    monkeypatch.setattr(
        dagroup.DaweylContext, "tau_delta",
        lambda self, k=1: real(self, 1 if k == Fraction(1, 2) else k),
    )


@pytest.mark.parametrize("n", [1, 2])
def test_a2n2_comparison(n, monkeypatch):
    records = a2n2_comparison(n)
    assert _failed(records) == []
    names = [name for name, _, _ in records]
    assert {"kernel generator i trivial", "kernel generator ii trivial"} <= set(names)
    # a kernel generator that does not vanish is reported by name
    _full_delta_for_half(monkeypatch)
    assert _failed(a2n2_comparison(n)) == ["kernel generator ii trivial"]


@pytest.mark.parametrize("n, braids", [
    (1, []),
    (2, ["braid 0,1", "braid 0,2", "braid 1,2"]),
    (3, ["braid 0,1", "braid 0,2", "braid 0,3", "braid 1,2", "braid 1,3", "braid 2,3"]),
])
def test_a2n2_comparison_record_names(n, braids):
    # the records, by name and in order: the finite reflections, s0, the
    # braid relations of morphism i, the two kernel generators, the shift
    names = [name for name, _, _ in a2n2_comparison(n)]
    assert names == [
        *(f"s{i} maps to s{i}" for i in range(1, n + 1)),
        "s0 maps to s0",
        *braids,
        "kernel generator i trivial",
        "kernel generator ii trivial",
        "square is tau_delta^{-1}",
    ]


# -- The epsilon dictionaries of the A_{2n}^(2) comparison, kept here as
# the Fraction reference for its identity on lattice coordinates: T maps
# sqrt2 eps_i of C_n^(1) to eps_i of A_{2n}^(2), in simple-root coordinates.


def _epsilon_matrix_c(n):
    """sqrt2 eps_i = 2(alpha_i + ... + alpha_{n-1}) + alpha_n (alpha_j =
    (e_j - e_{j+1}) / sqrt2, alpha_n = sqrt2 e_n), as columns."""
    return [
        tuple(Fraction(2 if i <= j < n else int(j == n)) for j in range(1, n + 1))
        for i in range(1, n + 1)
    ]


def _epsilon_matrix_a(n):
    """eps_i = alpha_i + ... + alpha_{n-1} + alpha_n / 2 (alpha_i = eps_i -
    eps_{i+1}, alpha_n = 2 eps_n), as columns."""
    return [
        tuple(Fraction(1) if i <= j < n else Fraction(j == n, 2) for j in range(1, n + 1))
        for i in range(1, n + 1)
    ]


def _epsilon_map(n):
    """The matrix of T: the A-columns times the inverse of the C-columns."""
    eps_c, eps_a = _epsilon_matrix_c(n), _epsilon_matrix_a(n)
    cols_c = tuple(tuple(eps_c[j][i] for j in range(n)) for i in range(n))
    cols_a = tuple(tuple(eps_a[j][i] for j in range(n)) for i in range(n))
    return mat_mul(cols_a, mat_inv(cols_c))


def _finite(v, n):
    return tuple(v[:n]) + (Fraction(0), Fraction(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a2n2_comparison_matches_the_epsilon_reference(n):
    src = context("A1(1)" if n == 1 else f"C{n}(1)")
    dst, dst_c = context(f"A{2 * n}(2)"), context(f"A{2 * n}(2)", half_delta=True)
    rs_c, rs_a = src.rs, dst.rs
    eps_c, eps_a = _epsilon_matrix_c(n), _epsilon_matrix_a(n)
    # the dictionaries are orthonormal: (sqrt2 eps_i, sqrt2 eps_j) = 2 delta_ij
    # in C_n^(1) and (eps_i, eps_j) = delta_ij in A_{2n}^(2)
    for i in range(n):
        for j in range(n):
            assert rs_c.bilinear(_finite(eps_c[i], n), _finite(eps_c[j], n)) == 2 * (i == j)
            assert rs_a.bilinear(_finite(eps_a[i], n), _finite(eps_a[j], n)) == (i == j)
    t = _epsilon_map(n)
    t_inv = mat_inv(t)
    assert t == tuple(tuple(Fraction(i == j, 2) for j in range(n)) for i in range(n))
    rng = random.Random(n)
    for _ in range(30):
        g = random_element(src, rng, size=3)
        w = mat_mul(mat_mul(t, g.w.matrix), t_inv)
        assert element(rs_a, g.w.matrix).matrix == w
        image = comparison_image(g)
        assert image.ctx is dst_c and image.w.matrix == w
        assert image.mu == _finite(mat_vec(t, g.mu[:n]), n)
        assert image.beta == _finite(mat_vec(t, g.beta[:n]), n)
        assert image.k == Fraction(g.k, 2)
        # and a homomorphism on products
        h = random_element(src, rng)
        assert comparison_image(g * h) == image * comparison_image(h)
    # eps_1 = sum_i nu(alpha_i^v)
    assert dst.tau_coords((1,) * n).beta == _finite(eps_a[0], n)


def test_a2n2_comparison_rejects_a_basis_that_is_not_halved(monkeypatch):
    real = type(context("C2(1)").rs).lattice_diagonals.func

    def doubled(rs):
        m, q = real(rs)
        if rs.label.letter == "A" and rs.label.twist == 2:
            m = tuple(2 * x for x in m)
        return m, q

    assert a2n2_comparison(2)
    monkeypatch.setattr(type(context("C2(1)").rs), "lattice_diagonals", property(doubled))
    with pytest.raises(ValueError, match="half the identity"):
        a2n2_comparison(2)


def test_half_delta_context():
    ctx = context("A2(2)", half_delta=True)
    h = ctx.tau_delta(Fraction(1, 2))
    assert h * h == ctx.tau_delta(1)


def test_contexts_share_one_root_system():
    a = context("B3(1)")
    b = context(parse_label("B3(1)"), half_delta=True)
    assert a is not b and a.rs is b.rs
    assert build("B3(1)") is a.rs
    # one context per (label, half_delta), however the label is spelled
    assert context(parse_label("B3(1)")) is a
    assert context("B3(1)", half_delta=True) is b
    assert a.lam_walk is a.lam_walk and a.tau_walk is not b.tau_walk


def test_elements_of_different_groups_are_unequal():
    """B3(1) and C3(1) share their normal-form shapes, so equal integer
    coordinates must not make elements of the two groups equal."""
    b3, c3 = context("B3(1)"), context("C3(1)")
    assert b3.identity().describe() == c3.identity().describe()
    assert b3.identity() != c3.identity() and b3.s(1) != c3.s(1)
    assert b3.s(1).w.matrix == c3.s(1).w.matrix and b3.s(1).w != c3.s(1).w
    assert b3.identity() == b3.s(1) * b3.s(1) and b3.s(1).w == b3.s(1).w
    # The half-delta extension shares its root system with A4(2).
    a4, a4_half = context("A4(2)"), context("A4(2)", half_delta=True)
    assert a4.rs is a4_half.rs and a4.s(1).w == a4_half.s(1).w
    assert a4.identity() != a4_half.identity() and a4.s(1) != a4_half.s(1)
