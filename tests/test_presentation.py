import pytest

from dawcox import cli, dagroup, diagrams
from dawcox import presentation as pr
from dawcox.weyl import WeylGroup


def _failed(records):
    return [name for name, lhs, rhs in records if lhs != rhs]


@pytest.mark.parametrize("name", cli.LABELS)
def test_verify_presentation(name):
    records = pr.verify_presentation(name)
    assert _failed(records) == []
    pres = pr.generator_dictionary(name).presentation
    assert len(records) > len(pres.relations) + len(pres.identities)


def test_verify_presentation_e6():
    assert _failed(pr.verify_presentation("dddotE6")) == []


def test_elliptic_relations_only_for_ell0_2():
    p1 = pr.build_presentation("dddotC2")
    assert sum(1 for n, _, _ in p1.relations if n.startswith("ellbraid")) == 3
    p2 = pr.build_presentation("dddotB3")
    assert not any(n.startswith("ellbraid") for n, _, _ in p2.relations)
    p3 = pr.build_presentation("dddotA1")  # ell0 = 4: no elliptic relations
    assert not any(n.startswith("ellbraid") for n, _, _ in p3.relations)


def test_generator_dictionary_is_built_once_per_label():
    from dawcox import diagrams

    gd = pr.generator_dictionary("dddotC2")
    assert pr.generator_dictionary(diagrams.parse("dddotC2")) is gd
    assert pr.generator_dictionary("dddotC2star") is not gd
    assert gd.psi is gd.psi


def test_central_image_is_tau_delta():
    for name in ["dddotA2", "dddotC2", "ddotB3", "ddotG2"]:
        gd = pr.generator_dictionary(name)
        c = gd.central_image()
        assert c.is_central_power() and c.k == 1


def test_finite_generator_images_are_involutions():
    gd = pr.generator_dictionary("dddotC2")
    for i in (1, 2):
        img = gd.images[f"T{i}"]
        assert (img * img).is_identity()


def test_theta02_image_squares_to_identity_in_cn1():
    # (s_0 tau_{alpha_0^v})^2 = 1 in the C_n^(1) double affine Weyl group
    from dawcox import dagroup

    ctx = dagroup.context("C2(1)")
    g = ctx.s(0) * ctx.tau_alpha0()
    assert (g * g).is_identity()


def test_superfluous_branch_star_relations():
    gd = pr.generator_dictionary("dddotC2star")
    # the square relation in the half-delta quotient
    sq = gd.evaluate((("Theta02", 2),), half=True)
    assert sq.is_identity()
    # the central identification in the plain A_4^(2) quotient
    sq2 = gd.evaluate((("Theta02", 2),), half=False)
    c = gd.central_image(half=False)
    assert sq2 == c and sq2.k == 1


def _identities(name, prefix):
    pres = pr.generator_dictionary(name).presentation
    return [n for n, _, _ in pres.identities if n.startswith(prefix)]


def _failures_with_broken(name, identity, monkeypatch):
    """The failed relations that verify_presentation reports when one
    derived identity is made false: its right side gains a letter."""
    pres = pr.generator_dictionary(name).presentation
    broken = tuple(
        (n, lhs, rhs + (("T1", 1),) if n == identity else rhs)
        for n, lhs, rhs in pres.identities
    )
    with monkeypatch.context() as m:
        m.setattr(pres, "identities", broken)
        return _failed(pr.verify_presentation(name))


def _check_identities(name, prefix, count, monkeypatch):
    assert _failed(pr.verify_presentation(name)) == []
    names = _identities(name, prefix)
    assert len(names) == count, names
    for identity in names:
        assert _failures_with_broken(name, identity, monkeypatch) == [identity]


@pytest.mark.parametrize("name", ["ddotB3", "ddotC3", "ddotB2", "ddotF4"])
def test_b2_pattern(name, monkeypatch):
    _check_identities(name, "B2 pattern", len(pr.B2_PATTERN), monkeypatch)


@pytest.mark.parametrize("name", ["ddotB3", "ddotC3", "ddotB2", "ddotF4", "ddotG2"])
def test_central_word_rewrites(name, monkeypatch):
    _check_identities(name, "C = (Phi0 ", 1, monkeypatch)


@pytest.mark.parametrize("name", ["dddotA2", "dddotB3", "dddotD4", "dddotF4", "dddotG2"])
def test_theta02_expression(name, monkeypatch):
    _check_identities(name, "Theta02 expression", 1, monkeypatch)


def test_theta02_expression_rejects_bad_input():
    # the expression needs an untwisted family with a single lace at the
    # affine node: none for ell0 = 2 or 4, the starred or the ddot labels
    for name in ("dddotC2", "dddotA1", "dddotC2star", "ddotB2"):
        assert _identities(name, "Theta02 expression") == []
    assert _identities("dddotA2", "B2 pattern") == []


PRIMED = [
    "s_theta' s_theta = s_phi s_phi'",
    "s_phi' s_phi = s_theta s_theta'",
]
# the three more identities that hold when |phi|^2 = 2 |theta|^2
PRIMED_DOUBLY_LACED = [
    "s_theta = s_phi' s_theta' s_phi'",
    "s_phi = s_theta' s_phi' s_theta'",
    "2-braid of s_theta', s_phi'",
]


def _appendix_a(name):
    (run,) = (run for _, run in cli.checks_for(name, "appendixA"))
    return run()


@pytest.mark.parametrize("name", ["dddotB3", "ddotB3", "ddotG2", "ddotF4"])
def test_distinguished_elements(name, monkeypatch):
    # appendixA checks the identities that tie the primed reflections
    # together, next to the structural lemma for x, y
    records = _appendix_a(name)
    assert _failed(records) == []
    names = [n for n, _, _ in records]
    expected = PRIMED + (PRIMED_DOUBLY_LACED if name != "ddotG2" else [])
    assert [n for n in names if n in PRIMED + PRIMED_DOUBLY_LACED] == expected
    # break one identity at a time (its right side gains a reflection):
    # exactly that record fails
    real = WeylGroup.xy_identities
    for identity in expected:
        def broken(self, identity=identity):
            return [
                (n, lhs, rhs * self.simples[0] if n == identity else rhs)
                for n, lhs, rhs in real(self)
            ]

        with monkeypatch.context() as m:
            m.setattr(WeylGroup, "xy_identities", broken)
            assert _failed(_appendix_a(name)) == [identity]


def test_distinguished_simply_laced():
    # no x, y and no primed reflections: appendixA has nothing to check
    assert _appendix_a("dddotA2") == []
    wg = dagroup.context(diagrams.correspondence(diagrams.parse("dddotA2"))).wg
    assert wg.is_simply_laced()


def test_psi_untwisted_theta_word():
    # psi(X_{theta^v}) = Theta03 Theta: its image is tau_{theta^v}
    gd = pr.generator_dictionary("dddotB3")
    pres = gd.presentation
    word = pr.wmul((("Theta03", 1),), pres.theta_word)
    ctx = gd.ctx
    assert gd.evaluate(word) == ctx.tau(ctx.rs.coroot(ctx.rs.theta))


def test_psi_twisted_phi_word():
    # psi(X_{phi^v}) = Phi0 Phi
    gd = pr.generator_dictionary("ddotF4")
    pres = gd.presentation
    word = pr.wmul((("Phi0", 1),), pres.phi_word)
    ctx = gd.ctx
    assert gd.evaluate(word) == ctx.tau(ctx.rs.coroot(ctx.rs.phi))
