import json
from fractions import Fraction

import pytest

from dawcox import cli, dagroup, diagrams
from dawcox import presentation as pr
from dawcox.weyl import WeylGroup, reflect
from references import ambient, coroot


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
        c = gd.values()[pr.CENTRAL]
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
    c = gd.values(half=False)[pr.CENTRAL]
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
    assert gd.evaluate(word) == ctx.tau(coroot(ctx.rs, ambient(ctx.rs.theta)))


def test_psi_twisted_phi_word():
    # psi(X_{phi^v}) = Phi0 Phi
    gd = pr.generator_dictionary("ddotF4")
    pres = gd.presentation
    word = pr.wmul((("Phi0", 1),), pres.phi_word)
    ctx = gd.ctx
    assert gd.evaluate(word) == ctx.tau(coroot(ctx.rs, ambient(ctx.rs.phi)))


STARRED = ["dddotA1star", "dddotC1star", "dddotC2star", "dddotC3star"]


@pytest.mark.parametrize("name", STARRED)
def test_starred_images_match_the_comparison_formulas(name):
    # one image formula: with eps_1 = nu(theta^v), Theta02 -> s_0
    # tau_delta^k tau_{eps_1}^-1 and Theta03 -> tau_{eps_1} s_theta, with
    # k = 1 in A_{2n}^(2) and k = 1/2 in its half-delta extension
    gd = pr.generator_dictionary(name)
    n = diagrams.parse(name).rank
    dst, dst_c = (dagroup.context(f"A{2 * n}(2)", half_delta=h) for h in (False, True))
    assert [(q.ctx, q.k) for q in gd.quotients] == [(dst, 1), (dst_c, Fraction(1, 2))]
    for q in gd.quotients:
        ctx, img = q.ctx, q.images
        eps1 = ctx.tau_coords((1,) * n)
        assert img["Theta01"] == ctx.s(0)
        assert img["Theta02"] == ctx.s(0) * ctx.tau_delta(q.k) * eps1.inv()
        assert img["Theta03"] == eps1 * ctx.w(ctx.s_theta)
        assert all(img[f"T{i}"] == ctx.s(i) for i in range(1, ctx.n + 1))


@pytest.mark.parametrize(
    "name", [n for n in cli.LABELS + cli.LARGE if not diagrams.parse(n).is_star]
)
def test_plain_images_match_the_affine_formulas(name):
    # Theta02 -> s_0 tau_{alpha_0^v} on three affine nodes (a_0 = 1 there),
    # Phi0 -> tau_{nu(phi^v)} s_phi on two
    gd = pr.generator_dictionary(name)
    (q,) = gd.quotients
    ctx, img, rs = q.ctx, q.images, q.ctx.rs
    assert q.k == 1 and not q.half and img is gd.images and ctx is gd.ctx
    if gd.label.is_triple:
        assert img["Theta01"] == ctx.s(0)
        assert img["Theta02"] == ctx.s(0) * ctx.tau_alpha0()
        assert img["Theta03"] == ctx.tau(coroot(rs, ambient(rs.theta))) * ctx.w(ctx.s_theta)
    else:
        assert img["Theta0"] == ctx.s(0)
        assert img["Phi0"] == ctx.tau(coroot(rs, ambient(rs.phi))) * ctx.w(reflect(rs, rs.phi))
    assert all(img[f"T{i}"] == ctx.s(i) for i in range(1, ctx.n + 1))


@pytest.mark.parametrize("name", cli.LABELS + cli.LARGE)
def test_affine_letters_map_to_the_walk_generators(name):
    # the affine letters map to s_0 and t_0 = tau_{nu(c^v)} s_c in every
    # quotient, the affine generators of the lam and tau walks
    gd = pr.generator_dictionary(name)
    s0_letter, t0_letter = pr.affine_letters(gd.label)
    for q in gd.quotients:
        ctx, rs = q.ctx, q.ctx.rs
        c = rs.phi if rs.is_twisted_proper() else rs.theta
        assert ctx.t0 == ctx.tau(coroot(rs, ambient(c))) * ctx.w(reflect(rs, c))
        assert q.images[s0_letter] == ctx.s(0) == ctx.lam_walk.generators[0]
        assert q.images[t0_letter] == ctx.t0 == ctx.tau_walk.generators[0]


@pytest.mark.parametrize("name", ["dddotC2", "ddotB2"])
def test_a_wrong_tau_letter_image_fails_its_record(name, monkeypatch):
    # the letters of the tau walk words are pinned to the walk's
    # generators: the tau letter to t_0
    gd = pr.generator_dictionary(name)
    t0_letter = pr.affine_letters(gd.label)[1]
    assert _failed(pr.verify_presentation(name)) == []
    monkeypatch.setitem(gd.images, t0_letter, gd.images[t0_letter] * gd.ctx.tau_delta())
    assert f"{t0_letter} -> t0" in _failed(pr.verify_presentation(name))


@pytest.mark.parametrize("name", ["dddotC2", "ddotB2"])
def test_a_walk_word_with_a_dropped_letter_fails_presentation(name, monkeypatch, capsys):
    # the walk multiplies each psi word of lam_A_i and tau_a_i back to its
    # element when it builds the word; psi is rebuilt here, and the
    # dictionary's own psi comes back afterwards
    gd = pr.generator_dictionary(name)
    assert gd.psi
    monkeypatch.delitem(gd.__dict__, "psi")
    real = dagroup.AffineWalk.word_for
    monkeypatch.setattr(dagroup.AffineWalk, "word_for", lambda self, g: real(self, g)[1:])
    argv = ["verify", "--family", name, "--suite", "presentation", "--json"]
    assert cli.main(argv) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "FAIL"
    assert "does not evaluate to the element" in check["witness"]["exception"]


def test_half_delta_evaluation_needs_a_half_delta_quotient():
    gd = pr.generator_dictionary("dddotA2")
    with pytest.raises(ValueError, match="no half-delta quotient"):
        gd.evaluate((("T1", 1),), half=True)
    with pytest.raises(ValueError, match="no half-delta quotient"):
        gd.values(half=True)[pr.CENTRAL]
    assert gd.quotient() is gd.quotients[0]


@pytest.mark.parametrize("name", ["dddotA2", "ddotB2", "dddotC2star"])
def test_central_word_is_evaluated_once_per_quotient(name, monkeypatch):
    # the [C, a] relations, C -> tau_delta, psi(tau_delta), the starred
    # and the rewrite identities all read one value of C per quotient
    gd = pr.generator_dictionary(name)
    central = gd.presentation.central_word
    calls = []
    real = pr.LetterValues.evaluate

    def spy(self, word):
        if word == central:
            calls.append(self.ctx)
        return real(self, word)

    monkeypatch.setattr(pr.LetterValues, "evaluate", spy)
    assert _failed(pr.verify_presentation(name)) == []
    assert calls == [q.ctx for q in gd.quotients]
