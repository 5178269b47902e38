"""The integer alcove walk and the integer root enumeration against the
Fraction reference they replace: the same words for every label of the
`verify --large` matrix, the same positive roots, the same rejection of
elements outside the walk's subgroup, and no rational arithmetic inside
the walk loop."""

import random
from fractions import Fraction

import pytest

from dawcox import cli, diagrams, rootsys
from dawcox.dagroup import AffineWalk, DaweylElement, context, lam_word, tau_word
from dawcox.rootsys import RootSystemData, mat_inv
from dawcox.weyl import WeylElement, mat_vec
from references import ambient, coroot, root_of, simple_roots, vadd, vscale, vsub, weyl_act

LABELS = sorted(
    {
        str(diagrams.correspondence(diagrams.parse(name)))
        for name in cli.LABELS + cli.LARGE
    }
)
RANDOM_VECTORS = 2

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- the reference: the walk on Fraction points of the finite weight
# space, with the wall values as bilinear forms, and the root closure on
# Fraction vectors.


class FractionWalk:
    def __init__(self, ctx, kind):
        self.ctx = ctx
        self.kind = kind
        rs = ctx.rs
        self.c_root = ambient(rs.theta if kind == "lam" else ctx.c_root)
        self.c_coroot = coroot(rs, self.c_root)
        self.kappa = Fraction(2) / rs.bilinear(self.c_root, self.c_root)
        self.simple = simple_roots(rs)
        self.simple_coroots = tuple(coroot(rs, a) for a in self.simple)
        self.base = self._base_point()

    def _wall_values(self, x):
        rs = self.ctx.rs
        vals = [rs.bilinear(x, av) for av in self.simple_coroots]
        vals.append(self.kappa - rs.bilinear(x, self.c_coroot))
        return vals

    def _base_point(self):
        rs = self.ctx.rs
        n = rs.n
        basis = [
            tuple(_F1 if j == i else _F0 for j in range(n)) + (_F0, _F0)
            for i in range(n)
        ]
        pairing_inv = mat_inv([
            [rs.bilinear(basis[j], self.simple_coroots[i]) for j in range(n)]
            for i in range(n)
        ])
        for attempt in range(1, 40):
            denom = 1 << attempt
            rhs = [Fraction(i + 2, (i + 3) * denom) for i in range(n)]
            x = mat_vec(pairing_inv, rhs) + (_F0, _F0)
            if all(v > 0 for v in self._wall_values(x)):
                return x
        raise RuntimeError("no interior base point found")

    def _apply(self, i, x):
        rs = self.ctx.rs
        if i == 0:
            return vsub(x, vscale(rs.bilinear(x, self.c_coroot) - self.kappa, self.c_root))
        a = self.simple[i - 1]
        return vsub(x, vscale(rs.bilinear(x, coroot(rs, a)), a))

    def _point_of(self, g):
        rs = self.ctx.rs
        if self.kind == "lam":
            q = g.act(self.base[: rs.n] + (_F0, _F1))
            return q[: rs.n] + (_F0, _F0)
        return weyl_act(g.w, vadd(self.base, g.beta))

    def word_for(self, g):
        x = self._point_of(g)
        word = []
        while True:
            neg = [i for i, v in enumerate(self._wall_values(x)) if v < 0]
            if not neg:
                break
            gen = 0 if neg[0] == self.ctx.rs.n else neg[0] + 1
            x = self._apply(gen, x)
            word.append(gen)
            if len(word) > 100000:
                raise RuntimeError("alcove walk did not terminate")
        if x != self.base:
            raise ValueError("element is not in this affine subgroup")
        return tuple(word)


def fraction_positive_roots(rs):
    simple = simple_roots(rs)
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for a in simple:
                w = vsub(v, vscale(rs.bilinear(v, a) * 2 / rs.bilinear(a, a), a))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    pos = [v for v in seen if next(c for c in v if c) > 0]
    pos.sort(key=lambda v: (sum(v[: rs.n]), v))
    return pos


def _lattice_vectors(rng, basis):
    """The basis vectors and seeded random integer combinations of them."""
    out = list(basis)
    for _ in range(RANDOM_VECTORS):
        v = vscale(0, basis[0])
        for b in basis:
            v = vadd(v, vscale(rng.randint(-1, 1), b))
        out.append(v)
    return out


@pytest.mark.parametrize("label", LABELS)
def test_words_match_the_fraction_walk(label):
    ctx = context(label)
    rs = ctx.rs
    rng = random.Random(label)
    for kind, make, walk_word, basis in (
        ("lam", ctx.lam, lam_word, rs.m_basis()),
        ("tau", ctx.tau, tau_word, rs.qcheck_basis()),
    ):
        ref = FractionWalk(ctx, kind)
        for v in _lattice_vectors(rng, basis):
            # lam_word/tau_word also check that the word evaluates to
            # the element
            assert walk_word(ctx, v) == ref.word_for(make(v)), (label, kind, v)


@pytest.mark.parametrize("label", LABELS)
def test_positive_roots_match_the_fraction_closure(label):
    rs = rootsys.build(label)
    assert list(rs.pos_roots) == [root_of(v) for v in fraction_positive_roots(rs)]
    assert all(type(c) is int for r in rs.pos_roots for c in r)


@pytest.mark.parametrize("label", LABELS)
def test_lattice_translation_is_not_in_the_tau_walk(label):
    # <t_0, s_1..s_n> has no lam_mu with mu != 0: the checked word raises
    ctx = context(label)
    for mu in ctx.rs.m_basis():
        with pytest.raises(ValueError):
            ctx.tau_walk.checked_word(ctx.lam(mu))


@pytest.mark.parametrize("label", ["A3(2)", "D4(2)", "D4(3)", "E6(2)"])
def test_element_outside_the_subgroup_raises(label):
    # short coroot translations of these twisted systems are not in the
    # translation lattice of <s_0..s_n>
    ctx = context(label)
    walk, ref = ctx.lam_walk, FractionWalk(ctx, "lam")
    outside = 0
    for beta in ctx.rs.qcheck_basis():
        g = ctx.tau(beta)
        try:
            ref.word_for(g)
        except ValueError:
            outside += 1
            with pytest.raises(ValueError, match="not in this affine subgroup"):
                walk.word_for(g)
        else:
            assert walk.word_for(g) == ref.word_for(g)
    assert outside


def test_point_off_the_scaled_lattice_raises():
    # wall values that D does not make integral: not an image of the base.
    # The Weyl part is a shear, an integer matrix outside W; with A the
    # A_2 Cartan matrix (det A = 3), A s A^{-1} is not integral, so the
    # integer image of the base point fails the exact division.
    ctx = context("A2(1)")
    walk = ctx.tau_walk
    shear = WeylElement(ctx.rs, ((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="does not preserve the form"):
        shear.inv()
    g = DaweylElement(ctx, shear, ctx.zero_coords, ctx.zero_coords, 0)
    with pytest.raises(ValueError, match="not in this affine subgroup"):
        walk._values_of(g)
    with pytest.raises(ValueError, match="not in this affine subgroup"):
        walk.word_for(g)


def test_walk_loop_does_no_rational_arithmetic(monkeypatch):
    ctx = context(diagrams.correspondence(diagrams.parse("dddotE8")))
    rs = ctx.rs
    calls = []
    bilinear = RootSystemData.bilinear

    def counting(self, x, y):
        calls.append(1)
        return bilinear(self, x, y)

    monkeypatch.setattr(RootSystemData, "bilinear", counting)
    AffineWalk(ctx, "lam")
    AffineWalk(ctx, "tau")
    setup = len(calls)
    assert setup == 0
    ctx.lam_walk, ctx.tau_walk  # set up outside the counted walks
    per_walk = {}
    for scale in (1, 4):
        del calls[:]
        lam_len = len(lam_word(ctx, vscale(scale, rs.m_basis()[0])))
        tau_len = len(tau_word(ctx, vscale(scale, rs.qcheck_basis()[0])))
        per_walk[scale] = (len(calls), lam_len + tau_len)
    (short_calls, short_len), (long_calls, long_len) = per_walk[1], per_walk[4]
    assert long_len > 3 * short_len > 0
    assert long_calls == short_calls <= setup
