"""The integer root-system set-up against the Fraction formulas it
replaced (tests/references.py): reflections, lattice coordinates, root
norms, the cocycle table and the alcove-walk words, on every affine type
of the `verify --large` matrix; and a guard that the set-up does no
Fraction arithmetic."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import references
from dawcox import cli, diagrams
from dawcox.dagroup import AffineWalk, context, product
from dawcox.weyl import reflect
from references import ambient, vadd, vscale
from test_integer_walk import FractionWalk

LABELS = sorted(
    {str(diagrams.correspondence(diagrams.parse(name))) for name in cli.LABELS + cli.LARGE}
)
# every affine type, plus the half-delta A_{2n}^(2) contexts of the comparison
CONTEXTS = [(label, False) for label in LABELS] + [(f"A{2 * n}(2)", True) for n in (1, 2, 3)]

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


@pytest.fixture
def fraction_arithmetic(monkeypatch):
    """A Counter of the calls of Fraction's arithmetic dunders."""
    calls = Counter()

    def counting(name, original):
        def method(self, other):
            calls[name] += 1
            return original(self, other)

        return method

    for name in ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    return calls


@pytest.mark.parametrize("label, half", CONTEXTS)
def test_setup_does_no_fraction_arithmetic(label, half, fraction_arithmetic):
    ctx = context(label, half_delta=half)
    rs = ctx.rs
    bases = rs.m_basis(), rs.qcheck_basis()
    diags = rs.lattice_diagonals
    # T = d S^{-1}, the one rational inverse per root system, is the
    # multiplication's; everything counted below reads only integers.
    rs.finite_form
    fraction_arithmetic.clear()
    for r in rs.pos_roots:
        reflect(rs, r)
    for basis, diag in zip(bases, diags):
        for b in basis:
            ctx.coords(b, diag)
        rs.coroot_coords(rs.theta, diag)
    rs.coroot_coords(ctx.c_root, diags[1])
    for kind, make, basis in (("lam", ctx.lam, bases[0]), ("tau", ctx.tau, bases[1])):
        walk = AffineWalk(ctx, kind)
        for g in walk.generators + tuple(map(make, basis)):
            walk.word_for(g)
    assert fraction_arithmetic == Counter()


def test_the_guard_counts_fraction_arithmetic(fraction_arithmetic):
    rs = context("G2(1)").rs
    fraction_arithmetic.clear()
    references.reflect_matrix(rs, ambient(rs.theta))
    assert fraction_arithmetic["__mul__"] and fraction_arithmetic["__add__"]


@pytest.mark.parametrize("label", LABELS)
def test_reflections_match_the_bilinear_formula(label):
    rs = context(label).rs
    for r in rs.pos_roots:
        assert reflect(rs, r).matrix == references.reflect_matrix(rs, ambient(r)), r
    # non-roots: the same matrix or both not integral
    rng = random.Random(f"reflect {label}")
    raised = 0
    for _ in range(20):
        v = tuple(rng.randint(-1, 2) for _ in range(rs.n))
        if not any(v):
            continue
        try:
            want = references.reflect_matrix(rs, ambient(v))
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="is not an integer"):
                reflect(rs, v)
        else:
            assert reflect(rs, v).matrix == want, v
    assert raised or rs.n == 1


@pytest.mark.parametrize("label, half", CONTEXTS)
def test_coords_match_the_fraction_division(label, half):
    ctx = context(label, half_delta=half)
    rs = ctx.rs
    rng = random.Random(f"coords {label} {half}")
    for basis, diag in zip((rs.m_basis(), rs.qcheck_basis()), rs.lattice_diagonals):
        for _ in range(10):
            c = tuple(rng.randint(-9, 9) for _ in range(rs.n))
            x = references.combine(c, basis)
            assert ctx.coords(x, diag) == references.coords(x, basis) == c
            off = vadd(x, vscale(Fraction(1, rng.choice((2, 3, 5))), basis[rng.randrange(rs.n)]))
            for y in (off, vadd(x, rs.delta)):
                with pytest.raises(ValueError, match="not in the lattice"):
                    ctx.coords(y, diag)
                with pytest.raises(ValueError, match="not in the lattice"):
                    references.coords(y, basis)


@pytest.mark.parametrize("label", LABELS)
def test_norms_and_pairings_match_the_bilinear_form(label):
    rs = context(label).rs
    assert rs.pos_root_norms == references.pos_root_norms(rs)
    assert all(type(x) is Fraction for x in rs.pos_root_norms)
    assert rs.pairing_table == references.pairing_table(rs)
    lcd = rs.int_form[1]
    roots = rs.pos_roots[:6] + (rs.theta, rs.phi)
    for x in roots:
        for y in roots:
            assert rs.form(x, y) == lcd * rs.bilinear(ambient(x), ambient(y))


@pytest.mark.parametrize("label, half", CONTEXTS)
def test_walk_words_match_the_fraction_walk(label, half):
    # words in each walk's own generators: their products reach every
    # Weyl part and lattice vector that the walks read
    ctx = context(label, half_delta=half)
    rng = random.Random(f"walk {label} {half}")
    for kind, walk in (("lam", ctx.lam_walk), ("tau", ctx.tau_walk)):
        ref = FractionWalk(ctx, kind)
        for _ in range(4):
            g = product(ctx, (rng.choice(walk.generators) for _ in range(rng.randint(1, 8))))
            assert walk.word_for(g) == ref.word_for(g), (kind, g)
