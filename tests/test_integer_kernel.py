"""The integer normal form of the double affine Weyl kernel against an
ambient-vector Fraction reference of the product and inverse, and
against the affine action oracle `act`."""

import random
from fractions import Fraction

import pytest

from dawcox import cli, diagrams
from dawcox.dagroup import context
from dawcox.rootsys import vadd, vneg, vscale
from dawcox.weyl import WeylElement, int_matrix, mat_inv

LABELS = sorted(
    {str(diagrams.correspondence(diagrams.parse(name))) for name in cli.LABELS + cli.LARGE}
)
WORDS = 12


# -- the reference: (W, mu, beta, k) with W a Fraction matrix and mu, beta
# ambient vectors, multiplied by the ambient formulas and inverted by
# Gaussian elimination (weyl.mat_inv), independently of the kernel.


def _apply(m, v):
    n = len(m)
    return tuple(
        sum((m[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)
    ) + tuple(v[n:])


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def ref_of(g):
    return (
        tuple(tuple(Fraction(x) for x in row) for row in g.w.matrix),
        g.mu,
        g.beta,
        Fraction(g.k),
    )


def ref_mul(rs, x, y):
    w1, mu1, b1, k1 = x
    w2, mu2, b2, k2 = y
    w2inv = mat_inv(w2)
    mu = _apply(w2inv, mu1)
    beta = _apply(w2inv, b1)
    return _matmul(w1, w2), vadd(mu, mu2), vadd(beta, b2), k1 + k2 + rs.bilinear(beta, mu2)


def ref_inv(rs, x):
    w, mu, beta, k = x
    return mat_inv(w), vneg(_apply(w, mu)), vneg(_apply(w, beta)), -k + rs.bilinear(beta, mu)


def ref_equal(g, ref):
    return (g.w.matrix, g.mu, g.beta, g.k) == ref


def _contexts(label):
    out = [context(label)]
    if label.startswith("A") and label.endswith("(2)") and int(label[1:-3]) % 2 == 0:
        out.append(context(label, half_delta=True))
    return out


def _generators(ctx):
    n = ctx.n
    syms = [f"s{i}" for i in range(n + 1)]
    syms += [f"lam_A{i}" for i in range(1, n + 1)]
    syms += [f"tau_a{i}" for i in range(1, n + 1)]
    syms += ["tau_delta", "tau_alpha0"]
    gens = [ctx.generator(s) for s in syms]
    if ctx.half_delta:
        gens.append(ctx.tau_delta(Fraction(1, 2)))
    return gens


def _word(rng, gens, length):
    return [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(length)]


def _points(rng, ctx):
    """Random points at level (Lambda0-coefficient) 0, 1 and 2."""
    pts = []
    for level in (0, 1, 2):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.n)]
        pts.append(tuple(coords) + (Fraction(rng.randint(-3, 3)), Fraction(level)))
    return pts


@pytest.mark.parametrize("label", LABELS)
def test_product_and_inverse_match_reference_and_action(label):
    rng = random.Random(label)
    for ctx in _contexts(label):
        rs = ctx.rs
        gens = _generators(ctx)
        pts = _points(rng, ctx)
        for _ in range(WORDS):
            g, ref = ctx.identity(), ref_of(ctx.identity())
            for h, e in _word(rng, gens, rng.randint(1, 6)):
                href = ref_of(h)
                if e < 0:
                    href = ref_inv(rs, href)
                for _ in range(abs(e)):
                    ref = ref_mul(rs, ref, href)
                g = g * h**e
                assert ref_equal(g, ref), (label, g)
            assert ref_equal(g.inv(), ref_inv(rs, ref))
            # the integer representation: int matrices and coordinates
            assert all(type(x) is int for row in g.w.matrix for x in row)
            assert all(type(c) is int for c in g.mu_coords + g.beta_coords)
            assert type(g.k) is int or (ctx.half_delta and g.k.denominator == 2)
            # round trip through the ambient entry points lam and tau
            assert ctx.w(g.w) * ctx.lam(g.mu) * ctx.tau(g.beta) * ctx.tau_delta(g.k) == g
            # against the action oracle
            h = g * gens[rng.randrange(len(gens))]
            for p in pts:
                assert (g * h).act(p) == g.act(h.act(p))
                assert g.inv().act(g.act(p)) == p


@pytest.mark.parametrize("label", LABELS)
def test_lattice_data_is_integral(label):
    ctx = context(label)
    rs = ctx.rs
    table = rs.pairing_table
    for i, b in enumerate(rs.qcheck_basis()):
        for j, a in enumerate(rs.m_basis()):
            assert type(table[i][j]) is int and table[i][j] == rs.bilinear(b, a)
    rng = random.Random(label)
    gens = _generators(ctx)
    for _ in range(WORDS):
        g = ctx.identity()
        for h, e in _word(rng, gens, 4):
            g = g * h**e
        w = g.w
        for mat, basis in ((w.m_matrix, rs.m_basis()), (w.qcheck_matrix, rs.qcheck_basis())):
            assert all(type(x) is int for row in mat for x in row)
            # column j is w(basis_j) in the basis
            for j, b in enumerate(basis):
                col = tuple(row[j] for row in mat)
                assert rs.combine(col, basis) == w.act(b)


@pytest.mark.parametrize("label", ["A1(1)", "C2(1)", "A4(2)", "G2(1)"])
def test_off_lattice_input_raises(label):
    ctx = context(label)
    rs = ctx.rs
    half = vscale(Fraction(1, 2), rs.m_basis()[0])
    with pytest.raises(ValueError):
        ctx.lam(half)
    with pytest.raises(ValueError):
        ctx.tau(vscale(Fraction(1, 2), rs.qcheck_basis()[0]))
    with pytest.raises(ValueError):
        ctx.tau(vscale(Fraction(1, 3), rs.qcheck_basis()[0]))
    with pytest.raises(ValueError):  # mu must be finite
        ctx.lam(rs.delta)


def test_generator_indices_checked():
    ctx = context("C2(1)")
    rs = ctx.rs
    assert ctx.generator("lam_A2") == ctx.lam(rs.m_basis()[1])
    assert ctx.generator("tau_a1") == ctx.tau(rs.qcheck_basis()[0])
    for sym in ("lam_A0", "lam_A3", "tau_a0", "tau_a3", "s3", "s-1"):
        with pytest.raises(ValueError):
            ctx.generator(sym)


def test_integrality_checks_raise():
    with pytest.raises(ValueError):
        int_matrix(((Fraction(1, 2), 0), (0, 1)))
    rs = context("C2(1)").rs
    # a matrix that is not a Weyl element: no exact lattice action or
    # form-preserving inverse
    assert rs.m_scales == (2, 1)
    bad = WeylElement(rs, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        bad.inv()
    with pytest.raises(ValueError):  # it would send A_2 to A_1 / 2 + A_2
        bad.m_matrix


@pytest.mark.parametrize("label", LABELS)
def test_coords_divide_by_the_diagonal_as_lattice_coords_solves(label):
    # ctx.coords divides by the diagonal of the M and nu(Q^v) bases;
    # rs.lattice_coords solves the general system; they must agree on
    # lattice vectors and both reject vectors off the lattice
    ctx = context(label)
    rs = ctx.rs
    rng = random.Random(f"coords {label}")
    for basis in (rs.m_basis(), rs.qcheck_basis()):
        for _ in range(25):
            c = tuple(rng.randint(-6, 6) for _ in range(rs.n))
            x = rs.combine(c, basis)
            assert ctx.coords(x, basis) == rs.lattice_coords(x, basis) == c
            i = rng.randrange(rs.n)
            off = vadd(x, vscale(Fraction(1, 2), basis[i]))
            assert rs.lattice_coords(off, basis) is None
            with pytest.raises(ValueError, match="not in the lattice"):
                ctx.coords(off, basis)
        if rs.dim > rs.n:
            delta = tuple(int(j == rs.n) for j in range(rs.dim))
            assert rs.lattice_coords(delta, basis) is None
            with pytest.raises(ValueError, match="not in the lattice"):
                ctx.coords(delta, basis)


@pytest.mark.parametrize("label", ["G2(1)", "C3(1)", "A4(2)", "E8(1)"])
def test_coords_reject_a_basis_that_is_not_diagonal(label):
    ctx = context(label)
    rs = ctx.rs
    basis = rs.m_basis()
    x = rs.combine((1,) * rs.n, basis)
    for bad in (
        basis[1:] + basis[:1],  # a permuted basis
        (vadd(basis[0], basis[-1]),) + basis[1:],  # a sheared one
        (vscale(0, basis[0]),) + basis[1:],  # a degenerate one
    ):
        with pytest.raises(ValueError, match="not a multiple of a simple root"):
            ctx.coords(x, bad)
    assert ctx.coords(x, list(basis)) == (1,) * rs.n
