"""The double affine Weyl group in the normal form w * lam_mu * tau_beta
* tau_delta^k.

mu lives in the lattice M (spanned by A_i = e_i alpha_i), beta in the
nu-image of the finite coroot lattice, and k is the central tau_delta
exponent (a half-integer only in the central extension used for the
A_{2n}^(2) comparison).  An element is built from, and stores, w as an
integer matrix, mu and beta as their integer coordinates in the bases
A_i and nu(alpha_i^v), and k as an int whenever it is integral: one
constructor, DaweylElement(ctx, w, mu_coords, beta_coords, k).  Ambient
vectors enter only through DaweylContext.lam and DaweylContext.tau,
which raise ValueError off the lattice; the ambient mu and beta are
formed on demand.  Multiplication moves factors into this order using
the semidirect relations, with w acting on the coordinates by the
integer matrices of WeylElement; the commutation of lam and tau picks up
the cocycle tau_delta^{(beta, mu)}, read from the root system's integer
pairing table.

The defining affine action on the weight space is implemented
independently of the multiplication and serves as its oracle: the linear
action of translation elements of the affine Weyl group follows the
standard formula

    lam_mu(x) = x + (x, delta) mu - ((x, mu) + (mu, mu)/2 (x, delta)) delta

while tau_beta is the honest translation by beta.

The comparison morphism from C_n^(1) into the half-delta extension of
A_{2n}^(2) is the identity on Weyl matrices and lattice coordinates and
halves k: its epsilon dictionary is half the identity in simple-root
coordinates, and the A_{2n}^(2) lattice bases are half the C_n^(1) ones.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from operator import add, mul

from .rootsys import (
    AffineLabel,
    RootSystemData,
    Vec,
    as_int,
    build,
    diagonal_scales,
    mat_inv,
    parse_label,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
)
from .weyl import (
    WeylElement,
    WeylGroup,
    braid_sides,
    frac_sum,
    mat_vec,
    reflect,
)

class DaweylContext:
    """A root system together with its Weyl group caches and the data
    needed for normal forms and alcove walks."""

    def __init__(self, rs: RootSystemData, half_delta: bool = False):
        self.rs = rs
        self.wg = WeylGroup(rs)
        self.half_delta = half_delta
        n = rs.n
        self.zero = vzero(rs.dim)
        self.zero_coords = (0,) * n
        self.s_theta = reflect(rs, rs.theta)
        self.nu_theta_v = rs.coroot(rs.theta)  # = a_0^{-1} theta
        # X-side affine reflection data: c = theta for untwisted or
        # A_{2n}^(2), phi otherwise (the root with X_{c^v} Phi^{-1} etc.)
        self.c_root = rs.theta if not rs.is_twisted_proper() else rs.phi
        self.s_c = reflect(rs, self.c_root)
        self.nu_c_v = rs.coroot(self.c_root)

    @property
    def n(self) -> int:
        return self.rs.n

    @cached_property
    def t0(self) -> "DaweylElement":
        """The affine generator t_0 = tau_{nu(c^v)} s_c of <t_0, s_1..s_n>."""
        return self.tau(self.nu_c_v) * self.w(self.s_c)

    @cached_property
    def lam_walk(self) -> "AffineWalk":
        """The alcove walk over <s_0..s_n>, built once per context."""
        return AffineWalk(self, "lam")

    @cached_property
    def tau_walk(self) -> "AffineWalk":
        """The alcove walk over <t_0, s_1..s_n>, built once per context."""
        return AffineWalk(self, "tau")

    @cached_property
    def theta_v_coords(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The coordinates of nu(theta^v) in M and in nu(Q^v), which s_0
        and tau_alpha0 read."""
        rs = self.rs
        return (
            self.coords(self.nu_theta_v, rs.m_basis()),
            self.coords(self.nu_theta_v, rs.qcheck_basis()),
        )

    def identity(self) -> "DaweylElement":
        return DaweylElement(self, self.wg.id, self.zero_coords, self.zero_coords, 0)

    @cached_property
    def _kernel_bases(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """The bases of M and nu(Q^v), checked diagonal once here."""
        bases = self.rs.m_basis(), self.rs.qcheck_basis()
        for basis in bases:
            diagonal_scales(basis)
        return bases

    def coords(self, x: Vec, basis) -> tuple[int, ...]:
        """Integer coordinates of x in a diagonal lattice basis b_i = c_i
        alpha_i, as the bases of M and nu(Q^v) are; ValueError if x is not
        in the lattice or the basis is not diagonal."""
        if not any(x):
            return self.zero_coords
        m, q = self._kernel_bases
        if basis is not m and basis is not q:
            diagonal_scales(basis)
        n = self.n
        coords = [Fraction(x[i], basis[i][i]) for i in range(n)]
        if any(x[n:]) or any(c.denominator != 1 for c in coords):
            raise ValueError(f"{[str(t) for t in x]} is not in the lattice")
        return tuple(int(c) for c in coords)

    # -- generators ----------------------------------------------------

    def s(self, i: int) -> "DaweylElement":
        """Simple reflection; i = 0 gives s_theta lam_{-a0^{-1} theta}."""
        if not 0 <= i <= self.n:
            raise ValueError(f"no simple reflection s{i} at rank {self.n}")
        if i == 0:
            mu = tuple(-c for c in self.theta_v_coords[0])
            return DaweylElement(self, self.s_theta, mu, self.zero_coords, 0)
        return self.w(self.wg.simples[i - 1])

    def lam(self, mu: Vec) -> "DaweylElement":
        mu_coords = self.coords(mu, self.rs.m_basis())
        return DaweylElement(self, self.wg.id, mu_coords, self.zero_coords, 0)

    def tau(self, beta: Vec) -> "DaweylElement":
        beta_coords = self.coords(beta, self.rs.qcheck_basis())
        return DaweylElement(self, self.wg.id, self.zero_coords, beta_coords, 0)

    def tau_delta(self, k=1) -> "DaweylElement":
        return DaweylElement(self, self.wg.id, self.zero_coords, self.zero_coords, k)

    def tau_alpha0(self) -> "DaweylElement":
        """tau_{alpha_0^v}: nu(alpha_0^v) = delta - a_0 nu(theta^v)."""
        beta = tuple(-self.rs.a0 * c for c in self.theta_v_coords[1])
        return DaweylElement(self, self.wg.id, self.zero_coords, beta, 1)

    def w(self, el: WeylElement) -> "DaweylElement":
        return DaweylElement(self, el, self.zero_coords, self.zero_coords, 0)

    def generator(self, symbol: str) -> "DaweylElement":
        """Symbols: s0..sn, lam_A1.., tau_a1.., tau_alpha0, tau_delta."""
        if symbol == "tau_delta":
            return self.tau_delta()
        if symbol == "tau_alpha0":
            return self.tau_alpha0()
        if symbol.startswith("s"):
            return self.s(int(symbol[1:]))
        if symbol.startswith(("lam_A", "tau_a")):
            # lam_{A_i} and tau_{nu(alpha_i^v)}: unit lattice coordinates
            i = int(symbol[5:])
            if not 1 <= i <= self.n:
                raise ValueError(f"unknown generator symbol {symbol!r}")
            unit = tuple(int(j == i - 1) for j in range(self.n))
            zero = self.zero_coords
            mu, beta = (unit, zero) if symbol[0] == "l" else (zero, unit)
            return DaweylElement(self, self.wg.id, mu, beta, 0)
        raise ValueError(f"unknown generator symbol {symbol!r}")

    # -- linear action of translation elements of W --------------------

    def lam_linear(self, mu: Vec, x: Vec) -> Vec:
        # (x, delta) is the Lambda0-coefficient of x, and mu is finite,
        # so only the finite Gram block enters (x, mu) and (mu, mu).
        # G mu is formed once and serves both pairings; lam_0 is the
        # identity.
        if not any(mu):
            return x
        n = self.rs.n
        xd = x[n + 1]
        gram = self.rs.gram
        support = [(j, m) for j, m in enumerate(mu[:n]) if m]
        gmu = [
            frac_sum(gram[i][j] * m for j, m in support if gram[i][j]) for i in range(n)
        ]
        coeff = frac_sum(x[i] * gmu[i] for i in range(n) if x[i] and gmu[i])
        out = list(x)
        if xd:
            mumu = frac_sum(m * gmu[j] for j, m in support if gmu[j])
            coeff += mumu / 2 * xd
            for j, m in enumerate(mu):
                if m:
                    out[j] += xd * m
        out[n] -= coeff
        return tuple(out)

    def pairing_int(self, beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
        """(beta, mu) from lattice coordinates of beta and mu."""
        return sum(
            b * sum(map(mul, row, mu))
            for b, row in zip(beta, self.rs.pairing_table)
            if b
        )


def _exponent(k):
    """k as an int when it is integral, else as a Fraction."""
    if isinstance(k, int):
        return k
    k = Fraction(k)
    return k.numerator if k.denominator == 1 else k


class DaweylElement:
    """w lam_mu tau_beta tau_delta^k, from the integer coordinates of mu
    in the basis A_i of M and of beta in the basis nu(alpha_i^v) of
    nu(Q^v); k is kept as an int whenever it is integral.  Ambient
    vectors enter through DaweylContext.lam and DaweylContext.tau."""

    def __init__(self, ctx: DaweylContext, w: WeylElement, mu_coords, beta_coords, k):
        self.ctx = ctx
        self.w = w
        self.mu_coords = mu_coords
        self.beta_coords = beta_coords
        self.k = k if k.__class__ is int else _exponent(k)

    @cached_property
    def mu(self) -> Vec:
        """mu as an ambient vector."""
        return self.ctx.rs.combine(self.mu_coords, self.ctx.rs.m_basis())

    @cached_property
    def beta(self) -> Vec:
        """beta as an ambient vector."""
        return self.ctx.rs.combine(self.beta_coords, self.ctx.rs.qcheck_basis())

    def __repr__(self) -> str:
        return f"DaweylElement({self.describe()})"

    def __mul__(self, other: "DaweylElement") -> "DaweylElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ValueError("mixed root systems")
        mu, beta = other.mu_coords, other.beta_coords
        k = self.k + other.k
        if any(self.mu_coords) or any(self.beta_coords):
            # A right factor with w = 1 moves no coordinates: no inverse.
            w2inv = None if other.w.is_identity() else other.w.inv()
            if any(self.mu_coords):
                mu1 = self.mu_coords
                if w2inv is not None:
                    mu1 = mat_vec(w2inv.m_matrix, mu1)
                mu = tuple(map(add, mu1, mu))
            if any(self.beta_coords):
                beta1 = self.beta_coords
                if w2inv is not None:
                    beta1 = mat_vec(w2inv.qcheck_matrix, beta1)
                k += ctx.pairing_int(beta1, other.mu_coords)
                beta = tuple(map(add, beta1, beta))
        return DaweylElement(ctx, self.w * other.w, mu, beta, k)

    def inv(self) -> "DaweylElement":
        return self._inverse

    @cached_property
    def _inverse(self) -> "DaweylElement":
        # Computed once per element: words use g**-1 of the same
        # generator images over and over.  With w = 1 the coordinates
        # are only negated, and w is its own inverse.
        w = self.w
        mu, beta = self.mu_coords, self.beta_coords
        k = -self.k + self.ctx.pairing_int(beta, mu)
        if w.is_identity():
            winv = w
        else:
            winv = w.inv()
            mu, beta = mat_vec(w.m_matrix, mu), mat_vec(w.qcheck_matrix, beta)
        mu, beta = tuple(-c for c in mu), tuple(-c for c in beta)
        inverse = DaweylElement(self.ctx, winv, mu, beta, k)
        inverse.__dict__["_inverse"] = self
        return inverse

    def __pow__(self, e: int) -> "DaweylElement":
        # Square-and-multiply with no identity factor: g**1 is g itself
        # and g**e costs at most 2 log2(e) multiplications.
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return self.ctx.identity()
        if e == 1:
            return self
        half = self ** (e // 2)
        square = half * half
        return square * self if e % 2 else square

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DaweylElement)
            and self.ctx is other.ctx
            and self.k == other.k
            and self.mu_coords == other.mu_coords
            and self.beta_coords == other.beta_coords
            and self.w == other.w
        )

    def __hash__(self) -> int:
        return hash((self.w.matrix, self.mu_coords, self.beta_coords, self.k))

    def is_identity(self) -> bool:
        return self.k == 0 and self.is_central_power()

    def is_central_power(self) -> bool:
        """True if the element is tau_delta^k for some k."""
        return (
            not any(self.mu_coords)
            and not any(self.beta_coords)
            and self.w.is_identity()
        )

    def act(self, p: Vec) -> Vec:
        """The defining affine action on the weight space."""
        # p + k delta + beta, adding only the non-zero coordinates.
        out = list(p)
        if self.k:
            for i, d in enumerate(self.ctx.rs.delta):
                if d:
                    out[i] += self.k * d
        for i, b in enumerate(self.beta):
            if b:
                out[i] += b
        out = self.ctx.lam_linear(self.mu, tuple(out))
        return out if self.w.is_identity() else self.w.act(out)

    def conj(self, other: "DaweylElement") -> "DaweylElement":
        return self * other * self.inv()

    def describe(self) -> str:
        n = self.ctx.n
        word = self.ctx.wg.reduced_word(self.w)
        mu = ",".join(str(c) for c in self.mu[:n])
        beta = ",".join(str(c) for c in self.beta[:n])
        return f"w=[{' '.join(map(str, word))}] mu=[{mu}] beta=[{beta}] k={self.k}"


def context(label: AffineLabel | str, half_delta: bool = False) -> DaweylContext:
    """The context of an affine label, built once per (label, half_delta)
    for the life of the process and shared by every caller."""
    if isinstance(label, str):
        label = parse_label(label)
    return _context(label, bool(half_delta))


@cache
def _context(label: AffineLabel, half_delta: bool) -> DaweylContext:
    return DaweylContext(build(label), half_delta=half_delta)


def product(ctx: DaweylContext, factors) -> DaweylElement:
    """The product of the factors in order, without a leading
    multiplication by the identity; the identity for no factors."""
    out = None
    for f in factors:
        out = f if out is None else out * f
    return ctx.identity() if out is None else out


def evaluate(ctx: DaweylContext, word) -> DaweylElement:
    """Evaluate a word of (generator symbol, exponent) pairs."""
    return product(
        ctx,
        ((ctx.generator(sym) if isinstance(sym, str) else sym) ** e for sym, e in word),
    )


# ---------------------------------------------------------------------
# Alcove walks: decompositions of lattice translations over the two
# affine Coxeter subgroups of the double affine Weyl group.
# ---------------------------------------------------------------------


class AffineWalk:
    """Reduced-word extraction in an affine Coxeter group given by the
    finite simple reflections plus one affine reflection.

    The affine group acts on the finite weight space by x -> s_c(x) +
    nu(c^v) for the affine generator; the walls of the fundamental
    alcove are (x, alpha_i^v) = 0 and (x, c^v) = kappa.  The walk runs on
    the integer vector of wall values V = D ((x, alpha_1^v), ...,
    (x, alpha_n^v)), with one common denominator D per walk such that
    D kappa is an integer.  With A the finite Cartan matrix and c^v =
    sum_i gamma_i alpha_i^v, s_i subtracts V_i times column i of A, the
    affine wall value is D kappa - sum_i gamma_i V_i, and the affine
    generator adds that value times the integers <c, alpha_j^v>.
    """

    def __init__(self, ctx: DaweylContext, kind: str):
        # kind "lam": the subgroup <s_0..s_n> = W, decomposing lam_mu;
        # kind "tau": the subgroup <t_0, s_1..s_n>, decomposing tau_beta.
        if kind not in ("lam", "tau"):
            raise ValueError(kind)
        self.ctx = ctx
        rs = ctx.rs
        n = rs.n
        c_root, aff_gen = (rs.theta, ctx.s(0)) if kind == "lam" else (ctx.c_root, ctx.t0)
        self.generators = (aff_gen,) + tuple(ctx.s(i) for i in range(1, n + 1))
        cartan = rs.finite_cartan
        self.cartan = cartan
        # the non-zero entries (j, A[j][i]) of column i: the wall values
        # that s_i changes
        self.columns = tuple(
            tuple((j, row[i]) for j, row in enumerate(cartan) if row[i])
            for i in range(n)
        )
        c = [as_int(x, "root coordinate") for x in c_root[:n]]
        self.c_pairings = tuple(
            (j, p) for j, p in enumerate(mat_vec(cartan, c)) if p
        )  # the non-zero <c, alpha_j^v>
        self.gamma = gamma = ctx.coords(rs.coroot(c_root), rs.qcheck_basis())
        kappa = Fraction(2) / rs.bilinear(c_root, c_root)
        # A generic interior point of the fundamental alcove: prescribe
        # small unequal positive values for (x, alpha_i^v) and shrink
        # until the affine wall value is positive too.
        for attempt in range(1, 40):
            denom = 1 << attempt
            vals = [Fraction(i + 2, (i + 3) * denom) for i in range(n)]
            if kappa > sum(map(mul, gamma, vals)):
                break
        else:
            raise RuntimeError("no interior base point found")
        self.denom = math.lcm(kappa.denominator, *(v.denominator for v in vals))
        self.kappa_d = as_int(self.denom * kappa, "scaled kappa")
        self.base_values = [as_int(self.denom * v, "scaled wall value") for v in vals]
        # the base point in simple-root coordinates: A x = vals
        self.base = mat_vec(mat_inv(cartan), vals)

    def _values_of(self, g: DaweylElement) -> list[int]:
        """The scaled wall values of the image of the base point under g
        through the subgroup action; ValueError if they are not integers,
        for then g is not in the subgroup."""
        # g = w lam_mu tau_beta tau_delta^k sends the base point, lifted
        # to level one, to w(x + mu + beta) + (a multiple of delta).  A
        # member of <s_0..s_n> has beta = 0, one of <t_0, s_1..s_n> mu = 0.
        y = g.w.act_finite(tuple(x + m + b for x, m, b in zip(self.base, g.mu, g.beta)))
        vals = [self.denom * frac_sum(map(mul, row, y)) for row in self.cartan]
        if any(v.denominator != 1 for v in vals):
            raise ValueError("element is not in this affine subgroup")
        return [v.numerator for v in vals]

    def word_for(self, g: DaweylElement):
        """A reduced word (tuple of indices, 0 = affine generator) with
        g = prod of generators, valid when g lies in the subgroup."""
        vals = self._values_of(g)
        columns, c_pairings = self.columns, self.c_pairings
        gamma, kappa_d = self.gamma, self.kappa_d
        word = []
        while True:
            # the first negative wall value, the affine wall last
            for i, v in enumerate(vals):
                if v < 0:
                    for j, a in columns[i]:
                        vals[j] -= v * a
                    word.append(i + 1)
                    break
            else:
                v0 = kappa_d - sum(map(mul, gamma, vals))
                if v0 >= 0:
                    break
                for j, p in c_pairings:
                    vals[j] += v0 * p
                word.append(0)
            if len(word) > 100000:
                raise RuntimeError("alcove walk did not terminate")
        if vals != self.base_values:
            raise ValueError("element is not in this affine subgroup")
        return tuple(word)

    def checked_word(self, g: DaweylElement):
        """word_for(g), checked: ValueError unless the word evaluates
        back to g."""
        word = self.word_for(g)
        if product(self.ctx, (self.generators[i] for i in word)) != g:
            raise ValueError("alcove walk word does not evaluate to the element")
        return word


def lam_word(ctx: DaweylContext, mu: Vec):
    """Word in s_0..s_n for lam_mu (indices, 0 = affine node)."""
    return ctx.lam_walk.checked_word(ctx.lam(mu))


def tau_word(ctx: DaweylContext, beta: Vec):
    """Word in t_0, s_1..s_n for tau_beta (0 denotes t_0)."""
    return ctx.tau_walk.checked_word(ctx.tau(beta))


# ---------------------------------------------------------------------
# Bernstein-type relation verification in the Weyl quotient
# ---------------------------------------------------------------------


def verify_bernstein_relations(label) -> list[tuple]:
    """The Bernstein-presentation relations projected to the double
    affine Weyl group, as (name, lhs, rhs) records of normal forms; they
    hold when lhs == rhs."""
    ctx = context(label)
    rs = ctx.rs
    n = rs.n
    records = []

    simple_cor = rs.simple_coroots()
    s = [ctx.s(i) for i in range(n + 1)]
    s0 = s[0]

    # Finite commutation/conjugation relations for representative
    # beta with the required pairings.
    betas = list(simple_cor) + [vneg(b) for b in simple_cor]
    betas += [vadd(a, b) for a in simple_cor for b in simple_cor]
    for i in range(1, n + 1):
        ai = rs.simple_roots[i - 1]
        for b in betas:
            pair = rs.bilinear(b, ai)
            tb = ctx.tau(b)
            if pair == 0:
                records.append((f"xcomm i={i}", s[i] * tb, tb * s[i]))
            elif pair == -1:
                sb = ctx.tau(ctx.wg.simples[i - 1].act(b))
                records.append((f"xconj i={i}", s[i] * tb * s[i], sb))

    # X_delta central against every generator, and of infinite order.
    td = ctx.tau_delta()
    gens = s + [ctx.lam(m) for m in rs.m_basis()] + [ctx.tau(b) for b in simple_cor]
    for j, g in enumerate(gens):
        records.append((f"center gen={j}", g * td, td * g))
    torsion = [k for k in range(1, 11) if (td**k).is_identity()]
    records.append(("tau_delta non-torsion", torsion, []))

    # Type (0,j) relations, split by the pairing with theta.
    theta = rs.theta
    nu_theta_v = ctx.nu_theta_v
    saw_eq42 = False
    for j in range(1, n + 1):
        ajv = simple_cor[j - 1]
        pair = rs.bilinear(ajv, theta)
        if pair == 0:
            records.append((f"t0-comm j={j}", s0 * ctx.tau(ajv), ctx.tau(ajv) * s0))
        elif pair == 1:
            lhs = s0 * ctx.tau(ajv) * s0
            a0v = ctx.tau_alpha0()
            records.append((f"t0-conj j={j}", lhs, ctx.tau(ajv) * a0v))
        elif pair == 2:
            b = vsub(ajv, rs.coroot(theta))
            if any(b):  # at rank one the vector vanishes and the relation is empty
                saw_eq42 = True
                records.append((f"t0-comm-long j={j}", s0 * ctx.tau(b), ctx.tau(b) * s0))
        else:  # pragma: no cover - excluded by the classification
            raise ValueError(f"unexpected pairing {pair} of alpha_{j}^v with theta")
    # The classification "pairing 2 happens only for C_n^(1), n >= 2" is
    # stated under the standing A != A_{2n}^(2) assumption; the relations
    # themselves are checked for A_{2n}^(2) above all the same.
    lab = rs.label
    even_a2 = lab.letter == "A" and lab.twist == 2 and lab.N % 2 == 0
    if not even_a2:
        expect_eq42 = lab.letter == "C" and lab.twist == 1 and lab.N >= 2
        records.append(("pairing-2 relation present iff C-family", saw_eq42, expect_eq42))

    # The single reduction relation that regenerates the rest.
    i_th = rs.i_theta()
    aiv = simple_cor[i_th - 1]
    if not rs.is_twisted_proper():
        ell0 = rs.ell0()
        if ell0 == 1:
            rhs = ctx.tau(aiv) * ctx.tau_alpha0()
            records.append(("reduction-conj", s0 * ctx.tau(aiv) * s0, rhs))
        elif ell0 == 2:
            b = vsub(aiv, rs.coroot(theta))
            records.append(("reduction-comm", s0 * ctx.tau(b), ctx.tau(b) * s0))
        # ell0 = 4 (A_1^(1)): no reduction relation of this shape.
    else:
        phiv = rs.coroot(rs.phi)
        rhs = ctx.tau(phiv) * ctx.tau_alpha0()
        records.append(("reduction-twisted", s0 * ctx.tau(phiv) * s0, rhs))
    return records


# ---------------------------------------------------------------------
# The A_{2n}^(2) comparison morphisms
# ---------------------------------------------------------------------


class A2n2Comparison:
    """Weyl-level shadows of the two comparison morphisms from the
    C_n^(1) group to the A_{2n}^(2) group (and its half-delta central
    extension)."""

    def __init__(self, n: int):
        self.n = n
        src_label = "A1(1)" if n == 1 else f"C{n}(1)"
        self.src = context(src_label)
        self.dst = context(f"A{2 * n}(2)")
        self.dst_c = context(f"A{2 * n}(2)", half_delta=True)
        # The epsilon dictionary sqrt2 eps_i -> eps_i is half the identity
        # in simple-root coordinates: sqrt2 eps_i = 2(alpha_i + ... +
        # alpha_{n-1}) + alpha_n in C_n^(1) and eps_i = alpha_i + ... +
        # alpha_{n-1} + alpha_n / 2 in A_{2n}^(2).  The two realizations
        # share the finite Cartan matrix, so Weyl matrices carry over
        # unchanged, and the A_{2n}^(2) bases of M and nu(Q^v) are half the
        # C_n^(1) ones, so lattice coordinates carry over too.
        rs_c, rs_a = self.src.rs, self.dst.rs
        half = Fraction(1, 2)
        if rs_c.finite_cartan != rs_a.finite_cartan or any(
            a != vscale(half, c)
            for basis in ("m_basis", "qcheck_basis")
            for a, c in zip(getattr(rs_a, basis)(), getattr(rs_c, basis)())
        ):
            raise ValueError("the epsilon dictionary is not half the identity")

    def tau_eps1(self, ctx: DaweylContext) -> DaweylElement:
        """tau_{eps_1} in an A_{2n}^(2) context: eps_1 = sum_i nu(alpha_i^v)."""
        return DaweylElement(ctx, ctx.wg.id, ctx.zero_coords, (1,) * self.n, 0)

    def map_weyl(self, w: WeylElement) -> WeylElement:
        """Transport a finite Weyl element through the epsilon dictionary:
        T w T^{-1} = w, as T is a scalar."""
        return WeylElement(self.dst.rs, w.matrix)

    def map_ii(self, g: DaweylElement) -> DaweylElement:
        """The coordinate morphism into the half-delta extension (X_delta
        -> X_{delta/2}), defined on normal forms and a homomorphism there:
        w and the lattice coordinates of mu and beta are kept, k halves."""
        return DaweylElement(
            self.dst_c, self.map_weyl(g.w), g.mu_coords, g.beta_coords, Fraction(g.k, 2)
        )

    def images_i(self) -> dict:
        """Generator images of the first comparison morphism, as elements
        of the plain A_{2n}^(2) group: T_i -> T_i, X_{sqrt2 eps_1} ->
        X_{eps_1}, X_delta -> X_delta."""
        out = {}
        for i in range(self.n + 1):
            out[f"s{i}"] = self.dst.s(i)
        out["tau_eps1"] = self.tau_eps1(self.dst)
        out["tau_delta"] = self.dst.tau_delta()
        return out

    def kernel_image_i(self) -> DaweylElement:
        """Image of the kernel generator X_delta (T_0^{-1} X_{-sqrt2
        eps1})^2 under the generator images of morphism i."""
        im = self.images_i()
        t0 = im["s0"]
        x = im["tau_eps1"].inv()
        w = t0.inv() * x
        return im["tau_delta"] * w * w

    def kernel_image_ii(self) -> DaweylElement:
        """Image of (T_0^{-1} X_{alpha_0^v})^2 in the half-delta
        extension: X_{alpha_0^v} -> X_{delta/2} X_{-eps_1}."""
        ctx = self.dst_c
        half = ctx.tau_delta(Fraction(1, 2))
        x = half * self.tau_eps1(ctx).inv()
        w = ctx.s(0).inv() * x
        return w * w

    def report(self) -> list[tuple]:
        """The comparison identities as (name, lhs, rhs) records; they
        hold when lhs == rhs."""
        # T_i -> T_i: the transported simple reflections agree.
        records = [
            (f"s{i} maps to s{i}", self.map_weyl(s), self.dst.wg.simples[i - 1])
            for i, s in enumerate(self.src.wg.simples, start=1)
        ]
        # s0 transports to s0 under the coordinate morphism.
        records.append(("s0 maps to s0", self.map_ii(self.src.s(0)), self.dst_c.s(0)))
        # Affine braid relations hold between the images of morphism i.
        im = self.images_i()
        a = self.src.rs.cartan.cartan
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                lace = a[i][j] * a[j][i]
                if lace <= 3:  # four laces (A_1^(1)) impose no braid relation
                    lhs, rhs = braid_sides(im[f"s{i}"], im[f"s{j}"], lace)
                    records.append(
                        (f"braid {i},{j}", product(self.dst, lhs), product(self.dst, rhs))
                    )
        records.append(("kernel generator i trivial", self.kernel_image_i(), self.dst.identity()))
        records.append(
            ("kernel generator ii trivial", self.kernel_image_ii(), self.dst_c.identity())
        )
        # The tau_delta^{-1} shift: without the central half-delta factor
        # the square is exactly tau_delta^{-1}.
        ctx = self.dst_c
        w = ctx.s(0).inv() * self.tau_eps1(ctx).inv()
        records.append(("square is tau_delta^{-1}", w * w, ctx.tau_delta(-1)))
        return records
