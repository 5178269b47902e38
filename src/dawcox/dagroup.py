"""The double affine Weyl group in the normal form w * lam_mu * tau_beta
* tau_delta^k.

mu lives in the lattice M (spanned by A_i = e_i alpha_i), beta in the
nu-image of the finite coroot lattice (spanned by nu(alpha_i^v) = d_i
alpha_i), and k is the central tau_delta exponent (a half-integer only
in the central extension used for the A_{2n}^(2) comparison).  Both
bases are multiples of the simple roots, and the root system states
their diagonals once, as rs.lattice_diagonals; everything here that
reads a basis reads that pair.  An element is built from, and stores, w
as an integer matrix, mu and beta as their integer coordinates in the
bases A_i and nu(alpha_i^v), and k as an int whenever it is integral:
one constructor, DaweylElement(ctx, w, mu_coords, beta_coords, k).
The roots theta and c are integer simple-root coordinates, and the
coroots that s_0, t_0 and the Bernstein suite read are lattice
coordinates (RootSystemData.coroot_coords), made into translations by
DaweylContext.tau_coords.  Ambient vectors enter only through
DaweylContext.lam and DaweylContext.tau, which divide by the diagonals
and raise ValueError off the lattice; the ambient mu and beta are
formed on demand.
Multiplication moves factors into this order using the semidirect
relations, with w acting on the coordinates by the integer matrices of
WeylElement; the commutation of lam and tau picks up the cocycle
tau_delta^{(beta, mu)}, read from the root system's integer pairing
table.

The defining affine action on the weight space is implemented
independently of the multiplication and serves as its oracle: the linear
action of translation elements of the affine Weyl group follows the
standard formula

    lam_mu(x) = x + (x, delta) mu - ((x, mu) + (mu, mu)/2 (x, delta)) delta

while tau_beta is the honest translation by beta.  It too works on
integers: the point's numerators over one common denominator per call,
and its own table of the finite Gram block and the lattice diagonals,
DaweylContext.action_table, built from the Gram matrix and the diagonals
alone.  It reads none of the multiplication's integer tables (the
pairing table, the lattice scales, the Weyl elements' lattice matrices
and inverses), so that a fault in one route shows up as a disagreement
with the other.

The A_{2n}^(2) comparison is a check like every other: a2n2_comparison(n)
returns its (name, lhs, rhs) records.  Its coordinate morphism from
C_n^(1) into the half-delta extension of A_{2n}^(2), comparison_image, is
the identity on Weyl matrices and lattice coordinates and halves k: the
epsilon dictionary is half the identity in simple-root coordinates, and
the A_{2n}^(2) lattice bases are half the C_n^(1) ones, which the check
confirms before it records anything.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from operator import add, mul, sub

from .rootsys import (
    AffineLabel,
    RootSystemData,
    Vec,
    build,
    clear_denominators,
    exact_quotient,
    parse_label,
    vzero,
)
from .weyl import (
    WeylElement,
    WeylGroup,
    braid_sides,
    element,
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
        self.zero_coords = (0,) * rs.n
        self.s_theta = reflect(rs, rs.theta)
        # X-side affine reflection data: c = theta for untwisted or
        # A_{2n}^(2), phi otherwise (the root with X_{c^v} Phi^{-1} etc.)
        self.c_root = rs.theta if not rs.is_twisted_proper() else rs.phi
        self.s_c = reflect(rs, self.c_root)

    @property
    def n(self) -> int:
        return self.rs.n

    @cached_property
    def t0(self) -> "DaweylElement":
        """The affine generator t_0 = tau_{nu(c^v)} s_c of <t_0, s_1..s_n>."""
        rs = self.rs
        nu_c_v = rs.coroot_coords(self.c_root, rs.lattice_diagonals[1])
        return self.tau_coords(nu_c_v) * self.w(self.s_c)

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
        """The coordinates of nu(theta^v) = a_0^{-1} theta in M and in
        nu(Q^v), which s_0 and tau_alpha0 read."""
        rs = self.rs
        return tuple(rs.coroot_coords(rs.theta, diag) for diag in rs.lattice_diagonals)

    def identity(self) -> "DaweylElement":
        return DaweylElement(self, self.wg.id, self.zero_coords, self.zero_coords, 0)

    def coords(self, x: Vec, diag) -> tuple[int, ...]:
        """Integer coordinates of x in the lattice basis diag[i] alpha_i,
        diag one of rs.lattice_diagonals; ValueError if x is not in the
        lattice."""
        if not any(x):
            return self.zero_coords
        n = self.n
        # x_i / diag_i as an exact divmod of numerators and denominators
        coords = [divmod(a.numerator * b.denominator, a.denominator * b.numerator)
                  for a, b in zip(x, diag)]
        if any(x[n:]) or any(r for _, r in coords):
            raise ValueError(f"{[str(t) for t in x]} is not in the lattice")
        return tuple(c for c, _ in coords)

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
        mu_coords = self.coords(mu, self.rs.lattice_diagonals[0])
        return DaweylElement(self, self.wg.id, mu_coords, self.zero_coords, 0)

    def tau(self, beta: Vec) -> "DaweylElement":
        return self.tau_coords(self.coords(beta, self.rs.lattice_diagonals[1]))

    def tau_coords(self, beta_coords: tuple[int, ...]) -> "DaweylElement":
        """tau_beta from the coordinates of beta in the basis nu(alpha_i^v)."""
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

    # -- the integer table of the affine action -----------------------

    @cached_property
    def action_table(self) -> tuple:
        """(L, G, M, Q), the integers DaweylElement.act computes with, all
        over one common denominator L: G[i] lists the non-zero (j, L
        (alpha_i, A_j)), the finite Gram block times the diagonal of the
        M basis; M and Q are L times the diagonals of the bases of M and
        nu(Q^v).  It reads the Gram matrix, delta and rs.lattice_diagonals
        only, and none of the multiplication's integer tables (the pairing
        table, the lattice scales, the Weyl elements' lattice matrices and
        inverses), which come from the finite Cartan matrix, the form S
        and the diagonals: a fault in any of those tables shows up as a
        disagreement between the product and the action.  The two routes
        share only the diagonals, the statement of the bases themselves,
        which the tests check against the bases' definitions."""
        rs = self.rs
        n = rs.n
        gram = rs.gram
        # The action reads (x, delta) as the Lambda0 coordinate, adds k
        # delta to the delta coordinate, and pairs mu with the finite
        # coordinates only: the form must be laid out for that.
        unit = [tuple(int(i == j) for i in range(n + 2)) for j in range(n + 2)]
        if (
            rs.delta != unit[n]
            or tuple(row[n] for row in gram) != unit[n + 1]
            or any(row[n + 1] for row in gram[:n])
        ):
            raise ValueError("the form is not laid out as (alpha_i, delta, Lambda0)")
        m, q = rs.lattice_diagonals
        gm = [gram[i][j] * x for i in range(n) for j, x in enumerate(m)]
        nums, den = clear_denominators([*m, *q, *gm])
        gm = tuple(
            tuple((j, x) for j, x in enumerate(nums[(i + 2) * n:(i + 3) * n]) if x)
            for i in range(n)
        )
        return den, gm, tuple(nums[:n]), tuple(nums[n:2 * n])

    def pairing_int(self, beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
        """(beta, mu) from lattice coordinates of beta and mu."""
        return sum(
            b * sum(map(mul, row, mu))
            for b, row in zip(beta, self.rs.pairing_table)
            if b
        )


_ZERO = vzero(1)[0]  # the one Fraction zero that vzero pads with


def _ambient(coords, diag) -> Vec:
    """The ambient vector sum_i coords[i] diag[i] alpha_i of a lattice
    with the basis diag[i] alpha_i.  Each coordinate is made as one
    Fraction from the integers, since int * Fraction goes through
    Fraction's generic operators."""
    return tuple([
        Fraction(c * x.numerator, x.denominator) if c else _ZERO for c, x in zip(coords, diag)
    ]) + vzero(2)


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
        return _ambient(self.mu_coords, self.ctx.rs.lattice_diagonals[0])

    @cached_property
    def beta(self) -> Vec:
        """beta as an ambient vector."""
        return _ambient(self.beta_coords, self.ctx.rs.lattice_diagonals[1])

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
        # g**1 is g itself and g**-1 its cached inverse.  A translation
        # (w = 1) has a closed form: the product rule (1, mu, beta, k)(1,
        # mu', beta', k') = (1, mu + mu', beta + beta', k + k' + (beta,
        # mu')) gives g**e = (e mu, e beta, e k + e(e - 1)/2 (beta, mu))
        # for every integer e, with one pairing and no multiplication.
        # Otherwise square-and-multiply with no identity factor, at most
        # 2 log2(e) multiplications.
        if e == 1:
            return self
        if e == -1:
            return self.inv()
        if e and self.w.is_identity():
            mu, beta = self.mu_coords, self.beta_coords
            k = e * self.k
            if any(mu) and any(beta):
                k += e * (e - 1) // 2 * self.ctx.pairing_int(beta, mu)
            return DaweylElement(
                self.ctx, self.w, tuple(e * c for c in mu), tuple(e * c for c in beta), k
            )
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return self.ctx.identity()
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
        """The defining affine action on the weight space.  For p = (x,
        x_delta, l), y = x + beta goes to w(y + l mu), x_delta to x_delta
        + k - (y, mu) - l (mu, mu)/2, and l is fixed."""
        # Integer numerators: p over its common denominator d, y and
        # y + l mu over d L, the delta coordinate over 2 d L^2 times the
        # denominator of k.  Only the n + 1 results become Fractions.
        den, gm, m_num, q_num = self.ctx.action_table
        n = len(m_num)
        xs, d = clear_denominators(p)
        level, x_delta = xs[n + 1], xs[n]
        y = [den * x for x in xs[:n]]
        if any(self.beta_coords):
            y = [v + d * q * b for v, q, b in zip(y, q_num, self.beta_coords)]
        k = self.k
        k_num, k_den = k.numerator, k.denominator
        mu = self.mu_coords
        if any(mu):
            # L (alpha_i, mu) for each finite i
            g_mu = [sum([g * mu[j] for j, g in row]) for row in gm]
            sq = 2 * den * den
            y_mu = sum(map(mul, y, g_mu))  # d L^2 (y, mu)
            delta_num = k_den * (sq * x_delta - 2 * y_mu) + sq * d * k_num
            if level:
                mu_mu = sum(map(mul, map(mul, m_num, mu), g_mu))  # L^2 (mu, mu)
                delta_num -= k_den * level * mu_mu
                y = [v + level * m * c for v, m, c in zip(y, m_num, mu)]
            delta = Fraction(delta_num, d * sq * k_den)
        else:
            delta = Fraction(x_delta * k_den + d * k_num, d * k_den)
        if not self.w.is_identity():
            y = mat_vec(self.w.matrix, y)
        d *= den
        return (*[Fraction(v, d) for v in y], delta, p[n + 1])

    @property
    def reduced_word(self) -> tuple[int, ...]:
        """The reduced word of w, extracted once per Weyl element."""
        return self.w.reduced_word

    def describe(self) -> str:
        n = self.ctx.n
        word = self.reduced_word
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

    The set-up is integer too.  With S = l (Gram block) and T = d S^{-1},
    gamma_i = c_i S_ii / c^T S c, kappa = 2 l / c^T S c, and the base point
    x = A^{-1} V / D = T diag(S) V / (2 d D); it and the diagonals of the
    bases of M and nu(Q^v) are integers over one common scale L.
    """

    def __init__(self, ctx: DaweylContext, kind: str):
        # kind "lam": the subgroup <s_0..s_n> = W, decomposing lam_mu;
        # kind "tau": the subgroup <t_0, s_1..s_n>, decomposing tau_beta.
        if kind not in ("lam", "tau"):
            raise ValueError(kind)
        self.ctx = ctx
        rs = ctx.rs
        n = rs.n
        # c: the root of the affine reflection, in integer coordinates
        c, aff_gen = (rs.theta, ctx.s(0)) if kind == "lam" else (ctx.c_root, ctx.t0)
        self.generators = (aff_gen,) + tuple(ctx.s(i) for i in range(1, n + 1))
        cartan = rs.finite_cartan
        self.cartan = cartan
        # the non-zero entries (j, A[j][i]) of column i: the wall values
        # that s_i changes
        self.columns = tuple(
            tuple((j, row[i]) for j, row in enumerate(cartan) if row[i])
            for i in range(n)
        )
        self.c_pairings = tuple(
            (j, p) for j, p in enumerate(mat_vec(cartan, c)) if p
        )  # the non-zero <c, alpha_j^v>
        s, t, d = rs.finite_form
        lcd = rs.int_form[1]
        norm = rs.form(c, c)  # l (c, c)
        self.gamma = gamma = tuple(
            exact_quotient(ci * s[i][i], norm, "coroot coordinate") for i, ci in enumerate(c)
        )
        kappa_den = norm // math.gcd(norm, 2 * lcd)
        # A generic interior point of the fundamental alcove: prescribe
        # small unequal positive values (i + 2) / ((i + 3) 2^attempt) for
        # (x, alpha_i^v) and shrink until the affine wall value is
        # positive too.  D is the least common denominator.  The point
        # must be generic: an element outside the subgroup maps the
        # alcove to an alcove, and the walk back can end at a different
        # point of the fundamental alcove, which word_for rejects.  At a
        # symmetric point, such as one with equal wall values, that other
        # point can be the base point itself, and the element would pass.
        for attempt in range(1, 40):
            vals = [(i + 2, (i + 3) << attempt) for i in range(n)]
            self.denom = math.lcm(kappa_den, *(q // math.gcd(p, q) for p, q in vals))
            self.base_values = [self.denom * p // q for p, q in vals]
            self.kappa_d = self.denom * 2 * lcd // norm
            if self.kappa_d > sum(map(mul, gamma, self.base_values)):
                break
        else:
            raise RuntimeError("no interior base point found")
        # L times the diagonals of the lattice bases, and the base point L
        # x, with L a multiple of the base point's denominator
        m, q = rs.lattice_diagonals
        base_den = 2 * d * self.denom
        nums, self.scale = clear_denominators(m + q, base_den)
        self.m_num, self.q_num = nums[:n], nums[n:]
        base = mat_vec(t, [s[j][j] * v for j, v in enumerate(self.base_values)])
        self.base = [x * (self.scale // base_den) for x in base]

    def _values_of(self, g: DaweylElement) -> list[int]:
        """The scaled wall values of the image of the base point under g
        through the subgroup action; ValueError if they are not integers,
        for then g is not in the subgroup."""
        # g = w lam_mu tau_beta tau_delta^k sends the base point, lifted
        # to level one, to w(x + mu + beta) + (a multiple of delta).  A
        # member of <s_0..s_n> has beta = 0, one of <t_0, s_1..s_n> mu = 0.
        # Over L: w(L x + L diag(M) mu + L diag(Q) beta), from g's lattice
        # coordinates.
        y = g.w.act_finite([
            x + m * a + q * b
            for x, m, a, q, b in zip(self.base, self.m_num, g.mu_coords, self.q_num, g.beta_coords)
        ])
        vals = [divmod(self.denom * sum(map(mul, row, y)), self.scale) for row in self.cartan]
        if any(r for _, r in vals):
            raise ValueError("element is not in this affine subgroup")
        return [v for v, _ in vals]

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
    hold when lhs == rhs.  Every beta is read in nu(Q^v) coordinates, and
    each right-hand side from those coordinates and the finite Cartan
    matrix alone, never from the Weyl elements' lattice matrices that the
    multiplication uses."""
    ctx = context(label)
    rs = ctx.rs
    n = rs.n
    records = []

    tau = ctx.tau_coords
    simple_cor = [tuple(int(i == j) for i in range(n)) for j in range(n)]  # nu(alpha_j^v)
    s = [ctx.s(i) for i in range(n + 1)]
    s0 = s[0]

    # Finite commutation/conjugation relations for representative
    # beta with the required pairings.  Each beta comes with its
    # integer pairings (beta, alpha_i): row j of the finite Cartan
    # matrix holds those of nu(alpha_j^v).
    rows = rs.finite_cartan
    betas = list(zip(simple_cor, rows))
    betas += [(tuple(-x for x in b), tuple(-x for x in r)) for b, r in zip(simple_cor, rows)]
    betas += [
        (tuple(map(add, a, b)), tuple(map(add, r, q)))
        for a, r in zip(simple_cor, rows)
        for b, q in zip(simple_cor, rows)
    ]
    for i in range(1, n + 1):
        for b, pairs in betas:
            pair = pairs[i - 1]
            tb = tau(b)
            if pair == 0:
                records.append((f"xcomm i={i}", s[i] * tb, tb * s[i]))
            elif pair == -1:
                # s_i beta = beta - (beta, alpha_i) nu(alpha_i^v)
                sb = tau(b[:i - 1] + (b[i - 1] - pair,) + b[i:])
                records.append((f"xconj i={i}", s[i] * tb * s[i], sb))

    # X_delta central against every generator, and of infinite order.
    td = ctx.tau_delta()
    gens = s + [ctx.generator(f"lam_A{i}") for i in range(1, n + 1)] + list(map(tau, simple_cor))
    for j, g in enumerate(gens):
        records.append((f"center gen={j}", g * td, td * g))
    torsion = [k for k in range(1, 11) if (td**k).is_identity()]
    records.append(("tau_delta non-torsion", torsion, []))

    # Type (0,j) relations, split by the pairing (alpha_j^v, theta).
    nu_theta_v = ctx.theta_v_coords[1]
    theta_pairs = mat_vec(rows, rs.theta)
    saw_eq42 = False
    for j in range(1, n + 1):
        ajv = simple_cor[j - 1]
        pair = theta_pairs[j - 1]
        if pair == 0:
            records.append((f"t0-comm j={j}", s0 * tau(ajv), tau(ajv) * s0))
        elif pair == 1:
            lhs = s0 * tau(ajv) * s0
            a0v = ctx.tau_alpha0()
            records.append((f"t0-conj j={j}", lhs, tau(ajv) * a0v))
        elif pair == 2:
            b = tuple(map(sub, ajv, nu_theta_v))
            if any(b):  # at rank one the vector vanishes and the relation is empty
                saw_eq42 = True
                records.append((f"t0-comm-long j={j}", s0 * tau(b), tau(b) * s0))
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
            rhs = tau(aiv) * ctx.tau_alpha0()
            records.append(("reduction-conj", s0 * tau(aiv) * s0, rhs))
        elif ell0 == 2:
            b = tuple(map(sub, aiv, nu_theta_v))
            records.append(("reduction-comm", s0 * tau(b), tau(b) * s0))
        # ell0 = 4 (A_1^(1)): no reduction relation of this shape.
    else:
        phiv = tau(rs.coroot_coords(rs.phi, rs.lattice_diagonals[1]))
        rhs = phiv * ctx.tau_alpha0()
        records.append(("reduction-twisted", s0 * phiv * s0, rhs))
    return records


# ---------------------------------------------------------------------
# The A_{2n}^(2) comparison morphisms
# ---------------------------------------------------------------------


def comparison_image(g: DaweylElement) -> DaweylElement:
    """The image of an element of the C_n^(1) group under the coordinate
    morphism into the half-delta extension of A_{2n}^(2) (X_delta ->
    X_{delta/2}), defined on normal forms and a homomorphism there: w and
    the lattice coordinates of mu and beta are kept, k halves."""
    dst = context(f"A{2 * g.ctx.n}(2)", half_delta=True)
    return DaweylElement(
        dst, element(dst.rs, g.w.matrix), g.mu_coords, g.beta_coords, Fraction(g.k, 2)
    )


def a2n2_comparison(n: int) -> list[tuple]:
    """Weyl-level shadows of the two comparison morphisms from the C_n^(1)
    group to the A_{2n}^(2) group and its half-delta central extension,
    as (name, lhs, rhs) records; they hold when lhs == rhs."""
    src = context("A1(1)" if n == 1 else f"C{n}(1)")
    dst = context(f"A{2 * n}(2)")
    dst_c = context(f"A{2 * n}(2)", half_delta=True)
    # The epsilon dictionary sqrt2 eps_i -> eps_i is half the identity in
    # simple-root coordinates: sqrt2 eps_i = 2(alpha_i + ... + alpha_{n-1})
    # + alpha_n in C_n^(1) and eps_i = alpha_i + ... + alpha_{n-1} +
    # alpha_n / 2 in A_{2n}^(2).  The two realizations share the finite
    # Cartan matrix, so Weyl matrices carry over unchanged (T w T^{-1} = w,
    # as T is a scalar), and the A_{2n}^(2) bases of M and nu(Q^v) are half
    # the C_n^(1) ones, so lattice coordinates carry over too.
    if src.rs.finite_cartan != dst.rs.finite_cartan or any(
        2 * a != c
        for diag_a, diag_c in zip(dst.rs.lattice_diagonals, src.rs.lattice_diagonals)
        for a, c in zip(diag_a, diag_c)
    ):
        raise ValueError("the epsilon dictionary is not half the identity")
    # T_i -> T_i: the transported simple reflections agree.
    records = [
        (f"s{i} maps to s{i}", element(dst.rs, s.matrix), dst.wg.simples[i - 1])
        for i, s in enumerate(src.wg.simples, start=1)
    ]
    # s0 transports to s0 under the coordinate morphism.
    records.append(("s0 maps to s0", comparison_image(src.s(0)), dst_c.s(0)))
    # Affine braid relations hold between the images T_i -> s_i of
    # morphism i, which also sends X_{sqrt2 eps_1} -> tau_{eps_1} and
    # X_delta -> tau_delta, with eps_1 = sum_i nu(alpha_i^v).
    a = src.rs.cartan.cartan
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            lace = a[i][j] * a[j][i]
            if lace <= 3:  # four laces (A_1^(1)) impose no braid relation
                lhs, rhs = braid_sides(dst.s(i), dst.s(j), lace)
                records.append((f"braid {i},{j}", product(dst, lhs), product(dst, rhs)))
    # The kernel generator X_delta (T_0^{-1} X_{-sqrt2 eps_1})^2 under
    # morphism i.
    w = dst.s(0).inv() * dst.tau_coords((1,) * n).inv()
    records.append(("kernel generator i trivial", dst.tau_delta() * w * w, dst.identity()))
    # (T_0^{-1} X_{alpha_0^v})^2 in the half-delta extension, with
    # X_{alpha_0^v} -> X_{delta/2} X_{-eps_1}; without the central
    # half-delta factor the square is exactly tau_delta^{-1}.
    eps1_inv = dst_c.tau_coords((1,) * n).inv()
    w = dst_c.s(0).inv() * (dst_c.tau_delta(Fraction(1, 2)) * eps1_inv)
    records.append(("kernel generator ii trivial", w * w, dst_c.identity()))
    w = dst_c.s(0).inv() * eps1_inv
    records.append(("square is tau_delta^{-1}", w * w, dst_c.tau_delta(-1)))
    return records
