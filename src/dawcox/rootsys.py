"""Exact affine root-system data.

Everything is computed over the rationals in the coordinate basis
(alpha_1, ..., alpha_n, delta, Lambda0) of the affine weight space.
The lattices M and nu(Q^v) have bases of multiples of the simple roots;
their integer scales and the integer pairing table between them are
what the double affine Weyl kernel computes with.  The
affine Cartan matrices follow Kac's Tables Aff 1-3 with his conventional
node numbering (node 0 is the affine node).  Marks are stored with each
table entry; comarks, the symmetrizing weights d_i, the lattices M and
nu(Q^v), and the distinguished roots theta, phi, theta', phi' are all
derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Sequence

Vec = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def vadd(x: Vec, y: Vec) -> Vec:
    # A zero summand is passed through instead of added: ambient vectors
    # are sparse and each Fraction addition is costly.
    return tuple(a + b if a and b else a or b for a, b in zip(x, y))


def vsub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def vscale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def vzero(dim: int) -> Vec:
    return (_F0,) * dim


def as_int(x, what: str) -> int:
    """x as an int; ValueError if x is not an integer."""
    if x != int(x):
        raise ValueError(f"{what}: {x} is not an integer")
    return int(x)


class UnknownTypeError(ValueError):
    """Raised for affine labels outside Tables Aff 1-3."""


# Edge list entries are (i, j, a_ij, a_ji) with A[i][j] = a_ij.  `marks`
# is the right null vector of A normalized so that it is primitive.
# Ranks are validated by the builder functions below.

def _chain(nodes, a=-1, b=-1):
    return [(i, j, a, b) for i, j in zip(nodes, nodes[1:])]


def _affine_table(kind: str, n: int):
    """Return (edges, marks) for the affine Cartan matrix of the type."""
    if kind == "A" and n == 1:
        return [(0, 1, -2, -2)], [1, 1]
    if kind == "A" and n >= 2:
        edges = _chain(list(range(n + 1))) + [(0, n, -1, -1)]
        return edges, [1] * (n + 1)
    if kind == "B" and n >= 3:
        edges = [(0, 2, -1, -1), (1, 2, -1, -1)]
        edges += _chain(list(range(2, n)))
        edges += [(n - 1, n, -1, -2)]
        return edges, [1, 1] + [2] * (n - 1)
    if kind == "C" and n >= 2:
        edges = [(0, 1, -1, -2)] + _chain(list(range(1, n))) + [(n - 1, n, -2, -1)]
        return edges, [1] + [2] * (n - 1) + [1]
    if kind == "D" and n >= 4:
        edges = [(0, 2, -1, -1), (1, 2, -1, -1)]
        edges += _chain(list(range(2, n - 1)))
        edges += [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
        return edges, [1, 1] + [2] * (n - 3) + [1, 1]
    if kind == "E" and n == 6:
        edges = _chain([1, 2, 3, 4, 5]) + [(3, 6, -1, -1), (6, 0, -1, -1)]
        return edges, [1, 1, 2, 3, 2, 1, 2]
    if kind == "E" and n == 7:
        edges = _chain([0, 1, 2, 3, 4, 5, 6]) + [(3, 7, -1, -1)]
        return edges, [1, 2, 3, 4, 3, 2, 1, 2]
    if kind == "E" and n == 8:
        edges = _chain([0, 1, 2, 3, 4, 5, 6, 7]) + [(5, 8, -1, -1)]
        return edges, [1, 2, 3, 4, 5, 6, 4, 2, 3]
    if kind == "F" and n == 4:
        edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
        return edges, [1, 2, 3, 4, 2]
    if kind == "G" and n == 2:
        edges = [(0, 1, -1, -1), (1, 2, -1, -3)]
        return edges, [1, 2, 3]
    if kind == "A2:even" and n == 1:  # A_2^(2)
        return [(0, 1, -4, -1)], [2, 1]
    if kind == "A2:even" and n >= 2:  # A_{2n}^{(2)}
        edges = [(0, 1, -2, -1)] + _chain(list(range(1, n))) + [(n - 1, n, -2, -1)]
        return edges, [2] * n + [1]
    if kind == "A2:odd" and n == 2:  # A_3^(2), fork collapses to the middle node
        return [(0, 2, -2, -1), (1, 2, -2, -1)], [1, 1, 1]
    if kind == "A2:odd" and n >= 3:  # A_{2n-1}^{(2)}
        edges = [(0, 2, -1, -1), (1, 2, -1, -1)]
        edges += _chain(list(range(2, n)))
        edges += [(n - 1, n, -2, -1)]
        return edges, [1, 1] + [2] * (n - 2) + [1]
    if kind == "D2" and n >= 2:  # D_{n+1}^{(2)}
        edges = [(0, 1, -2, -1)] + _chain(list(range(1, n))) + [(n - 1, n, -1, -2)]
        return edges, [1] * (n + 1)
    if kind == "E62" and n == 4:  # E_6^{(2)}
        edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
        return edges, [1, 2, 3, 2, 1]
    if kind == "D43" and n == 2:  # D_4^{(3)}
        edges = [(0, 1, -1, -1), (1, 2, -3, -1)]
        return edges, [1, 2, 1]
    raise UnknownTypeError(f"no affine Cartan data for kind={kind!r} rank={n}")


@dataclass(frozen=True)
class AffineLabel:
    """A Kac label X_N^(r), stored as (letter, N, twist)."""

    letter: str
    N: int
    twist: int

    def __str__(self) -> str:
        return f"{self.letter}{self.N}({self.twist})"


def parse_label(text: str) -> AffineLabel:
    text = text.strip().replace(" ", "")
    for twist in (1, 2, 3):
        suffix = f"({twist})"
        if text.endswith(suffix):
            body = text[: -len(suffix)]
            letter, num = body[0], body[1:]
            if letter in "ABCDEFG" and num.isdecimal():
                return AffineLabel(letter, int(num), twist)
    raise UnknownTypeError(f"cannot parse affine label {text!r}")


def _table_key(label: AffineLabel) -> tuple[str, int]:
    L, N, r = label.letter, label.N, label.twist
    if r == 1:
        if L == "A" and N >= 1:
            return "A", N
        if L == "B" and N >= 3:
            return "B", N
        if L == "C" and N >= 2:
            return "C", N
        if L == "D" and N >= 4:
            return "D", N
        if L == "E" and N in (6, 7, 8):
            return "E", N
        if L == "F" and N == 4:
            return "F", 4
        if L == "G" and N == 2:
            return "G", 2
    if r == 2:
        if L == "A" and N >= 2 and N % 2 == 0:
            return "A2:even", N // 2
        if L == "A" and N >= 3 and N % 2 == 1:
            return "A2:odd", (N + 1) // 2
        if L == "D" and N >= 3:
            return "D2", N - 1
        if L == "E" and N == 6:
            return "E62", 4
    if r == 3 and L == "D" and N == 4:
        return "D43", 2
    raise UnknownTypeError(f"{label} is not in Tables Aff 1-3")


@dataclass(frozen=True)
class AffineCartanData:
    label: AffineLabel
    cartan: tuple[tuple[int, ...], ...]  # (n+1) x (n+1)
    marks: tuple[int, ...]               # a_0 .. a_n
    comarks: tuple[int, ...]             # a_0^v .. a_n^v
    d: tuple[Fraction, ...]              # d_i = a_i / a_i^v
    e: tuple[Fraction, ...]              # e_i = max(1/a_0, d_i)
    twist: int                           # r = max d_i^{-1}

    @property
    def n(self) -> int:
        return len(self.marks) - 1

    @property
    def a0(self) -> int:
        return self.marks[0]


def affine_cartan(label: AffineLabel) -> AffineCartanData:
    kind, n = _table_key(label)
    edges, marks = _affine_table(kind, n)
    m = n + 1
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = 2
    for i, j, aij, aji in edges:
        a[i][j] = aij
        a[j][i] = aji
    marks = [int(x) for x in marks]
    # Sanity: marks are the right null vector.
    for i in range(m):
        if sum(a[i][j] * marks[j] for j in range(m)):
            raise ValueError(f"{label}: marks are not a null vector (row {i})")
    # Comarks: the left null vector with a_0^v = 1.  Its finite part
    # solves sum_i x_i a_ij = -a_0j for j >= 1; the whole vector must
    # then annihilate every column.
    fin = mat_inv([[a[i][j] for i in range(1, m)] for j in range(1, m)])
    rhs = [-a[0][j] for j in range(1, m)]
    comarks = [1] + [sum(c * b for c, b in zip(row, rhs)) for row in fin]
    if any(sum(comarks[i] * a[i][j] for i in range(m)) for j in range(m)):
        raise ValueError(f"{label}: no left null vector with a_0^v = 1")
    if any(c <= 0 or c.denominator != 1 for c in comarks):
        raise ValueError(f"{label}: comarks are not positive integers")
    comarks = [int(x) for x in comarks]
    d = tuple(Fraction(marks[i], comarks[i]) for i in range(m))
    a0inv = Fraction(1, marks[0])
    e = tuple(max(a0inv, di) for di in d)
    twist = max(Fraction(1) / di for di in d)
    if twist.denominator != 1:
        raise ValueError(f"{label}: twist {twist} is not an integer")
    return AffineCartanData(
        label=label,
        cartan=tuple(tuple(row) for row in a),
        marks=tuple(marks),
        comarks=tuple(comarks),
        d=d,
        e=e,
        twist=int(twist),
    )


@dataclass(frozen=True)
class RootSystemData:
    """An affine Cartan datum together with the finite root system.

    Vectors live in the (n+2)-dimensional space with ordered basis
    (alpha_1, ..., alpha_n, delta, Lambda0).
    """

    cartan: AffineCartanData
    gram: tuple[Vec, ...]               # bilinear form on the basis
    simple_roots: tuple[Vec, ...]       # alpha_1 .. alpha_n
    alpha0: Vec                         # (delta - theta) / a_0
    delta: Vec
    Lambda0: Vec
    pos_roots: tuple[Vec, ...]          # finite positive roots
    theta: Vec                          # a_1 alpha_1 + ... + a_n alpha_n
    phi: Vec                            # highest root of the finite system
    root_set: frozenset = field(repr=False)

    @property
    def n(self) -> int:
        return self.cartan.n

    @property
    def dim(self) -> int:
        return self.n + 2

    @property
    def label(self) -> AffineLabel:
        return self.cartan.label

    @property
    def twist(self) -> int:
        return self.cartan.twist

    @property
    def a0(self) -> int:
        return self.cartan.a0

    # -- bilinear form ------------------------------------------------

    def bilinear(self, x: Vec, y: Vec) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        total = _F0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.gram[i]
            total += xi * sum(yj * row[j] for j, yj in enumerate(y) if yj)
        return total

    def coroot(self, x: Vec) -> Vec:
        """nu(x^v) = 2x/(x,x) for a real (non-isotropic) root x."""
        norm = self.bilinear(x, x)
        if norm == 0:
            raise ValueError("isotropic vector has no coroot")
        return vscale(Fraction(2) / norm, x)

    def pairing(self, x: Vec, root: Vec) -> Fraction:
        """(x, root^v)."""
        return self.bilinear(x, self.coroot(root))

    # -- distinguished data -------------------------------------------

    def simple_coroots(self) -> tuple[Vec, ...]:
        return self._simple_coroots

    @cached_property
    def _simple_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroot(a) for a in self.simple_roots)

    def primed(self, theta: Vec, phi: Vec) -> tuple[Vec, Vec]:
        """theta' = phi - theta and phi' = (phi, theta^v) theta - phi =
        -s_theta(phi), whose coroot is theta^v - phi^v."""
        return vsub(phi, theta), vsub(vscale(self.pairing(phi, theta), theta), phi)

    def is_twisted_proper(self) -> bool:
        """Twisted and not A_{2n}^(2): theta short, phi long, distinct."""
        return self.theta != self.phi

    def m_basis(self) -> tuple[Vec, ...]:
        """A_i = e_i alpha_i, a basis of the lattice M."""
        return self._m_basis

    @cached_property
    def _m_basis(self) -> tuple[Vec, ...]:
        return tuple(
            vscale(self.cartan.e[i + 1], a) for i, a in enumerate(self.simple_roots)
        )

    def qcheck_basis(self) -> tuple[Vec, ...]:
        """nu(alpha_i^v), a basis of nu(Q^v) of the finite system."""
        return self.simple_coroots()

    @cached_property
    def m_scales(self) -> tuple[int, ...]:
        """Integer scales E with A_i = (E_i / L) alpha_i for one common L."""
        return diagonal_scales(self.m_basis())

    @cached_property
    def qcheck_scales(self) -> tuple[int, ...]:
        """Integer scales F with nu(alpha_i^v) = (F_i / L') alpha_i."""
        return diagonal_scales(self.qcheck_basis())

    @cached_property
    def pairing_table(self) -> tuple[tuple[int, ...], ...]:
        """P[i][j] = (nu(alpha_i^v), A_j): the tau_delta cocycle (beta, mu)
        in lattice coordinates is sum_ij beta_i P[i][j] mu_j."""
        return tuple(
            tuple(as_int(self.bilinear(b, a), "pairing table") for a in self.m_basis())
            for b in self.qcheck_basis()
        )

    @cached_property
    def finite_cartan(self) -> tuple[tuple[int, ...], ...]:
        """A[i][j] = <alpha_i^v, alpha_j> on the finite nodes 1..n.  In
        simple-root coordinates, <v, alpha_j^v> = sum_i A[j][i] v_i, and
        s_j changes coordinate j of v by that pairing and no other."""
        return tuple(row[1:] for row in self.cartan.cartan[1:])

    @cached_property
    def finite_form(self) -> tuple:
        """(S, T, d): S is the finite Gram matrix in the simple-root basis
        times its least common denominator, T = d S^{-1}, both integral.
        A Weyl element w preserves the form, so w^{-1} = T w^T S / d."""
        n = self.n
        gram = [row[:n] for row in self.gram[:n]]
        lcd = math.lcm(*(Fraction(x).denominator for row in gram for x in row))
        s = tuple(tuple(as_int(x * lcd, "scaled Gram matrix") for x in row) for row in gram)
        sinv = mat_inv(s)
        d = math.lcm(*(x.denominator for row in sinv for x in row))
        t = tuple(tuple(int(x * d) for x in row) for row in sinv)
        return s, t, d

    def combine(self, coords, basis: Sequence[Vec]) -> Vec:
        """The vector sum_i coords[i] basis[i]; lattice_coords inverts it."""
        out = list(vzero(self.dim))
        for c, b in zip(coords, basis):
            if c:
                for j, x in enumerate(b):
                    if x:
                        out[j] = out[j] + c * x if out[j] else c * x
        return tuple(out)

    def lattice_coords(self, x: Vec, basis: Sequence[Vec]):
        """Integer coordinates of the finite vector x in the given basis;
        None if x is not an integer combination of it, or if the vectors
        are not a basis."""
        n = self.n
        if any(x[n:]):
            return None
        try:
            inv = mat_inv([[basis[j][i] for j in range(n)] for i in range(n)])
        except ValueError:
            return None
        coeffs = [sum(c * xi for c, xi in zip(row, x) if c and xi) for row in inv]
        if any(c.denominator != 1 for c in coeffs):
            return None
        return tuple(int(c) for c in coeffs)

    @cached_property
    def pos_root_norms(self) -> tuple[Fraction, ...]:
        """(r, r) for each root r of pos_roots, in that order."""
        return tuple(self.bilinear(r, r) for r in self.pos_roots)

    def max_root_norm(self) -> Fraction:
        return self._max_root_norm

    @cached_property
    def _max_root_norm(self) -> Fraction:
        return max(*self.pos_root_norms, self.bilinear(self.alpha0, self.alpha0))

    def i_theta(self) -> int:
        """1-based index of the finite node attached to the affine node."""
        cand = [
            i + 1
            for i, a in enumerate(self.simple_roots)
            if self.bilinear(self.theta, a) != 0
        ]
        return cand[0]

    def i_phi(self) -> int:
        """The unique finite node not orthogonal to phi (twisted case)."""
        cand = [
            i + 1
            for i, a in enumerate(self.simple_roots)
            if self.bilinear(self.phi, a) != 0
        ]
        if len(cand) != 1:
            raise ValueError(f"{len(cand)} finite nodes are not orthogonal to phi")
        return cand[0]

    def ell0(self) -> int:
        """Laces between node 0 and i_theta in the affine diagram."""
        a = self.cartan.cartan
        i = self.i_theta()
        return a[0][i] * a[i][0]

    def describe(self) -> dict:
        c = self.cartan
        return {
            "label": str(c.label),
            "rank": c.n,
            "twist": c.twist,
            "a0": c.a0,
            "marks": list(c.marks),
            "comarks": list(c.comarks),
            "num_positive_roots": len(self.pos_roots),
        }


def mat_inv(a) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of a square matrix, in Fractions, by Gauss-Jordan
    elimination; ValueError if it is singular.  This is the package's one
    exact linear solver: a system a x = b is solved as mat_inv(a) b."""
    # Zero entries are skipped and shared, not rebuilt: the matrices
    # inverted here (lattice bases, Gram matrices) are sparse.
    n = len(a)
    aug = [
        [x if x.__class__ is Fraction else Fraction(x) for x in row]
        + [_F1 if i == j else _F0 for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d if x else x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [
                    x - f * y if y else x for x, y in zip(aug[r], aug[col])
                ]
    return tuple(tuple(row[n:]) for row in aug)


def diagonal_scales(basis: Sequence[Vec]) -> tuple[int, ...]:
    """For a basis b_i = c_i alpha_i, the c_i times the least common
    denominator: integers with the ratios of the c_i.  ValueError if the
    basis is not of that form."""
    diag = []
    for i, v in enumerate(basis):
        if not v[i] or any(c for j, c in enumerate(v) if j != i):
            raise ValueError("basis vector is not a multiple of a simple root")
        diag.append(Fraction(v[i]))
    lcd = math.lcm(*(c.denominator for c in diag))
    return tuple(int(c * lcd) for c in diag)


def build(label: AffineLabel | str) -> RootSystemData:
    """The full root-system datum for a Kac label, built once per label;
    RootSystemData is frozen, so every caller shares it."""
    if isinstance(label, str):
        label = parse_label(label)
    return _build(label)


@cache
def _build(label: AffineLabel) -> RootSystemData:
    cartan = affine_cartan(label)
    n = cartan.n
    dim = n + 2
    IDELTA, ILAM = n, n + 1

    simple = []
    for i in range(n):
        v = [_F0] * dim
        v[i] = _F1
        simple.append(tuple(v))
    delta = [_F0] * dim
    delta[IDELTA] = _F1
    delta = tuple(delta)
    lam0 = [_F0] * dim
    lam0[ILAM] = _F1
    lam0 = tuple(lam0)

    # Gram matrix: (alpha_i, alpha_j) = d_i^{-1} a_ij on finite nodes,
    # delta orthogonal to everything but Lambda0, (delta, Lambda0) = 1.
    gram = [[_F0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            gram[i][j] = cartan.cartan[i + 1][j + 1] / cartan.d[i + 1]
    gram[IDELTA][ILAM] = _F1
    gram[ILAM][IDELTA] = _F1
    if any(gram[i][j] != gram[j][i] for i in range(dim) for j in range(dim)):
        raise ValueError(f"{label}: the bilinear form is not symmetric")
    gram = tuple(tuple(row) for row in gram)

    theta = [_F0] * dim
    for i in range(n):
        theta[i] = Fraction(cartan.marks[i + 1])
    theta = tuple(theta)
    alpha0 = vscale(Fraction(1, cartan.a0), vsub(delta, theta))

    rs = RootSystemData(
        cartan=cartan,
        gram=gram,
        simple_roots=tuple(simple),
        alpha0=alpha0,
        delta=delta,
        Lambda0=lam0,
        pos_roots=(),
        theta=theta,
        phi=theta,
        root_set=frozenset(),
    )
    pos = _enumerate_positive_roots(rs)
    phi = _highest_root(rs, pos)
    all_roots = frozenset(pos) | frozenset(vneg(r) for r in pos)
    object.__setattr__(rs, "pos_roots", tuple(pos))
    object.__setattr__(rs, "phi", phi)
    object.__setattr__(rs, "root_set", all_roots)
    return rs


def _enumerate_positive_roots(rs: RootSystemData) -> list[Vec]:
    """Finite roots as the closure of the simple roots under reflections,
    computed on int tuples in simple-root coordinates and converted to
    Vec once at the end."""
    n = rs.n
    cartan = rs.finite_cartan
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    seen = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for v in frontier:
            for j, row in enumerate(cartan):
                p = sum(map(mul, row, v))  # <v, alpha_j^v>
                if p:
                    w = v[:j] + (v[j] - p,) + v[j + 1:]  # s_j(v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    pos = [v for v in seen if _is_positive(v, n)]
    if 2 * len(pos) != len(seen):
        raise ValueError("the root closure is not split into positive and negative roots")
    pos.sort(key=lambda v: (sum(v), v))
    return [tuple(map(Fraction, v)) + (_F0, _F0) for v in pos]


def _is_positive(v: Vec, n: int) -> bool:
    for c in v[:n]:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def _highest_root(rs: RootSystemData, pos: list[Vec]) -> Vec:
    # The highest root is the unique positive root of maximal height that
    # is dominant; for our systems maximal height suffices.
    best = max(pos, key=lambda v: sum(v[: rs.n]))
    if any(rs.bilinear(best, a) < 0 for a in rs.simple_roots):
        raise ValueError("the highest root is not dominant")
    return best


def to_json(rs: RootSystemData) -> dict:
    """JSON-friendly dump of the Cartan data and finite roots."""
    d = rs.describe()
    d["positive_roots"] = [[str(c) for c in r[: rs.n]] for r in rs.pos_roots]
    d["theta"] = [str(c) for c in rs.theta[: rs.n]]
    d["phi"] = [str(c) for c in rs.phi[: rs.n]]
    return d
