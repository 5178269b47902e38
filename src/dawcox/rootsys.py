"""Exact affine root-system data.

The finite roots (the positive roots, theta, phi, theta', phi') are
tuples of n integer simple-root coordinates, computed with the integer
form S = l (finite Gram block); a coroot is read as lattice coordinates
(coroot_coords).  The ambient vectors (the Gram matrix, delta, alpha_0,
the lattice bases) are Fraction tuples in the coordinate basis (alpha_1,
..., alpha_n, delta, Lambda0).  The lattices M and nu(Q^v) have bases
of multiples of the simple roots, A_i = e_i alpha_i and nu(alpha_i^v) =
d_i alpha_i, and RootSystemData.lattice_diagonals states the two
diagonals (e_i) and (d_i) once: the basis vectors, their integer scales
and the integer pairing table between the lattices, which the double
affine Weyl kernel computes with, are all read from that pair.
clear_denominators is the one way rationals are put over a common
denominator for integer arithmetic.  The affine Cartan matrices follow
Kac's Tables Aff 1-3 with his conventional node numbering (node 0 is the
affine node), in one table keyed by the Kac label that stores the marks
with each entry; comarks, the symmetrizing weights d_i, the lattices M
and nu(Q^v), and the distinguished roots theta, phi, theta', phi' are
all derived from them.  The positive roots and the highest root phi
come from the finite Cartan matrix in integers, so each label's
RootSystemData is built in one pass with its final values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Sequence

Vec = tuple[Fraction, ...]
Root = tuple[int, ...]  # a finite root in integer simple-root coordinates

_F0 = Fraction(0)
_F1 = Fraction(1)


def vzero(dim: int) -> Vec:
    return (_F0,) * dim


def exact_quotient(a: int, b: int, what: str) -> int:
    """a / b for integers; ValueError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"{what}: {Fraction(a, b)} is not an integer")
    return q


def clear_denominators(xs, den: int = 1) -> tuple[list[int], int]:
    """(nums, L) with xs[i] = nums[i] / L for a sequence of ints and
    Fractions, L the least multiple of den that clears every denominator."""
    lcd = math.lcm(den, *[x.denominator for x in xs])
    return [x.numerator * (lcd // x.denominator) for x in xs], lcd


def _clear_matrix(a) -> tuple:
    """(N, L) with the square matrix a = N / L, L least: N a tuple of int rows."""
    n = len(a)
    nums, lcd = clear_denominators([x for row in a for x in row])
    return tuple(tuple(nums[i:i + n]) for i in range(0, n * n, n)), lcd


def mat_vec(a, v) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in a])


class UnknownTypeError(ValueError):
    """Raised for affine labels outside Tables Aff 1-3."""


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


# Edge list entries are (i, j, a_ij, a_ji) with A[i][j] = a_ij.  `marks`
# is the right null vector of A normalized so that it is primitive.

def _chain(nodes):
    return [(i, j, -1, -1) for i, j in zip(nodes, nodes[1:])]


def _affine_table(label: AffineLabel):
    """(edges, marks) of the affine Cartan matrix of a Kac label X_N^(r),
    with n + 1 nodes: n = N untwisted, otherwise the rank of Kac's row."""
    L, N, r = label.letter, label.N, label.twist
    if r == 1:
        n = N
        if L == "A" and N == 1:
            return [(0, 1, -2, -2)], [1, 1]
        if L == "A" and N >= 2:
            return _chain(range(n + 1)) + [(0, n, -1, -1)], [1] * (n + 1)
        if L == "B" and N >= 3:
            edges = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(range(2, n)) + [(n - 1, n, -1, -2)]
            return edges, [1, 1] + [2] * (n - 1)
        if L == "C" and N >= 2:
            edges = [(0, 1, -1, -2)] + _chain(range(1, n)) + [(n - 1, n, -2, -1)]
            return edges, [1] + [2] * (n - 1) + [1]
        if L == "D" and N >= 4:
            edges = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(range(2, n - 1))
            edges += [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
            return edges, [1, 1] + [2] * (n - 3) + [1, 1]
        if L == "E" and N == 6:
            edges = _chain(range(1, 6)) + [(3, 6, -1, -1), (6, 0, -1, -1)]
            return edges, [1, 1, 2, 3, 2, 1, 2]
        if L == "E" and N == 7:
            edges = _chain(range(7)) + [(3, 7, -1, -1)]
            return edges, [1, 2, 3, 4, 3, 2, 1, 2]
        if L == "E" and N == 8:
            edges = _chain(range(8)) + [(5, 8, -1, -1)]
            return edges, [1, 2, 3, 4, 5, 6, 4, 2, 3]
        if L == "F" and N == 4:
            edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
            return edges, [1, 2, 3, 4, 2]
        if L == "G" and N == 2:
            edges = [(0, 1, -1, -1), (1, 2, -1, -3)]
            return edges, [1, 2, 3]
    if r == 2:
        if L == "A" and N == 2:
            return [(0, 1, -4, -1)], [2, 1]
        if L == "A" and N >= 4 and N % 2 == 0:  # A_{2n}^(2)
            n = N // 2
            edges = [(0, 1, -2, -1)] + _chain(range(1, n)) + [(n - 1, n, -2, -1)]
            return edges, [2] * n + [1]
        if L == "A" and N == 3:  # A_3^(2): the fork collapses to the middle node
            return [(0, 2, -2, -1), (1, 2, -2, -1)], [1, 1, 1]
        if L == "A" and N >= 5 and N % 2:  # A_{2n-1}^(2)
            n = (N + 1) // 2
            edges = [(0, 2, -1, -1), (1, 2, -1, -1)] + _chain(range(2, n)) + [(n - 1, n, -2, -1)]
            return edges, [1, 1] + [2] * (n - 2) + [1]
        if L == "D" and N >= 3:  # D_{n+1}^(2)
            n = N - 1
            edges = [(0, 1, -2, -1)] + _chain(range(1, n)) + [(n - 1, n, -1, -2)]
            return edges, [1] * (n + 1)
        if L == "E" and N == 6:
            edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
            return edges, [1, 2, 3, 2, 1]
    if r == 3 and L == "D" and N == 4:
        return [(0, 1, -1, -1), (1, 2, -3, -1)], [1, 2, 1]
    raise UnknownTypeError(f"{label} is not in Tables Aff 1-3")


@dataclass(frozen=True)
class AffineCartanData:
    label: AffineLabel
    cartan: tuple[tuple[int, ...], ...]  # (n+1) x (n+1)
    marks: tuple[int, ...]               # a_0 .. a_n
    d: tuple[Fraction, ...]              # d_i = a_i / a_i^v, a_i^v the comarks
    e: tuple[Fraction, ...]              # e_i = max(1/a_0, d_i)
    twist: int                           # r = max d_i^{-1}

    @property
    def n(self) -> int:
        return len(self.marks) - 1

    @property
    def a0(self) -> int:
        return self.marks[0]


@cache
def affine_cartan(label: AffineLabel) -> AffineCartanData:
    """The affine Cartan datum of a label, solved once per label."""
    edges, marks = _affine_table(label)
    m = len(marks)
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = 2
    for i, j, aij, aji in edges:
        a[i][j] = aij
        a[j][i] = aji
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
        d=d,
        e=e,
        twist=int(twist),
    )


@dataclass(frozen=True)
class RootSystemData:
    """An affine Cartan datum together with the finite root system.

    The finite roots are Root tuples of n integer simple-root coordinates.
    The ambient vectors gram, alpha0 and delta live in the
    (n+2)-dimensional space with ordered basis (alpha_1, ..., alpha_n,
    delta, Lambda0).
    """

    cartan: AffineCartanData
    gram: tuple[Vec, ...]               # bilinear form on the basis
    alpha0: Vec                         # (delta - theta) / a_0
    delta: Vec
    pos_roots: tuple[Root, ...]         # finite positive roots
    theta: Root                         # a_1 alpha_1 + ... + a_n alpha_n
    phi: Root                           # highest root of the finite system

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
    def a0(self) -> int:
        return self.cartan.a0

    @cached_property
    def weyl_elements(self) -> dict:
        """The finite Weyl elements met so far, by matrix: weyl.element
        keeps one object per matrix here, with its derived data."""
        return {}

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

    # -- distinguished data -------------------------------------------

    def primed(self, theta: Root, phi: Root) -> tuple[Root, Root]:
        """theta' = phi - theta and phi' = (phi, theta^v) theta - phi =
        -s_theta(phi), whose coroot is theta^v - phi^v; the Cartan number
        (phi, theta^v) is 2 (phi, theta) / (theta, theta)."""
        c = exact_quotient(2 * self.form(phi, theta), self.form(theta, theta), "Cartan number")
        return (tuple(p - t for p, t in zip(phi, theta)),
                tuple(c * t - p for p, t in zip(phi, theta)))

    def is_twisted_proper(self) -> bool:
        """Twisted and not A_{2n}^(2): theta short, phi long, distinct."""
        return self.theta != self.phi

    @cached_property
    def lattice_diagonals(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """(m, q): the bases of M and nu(Q^v) are A_i = m_i alpha_i and
        nu(alpha_i^v) = q_i alpha_i.  m_i = e_i, and q_i = d_i, since
        (alpha_i, alpha_i) = 2 / d_i makes 2 alpha_i / (alpha_i, alpha_i)
        = d_i alpha_i."""
        return self.cartan.e[1:], self.cartan.d[1:]

    def _simple_root_multiples(self, diag) -> tuple[Vec, ...]:
        """The ambient vectors diag[i] alpha_i."""
        return tuple(
            tuple(x if i == j else _F0 for j in range(self.dim)) for i, x in enumerate(diag)
        )

    def m_basis(self) -> tuple[Vec, ...]:
        """A_i = e_i alpha_i, a basis of the lattice M."""
        return self._simple_root_multiples(self.lattice_diagonals[0])

    def qcheck_basis(self) -> tuple[Vec, ...]:
        """nu(alpha_i^v) = d_i alpha_i, a basis of nu(Q^v) of the finite system."""
        return self._simple_root_multiples(self.lattice_diagonals[1])

    @cached_property
    def m_scales(self) -> tuple[int, ...]:
        """Integer scales E with A_i = (E_i / L) alpha_i for one common L."""
        return tuple(clear_denominators(self.lattice_diagonals[0])[0])

    @cached_property
    def qcheck_scales(self) -> tuple[int, ...]:
        """Integer scales F with nu(alpha_i^v) = (F_i / L') alpha_i."""
        return tuple(clear_denominators(self.lattice_diagonals[1])[0])

    @cached_property
    def pairing_table(self) -> tuple[tuple[int, ...], ...]:
        """P[i][j] = (nu(alpha_i^v), A_j): the tau_delta cocycle (beta, mu)
        in lattice coordinates is sum_ij beta_i P[i][j] mu_j.  With A_j =
        m_j alpha_j, P[i][j] = m_j <alpha_i^v, alpha_j> = m_j A[i][j]."""
        m = self.lattice_diagonals[0]
        return tuple(
            tuple(exact_quotient(x.numerator * a, x.denominator, "pairing table")
                  for x, a in zip(m, row))
            for row in self.finite_cartan
        )

    @cached_property
    def finite_cartan(self) -> tuple[tuple[int, ...], ...]:
        """A[i][j] = <alpha_i^v, alpha_j> on the finite nodes 1..n.  In
        simple-root coordinates, <v, alpha_j^v> = sum_i A[j][i] v_i, and
        s_j changes coordinate j of v by that pairing and no other."""
        return tuple(row[1:] for row in self.cartan.cartan[1:])

    @cached_property
    def int_form(self) -> tuple:
        """(S, l): S = l (finite Gram matrix), integral for the least l."""
        n = self.n
        return _clear_matrix([row[:n] for row in self.gram[:n]])

    def form(self, x, y) -> int:
        """l (x, y) = x^T S y for integer simple-root coordinates x, y."""
        return sum(map(mul, x, mat_vec(self.int_form[0], y)))

    def coroot_coords(self, root: Root, diag) -> tuple[int, ...]:
        """nu(root^v) = 2 root / (root, root) in the lattice basis diag[i]
        alpha_i, diag one of lattice_diagonals, in exact ints: coordinate i
        is 2 l root_i / (l (root, root) diag_i); ValueError if nu(root^v)
        is not in the lattice."""
        norm = self.form(root, root)
        two_l = 2 * self.int_form[1]
        return tuple(
            exact_quotient(two_l * r * x.denominator, norm * x.numerator, "coroot coordinate")
            for r, x in zip(root, diag)
        )

    @cached_property
    def finite_form(self) -> tuple:
        """(S, T, d): S of int_form and T = d S^{-1}, both integral.  A Weyl
        element w preserves the form, so w^{-1} = T w^T S / d."""
        s = self.int_form[0]
        t, d = _clear_matrix(mat_inv(s))
        return s, t, d

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
        lcd = self.int_form[1]
        return tuple(Fraction(self.form(c, c), lcd) for c in self.pos_roots)

    def _touching(self, root: Root) -> list[int]:
        """1-based indices of the finite nodes not orthogonal to a finite
        root: those j with <root, alpha_j^v> = sum_i A[j][i] root_i != 0,
        read in integers from the finite Cartan matrix."""
        return [j for j, row in enumerate(self.finite_cartan, start=1) if sum(map(mul, row, root))]

    def i_theta(self) -> int:
        """1-based index of the finite node attached to the affine node."""
        return self._touching(self.theta)[0]

    def i_phi(self) -> int:
        """The unique finite node not orthogonal to phi (twisted case)."""
        cand = self._touching(self.phi)
        if len(cand) != 1:
            raise ValueError(f"{len(cand)} finite nodes are not orthogonal to phi")
        return cand[0]

    def ell0(self) -> int:
        """Laces between node 0 and i_theta in the affine diagram."""
        a = self.cartan.cartan
        i = self.i_theta()
        return a[0][i] * a[i][0]

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

    # Gram matrix: (alpha_i, alpha_j) = d_i^{-1} a_ij on finite nodes,
    # delta orthogonal to everything but Lambda0, (delta, Lambda0) = 1.
    gram = [[_F0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            gram[i][j] = cartan.cartan[i + 1][j + 1] / cartan.d[i + 1]
    gram[n][n + 1] = gram[n + 1][n] = _F1
    if any(gram[i][j] != gram[j][i] for i in range(dim) for j in range(dim)):
        raise ValueError(f"{label}: the bilinear form is not symmetric")

    theta = cartan.marks[1:]
    pos = tuple(_positive_roots([row[1:] for row in cartan.cartan[1:]]))
    a0 = cartan.a0
    return RootSystemData(
        cartan=cartan,
        gram=tuple(map(tuple, gram)),
        alpha0=tuple(Fraction(-t, a0) for t in theta) + (Fraction(1, a0), _F0),
        delta=vzero(n) + (_F1, _F0),
        pos_roots=pos,
        theta=theta,
        phi=pos[-1],
    )


def _positive_roots(a) -> list[tuple[int, ...]]:
    """The positive roots of the finite Cartan matrix a in integer
    simple-root coordinates, by height: the closure of the simple roots
    under the reflections s_j, which change coordinate j of v by
    <v, alpha_j^v> = sum_i A[j][i] v_i.  The last, of greatest height, is
    the highest root, checked to be dominant."""
    n = len(a)
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    seen = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for v in frontier:
            for j, row in enumerate(a):
                p = sum(map(mul, row, v))
                if p:
                    w = v[:j] + (v[j] - p,) + v[j + 1:]
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    # a root is positive when its first non-zero coordinate is
    pos = sorted((v for v in seen if v > (0,) * n), key=lambda v: (sum(v), v))
    if 2 * len(pos) != len(seen):
        raise ValueError("the root closure is not split into positive and negative roots")
    if min(mat_vec(a, pos[-1])) < 0:
        raise ValueError("the highest root is not dominant")
    return pos
