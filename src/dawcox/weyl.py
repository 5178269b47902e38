"""Finite Weyl group elements and the length/inversion combinatorics.

Elements are integer matrices in the simple-root basis of the finite
part of the weight space (the span of alpha_1..alpha_n); comparison is
by matrix equality.  Each element also acts on the lattices M and
nu(Q^v) by integer matrices in their bases, derived from its matrix and
the lattices' integer scales.  Reduced words are advisory caches
extracted by greedy descent on inversion sets; longest elements, of the
group and of root stabilizers, come from greedy ascent in a parabolic
subgroup, with no enumeration of the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from operator import mul, ne

from .rootsys import RootSystemData, Vec, as_int, vsub, vscale
from .rootsys import mat_inv  # noqa: F401  (public here: tests and bench/spans.py use weyl.mat_inv)

Matrix = tuple[tuple[int, ...], ...]

_F0 = Fraction(0)


@cache
def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def frac_sum(terms) -> Fraction:
    """Exact sum of Fractions; unlike sum(terms, Fraction(0)) it starts
    from the first term instead of adding it to zero."""
    it = iter(terms)
    total = next(it, _F0)
    for t in it:
        total += t
    return total


def int_matrix(a) -> Matrix:
    """a with int entries; ValueError if an entry is not an integer."""
    return tuple(tuple(as_int(x, "matrix entry") for x in row) for row in a)


# A factor that moves at most this many rows away from the identity's
# (the identity moves none, a simple reflection one) is multiplied row
# by row instead of by the dense n^3 product.
_FEW_MOVED_ROWS = 2


def _moved_rows(a: Matrix, ident: Matrix) -> list[int]:
    """The indices of the rows of a that differ from the identity's.  A
    list row never equals a tuple row, so list input counts as moved."""
    return list(compress(range(len(ident)), map(ne, a, ident)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b of square matrices as a tuple of tuples, for int
    or Fraction entries and tuple or list rows.  When b = 1 + D moves few
    rows, the product is a + a D, which changes only the rows of a with
    an entry in a moved row's column; when a = 1 + D does, it is b + D b,
    which changes only a's moved rows."""
    ident = _identity(len(b))
    moved = _moved_rows(b, ident)
    if not moved:
        return tuple(map(tuple, a))
    if len(moved) <= _FEW_MOVED_ROWS:
        # Row i of a D is the sum over moved k of a[i][k] (b[k] - e_k).
        d = [(k, [(j, x - (j == k)) for j, x in enumerate(b[k]) if x != (j == k)])
             for k in moved]
        out = []
        for row in a:
            new = None
            for k, dk in d:
                f = row[k]
                if f:
                    if new is None:
                        new = list(row)
                    for j, x in dk:
                        new[j] += f * x
            out.append(tuple(row if new is None else new))
        return tuple(out)
    moved = _moved_rows(a, ident)
    if len(moved) <= _FEW_MOVED_ROWS:
        # Row i of a b is b[i] unless i is moved, then sum_k a[i][k] b[k].
        out = list(map(tuple, b))
        for i in moved:
            new = [0] * len(ident)
            for f, brow in zip(a[i], b):
                if f:
                    for j, x in enumerate(brow):
                        if x:
                            new[j] += f * x
            out[i] = tuple(new)
        return tuple(out)
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Matrix, v) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in a])


def _divide(a: Matrix, d: int) -> Matrix:
    """a / d; ValueError unless every entry divides exactly."""
    if d == 1:
        return a
    out = tuple(tuple(x // d for x in row) for row in a)
    if any(x % d for row in a for x in row):
        raise ValueError("matrix does not preserve the form")
    return out


def _rescale(a: Matrix, scales: tuple[int, ...]) -> Matrix:
    """The matrix of the same map in the basis (scales[j] alpha_j):
    a[i][j] scales[j] / scales[i], which must divide exactly."""
    if len(set(scales)) == 1:
        return a
    out = []
    for row, si in zip(a, scales):
        new = []
        for x, sj in zip(row, scales):
            q, r = divmod(x * sj, si)
            if r:
                raise ValueError("Weyl element does not preserve the lattice")
            new.append(q)
        out.append(tuple(new))
    return tuple(out)


@dataclass(frozen=True)
class WeylElement:
    rs: RootSystemData
    matrix: Matrix  # int entries, simple-root basis

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("mixed root systems")
        return WeylElement(self.rs, mat_mul(self.matrix, other.matrix))

    def inv(self) -> "WeylElement":
        return self._inverse

    @cached_property
    def _inverse(self) -> "WeylElement":
        # Computed once per element: the double affine product inverts
        # the right factor's Weyl part on every multiplication.  The
        # inverse's own inverse is this element, so record it too.
        # A Weyl element preserves the form (w^T S w = S), so w^{-1} =
        # S^{-1} w^T S: integer products and an exact division, checked.
        s, t, d = self.rs.finite_form
        num = mat_mul(mat_mul(t, tuple(zip(*self.matrix))), s)
        inverse = WeylElement(self.rs, _divide(num, d))
        if mat_mul(self.matrix, inverse.matrix) != _identity(self.rs.n):
            raise ValueError("matrix does not preserve the form")
        inverse.__dict__["_inverse"] = self
        return inverse

    @cached_property
    def m_matrix(self) -> Matrix:
        """The action on M in the basis A_1..A_n."""
        return _rescale(self.matrix, self.rs.m_scales)

    @cached_property
    def qcheck_matrix(self) -> Matrix:
        """The action on nu(Q^v) in the basis nu(alpha_1^v)..nu(alpha_n^v)."""
        return _rescale(self.matrix, self.rs.qcheck_scales)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rs is other.rs
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash(self.matrix)

    def act_finite(self, v) -> tuple:
        """Apply to a finite vector (n coordinates): ints for an int
        vector, otherwise Fractions, computed as the integer product with
        the vector's numerators over their common denominator."""
        if all(x.__class__ is int for x in v):
            return mat_vec(self.matrix, v)
        den = math.lcm(*(x.denominator for x in v))
        nums = [x.numerator * (den // x.denominator) for x in v]
        return tuple([Fraction(x, den) for x in mat_vec(self.matrix, nums)])

    def act(self, v: Vec) -> Vec:
        """Apply to a full vector; delta and Lambda0 are fixed."""
        n = self.rs.n
        return self.act_finite(v[:n]) + v[n:]

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.rs.n)


def braid_sides(x, y, lace: int) -> tuple[tuple, tuple]:
    """The two sides x y x ... = y x y ... of the braid relation between
    nodes joined by lace = a_ij a_ji = 0, 1, 2, 3 laces, of length
    m = 2, 3, 4, 6 (the order of s_i s_j)."""
    m = {0: 2, 1: 3, 2: 4, 3: 6}[lace]
    return (x, y) * (m // 2) + (x,) * (m % 2), (y, x) * (m // 2) + (y,) * (m % 2)


def identity(rs: RootSystemData) -> WeylElement:
    return WeylElement(rs, _identity(rs.n))


def reflect(rs: RootSystemData, alpha: Vec) -> WeylElement:
    """The reflection s_alpha(x) = x - (x, alpha^v) alpha; ValueError
    if its matrix is not integral."""
    n = rs.n
    if rs.bilinear(alpha, alpha) == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    if any(alpha[n:]):
        raise ValueError("reflect() expects a finite root")
    av = rs.coroot(alpha)
    cols = []
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n)) + (Fraction(0),) * 2
        img = vsub(e, vscale(rs.bilinear(e, av), alpha))
        cols.append(img[:n])
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return WeylElement(rs, int_matrix(matrix))


def simple_reflection(rs: RootSystemData, i: int) -> WeylElement:
    """s_i for 1 <= i <= n."""
    return reflect(rs, rs.simple_roots[i - 1])


class WeylGroup:
    """Caches per-root-system data: simple reflections, positivity tests."""

    def __init__(self, rs: RootSystemData):
        self.rs = rs
        n = rs.n
        self.simples = [simple_reflection(rs, i) for i in range(1, n + 1)]
        # Roots have integer coordinates in the simple-root basis.
        self.pos_int = tuple(tuple(int(c) for c in r[:n]) for r in rs.pos_roots)
        self.pos_set = frozenset(self.pos_int)
        self.neg_set = frozenset(tuple(-c for c in r) for r in self.pos_int)
        self.id = identity(rs)

    def inversion_set(self, w: WeylElement) -> frozenset:
        """Pi(w): positive finite roots sent negative (finite coords)."""
        return frozenset(r for r in self.pos_int if w.act_finite(r) in self.neg_set)

    def length(self, w: WeylElement) -> int:
        return len(self.inversion_set(w))

    def right_descents(self, w: WeylElement) -> list[int]:
        # w(alpha_i) is column i of the matrix; a root is negative exactly
        # when it has a negative coordinate.
        return [i for i, col in enumerate(zip(*w.matrix), start=1) if min(col) < 0]

    def reduced_word(self, w: WeylElement) -> tuple[int, ...]:
        """Greedy extraction from the left: the lexicographically least
        reduced word, found by repeatedly splitting off the smallest left
        descent."""
        # Walk on the inverse: (s_i cur)^{-1} = cur^{-1} s_i, so one
        # matrix inversion serves the whole descent.
        word = []
        winv = w.inv()
        while True:
            desc = self.right_descents(winv)  # left descents of winv^{-1}
            if not desc:
                break
            i = desc[0]
            word.append(i)
            winv = winv * self.simples[i - 1]
        if not winv.is_identity():
            raise ValueError("descent ended away from the identity")
        return tuple(word)

    def from_word(self, word) -> WeylElement:
        w = self.id
        for i in word:
            w = w * self.simples[i - 1]
        return w

    def length_additivity(self, u: WeylElement, v: WeylElement) -> bool:
        """l(uv) = l(u) + l(v), checked against Pi-containment."""
        uv = u * v
        additive = self.length(uv) == self.length(u) + self.length(v)
        contained = self.inversion_set(v) <= self.inversion_set(uv)
        if additive != contained:
            raise ValueError("Pi-containment criterion violated")
        return additive

    def _longest_in_parabolic(self, indices) -> WeylElement:
        """Longest element of the parabolic subgroup generated by s_j for
        j in indices (1-based): multiply by s_j while w(alpha_j), column j
        of the matrix, is positive, that is, while s_j lengthens w."""
        w = self.id
        while True:
            cols = tuple(zip(*w.matrix))
            for j in indices:
                if min(cols[j - 1]) >= 0:
                    w = w * self.simples[j - 1]
                    break
            else:
                return w

    def longest_element(self) -> WeylElement:
        """w_circ by parabolic ascent over every simple reflection."""
        return self._longest_in_parabolic(range(1, self.rs.n + 1))

    def enumerate(self) -> list[WeylElement]:
        """All elements, BFS by right multiplication."""
        seen = {self.id.matrix: self.id}
        frontier = [self.id]
        while frontier:
            nxt = []
            for w in frontier:
                for s in self.simples:
                    ws = w * s
                    if ws.matrix not in seen:
                        seen[ws.matrix] = ws
                        nxt.append(ws)
            frontier = nxt
        return list(seen.values())

    def longest_in_stabilizer(self, roots_to_fix) -> WeylElement:
        """Longest element of {w : w(r) = r for all listed roots}, which
        must be dominant: their common stabilizer is the parabolic
        subgroup of the simple roots orthogonal to all of them
        (Chevalley), so no group enumeration is needed."""
        rs = self.rs
        simple = rs.simple_roots
        pairings = [[rs.bilinear(r, a) for a in simple] for r in roots_to_fix]
        if any(p < 0 for row in pairings for p in row):
            raise ValueError("longest_in_stabilizer expects dominant roots")
        orthogonal = [
            j for j in range(1, rs.n + 1) if not any(row[j - 1] for row in pairings)
        ]
        return self._longest_in_parabolic(orthogonal)

    def is_simply_laced(self) -> bool:
        return len(set(self.rs.pos_root_norms)) == 1

    def short_dominant(self) -> Vec:
        """Short dominant root of the finite system (theta in the
        non-simply-laced combinatorics, regardless of the affine host)."""
        rs = self.rs
        if self.is_simply_laced():
            raise ValueError("simply-laced system has no short dominant root")
        short = min(rs.pos_root_norms)
        # dominant: <r, alpha_j^v> = sum_i A[j][i] r_i >= 0 for every j
        cands = [
            r
            for r, norm in zip(rs.pos_roots, rs.pos_root_norms)
            if norm == short
            and all(sum(map(mul, row, r)) >= 0 for row in rs.finite_cartan)
        ]
        if len(cands) != 1:
            raise ValueError(f"{len(cands)} short dominant roots")
        return cands[0]

    def long_dominant(self) -> Vec:
        return self.rs.phi

    def theta_phi_finite(self) -> tuple[Vec, Vec]:
        return self.short_dominant(), self.long_dominant()

    def xy_candidates(self) -> tuple[WeylElement, WeylElement]:
        """x = s_theta v_circ w_circ and y = s_phi v_circ w_circ, not yet
        checked against the structural lemma; computed once per group."""
        return self._xy

    @cached_property
    def _xy(self) -> tuple[WeylElement, WeylElement]:
        rs = self.rs
        if self.is_simply_laced():
            raise ValueError("x, y are defined for non-simply-laced data only")
        theta, phi = self.theta_phi_finite()
        vw = self.longest_in_stabilizer([theta, phi]) * self.longest_element()
        return reflect(rs, theta) * vw, reflect(rs, phi) * vw

    def xy_identities(self) -> list[tuple]:
        """The identities i) - vi) of the structural lemma for the
        candidates x, y, and the identities tying the primed reflections
        together, as (name, lhs, rhs) records; they hold when lhs == rhs
        for each record."""
        rs = self.rs
        n = rs.n
        x, y = self.xy_candidates()
        theta, phi = self.theta_phi_finite()
        theta_prime, phi_prime = rs.primed(theta, phi)
        s_th, s_ph = reflect(rs, theta), reflect(rs, phi)
        s_thp, s_php = reflect(rs, theta_prime), reflect(rs, phi_prime)
        th, ph = (tuple(int(c) for c in r[:n]) for r in (theta, phi))
        php_v = rs.coroot(phi_prime)
        zero2 = (_F0, _F0)
        records = [
            ("x^2 = 1", x * x, self.id),
            ("y^2 = 1", y * y, self.id),
            ("x(theta) = theta", x.act_finite(th), th),
            ("y(phi) = phi", y.act_finite(ph), ph),
            ("s_phi s_theta = y x", s_ph * s_th, y * x),
            ("l(s_phi s_theta) = l(y) + l(x)",
             self.length(s_ph * s_th), self.length(y) + self.length(x)),
            ("s_theta = y s_theta' y", s_th, y * s_thp * y),
            ("s_phi = x s_phi' x", s_ph, x * s_php * x),
            ("l(s_theta) = 2 l(y) + l(s_theta')",
             self.length(s_th), 2 * self.length(y) + self.length(s_thp)),
            ("l(s_phi) = 2 l(x) + l(s_phi')",
             self.length(s_ph), 2 * self.length(x) + self.length(s_php)),
            # v), vi): inversion-set pairing bounds, as the roots that break them.
            ("(theta', b^v) = -1 on Pi(y)", sorted(
                r for r in self.inversion_set(y) if rs.pairing(theta_prime, r + zero2) != -1
            ), []),
            ("(phi'^v, b) = -1 on Pi(x)", sorted(
                r for r in self.inversion_set(x) if rs.bilinear(php_v, r + zero2) != -1
            ), []),
            ("s_theta' s_theta = s_phi s_phi'", s_thp * s_th, s_ph * s_php),
            ("s_phi' s_phi = s_theta s_theta'", s_php * s_ph, s_th * s_thp),
        ]
        if rs.bilinear(phi, phi) == 2 * rs.bilinear(theta, theta):
            a, b = s_thp, s_php
            records += [
                ("s_theta = s_phi' s_theta' s_phi'", s_th, b * a * b),
                ("s_phi = s_theta' s_phi' s_theta'", s_ph, a * b * a),
                ("2-braid of s_theta', s_phi'", a * b * a * b, b * a * b * a),
            ]
        return records

    def compute_xy(self) -> tuple[WeylElement, WeylElement]:
        """The order-two elements x, y with v_circ w_circ = s_theta x =
        s_phi y; ValueError unless they satisfy the structural lemma."""
        failed = [name for name, lhs, rhs in self.xy_identities() if lhs != rhs]
        if failed:
            raise ValueError(f"structural lemma fails: {', '.join(failed)}")
        return self.xy_candidates()

    def acts_as_minus_identity(self, w: WeylElement) -> bool:
        n = self.rs.n
        return w.matrix == tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


# Finite types where conjugation by T_{w_circ} is asserted to be global
# (list iii of the relevant theorem) versus where only its square is
# (list iv).  These are recorded verbatim; w_circ = -id is also computed
# from matrices, and the two disagree for the D families (see ledger).
LISTED_GLOBAL_CONJUGATION = {
    "B": lambda n: n >= 3,
    "C": lambda n: n >= 1,
    "D": lambda n: n % 2 == 1 and n >= 5,  # "D_{2n+1}, n >= 2" verbatim
    "E": lambda n: n in (7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

LISTED_SQUARE_ONLY = {
    "A": lambda n: n >= 2,
    "D": lambda n: n % 2 == 0 and n >= 4,  # "D_{2n}, n >= 2" verbatim
    "E": lambda n: n == 6,
}


def listed_w0_central_claim(letter: str, n: int):
    """The classification as recorded in the source tables; None if the type is in
    neither list (A_1 is covered by C_1 in list iii)."""
    if letter in LISTED_GLOBAL_CONJUGATION and LISTED_GLOBAL_CONJUGATION[letter](n):
        return True
    if letter in LISTED_SQUARE_ONLY and LISTED_SQUARE_ONLY[letter](n):
        return False
    if letter == "A" and n == 1:
        return True
    return None
