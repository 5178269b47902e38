"""Finite Weyl group elements and the length/inversion combinatorics.

Elements are integer matrices in the simple-root basis of the finite
part of the weight space (the span of alpha_1..alpha_n); comparison is
by matrix equality, and each matrix is one object per root system:
`element` keeps the elements met so far in the root system's table, so
an element's inverse, lattice matrices and reduced word are computed
once per process, not once per product.  They act on the roots, which
are integer simple-root coordinates too, so reflections, inversion sets
and stabilizers read the root system's roots as they are.  Each element
acts on the lattices M and nu(Q^v) by integer matrices in their bases,
derived from its matrix and the lattices' integer scales.  Reduced
words come from greedy descent on inversion sets; longest elements, of
the group and of root stabilizers, from greedy ascent in a parabolic
subgroup, with no enumeration of the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from operator import mul, ne, sub

from .rootsys import Root, RootSystemData, exact_quotient, mat_vec
from .rootsys import mat_inv  # noqa: F401  (public here: tests and bench/spans.py use weyl.mat_inv)

Matrix = tuple[tuple[int, ...], ...]


@cache
def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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
        return element(self.rs, mat_mul(self.matrix, other.matrix))

    def inv(self) -> "WeylElement":
        return self._inverse

    @cached_property
    def _inverse(self) -> "WeylElement":
        # Computed once per element: the double affine product inverts
        # the right factor's Weyl part on every multiplication.  The
        # inverse's own inverse is this element's shared object, so
        # record it too.
        # A Weyl element preserves the form (w^T S w = S), so w^{-1} =
        # S^{-1} w^T S: integer products and an exact division, checked.
        rs = self.rs
        s, t, d = rs.finite_form
        num = mat_mul(mat_mul(t, tuple(zip(*self.matrix))), s)
        inverse = element(rs, _divide(num, d))
        if mat_mul(self.matrix, inverse.matrix) != _identity(rs.n):
            raise ValueError("matrix does not preserve the form")
        inverse.__dict__.setdefault("_inverse", element(rs, self.matrix))
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
        """Apply to a finite vector of n integer simple-root coordinates."""
        return mat_vec(self.matrix, v)

    def is_identity(self) -> bool:
        return self._is_identity

    @cached_property
    def _is_identity(self) -> bool:
        return self.matrix == _identity(self.rs.n)

    @cached_property
    def reduced_word(self) -> tuple[int, ...]:
        """Greedy extraction from the left: the lexicographically least
        reduced word, found by repeatedly splitting off the smallest left
        descent."""
        # Walk on the inverse's matrix, keeping no element passed on the
        # way: (s_i cur)^{-1} = cur^{-1} s_i, and the left descents of cur
        # are the columns of cur^{-1} with a negative entry.
        word = []
        winv = self.inv().matrix
        while True:
            i = next((i for i, col in enumerate(zip(*winv), 1) if min(col) < 0), 0)
            if not i:
                break
            word.append(i)
            winv = mat_mul(winv, simple_reflection(self.rs, i).matrix)
        if winv != _identity(self.rs.n):
            raise ValueError("descent ended away from the identity")
        return tuple(word)


def braid_sides(x, y, lace: int) -> tuple[tuple, tuple]:
    """The two sides x y x ... = y x y ... of the braid relation between
    nodes joined by lace = a_ij a_ji = 0, 1, 2, 3 laces, of length
    m = 2, 3, 4, 6 (the order of s_i s_j)."""
    m = {0: 2, 1: 3, 2: 4, 3: 6}[lace]
    return (x, y) * (m // 2) + (x,) * (m % 2), (y, x) * (m // 2) + (y,) * (m % 2)


def element(rs: RootSystemData, matrix: Matrix) -> WeylElement:
    """The one WeylElement of rs with this matrix (a tuple of int tuples),
    built on first use and kept in rs.weyl_elements."""
    table = rs.weyl_elements
    w = table.get(matrix)
    if w is None:
        w = table[matrix] = WeylElement(rs, matrix)
    return w


def identity(rs: RootSystemData) -> WeylElement:
    return element(rs, _identity(rs.n))


def reflect(rs: RootSystemData, alpha: Root) -> WeylElement:
    """The reflection s_alpha(x) = x - (x, alpha^v) alpha in a finite root
    given by its integer coordinates; ValueError if its matrix is not
    integral.  Row i is e_i - alpha_i p with p_j = 2 (S alpha)_j /
    alpha^T S alpha."""
    sa = mat_vec(rs.int_form[0], alpha)
    norm = sum(map(mul, alpha, sa))
    return element(rs, tuple(
        tuple(int(i == j) - exact_quotient(2 * ai * x, norm, "matrix entry")
              for j, x in enumerate(sa))
        for i, ai in enumerate(alpha)
    ))


def simple_reflection(rs: RootSystemData, i: int) -> WeylElement:
    """s_i for 1 <= i <= n: s_i(x) = x - <alpha_i^v, x> alpha_i, the
    identity but for row i, which is e_i minus row i of the finite Cartan
    matrix."""
    if not 1 <= i <= rs.n:
        raise ValueError(f"no simple reflection s{i} at rank {rs.n}")
    ident = _identity(rs.n)
    row = tuple(map(sub, ident[i - 1], rs.finite_cartan[i - 1]))
    return element(rs, ident[: i - 1] + (row,) + ident[i:])


class WeylGroup:
    """Caches per-root-system data: simple reflections, positivity tests."""

    def __init__(self, rs: RootSystemData):
        self.rs = rs
        self.simples = [simple_reflection(rs, i) for i in range(1, rs.n + 1)]
        self.neg_set = frozenset(tuple(-c for c in r) for r in rs.pos_roots)
        self.id = identity(rs)

    def inversion_set(self, w: WeylElement) -> frozenset:
        """Pi(w): positive finite roots sent negative."""
        return frozenset(r for r in self.rs.pos_roots if w.act_finite(r) in self.neg_set)

    def length(self, w: WeylElement) -> int:
        return len(self.inversion_set(w))

    def right_descents(self, w: WeylElement) -> list[int]:
        # w(alpha_i) is column i of the matrix; a root is negative exactly
        # when it has a negative coordinate.
        return [i for i, col in enumerate(zip(*w.matrix), start=1) if min(col) < 0]

    def reduced_word(self, w: WeylElement) -> tuple[int, ...]:
        """The lexicographically least reduced word of w, extracted once
        per element (WeylElement.reduced_word)."""
        return w.reduced_word

    def _longest_in_parabolic(self, indices) -> WeylElement:
        """Longest element of the parabolic subgroup generated by s_j for
        j in indices (1-based): multiply by s_j while j is not a right
        descent of w, that is, while s_j lengthens w."""
        w = self.id
        while True:
            descents = self.right_descents(w)
            j = next((j for j in indices if j not in descents), 0)
            if not j:
                return w
            w = w * self.simples[j - 1]

    def longest_element(self) -> WeylElement:
        """w_circ by parabolic ascent over every simple reflection."""
        return self._longest_in_parabolic(range(1, self.rs.n + 1))

    def enumerate(self) -> list[WeylElement]:
        """All elements, BFS by right multiplication on matrices.  They are
        not put in the root system's table: each compares equal to the
        shared element of its matrix, but the group is not kept."""
        simples = [s.matrix for s in self.simples]
        seen = {self.id.matrix: None}
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for s in simples:
                    ws = mat_mul(w, s)
                    if ws not in seen:
                        seen[ws] = None
                        nxt.append(ws)
            frontier = nxt
        return [WeylElement(self.rs, m) for m in seen]

    def longest_in_stabilizer(self, roots_to_fix) -> WeylElement:
        """Longest element of {w : w(r) = r for all listed roots}, which
        must be dominant: their common stabilizer is the parabolic
        subgroup of the simple roots orthogonal to all of them
        (Chevalley), so no group enumeration is needed."""
        rs = self.rs
        # (r, alpha_j) has the sign of (S r)_j
        pairings = [mat_vec(rs.int_form[0], r) for r in roots_to_fix]
        if any(p < 0 for row in pairings for p in row):
            raise ValueError("longest_in_stabilizer expects dominant roots")
        orthogonal = [
            j for j in range(1, rs.n + 1) if not any(row[j - 1] for row in pairings)
        ]
        return self._longest_in_parabolic(orthogonal)

    def is_simply_laced(self) -> bool:
        return len(set(self.rs.pos_root_norms)) == 1

    def short_dominant(self) -> Root:
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

    def theta_phi_finite(self) -> tuple[Root, Root]:
        return self.short_dominant(), self.rs.phi

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
        form = rs.form
        x, y = self.xy_candidates()
        th, ph = self.theta_phi_finite()
        thp, php = rs.primed(th, ph)
        s_th, s_ph = reflect(rs, th), reflect(rs, ph)
        s_thp, s_php = reflect(rs, thp), reflect(rs, php)
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
            # v), vi): inversion-set pairing bounds, as the roots that break
            # them; (u, b^v) = 2 (u, b) / (b, b) = -1 reads 2 l (u, b) = -l (b, b).
            ("(theta', b^v) = -1 on Pi(y)", sorted(
                r for r in self.inversion_set(y) if 2 * form(thp, r) != -form(r, r)
            ), []),
            ("(phi'^v, b) = -1 on Pi(x)", sorted(
                r for r in self.inversion_set(x) if 2 * form(php, r) != -form(php, php)
            ), []),
            ("s_theta' s_theta = s_phi s_phi'", s_thp * s_th, s_ph * s_php),
            ("s_phi' s_phi = s_theta s_theta'", s_php * s_ph, s_th * s_thp),
        ]
        if form(ph, ph) == 2 * form(th, th):
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
