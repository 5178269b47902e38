"""The Fraction formulas of the root-system set-up, kept as references
for the integer code that replaced them: each one computes with the
bilinear form and Fraction arithmetic, as its definition reads."""

import math
from fractions import Fraction

from dawcox.rootsys import as_int, vscale, vsub


def int_matrix(a):
    """a with int entries; ValueError if an entry is not an integer."""
    return tuple(tuple(as_int(x, "matrix entry") for x in row) for row in a)


def reflect_matrix(rs, alpha):
    """The matrix of s_alpha(x) = x - (x, alpha^v) alpha in the simple-root
    basis, column by column; ValueError for an isotropic or non-finite
    vector or a matrix that is not integral."""
    n = rs.n
    if rs.bilinear(alpha, alpha) == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    if any(alpha[n:]):
        raise ValueError("reflect() expects a finite root")
    av = rs.coroot(alpha)
    cols = []
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n)) + (Fraction(0),) * 2
        cols.append(vsub(e, vscale(rs.bilinear(e, av), alpha))[:n])
    return int_matrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def combine(coords, basis):
    """The vector sum_i coords[i] basis[i], by Fraction arithmetic."""
    out = (Fraction(0),) * len(basis[0])
    for c, b in zip(coords, basis):
        out = tuple(o + c * x for o, x in zip(out, b))
    return out


def coords(x, basis):
    """Coordinates of x in a diagonal basis by Fraction division;
    ValueError if x is not in the lattice."""
    n = len(basis)
    out = [Fraction(x[i], basis[i][i]) for i in range(n)]
    if any(x[n:]) or any(c.denominator != 1 for c in out):
        raise ValueError("not in the lattice")
    return tuple(int(c) for c in out)


def lattice_scales(basis):
    """For a basis b_i = c_i alpha_i, the integers c_i L for the least
    common denominator L of the c_i, by Fraction arithmetic; ValueError if
    a vector is not a multiple of its simple root."""
    diag = []
    for i, v in enumerate(basis):
        if not v[i] or any(c for j, c in enumerate(v) if j != i):
            raise ValueError("basis vector is not a multiple of a simple root")
        diag.append(v[i])
    lcd = math.lcm(*(c.denominator for c in diag))
    return tuple(as_int(c * lcd, "lattice scale") for c in diag)


def pos_root_norms(rs):
    """(r, r) for each positive root."""
    return tuple(rs.bilinear(r, r) for r in rs.pos_roots)


def pairing_table(rs):
    """(nu(alpha_i^v), A_j) for the bases of nu(Q^v) and M."""
    return tuple(
        tuple(as_int(rs.bilinear(b, a), "pairing table") for a in rs.m_basis())
        for b in rs.qcheck_basis()
    )
