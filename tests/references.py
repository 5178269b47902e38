"""The Fraction formulas of the root-system set-up, kept as references
for the integer code that replaced them: each one computes with the
bilinear form and Fraction arithmetic, as its definition reads.  The
package states a finite root by its integer simple-root coordinates;
ambient() is its vector in the affine weight space, with basis (alpha_1,
..., alpha_n, delta, Lambda0), on which these formulas compute."""

import math
from fractions import Fraction


def as_int(x, what: str) -> int:
    """x as an int; ValueError if x is not an integer."""
    if x != int(x):
        raise ValueError(f"{what}: {x} is not an integer")
    return int(x)


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vneg(x):
    return tuple(-a for a in x)


def vscale(c, x):
    c = Fraction(c)
    return tuple(c * a for a in x)


def unit(rs, k):
    """Basis vector k of the weight space: alpha_{k+1} for k < n, delta
    for k = n and Lambda0 for k = n + 1."""
    return tuple(Fraction(int(j == k)) for j in range(rs.dim))


def simple_roots(rs):
    """alpha_1 .. alpha_n as ambient vectors."""
    return tuple(unit(rs, i) for i in range(rs.n))


def ambient(root):
    """The ambient vector of a finite root in integer coordinates."""
    return tuple(map(Fraction, root)) + (Fraction(0),) * 2


def root_of(v):
    """The integer coordinates of an ambient finite root; ValueError if it
    has a delta or Lambda0 part or a coordinate that is not an integer."""
    if any(v[-2:]):
        raise ValueError("not a finite root")
    return tuple(as_int(c, "root coordinate") for c in v[:-2])


def coroot(rs, x):
    """nu(x^v) = 2x/(x,x) for a real (non-isotropic) ambient root x."""
    norm = rs.bilinear(x, x)
    if norm == 0:
        raise ValueError("isotropic vector has no coroot")
    return vscale(Fraction(2) / norm, x)


def pairing(rs, x, root):
    """(x, root^v) for ambient vectors."""
    return rs.bilinear(x, coroot(rs, root))


def primed(rs, theta, phi):
    """theta' = phi - theta and phi' = (phi, theta^v) theta - phi for
    integer roots, by the Fraction formulas on their ambient vectors."""
    th, ph = ambient(theta), ambient(phi)
    return root_of(vsub(ph, th)), root_of(vsub(vscale(pairing(rs, ph, th), th), ph))


def weyl_act(w, v):
    """A finite Weyl element applied to an ambient vector, by Fraction
    arithmetic: its matrix on the finite part, delta and Lambda0 fixed."""
    n = w.rs.n
    x = tuple(map(Fraction, v[:n]))
    return tuple(sum(a * c for a, c in zip(row, x)) for row in w.matrix) + tuple(v[n:])


def int_matrix(a):
    """a with int entries; ValueError if an entry is not an integer."""
    return tuple(tuple(as_int(x, "matrix entry") for x in row) for row in a)


def reflect_matrix(rs, alpha):
    """The matrix of s_alpha(x) = x - (x, alpha^v) alpha in the simple-root
    basis, column by column, for an ambient finite vector alpha;
    ValueError if the matrix is not integral."""
    n = rs.n
    av = coroot(rs, alpha)
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
    return tuple(rs.bilinear(ambient(r), ambient(r)) for r in rs.pos_roots)


def pairing_table(rs):
    """(nu(alpha_i^v), A_j) for the bases of nu(Q^v) and M."""
    return tuple(
        tuple(as_int(rs.bilinear(b, a), "pairing table") for a in rs.m_basis())
        for b in rs.qcheck_basis()
    )
