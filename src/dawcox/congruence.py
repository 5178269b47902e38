"""Congruence subgroups of SL(2,Z) with exact integer arithmetic.

The conjugation by e(r) = [[0, r^{-1/2}], [r^{1/2}, 0]] is never applied
through a materialized matrix (its entries are irrational for r = 2, 3);
e(r) A e(r) = [[d, c/r], [r b, a]] is used instead, which is integral on
Gamma_1(r) where r | c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .presentation import free_reduce


@dataclass(frozen=True)
class Mat2:
    a: int
    b: int
    c: int
    d: int

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inv(self) -> "Mat2":
        if self.det() != 1:
            raise ValueError("only determinant-one matrices are inverted here")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, e: int) -> "Mat2":
        if e < 0:
            return self.inv() ** (-e)
        out, base = I2, self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


I2 = Mat2(1, 0, 0, 1)
U12 = Mat2(1, -1, 0, 1)
U21 = Mat2(1, 0, 1, 1)


def parse_matrix(text: str) -> Mat2:
    """Parse the CLI syntax 'a,b;c,d'; ValueError naming that syntax on
    any other text."""
    try:
        (a, b), (c, d) = (map(int, row.split(",")) for row in text.strip().split(";"))
    except ValueError:
        raise ValueError("matrix syntax is 'a,b;c,d'") from None
    return Mat2(a, b, c, d)


def e_conj(m: Mat2, r: int) -> Mat2:
    """e(r) m e(r), defined when r | c."""
    if m.c % r:
        raise ValueError(f"e({r})-conjugation needs {r} | c")
    return Mat2(m.d, m.c // r, r * m.b, m.a)


def member(m: Mat2, group: str, r: int | None = None) -> bool:
    """Membership in Gamma(N), Gamma1(r), Gamma1(2)', Upsilon1(r)."""
    if m.det() != 1:
        raise ValueError("determinant must be 1")
    if group == "Gamma":
        N = r
        return (
            m.a % N == 1 % N
            and m.d % N == 1 % N
            and m.b % N == 0
            and m.c % N == 0
        )
    if group == "Gamma1":
        if r == 1:
            return True
        return m.a % r == 1 % r and m.d % r == 1 % r and m.c % r == 0
    if group == "Gamma1'":
        return (m.a + m.d) % 2 == 0 and (m.b + m.c) % 2 == 0
    if group == "Upsilon1":
        return member(m, "Gamma1", r) and m.c == -r * m.b
    if group == "Upsilon1'":
        return m.c == -m.b and member(m, "Gamma1'", 2)
    raise ValueError(f"unknown group {group!r}")


def identities_suite() -> dict:
    """The displayed exact matrix identities."""
    out = {}
    out["(u12 u21)^3 = -I"] = (U12 * U21) ** 3 == -I2
    out["(u12 u21^2)^2 = -I"] = (U12 * U21**2) ** 2 == -I2
    out["(u12 u21^3)^3 = I"] = (U12 * U21**3) ** 3 == I2
    out["u12 u21 u12 = u21 u12 u21"] = U12 * U21 * U12 == U21 * U12 * U21
    for r in (1, 2, 3):
        out[f"e({r}) u12 e({r}) = u21^-{r}"] = e_conj(U12, r) == U21 ** (-r)
        # e(r)^2 = I: conjugating twice is the identity on Gamma1(r).
        m = (U12 * U21**r) ** 2
        out[f"e({r})^2 = I"] = e_conj(e_conj(m, r), r) == m
    return out


def coset_index(r: int) -> tuple[int, list[Mat2]]:
    """Index of Gamma1(r) in SL(2,Z) by BFS over the cosets g Gamma1(r).

    Cosets are classified by the first column of g mod r; new
    representatives are found by multiplying generators on the left, so
    the list is prefix-closed in the generators (u12, u21).
    """
    if r == 1:
        return 1, [I2]

    def key(m: Mat2):
        return (m.a % r, m.c % r)

    reps = {key(I2): I2}
    order = [I2]
    frontier = [I2]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (U12, U21):
                h = gen * g
                if key(h) not in reps:
                    reps[key(h)] = h
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return len(order), order


def same_coset(x: Mat2, y: Mat2, r: int) -> bool:
    """Equality of x Gamma1(r) and y Gamma1(r)."""
    return member(x.inv() * y, "Gamma1", r)


class NotInGroupError(ValueError):
    pass


# Words are sequences of (letter, exponent), letter "A" = u12 and
# "B" = u21^r at level r.
Word = list


def eval_word(word: Iterable, r: int) -> Mat2:
    out = I2
    for letter, e in word:
        base = U12 if letter == "A" else U21**r
        out = out * base**e
    return out


def _minus_one_word(r: int) -> Word:
    """A word for -I over the level-r generators (possible for r = 1, 2)."""
    if r == 1:
        return [("A", 1), ("B", 1)] * 3
    if r == 2:
        return [("A", 1), ("B", 1)] * 2
    raise NotInGroupError("-I is not in Gamma1(3)")


def decompose(m: Mat2, r: int) -> Word:
    """A word over {u12^{+-1}, u21^{+-r}} evaluating to m.

    The primary descent follows the two-sided products of the membership
    induction: at each step the first of u12 g u21^r, u21^r g u12,
    u12^{-1} g u21^{-r}, u21^{-r} g u12^{-1} that strictly reduces |b| is
    applied (ties broken by the smaller resulting |a| + |d|).  The
    induction argument covers matrices of the form [[a, b], [-rb, d]];
    outside that shape the descent can stall, in which case a one-sided
    Euclidean reduction of the first column finishes the job.  The
    residual is +-(an u21^r power times an u12 power); the sign is spelled
    with the central word (only ever needed for r = 1, 2).
    """
    if not member(m, "Gamma1", r):
        raise NotInGroupError(f"matrix is not in Gamma1({r})")
    B = U21**r
    left: Word = []
    right: Word = []
    cur = m
    guard = 0
    while cur.b != 0:
        options = []
        for (lg, le), (rg, re) in (
            (("A", 1), ("B", 1)),
            (("B", 1), ("A", 1)),
            (("A", -1), ("B", -1)),
            (("B", -1), ("A", -1)),
        ):
            lm = (U12 if lg == "A" else B) ** le
            rm = (U12 if rg == "A" else B) ** re
            options.append(((lg, le), (rg, re), lm * cur * rm))
        chosen = None
        best_ad = None
        for lw, rw, cand in options:
            if abs(cand.b) < abs(cur.b):
                ad = abs(cand.a) + abs(cand.d)
                if chosen is None or ad < best_ad:
                    chosen, best_ad = (lw, rw, cand), ad
        if chosen is None:
            break  # stall: fall through to the one-sided phase
        (lg, le), (rg, re), cand = chosen
        left.append((lg, -le))
        right.insert(0, (rg, -re))
        cur = cand
        guard += 1
        if guard > 10000:
            raise RuntimeError("decompose did not terminate")
    # One-sided Euclid on the first column until c = 0: alternate
    # c -> c - round(c / ra) * ra (a B-step) with a -> a - round(a/c) * c
    # (an A-step); each full alternation shrinks the column strictly.
    guard = 0
    while cur.c != 0:
        if cur.a == 0:
            e = -cur.c  # here c = +-1, so this makes a = 1
            left.append(("A", -e))
            cur = U12**e * cur
        else:
            e = -_round_div(cur.c, r * cur.a)
            if e:
                left.append(("B", -e))
                cur = B**e * cur
            else:
                e2 = _round_div(cur.a, cur.c)
                if e2 == 0:
                    raise RuntimeError("euclidean phase made no progress")
                left.append(("A", -e2))
                cur = U12**e2 * cur
        guard += 1
        if guard > 10000:
            raise RuntimeError("euclidean phase did not terminate")
    # cur = [[s, x], [0, s]] with s = +-1.
    s = cur.a
    word = list(left)
    if s == -1:
        word += _minus_one_word(r)
    word.append(("A", -s * cur.b))
    word += right
    out = list(free_reduce(word))
    if eval_word(out, r) != m:
        raise ValueError(f"decompose: the word for {m} does not evaluate to it")
    return out


def _round_div(x: int, y: int) -> int:
    """Nearest-integer division (used for Euclidean magnitude reduction)."""
    q, rem = divmod(x, y)
    if 2 * abs(rem) > abs(y):
        q += 1
    return q


def word_to_text(word: Word) -> str:
    """Render with primes for inverses: 'A B A' means u12 u21^r u12."""
    parts = []
    for letter, e in word:
        sym = letter if e > 0 else letter + "'"
        parts.extend([sym] * abs(e))
    return " ".join(parts)


def text_to_word(text: str) -> Word:
    word: Word = []
    for tok in text.split():
        letter = tok[0]
        if letter not in ("A", "B"):
            raise ValueError(f"unknown letter {tok!r}")
        e = -1 if tok.endswith("'") else 1
        word.append((letter, e))
    return list(free_reduce(word))


def braid_lift(word: Iterable) -> list:
    """Lift a u-word to the rank-two braid letters: u12 -> a, u21^r -> b.

    This is the section with no central padding; the result is a list of
    (letter, exponent) with letters 'a', 'b'.
    """
    out = []
    for letter, e in word:
        out.append(("a" if letter == "A" else "b", e))
    return list(free_reduce(out))


def decompose_gamma12_prime(m: Mat2) -> Word:
    """Decompose over the Gamma1(2)' generators via the u21-conjugation,
    returning a word over the level-1 letters."""
    if not member(m, "Gamma1'", 2):
        raise NotInGroupError("matrix is not in Gamma1(2)'")
    conj = U21.inv() * m * U21
    inner = decompose(conj, 2)
    # map A -> u21 A u21^{-1}, B(level 2) -> u21 B u21^{-1} = u21^2 ... at
    # the level-1 letters: conjugate the whole word by u21.
    word: Word = [("B", 1)]
    for letter, e in inner:
        if letter == "A":
            word.append(("A", e))
        else:
            word.append(("B", 2 * e))
    word.append(("B", -1))
    return list(free_reduce(word))
