"""Correctness checks on the outputs of one round, made apart from the
program: nothing here imports dawcox.

Each check takes the round's inputs and outputs and returns a list of
problems; an empty list means every output that was produced is right.
An operation that raised is reported by the child as {"error": ...} and
is counted as failed, not checked here.
"""

from __future__ import annotations

import json
from fractions import Fraction

# ---------------------------------------------------------------------
# verify_matrix
# ---------------------------------------------------------------------

SKIPPED = "skipped (simply-laced)"


def check_verify(inputs: dict, outputs: list) -> list:
    """Exit code 0; the check ids equal the fixed list; every check is
    `pass`, except appendixA, which is skipped exactly for the labels
    whose finite root system has one root length."""
    problems = []
    for (family, suite, expected, lengths), out in zip(inputs["pairs"], outputs):
        if "error" in out:
            continue
        where = f"{family} --suite {suite}"
        if out["exit"] != 0:
            problems.append(f"{where}: exit code {out['exit']}")
        checks = json.loads(out["report"])["checks"]
        ids = [c["id"] for c in checks]
        if ids != expected:
            problems.append(f"{where}: checks {ids}, expected {expected}")
        for c in checks:
            want = SKIPPED if suite == "appendixA" and lengths == 1 else "pass"
            if c["status"] != want:
                problems.append(f"{c['id']}: status {c['status']!r}, expected {want!r}")
    return problems


def suite_seconds(outputs: list) -> dict:
    """The `elapsed_ms` that `verify --json` reports, summed per suite."""
    totals: dict = {}
    for out in outputs:
        if "error" in out:
            continue
        for c in json.loads(out["report"])["checks"]:
            suite = c["id"].split(":", 1)[1]
            totals[suite] = totals.get(suite, 0) + c["elapsed_ms"] / 1000
    return totals


# ---------------------------------------------------------------------
# involutions: 2x2 integer matrices as (a, b, c, d)
# ---------------------------------------------------------------------


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_pow(x, e: int):
    if e < 0:
        a, b, c, d = x  # determinant one
        x, e = (d, -b, -c, a), -e
    out = (1, 0, 0, 1)
    for _ in range(e):
        out = mat_mul(out, x)
    return out


def eval_word(word, r: int):
    """A word over A = u12 = [[1, -1], [0, 1]] and B = u21^r = [[1, 0],
    [r, 1]]."""
    gens = {"A": (1, -1, 0, 1), "B": (1, 0, r, 1)}
    out = (1, 0, 0, 1)
    for letter, e in word:
        out = mat_mul(out, mat_pow(gens[letter], e))
    return out


def in_gamma1(m, r: int) -> bool:
    a, b, c, d = m
    return a * d - b * c == 1 and (a - 1) % r == 0 and (d - 1) % r == 0 and c % r == 0


def in_upsilon1(m, r: int) -> bool:
    """Gamma_1(r) members with c = -r b."""
    return in_gamma1(m, r) and m[2] == -r * m[1]


def in_upsilon1_prime(m) -> bool:
    """Members of Gamma_1(2)' = u21 Gamma_1(2) u21^-1 with c = -b."""
    u21, u21_inv = (1, 0, 1, 1), (1, 0, -1, 1)
    conj = mat_mul(mat_mul(u21_inv, m), u21)
    return in_gamma1(conj, 2) and m[2] == -m[1]


def check_involutions(inputs: dict, outputs: list) -> list:
    """The decomposed word evaluates to the input matrix; membership
    matches its definition; members are involutions and the u21^{2r}
    controls are neither members nor involutions."""
    problems = []
    for item, out in zip(inputs["items"], outputs):
        if "error" in out:
            continue
        m, kind = tuple(item["matrix"]), item["kind"]
        where = f"{item['label']} {kind} {m}"
        level = 1 if kind == "cstar" else item["r"]
        if eval_word(out["word"], level) != m:
            problems.append(f"{where}: word {out['word']} does not evaluate to it")
        member = in_upsilon1_prime(m) if kind == "cstar" else in_upsilon1(m, item["r"])
        if out["member"] != member:
            problems.append(f"{where}: member reported {out['member']}, is {member}")
        if kind == "control":
            if member or out["involution"]:
                problems.append(f"{where}: the control reported an involution")
        elif not (member and out["involution"]):
            problems.append(f"{where}: a member not reported an involution")
    return problems


# ---------------------------------------------------------------------
# oracle: the defining affine action in the benchmark's own Fraction
# arithmetic.  Coordinates are (alpha_1..alpha_n, delta, Lambda0); the
# Gram matrix, alpha_0 and the M basis come from the program's root
# system data, every formula below from the definitions:
#   s_i      reflection in alpha_i (s_0 in alpha_0);
#   lam_mu   x + (x, delta) mu - ((x, mu) + (mu, mu)/2 (x, delta)) delta;
#   tau_b    translation by b, for b = alpha_i^v, delta and alpha_0^v.
# ---------------------------------------------------------------------


def _vec(strings):
    return [Fraction(s) for s in strings]


class Action:
    def __init__(self, data: dict):
        self.n = n = data["n"]
        self.gram = [_vec(row) for row in data["gram"]]
        self.alpha0 = _vec(data["alpha0"])
        self.m_basis = [_vec(v) for v in data["m_basis"]]
        self.delta = [Fraction(int(i == n)) for i in range(n + 2)]
        self.simple = [[Fraction(int(i == j)) for i in range(n + 2)] for j in range(n)]

    def form(self, x, y):
        return sum(xi * g * yj for xi, row in zip(x, self.gram) if xi
                   for g, yj in zip(row, y) if g and yj)

    def coroot(self, a):
        c = 2 / self.form(a, a)
        return [c * t for t in a]

    def reflect(self, a, x):
        c = self.form(x, self.coroot(a))
        return [xi - c * ai for xi, ai in zip(x, a)]

    def lam(self, mu, x):
        xd = self.form(x, self.delta)
        c = self.form(x, mu) + self.form(mu, mu) / 2 * xd
        return [xi + xd * mi - c * di for xi, mi, di in zip(x, mu, self.delta)]

    def generator(self, sym: str, e: int, x):
        """The generator `sym` raised to e = +-1, applied to x."""
        if sym == "s0":
            return self.reflect(self.alpha0, x)
        if sym.startswith("s"):
            return self.reflect(self.simple[int(sym[1:]) - 1], x)
        if sym.startswith("lam_A"):
            return self.lam([e * t for t in self.m_basis[int(sym[5:]) - 1]], x)
        if sym == "tau_delta":
            b = self.delta
        elif sym == "tau_alpha0":
            b = self.coroot(self.alpha0)
        else:  # tau_a<i>
            b = self.coroot(self.simple[int(sym[5:]) - 1])
        return [xi + e * bi for xi, bi in zip(x, b)]

    def word(self, word, x):
        """The product of the letters, applied to x: rightmost first."""
        for sym, e in reversed(word):
            x = self.generator(sym, e, x)
        return x


def _is_unit(nf) -> bool:
    w, mu, beta, k = nf
    n = len(w)
    return (
        all(w[i][j] == ("1" if i == j else "0") for i in range(n) for j in range(n))
        and not any(Fraction(t) for t in mu + beta)
        and Fraction(k) == 0
    )


def check_oracle(inputs: dict, outputs: list) -> list:
    """act agrees with the own action on every generator and on every
    product; (g1 g2).act(p) = g1.act(g2.act(p)); (g1 g2) g3 = g1 (g2 g3);
    g1 g1^-1 is the identity."""
    problems = []
    for lab, out in zip(inputs["labels"], outputs):
        label = lab["label"]
        action = Action(out["data"])
        points = [_vec(p) for p in lab["points"]]
        for key, e in (("gen_act", 1), ("gen_inv_act", -1)):
            for sym in lab["symbols"]:
                got = [_vec(v) for v in out[key][sym]]
                want = [action.generator(sym, e, p) for p in points]
                if got != want:
                    problems.append(f"{label}: {sym}^{e} acts as {got}, expected {want}")
        for t, (triple, res) in enumerate(zip(lab["triples"], out["triples"])):
            if "error" in res:
                continue
            w1, w2, _ = triple
            want = [action.word(w1 + w2, p) for p in points]
            if [_vec(v) for v in res["act12"]] != want:
                problems.append(f"{label} triple {t}: (g1 g2).act differs from the action")
            if res["act12"] != res["act1_2"]:
                problems.append(f"{label} triple {t}: (g1 g2).act != g1.act(g2.act)")
            if res["assoc"][0] != res["assoc"][1]:
                problems.append(f"{label} triple {t}: (g1 g2) g3 != g1 (g2 g3)")
            if not _is_unit(res["unit"]):
                problems.append(f"{label} triple {t}: g1 g1^-1 is not the identity")
    return problems


CHECKS = {
    "verify_matrix": check_verify,
    "involutions": check_involutions,
    "oracle": check_oracle,
}
