"""The benchmark's workloads: their fixed make-up and their seeded inputs.

Nothing here imports dawcox.  The inputs are plain JSON data, generated
in the parent process and handed to each child on its standard input, so
the program only ever sees the generated inputs.
"""

from __future__ import annotations

import random

import checks

WORKLOADS = ("verify_matrix", "involutions", "oracle")

# ---------------------------------------------------------------------
# verify_matrix: today's `dawcox verify --suite all --large` matrix, fixed
# here rather than read from cli.RANK_MATRIX so that a change to the
# CLI's matrix cannot change this workload.  Each entry is
# (family, shape, root lengths of its finite root system):
#   "full"  presentation, bernstein, auto, appendixA;
#   "star"  presentation, bernstein (+ a2n2-comparison), auto-cstar,
#           appendixA;
#   "pres"  the presentation suite only (the E family).
# One root length: types A, D, E, and the rank-one starred labels, whose
# finite part is A1.  appendixA must report those as skipped.
# ---------------------------------------------------------------------

VERIFY_FAMILIES = (
    ("dddotA1", "full", 1),
    ("dddotA2", "full", 1),
    ("dddotA3", "full", 1),
    ("dddotA4", "full", 1),
    ("dddotA1star", "star", 1),
    ("dddotB3", "full", 2),
    ("dddotB4", "full", 2),
    ("dddotC2", "full", 2),
    ("dddotC3", "full", 2),
    ("dddotC1star", "star", 1),
    ("dddotC2star", "star", 2),
    ("dddotC3star", "star", 2),
    ("dddotD4", "full", 1),
    ("dddotE6", "pres", 1),
    ("dddotF4", "full", 2),
    ("dddotG2", "full", 2),
    ("ddotB2", "full", 2),
    ("ddotB3", "full", 2),
    ("ddotC3", "full", 2),
    ("ddotF4", "full", 2),
    ("ddotG2", "full", 2),
    ("dddotE7", "pres", 1),
    ("dddotE8", "pres", 1),
)

_SUITES = {
    "full": (
        ("presentation", ("presentation",)),
        ("bernstein", ("bernstein",)),
        ("auto", ("auto",)),
        ("appendixA", ("appendixA",)),
    ),
    "star": (
        ("presentation", ("presentation",)),
        ("bernstein", ("bernstein", "a2n2-comparison")),
        ("auto", ("auto-cstar",)),
        ("appendixA", ("appendixA",)),
    ),
    "pres": (("presentation", ("presentation",)),),
}


# `verify --family dddotC1star` reports its checks under the label that
# dddotC1star aliases; `verify --suite all` reports the same checks under
# both names.
ALIASES = {"dddotC1star": "dddotA1star"}


def verify_pairs(families=VERIFY_FAMILIES) -> list:
    """The (family, suite, expected check ids, root lengths) list, in the
    family-major order of `verify --suite all --large`."""
    return [
        [family, suite, [f"{ALIASES.get(family, family)}:{c}" for c in checks], lengths]
        for family, shape, lengths in families
        for suite, checks in _SUITES[shape]
    ]


# ---------------------------------------------------------------------
# involutions: seeded, distinct Upsilon_1(r) members per label.  The
# cost of a check grows with the length of the braid word the matrix
# lifts to, and that length varies widely between matrices of the same
# size, so each label asks for members of fixed greedy word lengths (see
# greedy_length) and the seed picks which members of each length.  Every
# seed then asks for about the same work.
# (label, level r, entry bound, greedy lengths of its members).
# ---------------------------------------------------------------------

INVOLUTION_LABELS = (
    ("dddotA1", 1, 30, (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)),
    ("dddotD4", 1, 30, (4, 5, 6, 7, 8, 9)),
    ("ddotB2", 2, 30, (2, 2, 4, 4, 6, 6, 6, 6, 8, 8)),
    ("ddotC3", 2, 30, (4, 4, 6, 6, 8, 8)),
    ("ddotG2", 3, 60, (2, 2, 4, 4, 6, 6, 6, 6, 8, 8)),
)
# Upsilon_1(2)' members acting on the starred C2 family: all of them with
# entries at most 4, in a seeded order.  Their lifted words are up to
# five times their greedy length, so a seeded sample would not cost the
# same on every seed.  (label, rank n, entry bound)
CSTAR_LABEL = ("dddotC2star", 2, 4)
# Set-up builds the a, b, e, a_inv, b_inv and id maps of every family the
# checks compose over: the labels above, ddotB3 (the partner that e
# carries ddotC3 to) and dddotC2 (the family the starred batch acts on).
INVOLUTION_SETUP = ("dddotA1", "dddotD4", "ddotB2", "ddotC3", "ddotB3", "ddotG2", "dddotC2")


def _pool(b_values, c_of_b, bound, member) -> list:
    """Every [[a, b], [c(b), d]] of determinant one with b != 0, entries
    at most `bound` in absolute value, and member(m)."""
    out = []
    for b in b_values:
        c = c_of_b(b)
        for a in range(-bound, bound + 1):
            if a and b and (1 + b * c) % a == 0:
                m = (a, b, c, (1 + b * c) // a)
                if max(map(abs, m)) <= bound and member(m):
                    out.append(m)
    return out


def upsilon_pool(r: int, bound: int) -> list:
    """Every Upsilon_1(r) member [[a, b], [-rb, d]] with b != 0 and
    entries at most `bound`."""
    return _pool(range(-(bound // r), bound // r + 1), lambda b: -r * b, bound,
                 lambda m: checks.in_upsilon1(m, r))


def upsilon_prime_pool(bound: int) -> list:
    """Every Upsilon_1(2)' member [[a, b], [-b, d]] with b != 0 and
    entries at most `bound`."""
    return _pool(range(-bound, bound + 1), lambda b: -b, bound, checks.in_upsilon1_prime)


def greedy_length(m, r: int):
    """Letters of the greedy word for m over u12^+-1 and u21^+-r: multiply
    on the left by whichever generator most shrinks the sum of absolute
    entries, until +-I remains; None if no generator shrinks it.  The
    benchmark's own measure of a matrix's size in words; on these pools
    the program's braid words are this long or up to four letters
    longer."""
    gens = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, r, 1), (1, 0, -r, 1))

    def size(x):
        return sum(map(abs, x))

    letters = 0
    while size(m) > 2:
        shorter = min((checks.mat_mul(g, m) for g in gens), key=size)
        if size(shorter) >= size(m):
            return None
        m, letters = shorter, letters + 1
    return letters


def by_length(rng: random.Random, pool: list, r: int, lengths) -> list:
    """Distinct members, one of each greedy length listed, drawn by rng."""
    groups: dict = {}
    for m in pool:
        groups.setdefault(greedy_length(m, r), []).append(m)
    out = []
    for n in lengths:
        m = rng.choice([m for m in groups[n] if m not in out])
        out.append(m)
    return out


# ---------------------------------------------------------------------
# oracle: seeded word triples over the generators of each label, and
# three points (levels 1, 2 and 0) on which every action is compared.
# Word lengths cycle through 1..4 so each seed asks for the same number
# of letters; the letters and signs are drawn from the seed.
# ---------------------------------------------------------------------

ORACLE_LABELS = ("A1(1)", "A2(2)", "C2(1)", "D4(3)", "F4(1)", "E6(1)", "E8(1)")
ORACLE_RANKS = {"A1(1)": 1, "A2(2)": 1, "C2(1)": 2, "D4(3)": 2,
                "F4(1)": 4, "E6(1)": 6, "E8(1)": 8}
ORACLE_TRIPLES = 150
ORACLE_LEVELS = (1, 2, 0)


def oracle_symbols(n: int) -> list:
    syms = [f"s{i}" for i in range(n + 1)]
    syms += [f"lam_A{i}" for i in range(1, n + 1)]
    syms += [f"tau_a{i}" for i in range(1, n + 1)]
    return syms + ["tau_delta", "tau_alpha0"]


def _oracle_inputs(rng: random.Random, label: str) -> dict:
    n = ORACLE_RANKS[label]
    syms = oracle_symbols(n)

    def word(length):
        return [[rng.choice(syms), rng.choice((-1, 1))] for _ in range(length)]

    points = [
        [f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}" for _ in range(n)]
        + [str(rng.randint(-2, 2)), str(level)]
        for level in ORACLE_LEVELS
    ]
    triples = [
        [word(1 + (3 * t + j) % 4) for j in range(3)] for t in range(ORACLE_TRIPLES)
    ]
    return {"label": label, "symbols": syms, "points": points, "triples": triples}


# ---------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_matrix":
        return {"pairs": verify_pairs()}
    if workload == "involutions":
        items = []
        for label, r, bound, lengths in INVOLUTION_LABELS:
            for m in by_length(rng, upsilon_pool(r, bound), r, lengths):
                items.append({"label": label, "r": r, "matrix": list(m), "kind": "member"})
            items.append(
                {"label": label, "r": r, "matrix": [1, 0, 2 * r, 1], "kind": "control"}
            )
        label, n, bound = CSTAR_LABEL
        for m in rng.sample(upsilon_prime_pool(bound), k=len(upsilon_prime_pool(bound))):
            items.append({"label": label, "r": n, "matrix": list(m), "kind": "cstar"})
        return {"items": items, "setup_labels": list(INVOLUTION_SETUP)}
    if workload == "oracle":
        return {"labels": [_oracle_inputs(rng, label) for label in ORACLE_LABELS]}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, inputs: dict) -> int:
    """Operations one round attempts: verify invocations, involution
    checks, or oracle triples."""
    if workload == "verify_matrix":
        return len(inputs["pairs"])
    if workload == "involutions":
        return len(inputs["items"])
    return sum(len(lab["triples"]) for lab in inputs["labels"])
