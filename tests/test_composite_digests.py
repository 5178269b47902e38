"""The words of `decompose` and the canonical-map composites of the
involution check, each pinned by one digest.

The decompose dump holds one line per matrix: `decompose(m, r)` for every
member of Gamma1(r), r = 1, 2, 3, and `decompose_gamma12_prime(m)` for
every member of Gamma1(2)', over the determinant-one matrices with
entries of absolute value at most 12.  The involution dump holds, for
each sample (label, matrix), the normal form of every generator image of
e o gamma on the host and on e's partner labeling, and of the square
M2 = e gamma o e gamma on every generator of the host, as the involution
check builds them.  Both digests were computed before canonical maps
were applied on normal forms, so they pin that fast path to the
products.

Run as a script, the module prints a dump, so that two trees can be
diffed:

    PYTHONPATH=src python tests/test_composite_digests.py decompose > words.txt
    PYTHONPATH=src python tests/test_composite_digests.py involution > maps.txt
"""

import hashlib
import sys

from dawcox import autoaction, cli, congruence, diagrams
from dawcox.congruence import U21, Mat2, member
from dawcox.presentation import generator_dictionary
from samples import upsilon_prime_samples, upsilon_samples

DECOMPOSE_DIGEST = "eb3b0a7320c5eeea56fe7073d5c7f07a79ab0c088fb74e1c1739699924c44af4"
INVOLUTION_DIGEST = "3873506d66582686e96e16748588c4a998695b16365c90863538618a57e97c72"

BOUND = 12


def _sl2_box(bound: int):
    """Every determinant-one matrix with entries in [-bound, bound]."""
    span = range(-bound, bound + 1)
    for a in span:
        for b in span:
            for c in span:
                if a:
                    d, rem = divmod(1 + b * c, a)
                    if not rem and abs(d) <= bound:
                        yield Mat2(a, b, c, d)
                elif b * c == -1:
                    for d in span:
                        yield Mat2(a, b, c, d)


def decompose_lines():
    box = list(_sl2_box(BOUND))
    for r in (1, 2, 3):
        for m in box:
            if member(m, "Gamma1", r):
                yield repr((r, str(m), congruence.decompose(m, r)))
    for m in box:
        if member(m, "Gamma1'", 2):
            yield repr(("2'", str(m), congruence.decompose_gamma12_prime(m)))


def involution_samples():
    """The criterion-6 samples, and a few members of dddotD4, ddotC3 (e
    crosses to ddotB3) and dddotE8."""
    for r, name in ((1, "dddotA1"), (2, "ddotB2"), (3, "ddotG2")):
        for m in upsilon_samples(r, 20, bound=30, seed=42):
            yield name, r, m
        yield name, r, U21 ** (2 * r)
    for m in upsilon_prime_samples(20, bound=30, seed=42):
        yield "dddotC2star", 2, m
    for name, r in (("dddotD4", 1), ("ddotC3", 2), ("dddotE8", 1)):
        for m in upsilon_samples(r, 3, bound=12, seed=7):
            yield name, r, m
        yield name, r, {1: Mat2(2, 1, 1, 1), 2: Mat2(1, 1, 2, 3)}[r]


def involution_lines():
    """The composites of basic_involution_check, built through the same
    public calls."""
    for name, r, m in involution_samples():
        lab = diagrams.parse(name)
        if lab.is_star:
            word = congruence.decompose_gamma12_prime(m)
        else:
            word = congruence.decompose(m, r)
        lifted = congruence.braid_lift(word)
        host = str(diagrams.host(lab))
        partner = autoaction.canon(host, "e").dst
        e_gamma = {
            label: autoaction.canon(label, "e").compose(autoaction.evaluate_braid(lifted, label))
            for label in (host, partner)
        }
        for label, g in e_gamma.items():
            for sym, img in g.gen_images.items():
                yield repr((name, str(m), "e gamma", label, sym, cli._nf(img)))
        square = e_gamma[partner].compose(e_gamma[host])
        for g, img in generator_dictionary(host).images.items():
            yield repr((name, str(m), "square", g, cli._nf(square.apply(img))))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_decompose_word_matches_the_pinned_digest():
    assert digest(decompose_lines()) == DECOMPOSE_DIGEST


def test_every_involution_composite_matches_the_pinned_digest():
    assert digest(involution_lines()) == INVOLUTION_DIGEST


if __name__ == "__main__":
    dump = {"decompose": decompose_lines, "involution": involution_lines}[sys.argv[1]]
    for line in dump():
        print(line)
