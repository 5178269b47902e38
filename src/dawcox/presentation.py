"""Coxeter-type presentations of the double affine groups, their
generator dictionaries into the double affine Weyl group, and the full
verification suites (relations plus the surjectivity round trip).

Words are tuples of (generator name, exponent); the letter C stands for
the central word wherever a relation, identity or psi word uses it.  All
equalities are decided in the double affine Weyl group through the
generator dictionary, built once per label by generator_dictionary.
Every word is evaluated through LetterValues, the one evaluator: each
letter's value is computed once per evaluator, and the word is the
product of its letters' values, which is the normal form of the flat
word.  LetterValues resolves C itself, as the value of the central word
it is given, so a generator dictionary's values are just its images and
a map's values (autoaction.EndoMap.values) just its image words
evaluated in a target.  The surjectivity round trip checks the one-letter
psi words; the alcove walk checks the others when it builds them.  Every
label has one image formula.  A starred C-family label is read in two
quotients of type A_{2n}^(2), the plain one and its half-delta central
extension, where the extra central relation becomes visible; the
comparison morphism from C_n^(1) is a check of its own (dagroup).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import dagroup, diagrams
from .dagroup import DaweylContext, DaweylElement, lam_word, tau_word
from .diagrams import CoxeterDiagram, DoubleAffineLabel, build_diagram, correspondence
from .weyl import braid_sides, reflect

Word = tuple

# The letter of the central element in relation, identity and psi words:
# every evaluator resolves it to the value of Presentation.central_word.
CENTRAL = "C"
C_WORD: Word = ((CENTRAL, 1),)


def winv(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def wmul(*words: Word) -> Word:
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def free_reduce(word: Word) -> Word:
    out: list = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


@dataclass
class Presentation:
    label: DoubleAffineLabel
    diagram: CoxeterDiagram
    generators: tuple[str, ...]
    relations: tuple[tuple[str, Word, Word], ...]
    theta_word: Word
    phi_word: Word
    central_word: Word
    # derived identities (name, lhs, rhs): checked like the relations,
    # but not part of the presentation that automorphisms must preserve
    identities: tuple[tuple[str, Word, Word], ...] = ()
    # the starred specialization (name, lhs, rhs, half): each relation
    # holds in one quotient only, the half-delta one when half is True
    # and the A_{2n}^(2) one otherwise
    starred: tuple[tuple[str, Word, Word, bool], ...] = ()


def _word_of_indices(indices, affine_letter: str | None = None) -> Word:
    """A word in the finite letters T_i, index 0 denoting affine_letter."""
    return tuple((affine_letter if i == 0 else f"T{i}", 1) for i in indices)


def affine_letters(lab: DoubleAffineLabel) -> tuple[str, str]:
    """The letters whose dictionary images are s_0 and t_0 = tau_{nu(c^v)}
    s_c, the affine generators of the two alcove walks."""
    return ("Theta01", "Theta03") if lab.is_triple else ("Theta0", "Phi0")


# The labelled B2 braid pattern of Theta0, Phi0, Theta', Phi' on the
# doubly-laced two-affine-node diagrams: the lacing of each pair.
B2_PATTERN = {
    ("Phi0", "PhiPrime"): 0,
    ("Phi0", "ThetaPrime"): 2,
    ("Theta0", "ThetaPrime"): 0,
    ("Theta0", "PhiPrime"): 2,
    ("ThetaPrime", "PhiPrime"): 2,
    ("Theta0", "Phi0"): 2,
}


def build_presentation(lab: DoubleAffineLabel | str) -> Presentation:
    if isinstance(lab, str):
        lab = diagrams.parse(lab)
    d = build_diagram(lab)
    ctx = dagroup.context(correspondence(lab))
    wg = ctx.wg
    rs = ctx.rs

    names = [nd.label for nd in d.nodes]
    relations: list = []

    # Braid relations from the diagram (multiplicity 4 imposes nothing).
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            m = d.multiplicity(a, b)
            if m <= 3:
                lhs, rhs = braid_sides((a, 1), (b, 1), m)
                relations.append((f"braid {a},{b} [{m}]", lhs, rhs))

    # Coxeter quotient: generator squares.  For the starred labels the
    # square of the specialized generator is not a relation of the plain
    # quotient (there Theta02^2 = C instead); the starred relations below
    # cover it in both quotients.
    for a in names:
        if d.specialized == a:
            continue
        relations.append((f"square {a}", ((a, 2),), ()))

    # Distinguished finite words: the reflections in theta and in c.
    theta_word = _word_of_indices(wg.reduced_word(ctx.s_theta))
    phi_word = _word_of_indices(wg.reduced_word(ctx.s_c))

    identities: list = []
    if d.label.is_triple:
        central = wmul(
            (("Theta01", 1), ("Theta02", 1), ("Theta03", 1)), theta_word
        )
        ell0 = rs.ell0()
        t = f"T{rs.i_theta()}"
        if ell0 == 1:
            # Theta02 expressed through Theta01, Theta03 and the finite
            # generators (untwisted families with a single lace at the
            # affine node).
            word = wmul(
                (("Theta01", -1), (t, -1), ("Theta01", 1), (t, 1)),
                winv(theta_word),
                (("Theta03", -1), (t, 1), ("Theta03", 1)),
                theta_word,
                (("Theta01", 1), (t, -1)),
            )
            identities.append(("Theta02 expression", word, (("Theta02", 1),)))
        if ell0 == 2:
            for (i, j) in ((1, 2), (1, 3), (2, 3)):
                a, b = f"Theta0{i}", f"Theta0{j}"
                conj = ((t, -1), (b, 1), (t, 1))
                relations.append(
                    (
                        f"ellbraid ({i},{j})",
                        wmul(((a, 1),), conj),
                        wmul(conj, ((a, 1),)),
                    )
                )
    else:
        x, y = wg.compute_xy()
        x_word = _word_of_indices(wg.reduced_word(x))
        y_word = _word_of_indices(wg.reduced_word(y))
        psi_word = wmul(winv(x_word), winv(y_word))
        central = wmul(
            (("Phi0", 1),),
            phi_word,
            (("Theta0", 1),),
            psi_word,
            (("Phi0", 1),),
            theta_word,
            (("Theta0", 1),),
        )
        theta0, phi0 = (("Theta0", 1),), (("Phi0", 1),)
        if d.label.family == "ddotG2":
            i_th, i_ph = f"T{rs.i_theta()}", f"T{rs.i_phi()}"
            rewrite = wmul(phi0, ((i_ph, 1), (i_th, 1), (i_ph, 1), (i_th, 1)), theta0)
            rewrite_name = "C = (Phi0 Tiph Tith Tiph Tith Theta0)^2"
        else:
            theta_prime, phi_prime = (
                _word_of_indices(wg.reduced_word(reflect(rs, v)))
                for v in rs.primed(rs.theta, ctx.c_root)
            )
            words = {
                "Theta0": theta0,
                "Phi0": phi0,
                "ThetaPrime": theta_prime,
                "PhiPrime": phi_prime,
            }
            for (a, b), lace in B2_PATTERN.items():
                lhs, rhs = braid_sides(words[a], words[b], lace)
                kind = "commute" if lace == 0 else "2-braid"
                identities.append((f"B2 pattern {a},{b} {kind}", wmul(*lhs), wmul(*rhs)))
            rewrite = wmul(phi0, theta_prime, phi_prime, theta0)
            rewrite_name = "C = (Phi0 Theta' Phi' Theta0)^2"
        identities.append((rewrite_name, C_WORD, wmul(rewrite, rewrite)))

    # Centrality encoded as one commutator per generator.
    for a in names:
        relations.append(
            (f"central [C,{a}]", wmul(C_WORD, ((a, 1),)), wmul(((a, 1),), C_WORD))
        )

    # The starred specialization: Theta02^2 = 1 in the half-delta Weyl
    # quotient and C = Theta02^2 in the A_{2n}^(2) quotient.
    starred = (
        ("star Theta02^2", (("Theta02", 2),), (), True),
        ("star C=Theta02^2", C_WORD, (("Theta02", 2),), False),
    ) if d.specialized else ()

    return Presentation(
        label=d.label,
        diagram=d,
        generators=tuple(names),
        relations=tuple(relations),
        theta_word=theta_word,
        phi_word=phi_word,
        central_word=central,
        identities=tuple(identities),
        starred=starred,
    )


class LetterValues(dict):
    """Letter -> group element in one group: each value is computed on
    first use and kept, C's as the value of the central word, and a word
    evaluates to the product of its letters' values, in reverse letter
    order for the values of an anti-map."""

    def __init__(self, ctx: DaweylContext, value, central_word: Word, reverse: bool = False):
        super().__init__()
        self.ctx = ctx
        self.reverse = reverse
        self._value = value
        self._central_word = central_word

    def __missing__(self, letter: str) -> DaweylElement:
        if letter == CENTRAL:
            value = self.evaluate(self._central_word)
        else:
            value = self._value(letter)
        self[letter] = value
        return value

    def evaluate(self, word: Word) -> DaweylElement:
        letters = reversed(word) if self.reverse else word
        return dagroup.product(self.ctx, (self[g] ** e for g, e in letters))


@dataclass(frozen=True)
class Quotient:
    """One quotient a label's presentation is read in: its context, the
    power k of tau_delta that X_delta maps to, and the generator images."""

    ctx: DaweylContext
    k: int | Fraction
    images: dict

    @property
    def half(self) -> bool:
        return self.ctx.half_delta

    @property
    def suffix(self) -> str:
        """The suffix of the names of records checked in this quotient."""
        return " (half-delta)" if self.half else ""


class GeneratorDictionary:
    """Images of the presentation generators in the double affine Weyl
    group of the label.  A plain label is read in that one quotient; a
    starred label in the A_{2n}^(2) group (X_delta -> tau_delta) and in
    its half-delta extension (X_delta -> tau_{delta/2}), through the same
    image formula."""

    def __init__(self, lab: DoubleAffineLabel | str):
        if isinstance(lab, str):
            lab = diagrams.parse(lab)
        self.label = lab
        self.presentation = build_presentation(lab)
        aff = correspondence(lab)
        read_in = [(dagroup.context(aff), 1)]
        if lab.is_star:
            read_in.append((dagroup.context(aff, half_delta=True), Fraction(1, 2)))
        self.quotients = tuple(Quotient(ctx, k, self._images(ctx, k)) for ctx, k in read_in)
        self.ctx = self.quotients[0].ctx
        self.images = self.quotients[0].images

    def _images(self, ctx: DaweylContext, k) -> dict:
        """T_i -> s_i and the affine letters -> s_0, t_0; on three affine
        nodes also Theta02 -> s_0 tau_delta^k tau_{-nu(theta^v)}."""
        out = {f"T{i}": ctx.s(i) for i in range(1, ctx.n + 1)}
        s0_letter, t0_letter = affine_letters(self.label)
        out[s0_letter] = ctx.s(0)
        if self.label.is_triple:
            tau_theta_v = ctx.tau_coords(ctx.theta_v_coords[1])
            out["Theta02"] = ctx.s(0) * ctx.tau_delta(k) * tau_theta_v.inv()
        out[t0_letter] = ctx.t0
        return out

    def quotient(self, half: bool = False) -> Quotient:
        """The plain quotient, or the half-delta one; ValueError if the
        label has no half-delta quotient."""
        if half and len(self.quotients) < 2:
            raise ValueError(f"{self.label} has no half-delta quotient")
        return self.quotients[half]

    def values(self, half: bool = False) -> LetterValues:
        """The letters' values in one quotient: the generator images, and
        C evaluated from the central word when it is first read."""
        q = self.quotient(half)
        return LetterValues(q.ctx, q.images.__getitem__, self.presentation.central_word)

    def evaluate(self, word: Word, half: bool = False) -> DaweylElement:
        return self.values(half).evaluate(word)

    @cached_property
    def psi(self) -> dict:
        """psi_words(self), computed once per dictionary."""
        return psi_words(self)


def generator_dictionary(lab: DoubleAffineLabel | str) -> GeneratorDictionary:
    """The generator dictionary of a double affine label, built once per
    label for the life of the process and shared by every caller."""
    if isinstance(lab, str):
        lab = diagrams.parse(lab)
    return _generator_dictionary(lab)


@cache
def _generator_dictionary(lab: DoubleAffineLabel) -> GeneratorDictionary:
    return GeneratorDictionary(lab)


def psi_words(gd: GeneratorDictionary) -> dict:
    """Words over the presentation generators for every generator of the
    double affine Weyl group (the surjectivity certificate)."""
    pres = gd.presentation
    ctx = gd.ctx
    rs = ctx.rs
    out: dict = {}
    lam_letter, tau_letter = affine_letters(pres.label)
    out["s0"] = ((lam_letter, 1),)
    for i in range(1, ctx.n + 1):
        out[f"s{i}"] = ((f"T{i}", 1),)
    out["tau_delta"] = C_WORD
    for i, mu in enumerate(rs.m_basis(), start=1):
        out[f"lam_A{i}"] = _word_of_indices(lam_word(ctx, mu), lam_letter)
    for i, beta in enumerate(rs.qcheck_basis(), start=1):
        out[f"tau_a{i}"] = _word_of_indices(tau_word(ctx, beta), tau_letter)
    return out


def verify_presentation(lab) -> list[tuple]:
    """Every defining relation, every derived identity and the
    surjectivity round trip as (name, lhs, rhs) records of normal forms
    in the double affine Weyl group; they hold when lhs == rhs."""
    gd = generator_dictionary(lab)
    pres = gd.presentation
    records = []
    # One evaluator per quotient, indexed by half: C is evaluated once in
    # each, and every record below reads that value.
    values = [gd.values(q.half) for q in gd.quotients]
    # Every relation and identity holds in every quotient the label is
    # read in; each starred relation holds in the one quotient it names.
    for name, lhs, rhs in pres.relations + pres.identities:
        for q, v in zip(gd.quotients, values):
            records.append((name + q.suffix, v.evaluate(lhs), v.evaluate(rhs)))
    for name, lhs, rhs, half in pres.starred:
        records.append((name, values[half].evaluate(lhs), values[half].evaluate(rhs)))

    # Central element maps to tau_delta^k in each quotient: tau_delta, and
    # tau_{delta/2} in the starred half-delta one.
    for q, v in zip(gd.quotients, values):
        tau = "tau_delta" if q.k == 1 else "tau_{delta/2}"
        records.append((f"C -> {tau}{q.suffix}", v[CENTRAL], q.ctx.tau_delta(q.k)))

    # Surjectivity round trip, on the one-letter psi words of s0..sn and
    # tau_delta.  The walk multiplied each lam_A_i and tau_a_i word back
    # to its element over its generators (AffineWalk.checked_word); the
    # records pin every letter of those words to the generator it stands
    # for (T_i, the s0 letter, and the tau letter after the loop), so
    # their values multiply to the same element.
    for sym, word in gd.psi.items():
        if not sym.startswith(("lam_A", "tau_a")):
            value = values[0].evaluate(word)
            records.append((f"psi round trip {sym}", value, gd.ctx.generator(sym)))
    tau_letter = affine_letters(pres.label)[1]
    records.append((f"{tau_letter} -> t0", values[0][tau_letter], gd.ctx.tau_walk.generators[0]))
    return records
