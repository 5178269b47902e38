"""The generator-level (anti)automorphisms of the presented groups and
their congruence-group composites, verified in the double affine Weyl
quotient.

Two representations cooperate here.  EndoMap is the literal generator ->
word assignment (suitable for relation checking; words stay short for
the basic maps).  CanonMap is the induced endomorphism of the Weyl
quotient, stored through its images of the double-affine-Weyl-group
generators; composites of many letters stay cheap because elements are
decomposed structurally (finite part by reduced word, lattice parts by
coordinates) instead of by word substitution.

basic_involution_check takes every label: a starred label's matrices
come from Gamma1(2)' and act through their level-one lift on the
presentation of its unstarred host (diagrams.host), through the same
check as the Gamma1(r) matrices of every other label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import diagrams
from .congruence import Mat2, braid_lift, decompose, decompose_gamma12_prime, member
from .dagroup import DaweylContext, DaweylElement, product
from .presentation import Word, free_reduce, generator_dictionary, winv, wmul
from .rootsys import AffineLabel
from .weyl import braid_sides


@dataclass
class EndoMap:
    name: str
    src: str
    dst: str
    images: dict
    anti: bool = False

    def apply_word(self, word: Word) -> Word:
        out: list = []
        seq = reversed(word) if self.anti else word
        for g, e in seq:
            img = self.images[g]
            piece = img if e > 0 else winv(img)
            for _ in range(abs(e)):
                out.extend(piece)
        return free_reduce(tuple(out))

    def compose(self, other: "EndoMap") -> "EndoMap":
        """self after other."""
        if self.src != other.dst:
            raise ValueError(f"cannot compose {self.name} after {other.name}")
        images = {g: self.apply_word(w) for g, w in other.images.items()}
        return EndoMap(
            name=f"{self.name}*{other.name}",
            src=other.src,
            dst=self.dst,
            images=images,
            anti=self.anti != other.anti,
        )


def identity_map(label_name: str) -> EndoMap:
    pres = generator_dictionary(label_name).presentation
    return EndoMap(
        "id", label_name, label_name,
        {g: ((g, 1),) for g in pres.generators},
    )


def _fixing_finite(pres) -> dict:
    return {nd.label: ((nd.label, 1),) for nd in pres.diagram.finite_nodes}


def a_map(label_name: str) -> EndoMap:
    pres = generator_dictionary(label_name).presentation
    images = _fixing_finite(pres)
    if pres.label.is_triple:
        images["Theta01"] = (("Theta02", 1),)
        images["Theta02"] = (("Theta02", -1), ("Theta01", 1), ("Theta02", 1))
        images["Theta03"] = (("Theta03", 1),)
    else:
        phi = pres.phi_word
        images["Theta0"] = free_reduce(wmul(
            (("Phi0", 1),), phi, (("Theta0", 1),), winv(phi), (("Phi0", -1),)
        ))
        images["Phi0"] = (("Phi0", 1),)
    return EndoMap("a", label_name, label_name, images)


def b_map(label_name: str) -> EndoMap:
    pres = generator_dictionary(label_name).presentation
    images = _fixing_finite(pres)
    if pres.label.is_triple:
        images["Theta01"] = (("Theta01", 1),)
        images["Theta02"] = (("Theta03", 1),)
        images["Theta03"] = (("Theta03", -1), ("Theta02", 1), ("Theta03", 1))
    else:
        theta = pres.theta_word
        images["Phi0"] = free_reduce(wmul(
            theta, (("Theta0", 1),), (("Phi0", 1),), (("Theta0", -1),), winv(theta)
        ))
        images["Theta0"] = (("Theta0", 1),)
    return EndoMap("b", label_name, label_name, images)


def e_map(label_name: str) -> EndoMap:
    """The anti-involution: swaps Theta01 <-> Theta03 (triple-node case)
    or the two labelled affine nodes (two-node case, possibly crossing to
    the partner labeling)."""
    pres = generator_dictionary(label_name).presentation
    lab = pres.label
    partner = diagrams.partner(lab)
    # keep the caller's spelling when e stays in the group, so that e
    # composes with the a, b maps built under the same name
    dst = label_name if partner == lab else str(partner)
    images: dict = {}
    if lab.is_triple:
        for g in pres.generators:
            images[g] = ((g, 1),)
        images["Theta01"] = (("Theta03", 1),)
        images["Theta03"] = (("Theta01", 1),)
    else:
        # T_i goes to the partner's T_i, seen in the order Phi0 sees it
        order = diagrams.FAMILIES[lab.family].order
        for nd in pres.diagram.finite_nodes:
            i = order[nd.index] if order else nd.index
            images[nd.label] = ((f"T{i}", 1),)
        images["Theta0"] = (("Phi0", 1),)
        images["Phi0"] = (("Theta0", 1),)
    return EndoMap("e", label_name, dst, images, anti=True)


def a_inv_map(label_name: str) -> EndoMap:
    e = e_map(label_name)
    return e_map(e.dst).compose(b_map(e.dst)).compose(e)


def b_inv_map(label_name: str) -> EndoMap:
    e = e_map(label_name)
    return e_map(e.dst).compose(a_map(e.dst)).compose(e)


def is_automorphism(m: EndoMap) -> list[tuple]:
    """Relation preservation in the Weyl quotient, plus an invertibility
    witness through the e-conjugate inverse, as (name, lhs, rhs) records
    named after the map; they hold when lhs == rhs."""
    src_gd = generator_dictionary(m.src)
    dst_gd = generator_dictionary(m.dst)
    records = [
        (
            f"{m.name}: {name}",
            dst_gd.evaluate(m.apply_word(lhs)),
            dst_gd.evaluate(m.apply_word(rhs)),
        )
        for name, lhs, rhs in src_gd.presentation.relations
    ]
    if m.name in ("a", "b"):
        inv = a_inv_map(m.src) if m.name == "a" else b_inv_map(m.src)
        comp = m.compose(inv)
        for g in src_gd.presentation.generators:
            img = dst_gd.evaluate(comp.apply_word(((g, 1),)))
            records.append((f"{m.name}: inverse witness {g}", img, dst_gd.images[g]))
    return records


# ---------------------------------------------------------------------
# Structural (CanonMap) machinery
# ---------------------------------------------------------------------

class CanonMap:
    """The endomorphism of the double affine Weyl group induced by an
    EndoMap, represented by its images of the group generators."""

    def __init__(self, src: str, dst: str, anti: bool, gen_images: dict):
        self.src = src
        self.dst = dst
        self.anti = anti
        self.gen_images = gen_images
        self.src_ctx: DaweylContext = generator_dictionary(src).ctx
        self.dst_ctx: DaweylContext = generator_dictionary(dst).ctx

    @classmethod
    def from_endo(cls, m: EndoMap) -> "CanonMap":
        dst_gd = generator_dictionary(m.dst)
        gen_images = {
            sym: dst_gd.evaluate(m.apply_word(word))
            for sym, word in generator_dictionary(m.src).psi.items()
        }
        return cls(m.src, m.dst, m.anti, gen_images)

    @classmethod
    def identity(cls, label_name: str) -> "CanonMap":
        gd = generator_dictionary(label_name)
        gen_images = {sym: gd.ctx.generator(sym) for sym in gd.psi}
        return cls(label_name, label_name, False, gen_images)

    def apply(self, g: DaweylElement) -> DaweylElement:
        ctx = self.src_ctx
        if g.ctx is not ctx:
            raise ValueError("element is not in the source group")
        out_ctx = self.dst_ctx
        img = self.gen_images
        k = g.k
        if k.denominator != 1:
            raise ValueError("CanonMap.apply needs an integral tau_delta exponent")

        w_parts = [img[f"s{i}"] for i in ctx.wg.reduced_word(g.w)]
        lam_parts = [
            img[f"lam_A{i + 1}"] ** c for i, c in enumerate(g.mu_coords) if c
        ]
        tau_parts = [
            img[f"tau_a{i + 1}"] ** c for i, c in enumerate(g.beta_coords) if c
        ]
        delta_parts = [img["tau_delta"] ** int(k)] if k else []
        if not self.anti:
            return product(out_ctx, w_parts + lam_parts + tau_parts + delta_parts)
        return product(
            out_ctx, delta_parts + tau_parts + lam_parts + list(reversed(w_parts))
        )

    def compose(self, other: "CanonMap") -> "CanonMap":
        """self after other."""
        if self.src != other.dst:
            raise ValueError("canon maps do not chain")
        gen_images = {sym: self.apply(el) for sym, el in other.gen_images.items()}
        return CanonMap(other.src, self.dst, self.anti != other.anti, gen_images)

    def records(self, name: str, other: "CanonMap") -> list[tuple]:
        """`self = other` as one (name, lhs, rhs) record per generator of
        the source group."""
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("canon maps between different groups")
        return [
            (f"{name} on {sym}", img, other.gen_images[sym])
            for sym, img in self.gen_images.items()
        ]


_CANON_CACHE: dict = {}


def canon(label_name: str, kind: str) -> CanonMap:
    """Cached canonical maps: kind in {a, b, e, a_inv, b_inv, id}."""
    key = (label_name, kind)
    if key not in _CANON_CACHE:
        if kind == "id":
            _CANON_CACHE[key] = CanonMap.identity(label_name)
        else:
            maker = {
                "a": a_map,
                "b": b_map,
                "e": e_map,
                "a_inv": a_inv_map,
                "b_inv": b_inv_map,
            }[kind]
            _CANON_CACHE[key] = CanonMap.from_endo(maker(label_name))
    return _CANON_CACHE[key]


def evaluate_braid(word, label_name: str) -> CanonMap:
    """Fold a braid word (letters 'a'/'b' with exponents) into a CanonMap:
    the product l1 l2 ... acts as the composition l1 o l2 o ..., built by
    composing on the right."""
    out = canon(label_name, "id")
    for letter, e in word:
        kind = letter if e > 0 else f"{letter}_inv"
        for _ in range(abs(e)):
            out = out.compose(canon(label_name, kind))
    return out


def braid_identity_check(label_name: str) -> list[tuple]:
    """The level-r braid relation between a and b as automorphisms, and
    a a^-1 = b b^-1 = 1, as records checked generator-wise in the Weyl
    quotient."""
    twist = diagrams.correspondence(diagrams.parse(label_name)).twist
    A, B = canon(label_name, "a"), canon(label_name, "b")
    lhs, rhs = (reduce(CanonMap.compose, side) for side in braid_sides(A, B, twist))
    ident = canon(label_name, "id")
    return (
        lhs.records(f"braid [{twist}]", rhs)
        + A.compose(canon(label_name, "a_inv")).records("a a^-1 = 1", ident)
        + B.compose(canon(label_name, "b_inv")).records("b b^-1 = 1", ident)
    )


def central_element_action(label_name: str) -> list[tuple]:
    """(ab)^3 (r = 1), (ab)^2 (r = 2), (ab)^3 (r = 3) act by conjugation
    by w_circ (resp. its square) in the Weyl quotient, with (ab)^2 =
    (ba)^2 (r = 2), and (ab)^3 = (ba)^3 and w_circ^2 = 1 (r = 3); as
    records."""
    gd = generator_dictionary(label_name)
    twist = diagrams.correspondence(gd.presentation.label).twist
    ctx = gd.ctx
    w0 = ctx.w(ctx.wg.longest_element())
    A, B = canon(label_name, "a"), canon(label_name, "b")
    AB = A.compose(B)
    gens = list(gd.presentation.generators)
    records = []
    if twist == 1:
        M = AB.compose(AB).compose(AB)
        conj = w0
        gens = [nd.label for nd in gd.presentation.diagram.affine_nodes]
        relation = "(ab)^3 = conj(w0)"
    elif twist == 2:
        M = AB.compose(AB)
        conj = w0
        relation = "(ab)^2 = conj(w0)"
        BA = B.compose(A)
        records += M.records("(ab)^2 = (ba)^2", BA.compose(BA))
    else:
        M = AB.compose(AB).compose(AB)
        conj = w0 * w0
        relation = "(ab)^3 = conj(w0^2)"
        BA = B.compose(A)
        records += M.records("(ab)^3 = (ba)^3", BA.compose(BA).compose(BA))
        records.append(("w0^2 trivial", conj, ctx.identity()))
    for g in gens:
        img = gd.images[g]
        records.append((f"{relation} on {g}", M.apply(img), conj * img * conj.inv()))
    return records


def cstar_restriction_check(star_name: str) -> list[tuple]:
    """The identity, b a b^{-1} and b^2 of the host preserve the starred
    relations of a starred label; a breaks C = Theta02^2 (the expected
    negative, recorded as that equality being False).  C = Theta02^2 is
    read in the A_{2n}^(2) quotient, Theta02^2 = 1 in its half-delta one."""
    gd_star = generator_dictionary(star_name)
    label_name = str(diagrams.host(gd_star.label))
    a = a_map(label_name)
    b = b_map(label_name)
    c_word = gd_star.presentation.central_word
    theta02_sq: Word = (("Theta02", 2),)
    half_ctx = gd_star.quotient(half=True).ctx

    def central(m):
        return gd_star.evaluate(m.apply_word(c_word)), gd_star.evaluate(m.apply_word(theta02_sq))

    records = []
    for name, m in (
        ("identity", identity_map(label_name)),
        ("b a b^-1", b.compose(a).compose(b_inv_map(label_name))),
        ("b^2", b.compose(b)),
    ):
        records.append((f"{name} preserves C = Theta02^2", *central(m)))
        square = gd_star.evaluate(m.apply_word(theta02_sq), half=True)
        records.append((f"{name} preserves Theta02^2 = 1", square, half_ctx.identity()))
    lhs, rhs = central(a)
    records.append(("a preserves C = Theta02^2", lhs == rhs, False))
    return records


def verify_automorphisms(label_name: str) -> list[tuple]:
    """The `auto` suite of a label as records: a, b and e preserve the
    relations, the braid identity, and the central element action."""
    records = []
    for maker in (a_map, b_map, e_map):
        records += is_automorphism(maker(label_name))
    return records + braid_identity_check(label_name) + central_element_action(label_name)


def basic_involution_check(m: Mat2, r: int, label_name: str) -> dict:
    """Lift a congruence matrix to a braid word, compose with e, and test
    whether the resulting anti-morphism squares to the identity on every
    generator in the Weyl quotient.  A matrix of a starred label is taken
    from Gamma1(2)' and acts through its level-one lift on the host."""
    lab = diagrams.parse(label_name)
    twist = diagrams.correspondence(lab).twist
    if r != twist:
        raise ValueError(f"{label_name} has level {twist}, not {r}")
    if lab.is_star:
        word, upsilon = decompose_gamma12_prime(m), "Upsilon1'"
    else:
        word, upsilon = decompose(m, r), "Upsilon1"
    lifted = braid_lift(word)
    host = str(diagrams.host(lab))
    # e may cross to the partner labeling (the B_n/C_n pair); the square
    # composes with the partner's copy of e.gamma so that it lands back
    # in the host, and the two copies are one when e stays in the group.
    partner = canon(host, "e").dst
    e_gamma = {
        name: canon(name, "e").compose(evaluate_braid(lifted, name))
        for name in {host, partner}
    }
    M2 = e_gamma[partner].compose(e_gamma[host])
    images = generator_dictionary(host).images
    return {
        "matrix": str(m),
        "upsilon_member": member(m, upsilon, r),
        "involution": all(M2.apply(img) == img for img in images.values()),
        "word_letters": sum(abs(e) for _, e in lifted),
    }


def basic_involution_check_cstar(m: Mat2, n: int) -> dict:
    """basic_involution_check on the starred label of rank n, the double
    affine label of type A_{2n}^(2)."""
    star = diagrams.correspondence_inverse(AffineLabel("A", 2 * n, 2))
    return basic_involution_check(m, 2, str(star))


def upsilon_samples(r: int, count: int, bound: int = 30, seed: int = 0):
    """Deterministic pseudo-random Upsilon_1(r) members with entries
    bounded by `bound`."""
    import random

    rng = random.Random(seed + r)
    bmax = max(2, bound // (2 * r))
    out: list = []
    seen: set = set()
    guard = 0
    while len(out) < count and guard < 100000:
        guard += 1
        b = rng.randint(-bmax, bmax)
        target = 1 - r * b * b
        divisors = [
            a
            for a in range(-bound, bound + 1)
            if a and target % a == 0 and abs(target // a) <= bound
        ]
        if not divisors:
            continue
        a = rng.choice(divisors)
        m = Mat2(a, b, -r * b, target // a)
        if m.det() == 1 and member(m, "Gamma1", r) and m.max_entry() <= bound:
            # prefer fresh matrices; repeats are allowed once the small
            # entry bound exhausts the supply (r = 3 has only 17 members)
            if str(m) not in seen or guard > 50000:
                seen.add(str(m))
                out.append(m)
    if len(out) < count:
        raise RuntimeError("not enough Upsilon samples")
    return out
