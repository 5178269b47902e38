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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import congruence, diagrams
from .congruence import Mat2, braid_lift, decompose, decompose_gamma12_prime, member
from .dagroup import DaweylContext, DaweylElement, product
from .presentation import Word, free_reduce, generator_dictionary, winv, wmul
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


def _is_finite_gen(g: str) -> bool:
    return g.startswith("T") and g[1:].isdigit()


def _fixing_finite(pres) -> dict:
    return {g: ((g, 1),) for g in pres.generators if _is_finite_gen(g)}


def a_map(label_name: str) -> EndoMap:
    pres = generator_dictionary(label_name).presentation
    images = _fixing_finite(pres)
    if pres.label.base_family.startswith("dddot"):
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
    if pres.label.base_family.startswith("dddot"):
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


_E_FINITE_PERM = {
    "ddotB2": {1: 2, 2: 1},
    "ddotG2": {1: 2, 2: 1},
    "ddotF4": {1: 4, 2: 3, 3: 2, 4: 1},
}


def e_partner(label_name: str) -> str:
    lab = diagrams.parse(label_name)
    if lab.family == "ddotB":
        return f"ddotC{lab.rank}"
    if lab.family == "ddotC":
        return f"ddotB{lab.rank}"
    return label_name


def e_map(label_name: str) -> EndoMap:
    """The anti-involution: swaps Theta01 <-> Theta03 (triple-node case)
    or the two labelled affine nodes (two-node case, possibly crossing to
    the partner labeling)."""
    pres = generator_dictionary(label_name).presentation
    lab = pres.label
    images: dict = {}
    if lab.base_family.startswith("dddot"):
        dst = label_name
        for g in pres.generators:
            images[g] = ((g, 1),)
        images["Theta01"] = (("Theta03", 1),)
        images["Theta03"] = (("Theta01", 1),)
    else:
        dst = e_partner(label_name)
        perm = _E_FINITE_PERM.get(label_name, {})
        for g in pres.generators:
            if _is_finite_gen(g):
                i = int(g[1:])
                images[g] = ((f"T{perm.get(i, i)}", 1),)
        images["Theta0"] = (("Phi0", 1),)
        images["Phi0"] = (("Theta0", 1),)
    return EndoMap("e", label_name, dst, images, anti=True)


def a_inv_map(label_name: str) -> EndoMap:
    e2 = e_map(e_partner(label_name))
    return e2.compose(b_map(e_partner(label_name))).compose(e_map(label_name))


def b_inv_map(label_name: str) -> EndoMap:
    e2 = e_map(e_partner(label_name))
    return e2.compose(a_map(e_partner(label_name))).compose(e_map(label_name))


def is_automorphism(m: EndoMap, star: bool = False) -> tuple[bool, list]:
    """Relation preservation in the Weyl quotient, plus an invertibility
    witness through the e-conjugate inverse."""
    src_gd = generator_dictionary(m.src)
    dst_gd = generator_dictionary(m.dst)
    failures = []
    for name, lhs, rhs in src_gd.presentation.relations:
        if name.startswith("star") and not star:
            continue
        l = dst_gd.evaluate(m.apply_word(lhs))
        r = dst_gd.evaluate(m.apply_word(rhs))
        if l != r:
            failures.append((name, l.describe(), r.describe()))
    if m.name in ("a", "b"):
        inv = a_inv_map(m.src) if m.name == "a" else b_inv_map(m.src)
        comp = m.compose(inv)
        for g in src_gd.presentation.generators:
            img = dst_gd.evaluate(comp.apply_word(((g, 1),)))
            if img != dst_gd.images[g]:
                failures.append((f"inverse witness {g}", img.describe(), ""))
    return not failures, failures


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
        ctx = gd.ctx
        gen_images = {}
        for sym in gd.psi:
            gen_images[sym] = ctx.s(0) if sym == "s0" else ctx.generator(sym)
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

    def agrees_with(self, other: "CanonMap") -> bool:
        if self.src != other.src or self.dst != other.dst:
            return False
        return all(
            self.gen_images[sym] == other.gen_images[sym] for sym in self.gen_images
        )

    def is_identity_map(self) -> bool:
        return self.agrees_with(CanonMap.identity(self.src))


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


def braid_identity_check(label_name: str) -> dict:
    """The level-r braid relation between a and b as automorphisms,
    checked generator-wise in the Weyl quotient."""
    r = generator_dictionary(label_name).presentation.label
    twist = diagrams.correspondence(r).twist
    lhs, rhs = (
        reduce(CanonMap.compose, side)
        for side in braid_sides(canon(label_name, "a"), canon(label_name, "b"), twist)
    )
    ok = lhs.agrees_with(rhs)
    inv_ok = (
        canon(label_name, "a").compose(canon(label_name, "a_inv")).is_identity_map()
        and canon(label_name, "b").compose(canon(label_name, "b_inv")).is_identity_map()
    )
    return {"braid": ok, "inverses": inv_ok, "level": twist}


def central_element_action(label_name: str) -> dict:
    """(ab)^3 (r = 1), (ab)^2 (r = 2), (ab)^3 (r = 3) act by conjugation
    by w_circ (resp. its square) in the Weyl quotient."""
    gd = generator_dictionary(label_name)
    twist = diagrams.correspondence(gd.presentation.label).twist
    ctx = gd.ctx
    w0 = ctx.w(ctx.wg.longest_element())
    A, B = canon(label_name, "a"), canon(label_name, "b")
    AB = A.compose(B)
    out = {"level": twist}
    if twist == 1:
        M = AB.compose(AB).compose(AB)
        conj = w0
        gens = [g for g in gd.presentation.generators if not _is_finite_gen(g)]
        out["relation"] = "(ab)^3 = conj(w0) on affine generators"
    elif twist == 2:
        M = AB.compose(AB)
        conj = w0
        gens = list(gd.presentation.generators)
        out["relation"] = "(ab)^2 = conj(w0) on all generators"
        BA = B.compose(A)
        out["(ab)^2 = (ba)^2"] = M.agrees_with(BA.compose(BA))
    else:
        M = AB.compose(AB).compose(AB)
        conj = w0 * w0
        gens = list(gd.presentation.generators)
        out["relation"] = "(ab)^3 = conj(w0^2) on all generators"
        BA = B.compose(A)
        out["(ab)^3 = (ba)^3"] = M.agrees_with(BA.compose(BA).compose(BA))
        out["w0^2 trivial"] = (w0 * w0).is_identity()
    failures = []
    for g in gens:
        img = gd.images[g]
        expect = conj * img * conj.inv()
        got = M.apply(img)
        if got != expect:
            failures.append(g)
    out["failures"] = failures
    out["ok"] = not failures and all(
        v for k, v in out.items() if isinstance(v, bool)
    )
    return out


def cstar_restriction_check(n: int) -> dict:
    """b a b^{-1} and b^2 preserve the starred relations; a alone does
    not (the expected negative), all read in the A_{2n}^(2) quotient."""
    label_name = f"dddotC{n}" if n >= 2 else "dddotA1"
    star_name = f"dddotC{n}star"
    gd_star = generator_dictionary(star_name)
    pres = gd_star.presentation
    a = a_map(label_name)
    b = b_map(label_name)
    maps = {
        "identity": identity_map(label_name),
        "b a b^-1": b.compose(a).compose(b_inv_map(label_name)),
        "b^2": b.compose(b),
        "a": a,
    }
    c_word = pres.central_word
    theta02_sq: Word = (("Theta02", 2),)
    out = {}
    for name, m in maps.items():
        lhs = gd_star.evaluate(m.apply_word(c_word))
        rhs = gd_star.evaluate(m.apply_word(theta02_sq))
        central_ident = lhs == rhs
        lhs_c = gd_star.evaluate(m.apply_word(theta02_sq), half=True)
        square_trivial = lhs_c.is_identity()
        out[name] = {"central identification preserved": central_ident, "square image trivial": square_trivial}
    out["expected"] = {
        "identity": True,
        "b a b^-1": True,
        "b^2": True,
        "a": False,
    }
    out["ok"] = all(
        out[name]["central identification preserved"] == expect
        for name, expect in out["expected"].items()
    )
    return out


def basic_involution_check(m: Mat2, r: int, label_name: str) -> dict:
    """Lift a congruence matrix to a braid word, compose with e, and test
    whether the resulting anti-morphism squares to the identity on every
    generator in the Weyl quotient."""
    gd = generator_dictionary(label_name)
    lab = gd.presentation.label
    twist = diagrams.correspondence(lab).twist
    if r != twist:
        raise ValueError(f"{label_name} has level {twist}, not {r}")
    if not member(m, "Gamma1", r):
        raise congruence.NotInGroupError(f"matrix is not in Gamma1({r})")
    word = decompose(m, r)
    lifted = braid_lift(word, r)
    gamma = evaluate_braid(lifted, label_name)
    M = canon(label_name, "e").compose(gamma)
    # For the B_n/C_n pair, e crosses to the partner labeling; the square
    # composes with the partner's copy of the same map so that it lands
    # back in the source presentation.
    partner = M.dst
    if partner != label_name:
        gamma2 = evaluate_braid(lifted, partner)
        Mback = canon(partner, "e").compose(gamma2)
        M2 = Mback.compose(M)
    else:
        M2 = M.compose(M)
    ok = all(M2.apply(img) == img for img in gd.images.values())
    return {
        "matrix": str(m),
        "upsilon_member": member(m, "Upsilon1", r),
        "involution": ok,
        "word_letters": sum(abs(e) for _, e in lifted),
    }


def basic_involution_check_cstar(m: Mat2, n: int) -> dict:
    """The starred variant: matrices from Gamma1(2)' act through their
    level-one lift on the C-family presentation."""
    label_name = f"dddotC{n}" if n >= 2 else "dddotA1"
    if not member(m, "Gamma1'", 2):
        raise congruence.NotInGroupError("matrix is not in Gamma1(2)'")
    word = decompose_gamma12_prime(m)
    lifted = braid_lift(word, 1)
    gamma = evaluate_braid(lifted, label_name)
    M = canon(label_name, "e").compose(gamma)
    M2 = M.compose(M)
    images = generator_dictionary(label_name).images
    ok = all(M2.apply(img) == img for img in images.values())
    return {
        "matrix": str(m),
        "upsilon_member": member(m, "Upsilon1'", 2),
        "involution": ok,
    }


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
