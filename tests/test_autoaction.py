import random
from functools import cached_property, reduce

import pytest

from dawcox import autoaction, cli, diagrams
from dawcox.autoaction import (
    CanonMap,
    EndoMap,
    a_map,
    b_map,
    basic_involution_check,
    basic_involution_check_cstar,
    braid_identity_check,
    canon,
    central_element_action,
    composite_values,
    cstar_restriction_check,
    e_map,
    evaluate_braid,
    inverse_maps,
    is_automorphism,
)
from dawcox.congruence import I2, U21, Mat2, NotInGroupError, decompose_gamma12_prime, member
from dawcox.dagroup import DaweylElement
from dawcox.presentation import CENTRAL, LetterValues, generator_dictionary, winv
from dawcox.weyl import WeylElement
from samples import upsilon_samples

# the unstarred labels of the `verify` matrix
FAMILIES = [name for name in cli.LABELS if not diagrams.parse(name).is_star]

SMALL = ["dddotA1", "dddotC2", "ddotB2", "ddotG2", "ddotF4"]


def _failed(records):
    return [name for name, lhs, rhs in records if lhs != rhs]


def identity_map(label_name):
    pres = generator_dictionary(label_name).presentation
    return EndoMap("id", label_name, label_name, {g: ((g, 1),) for g in pres.generators})


def _substituted(maps, word):
    """The word substituted through maps[0] after maps[1] after ...,
    the innermost map first."""
    for m in reversed(maps):
        word = m.apply_word(word)
    return word


def test_a_fixes_theta03_and_b_fixes_theta01():
    a = a_map("dddotC2")
    assert a.images["Theta03"] == (("Theta03", 1),)
    b = b_map("dddotC2")
    assert b.images["Theta01"] == (("Theta01", 1),)


@pytest.mark.parametrize("name", FAMILIES)
def test_maps_are_automorphisms(name):
    for maker in (a_map, b_map, e_map, identity_map):
        records = is_automorphism(maker(name))
        assert records and _failed(records) == [], maker.__name__


def test_is_automorphism_names_a_broken_relation():
    # b with Theta01 -> Theta02 no longer preserves the relations
    m = b_map("dddotC2")
    assert _failed(is_automorphism(m)) == []
    m.images["Theta01"] = (("Theta02", 1),)
    failed = _failed(is_automorphism(m))
    assert failed and all(name.startswith("b: ") for name in failed)


@pytest.mark.parametrize("name", SMALL)
def test_e_fixes_central_class(name):
    # the image of C under e is tau_delta^{+-1}
    from dawcox.presentation import generator_dictionary

    gd = generator_dictionary(name)
    e = e_map(name)
    dst = generator_dictionary(e.dst)
    img = dst.evaluate(e.apply_word(gd.presentation.central_word))
    assert img.is_central_power() and img.k in (1, -1)


@pytest.mark.parametrize("name", SMALL)
def test_canon_map_consistency(name):
    """The structural evaluator agrees with word substitution on the
    presentation generators."""
    from dawcox.presentation import generator_dictionary

    gd = generator_dictionary(name)
    for maker in (a_map, b_map, e_map):
        m = maker(name)
        cm = CanonMap.from_endo(m)
        dst = generator_dictionary(m.dst)
        for g in gd.presentation.generators:
            word_img = dst.evaluate(m.apply_word(((g, 1),)))
            struct_img = cm.apply(gd.images[g])
            assert word_img == struct_img, (maker.__name__, g)


def _maps(name):
    """a, b, e, a^-1, b^-1 and one composite, the anti-map a after e, as
    tuples of maps, the outermost first."""
    e = e_map(name)
    return [
        (a_map(name),), (b_map(name),), (e,),
        inverse_maps("a", name), inverse_maps("b", name),
        (a_map(e.dst), e),
    ]


def _words(name):
    """Every relation, identity and starred side, every psi word, and
    seeded random words over the generators and C with exponents +-1..3."""
    gd = generator_dictionary(name)
    pres = gd.presentation
    words = [w for _, lhs, rhs in pres.relations + pres.identities for w in (lhs, rhs)]
    words += [w for _, lhs, rhs, _ in pres.starred for w in (lhs, rhs)]
    words += list(gd.psi.values())
    rng = random.Random(name)
    letters = list(pres.generators) + [CENTRAL]
    exponents = [-3, -2, -1, 1, 2, 3]
    for _ in range(20):
        length = rng.randint(1, 6)
        words.append(tuple((rng.choice(letters), rng.choice(exponents)) for _ in range(length)))
    return words


def _written_out(word, central):
    """The word with each power of C replaced by the central word's."""
    out = []
    for g, e in word:
        if g != CENTRAL:
            out.append((g, e))
        else:
            out.extend((central if e > 0 else winv(central)) * abs(e))
    return tuple(out)


@pytest.mark.parametrize("name", cli.LABELS + cli.LARGE)
def test_map_values_match_word_substitution(name):
    # the images evaluated once and multiplied (in reverse for an
    # anti-map) give the normal form of the substituted word
    central = generator_dictionary(name).presentation.central_word
    words = _words(name)
    for maps in _maps(name):
        dst = generator_dictionary(maps[0].dst)
        values = composite_values(maps)
        for word in words:
            expected = dst.evaluate(_substituted(maps, _written_out(word, central)))
            assert values.evaluate(word) == expected, ([m.name for m in maps], word)


@pytest.mark.parametrize("name", ["dddotA2", "ddotB2", "ddotC3"])
def test_central_word_is_evaluated_once_per_map(name, monkeypatch):
    # ddotC3's e lands in ddotB3, whose central word is counted too
    maps = (a_map(name), b_map(name), e_map(name))
    central = [generator_dictionary(m.dst).presentation.central_word for m in maps]
    calls = []
    real = LetterValues.evaluate

    def spy(self, word):
        if word in central:
            calls.append(self.ctx)
        return real(self, word)

    monkeypatch.setattr(LetterValues, "evaluate", spy)
    for m in maps:
        calls.clear()
        assert _failed(is_automorphism(m)) == []
        assert len(calls) == 1, m.name
        calls.clear()
        CanonMap.from_endo(m)
        assert len(calls) == 1, m.name


def test_aba_equals_theta03_image():
    # (a b a)(Theta01) = Theta03
    a, b = a_map("dddotC2"), b_map("dddotC2")
    assert a.apply_word(b.apply_word(a.apply_word((("Theta01", 1),)))) == (("Theta03", 1),)


@pytest.mark.parametrize("name", FAMILIES)
def test_braid_identity(name):
    records = braid_identity_check(name)
    assert _failed(records) == []
    for kind in ("braid", "a a^-1 = 1", "b b^-1 = 1"):
        assert any(n.startswith(kind) for n, _, _ in records), kind


@pytest.mark.parametrize("name", FAMILIES)
def test_central_element_action(name):
    records = central_element_action(name)
    assert records and _failed(records) == []


def test_w0_minus_id_families():
    # dddotB3 has w0 = -id; the conjugation action is by -id there
    from dawcox.presentation import generator_dictionary

    gd = generator_dictionary("dddotB3")
    w0 = gd.ctx.wg.longest_element()
    n = gd.ctx.n
    assert w0.matrix == tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n", [1, 2])
def test_cstar_restriction(n, monkeypatch):
    records = cstar_restriction_check(f"dddotC{n}star")
    assert _failed(records) == []
    # the expected negative: a breaks C = Theta02^2
    assert ("a preserves C = Theta02^2", False, False) in records
    # an a that preserved it would fail the check (b^-1 = e a e keeps the
    # real a)
    b_inv = inverse_maps("b", "dddotA1" if n == 1 else f"dddotC{n}")
    monkeypatch.setattr(autoaction, "inverse_maps", lambda kind, name: b_inv)
    monkeypatch.setattr(autoaction, "a_map", identity_map)
    assert _failed(cstar_restriction_check(f"dddotC{n}star")) == ["a preserves C = Theta02^2"]


@pytest.mark.parametrize("name", [n for n in cli.LABELS if diagrams.parse(n).is_star])
def test_cstar_letter_values_match_word_substitution(name):
    # the C* restriction reads the host's maps in the starred label's two
    # quotients through letter values: in each quotient, the product of
    # the letters' values is the normal form of the substituted word,
    # in that quotient's context (an empty target is not the default)
    gd_star = generator_dictionary(name)
    host = str(diagrams.host(gd_star.label))
    a, b = a_map(host), b_map(host)
    composites = ((), (b, a, *inverse_maps("b", host)), (b, b))
    words = (gd_star.presentation.central_word, (("Theta02", 2),))
    for maps in composites:
        for q in gd_star.quotients:
            values = composite_values(maps, gd_star.values(q.half))
            for word in words:
                got = values.evaluate(word)
                expected = gd_star.evaluate(_substituted(maps, word), q.half)
                names = [m.name for m in maps]
                assert got.ctx is q.ctx and got == expected, (names, q.half, word)
                assert got.describe() == expected.describe()


@pytest.mark.parametrize("name", cli.LABELS + cli.LARGE + ("ddotB5", "ddotC5"))
def test_inverse_canon_maps_match_the_substituted_words(name):
    # a^-1 and b^-1 as canon maps: the psi words evaluated through the
    # substituted e b e and e a e words
    gd = generator_dictionary(name)
    central = gd.presentation.central_word
    e = e_map(name)
    for kind, middle in (("a_inv", b_map), ("b_inv", a_map)):
        maps = (e_map(e.dst), middle(e.dst), e)
        dst = generator_dictionary(maps[0].dst)
        expected = {
            sym: dst.evaluate(_substituted(maps, _written_out(word, central)))
            for sym, word in gd.psi.items()
        }
        M = canon(name, kind)
        assert (M.src, M.dst, M.anti) == (name, name, False)
        assert M.gen_images == expected, kind


@pytest.mark.parametrize("name", ["ddotB3", "ddotC3", "dddotC2", "ddotG2", "dddotA1"])
def test_composite_values_match_the_chained_substitution(name):
    # e e, a e and e b e, in the right context and orientation, also
    # where e crosses between ddotB3 and ddotC3; the canon map of the
    # composite is the composite of the canon maps
    e = e_map(name)
    p = e.dst
    central = generator_dictionary(name).presentation.central_word
    words = _words(name)
    for maps, anti in (
        ((e_map(p), e), False),
        ((a_map(p), e), True),
        ((e_map(p), b_map(p), e), False),
    ):
        names = [m.name for m in maps]
        dst = generator_dictionary(maps[0].dst)
        values = composite_values(maps)
        assert values.reverse is anti and values.ctx is dst.ctx, names
        for word in words:
            expected = dst.evaluate(_substituted(maps, _written_out(word, central)))
            assert values.evaluate(word) == expected, (names, word)
        folded = reduce(CanonMap.compose, [CanonMap.from_endo(m) for m in maps])
        assert CanonMap.from_endo(*maps).gen_images == folded.gen_images, names


def test_composite_values_rejects_maps_that_do_not_chain():
    # e carries ddotB3 to ddotC3, where ddotB3's b does not act
    with pytest.raises(ValueError, match="^cannot compose b after e$"):
        composite_values((b_map("ddotB3"), e_map("ddotB3")))


@pytest.mark.parametrize("name", ["dddotA1", "ddotB2", "ddotC3", "ddotB3", "ddotG2", "dddotC2"])
def test_syllable_fold_matches_the_letter_fold(name):
    # evaluate_braid folds each syllable x^e as the cached power
    # canon(name, x, |e|); composing the letters one at a time must give
    # the same map
    rng = random.Random(f"syllables {name}")
    assert evaluate_braid([], name).gen_images == canon(name, "id").gen_images
    for _ in range(6):
        word = [(rng.choice("ab"), rng.choice((-1, 1)) * rng.randint(1, 5))
                for _ in range(rng.randint(1, 4))]
        letters = [canon(name, x if e > 0 else f"{x}_inv") for x, e in word for _ in range(abs(e))]
        folded = reduce(CanonMap.compose, letters)
        M = evaluate_braid(word, name)
        assert (M.src, M.dst, M.anti) == (folded.src, folded.dst, folded.anti)
        assert M.gen_images == folded.gen_images, word


# the hosts of the registry labels: every unstarred label, and the host
# each starred label acts through
HOSTS = sorted({str(diagrams.host(diagrams.parse(n))) for n in cli.LABELS + cli.LARGE})


def _random_elements(ctx, rng, count):
    """Seeded normal forms w lam_mu tau_beta tau_delta^k: w a random word
    in the simple reflections, the coordinates and k in [-3, 3]."""
    n = ctx.n
    out = []
    for _ in range(count):
        letters = [rng.choice(ctx.wg.simples) for _ in range(rng.randint(0, 3 * n))]
        w = reduce(WeylElement.__mul__, letters, ctx.wg.id)
        coords = [rng.randint(-3, 3) for _ in range(2 * n)]
        out.append(DaweylElement(ctx, w, tuple(coords[:n]), tuple(coords[n:]), rng.randint(-3, 3)))
    return out


def _genuine_maps(name, rng):
    """The canonical maps of a label, seeded braid composites gamma and
    e after the last gamma."""
    maps = {kind: canon(name, kind) for kind in ("a", "b", "e", "a_inv", "b_inv", "id")}
    for _ in range(3):
        word = [(rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 4))]
        gamma = maps[f"gamma {word}"] = evaluate_braid(word, name)
    maps["e gamma"] = canon(name, "e").compose(gamma)
    return maps


@pytest.mark.parametrize("name", HOSTS)
def test_structural_apply_matches_the_products(name):
    # the integer form of every genuine map against apply's definition,
    # the product of the letters' images, on the generators and on
    # seeded random elements; ddotB*, ddotC*, ddotF4 and ddotG2 cover
    # the finite images that are not the simple reflections themselves
    rng = random.Random(f"structural {name}")
    gd = generator_dictionary(name)
    elements = [gd.ctx.generator(sym) for sym in gd.psi] + _random_elements(gd.ctx, rng, 6)
    for kind, m in _genuine_maps(name, rng).items():
        assert m.integer_form is not None, kind
        for g in elements:
            assert m.apply(g) == m.product_image(g), (kind, g)
    assert (canon(name, "e").integer_form[0] is None) == name.startswith("dddot")


@pytest.mark.parametrize("name,kind", [("dddotE8", "a"), ("ddotB3", "e"), ("ddotG2", "b_inv")])
def test_a_structural_apply_multiplies_no_elements(name, kind, monkeypatch):
    m = canon(name, kind)
    fresh = CanonMap(m.src, m.dst, m.anti, dict(m.gen_images))
    elements = _random_elements(m.src_ctx, random.Random(5), 10)
    expected = [m.product_image(g) for g in elements]
    calls = []

    def counted(op):
        real = getattr(DaweylElement, op)
        return lambda self, other: calls.append(op) or real(self, other)

    for op in ("__mul__", "__pow__"):
        monkeypatch.setattr(DaweylElement, op, counted(op))
    images = [fresh.apply(g) for g in elements]
    assert calls == []
    m.product_image(elements[0])  # the counter sees the product path
    assert calls
    monkeypatch.undo()
    assert images == expected


def _image_form(m):
    """The integer form built from m's generator images."""
    return CanonMap(m.src, m.dst, m.anti, dict(m.gen_images)).integer_form


def _involution_maps(name, word):
    """e o gamma on the label and on e's partner, and their square M2, as
    basic_involution_check composes them."""
    partner = canon(name, "e").dst
    e_gamma = {
        label: canon(label, "e").compose(evaluate_braid(word, label)) for label in {name, partner}
    }
    return [*e_gamma.values(), e_gamma[partner].compose(e_gamma[name])]


@pytest.mark.parametrize("name", HOSTS)
def test_composed_forms_match_the_forms_of_the_images(name):
    # compose builds a composite's integer form from its factors' forms;
    # it must be the form that the composite's images give: on seeded
    # braid composites, the cached powers, e o gamma (ddotB3/ddotC3 and
    # ddotB4/ddotC4 cross to the partner labeling) and the square M2
    rng = random.Random(f"composed {name}")
    kinds = ["a", "b", "a_inv", "b_inv"] + (["e"] if canon(name, "e").dst == name else [])
    maps = [canon(name, kind, e) for kind in kinds for e in range(2, 10)]
    for _ in range(4):
        word = [(rng.choice("ab"), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(1, 5))]
        maps += [evaluate_braid(word, name), *_involution_maps(name, word)]
    for m in maps:
        form = m.integer_form
        assert form is not None and form == _image_form(m)


@pytest.mark.parametrize("name", ["dddotA2", "ddotB2", "ddotG2", "ddotC3"])
@pytest.mark.parametrize("sym,factor", [("lam_A1", "tau_delta"), ("s1", "s2")])
def test_composed_forms_of_a_table_that_is_no_homomorphism(name, sym, factor):
    # b with lam_A1 sent to its image times tau_delta's, or s1 to its
    # image times s2's: still a translation and a finite Weyl element, so
    # the table has an integer form, but b is no longer a homomorphism
    # (and its s1 image no involution); its composites, as either
    # factor, still match their images, and their images are the outer
    # map's images of the inner map's
    b = canon(name, "b")
    images = {**b.gen_images, sym: b.gen_images[sym] * b.gen_images[factor]}
    wrong = CanonMap(name, name, False, images)
    assert wrong.integer_form is not None and wrong.integer_form != b.integer_form
    e = canon(name, "e")
    pairs = [(wrong, canon(name, "a", 2)), (canon(name, "a_inv"), wrong), (wrong, wrong),
             (e, wrong), (e, evaluate_braid([("a", 2), ("b", -1)], name).compose(wrong))]
    if e.dst == name:
        pairs += [(wrong, e), (wrong, e.compose(wrong))]
    for outer, inner in pairs:
        m = outer.compose(inner)
        assert m.integer_form == _image_form(m)
        assert m.gen_images == {s: outer.apply(x) for s, x in inner.gen_images.items()}


def test_composing_forms_applies_and_multiplies_nothing(monkeypatch):
    # two maps with integer forms compose without an apply, a product or
    # a power of group elements, and the composite's images are not built
    # until they are read
    name = "dddotE8"
    x = evaluate_braid([("a", 2), ("b", -3)], name)
    y = canon(name, "e")
    for m in (x, y):
        m.integer_form
    calls = []

    def counted(owner, op):
        real = getattr(owner, op)
        return lambda self, *args: calls.append(op) or real(self, *args)

    monkeypatch.setattr(CanonMap, "apply", counted(CanonMap, "apply"))
    for op in ("__mul__", "__pow__"):
        monkeypatch.setattr(DaweylElement, op, counted(DaweylElement, op))
    composites = [y.compose(x), x.compose(x)]
    composites.append(composites[0].compose(composites[0]))
    assert calls == []
    assert all("gen_images" not in vars(m) for m in composites)
    composites[0].gen_images  # the counter sees the images being built
    assert set(calls) == {"apply"}
    monkeypatch.undo()
    for m in composites:
        assert m.integer_form == _image_form(m)


def test_the_involution_check_builds_forms_from_images_only_for_base_maps(monkeypatch):
    # with an empty cache, basic_involution_check on dddotE8 builds the
    # base maps' forms from their images and composes every other form
    monkeypatch.setattr(autoaction, "_CANON_CACHE", {})
    real = CanonMap.__dict__["integer_form"]
    built = []

    def counted(self):
        built.append(self)
        return real.func(self)

    prop = cached_property(counted)
    prop.__set_name__(CanonMap, "integer_form")
    monkeypatch.setattr(CanonMap, "integer_form", prop)
    m = upsilon_samples(1, 1, bound=12, seed=7)[0]
    out = basic_involution_check(m, 1, "dddotE8")
    assert out["upsilon_member"] and out["involution"]
    base = [v for key, v in autoaction._CANON_CACHE.items() if len(key) == 2]
    assert built and all(any(b is v for v in base) for b in built)
    assert len(built) < len(autoaction._CANON_CACHE)


@pytest.mark.parametrize("call", [
    lambda: canon("ddotB2", "c"),
    lambda: canon("ddotB2", "c", 3),
    lambda: evaluate_braid([("c", 1)], "ddotB2"),
    lambda: evaluate_braid([("a", 1), ("c", -2)], "ddotB2"),
])
def test_an_unknown_canonical_kind_is_a_value_error(call):
    with pytest.raises(ValueError, match=r"^no canonical map of kind 'c(_inv)?': "
                       r"the kinds are a, b, e, a_inv, b_inv, id$"):
        call()


def test_homomorphism_property_random_words():
    rng = random.Random(4)
    name = "ddotB2"
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(50):
        v = [rng.choice(letters) for _ in range(rng.randint(0, 3))]
        w = [rng.choice(letters) for _ in range(rng.randint(0, 3))]
        lhs = evaluate_braid(v + w, name)
        rhs = evaluate_braid(v, name).compose(evaluate_braid(w, name))
        assert lhs.gen_images == rhs.gen_images


def test_matrix_kernel_words_act_as_central_powers():
    """Exhaustive scan of reduced braid words at level one: every word
    whose matrix is +-I acts on dddotA1 like the corresponding power of
    the central element (trivially for +I since w0^2 = 1, by conjugation
    by w0 for -I)."""
    from dawcox.presentation import generator_dictionary
    from dawcox.congruence import eval_word

    name = "dddotA1"
    gd = generator_dictionary(name)
    ctx = gd.ctx
    w0 = ctx.w(ctx.wg.longest_element())
    hits = []
    letters = {
        ("a", 1): eval_word([("A", 1)], 1),
        ("a", -1): eval_word([("A", -1)], 1),
        ("b", 1): eval_word([("B", 1)], 1),
        ("b", -1): eval_word([("B", -1)], 1),
    }
    max_len = 10
    stack = [((), I2)]
    for _ in range(max_len):
        nxt = []
        for word, mat in stack:
            for l, lm in letters.items():
                if word and word[-1][0] == l[0] and word[-1][1] == -l[1]:
                    continue  # free reduction
                m = mat * lm
                nxt.append((word + (l,), m))
                if m == I2 or m == -I2:
                    hits.append((word + (l,), m == I2))
        stack = nxt
    assert hits, "no kernel words found up to the length bound"
    for word, is_plus in hits:
        M = evaluate_braid(list(word), name)
        if is_plus:
            assert M.gen_images == canon(name, "id").gen_images, word
        else:
            for g, img in gd.images.items():
                assert M.apply(img) == w0 * img * w0.inv(), (word, g)


def test_no_integral_matrix_with_econj_equal_minus_inverse():
    """Resolves the open question about e(r) A e(r) A = -I: equating
    entries forces a = d = 0 and -r b^2 = 1, impossible over Z, so the
    only +-I cases at the congruence level are the Upsilon members.
    Verified here by brute force over a box of Gamma_1(r) members."""
    for r in (1, 2, 3):
        for a in range(-6, 7):
            if a == 0:
                continue
            for b in range(-6, 7):
                for c in range(-6, 7):
                    ad = 1 + b * c
                    if ad % a or c % r:
                        continue
                    m = Mat2(a, b, c, ad // a)
                    if m.det() != 1:
                        continue
                    econj = Mat2(m.d, m.c // r, r * m.b, m.a)
                    assert econj * m != -I2


@pytest.mark.parametrize("name,r", [("dddotA1", 1), ("ddotB2", 2), ("ddotG2", 3)])
def test_upsilon_members_give_involutions(name, r):
    for m in upsilon_samples(r, 5, seed=1):
        out = basic_involution_check(m, r, name)
        assert out["upsilon_member"]
        assert out["involution"], (str(m), name)


@pytest.mark.parametrize("name,r", [("dddotA1", 1), ("ddotB2", 2), ("ddotG2", 3)])
def test_u21_power_not_involution(name, r):
    m = U21 ** (2 * r)
    out = basic_involution_check(m, r, name)
    assert not out["upsilon_member"]
    assert not out["involution"]


def test_identity_matrix_involution():
    out = basic_involution_check(I2, 1, "dddotA1")
    assert out["upsilon_member"] and out["involution"]


def test_involution_crossing_bn_cn():
    out = basic_involution_check(Mat2(1, 1, -2, -1), 2, "ddotB3")
    assert out["upsilon_member"] and out["involution"]
    out2 = basic_involution_check(U21**4, 2, "ddotB3")
    assert not out2["involution"]


def test_cstar_involutions():
    # Upsilon_1(2)' members: [[a, b], [-b, d]] with b even
    samples = [Mat2(1, 0, 0, 1), Mat2(1, 2, -2, -3), Mat2(3, 2, -2, -1)]
    for m in samples:
        assert member(m, "Upsilon1'", 2)
        out = basic_involution_check_cstar(m, 2)
        assert out["involution"], str(m)


def test_level_mismatch_rejected():
    with pytest.raises(ValueError):
        basic_involution_check(I2, 2, "dddotA1")
    # a starred label has level 2
    for r in (1, 3):
        with pytest.raises(ValueError, match=f"^dddotC2star has level 2, not {r}$"):
            basic_involution_check(I2, r, "dddotC2star")


# every Upsilon_1(2)' member with entries <= 4: [[a, b], [-b, d]], a + d even
UPSILON_PRIME_BOX = [
    m
    for m in (Mat2(a, b, -b, d) for a in range(-4, 5) for b in range(-4, 5) for d in range(-4, 5))
    if m.det() == 1 and member(m, "Upsilon1'", 2)
]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_starred_labels_take_the_common_check(n):
    assert len(UPSILON_PRIME_BOX) == 36
    for m in UPSILON_PRIME_BOX:
        out = basic_involution_check(m, 2, f"dddotC{n}star")
        assert out == basic_involution_check_cstar(m, n)
        assert out["upsilon_member"] and out["involution"], str(m)
        assert out["word_letters"] == sum(abs(e) for _, e in decompose_gamma12_prime(m))


def test_starred_label_rejects_a_matrix_outside_gamma12_prime():
    # u21 has b + c odd
    with pytest.raises(NotInGroupError, match=r"^matrix is not in Gamma1\(2\)'$"):
        basic_involution_check(U21, 2, "dddotC2star")
    with pytest.raises(NotInGroupError, match=r"^matrix is not in Gamma1\(2\)'$"):
        basic_involution_check_cstar(U21, 1)
