"""One WeylElement per (root system, matrix): the shared elements carry
the same data as elements built from scratch, and each distinct matrix is
inverted once."""

import random

import pytest

from dawcox import cli, diagrams, rootsys
from dawcox.dagroup import DaweylContext, context
from dawcox.weyl import WeylElement, WeylGroup, element, mat_inv, mat_mul, reflect, simple_reflection
from references import int_matrix
from test_integer_kernel import LABELS, _contexts, _count_weyl_inverses, _generators, _word


def _weyl_words(rng, ctx, count, length):
    """Seeded products of simple reflections, s_theta and s_c, with the
    elements they pass through."""
    letters = [*ctx.wg.simples, ctx.s_theta, ctx.s_c]
    out = []
    for _ in range(count):
        w = ctx.wg.id
        for _ in range(rng.randint(0, length)):
            w = w * rng.choice(letters)
            out.append(w)
    return out


@pytest.mark.parametrize("family", cli.LABELS + cli.LARGE)
def test_equal_matrices_are_one_object(family):
    ctx = context(diagrams.correspondence(diagrams.parse(family)))
    rs, wg = ctx.rs, ctx.wg
    for i in range(1, ctx.n + 1):
        s = wg.simples[i - 1]
        assert ctx.s(i).w is s
        assert simple_reflection(rs, i) is s
        assert reflect(rs, tuple(int(j == i - 1) for j in range(rs.n))) is s
        assert element(rs, s.matrix) is s
    assert reflect(rs, rs.theta) is ctx.s_theta
    rng = random.Random(f"interning {family}")
    elements = _weyl_words(rng, ctx, 4, 8)
    for a, b in zip(elements, reversed(elements)):
        assert (a * b) is (a * b)
        assert a.inv().inv() is a
        assert a.inv() is element(rs, a.inv().matrix)
    assert (ctx.s(0) * ctx.s(0)).w is wg.id


@pytest.mark.parametrize("label", ["A1(1)", "C2(1)", "G2(1)", "A4(2)", "D4(3)", "F4(1)"])
def test_each_matrix_is_inverted_once(label, monkeypatch):
    # a root system and context of their own, so that no earlier test
    # has inverted any of their elements
    rs = rootsys._build.__wrapped__(rootsys.parse_label(label))
    ctx = DaweylContext(rs)
    built = _count_weyl_inverses(monkeypatch)
    requested = set()
    real_inv = WeylElement.inv

    def recording(self):
        requested.add(self.matrix)
        return real_inv(self)

    monkeypatch.setattr(WeylElement, "inv", recording)
    rng = random.Random(f"inverse once {label}")
    gens = _generators(ctx)
    for _ in range(40):
        g = ctx.identity()
        for h, e in _word(rng, gens, 6):
            g = g * h**e
        g.inv()
    assert built
    # one inverse per distinct matrix inverted; building w^{-1} also
    # records w as its inverse, so w and w^{-1} share one build
    assert len(built) == len({w.matrix for w in built})
    pairs = {frozenset((m, real_inv(element(rs, m)).matrix)) for m in requested}
    assert len(built) == len(pairs)


@pytest.mark.parametrize("label", LABELS)
def test_shared_elements_match_elements_built_from_scratch(label):
    for ctx in _contexts(label):
        rs = ctx.rs
        rng = random.Random(f"from scratch {label} {ctx.half_delta}")
        elements = _weyl_words(rng, ctx, 5, 10)
        gens = _generators(ctx)
        for _ in range(5):
            g = ctx.identity()
            for h, e in _word(rng, gens, 6):
                g = g * h**e
            elements.append(g.w)
        for a, b in zip(elements, elements[1:] + elements[:1]):
            fresh_a, fresh_b = WeylElement(rs, a.matrix), WeylElement(rs, b.matrix)
            assert fresh_a is not a
            assert (a * b).matrix == mat_mul(fresh_a.matrix, fresh_b.matrix)
            inverse = fresh_a.inv()
            assert a.inv().matrix == inverse.matrix == int_matrix(mat_inv(a.matrix))
            assert a.m_matrix == fresh_a.m_matrix
            assert a.qcheck_matrix == fresh_a.qcheck_matrix
            assert a.is_identity() == fresh_a.is_identity() == (a == ctx.wg.id)
            word = a.reduced_word
            assert word == WeylElement(rs, a.matrix).reduced_word
            assert word == ctx.wg.reduced_word(fresh_a)
            assert len(word) == ctx.wg.length(a)
            product = ctx.wg.id
            for i in word:
                product = product * simple_reflection(rs, i)
            assert product is a


@pytest.mark.parametrize("label", ["B3(1)", "F4(1)"])
def test_enumerate_leaves_the_table_unchanged(label):
    g = WeylGroup(rootsys.build(label))
    before = len(g.rs.weyl_elements)
    elements = g.enumerate()
    assert len(g.rs.weyl_elements) == before
    assert len(set(elements)) == len(elements) == {"B3(1)": 48, "F4(1)": 1152}[label]
    assert g.id in elements and all(w in elements for w in g.simples)
