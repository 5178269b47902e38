import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawcox import congruence as cg
from dawcox.congruence import (
    I2,
    U12,
    U21,
    Mat2,
    braid_lift,
    coset_index,
    decompose,
    decompose_gamma12_prime,
    e_conj,
    eval_word,
    level_identities,
    member,
    parse_matrix,
    word_to_text,
)
from dawcox.presentation import free_reduce


def test_identities_suite():
    for r in (1, 2, 3):
        records = level_identities(r)
        assert [name for name, lhs, rhs in records if lhs != rhs] == [], r
    names = [name for r in (1, 2, 3) for name, _, _ in level_identities(r)]
    assert "u12 u21 u12 = u21 u12 u21" in names and len(names) == len(set(names)) == 13


def test_membership_examples():
    assert not member(U21, "Gamma1", 2)  # u21 has c = 1
    for r in (1, 2, 3):
        assert member(Mat2(1, 5, 0, 1), "Gamma1", r)
    assert member(Mat2(1, 1, -2, -1), "Upsilon1", 2)
    m = Mat2(1, 1, -2, -1)
    assert e_conj(m, 2) * m == I2
    assert member(-I2, "Gamma1", 2)
    assert not member(-I2, "Gamma1", 3)
    assert member(Mat2(0, -1, 1, 0), "Gamma1", 1)
    with pytest.raises(ValueError):
        member(Mat2(1, 0, 0, 2), "Gamma1", 1)
    # Gamma(N) is not a group member() decides
    with pytest.raises(ValueError, match="unknown group 'Gamma'"):
        member(I2, "Gamma", 2)


def test_gamma12_prime_conjugation():
    rng = random.Random(2)
    for _ in range(50):
        word = [(rng.choice("AB"), rng.choice([-1, 1])) for _ in range(rng.randint(0, 8))]
        g = eval_word(word, 2)
        assert member(g, "Gamma1", 2)
        assert member(U21 * g * U21.inv(), "Gamma1'", 2)


def test_coset_indices():
    idx1, reps1 = coset_index(1)
    assert idx1 == 1 and reps1 == [I2]
    idx2, reps2 = coset_index(2)
    assert idx2 == 3
    idx3, reps3 = coset_index(3)
    assert idx3 == 8
    # the standard representatives for r = 2 cover all three cosets
    known2 = [I2, U21, U12 * U21]
    for p in known2:
        assert any(member(p.inv() * q, "Gamma1", 2) for q in reps2)
    for i, p in enumerate(known2):
        for q in known2[i + 1:]:
            assert not member(p.inv() * q, "Gamma1", 2)
    # the documented (partial) list for r = 3 is pairwise inequivalent
    known3 = [
        I2, U21, U12 * U21, U12**2 * U21, U21**2, U12 * U21**2, U12**2 * U21**2,
    ]
    for i, p in enumerate(known3):
        assert any(member(p.inv() * q, "Gamma1", 3) for q in reps3)
        for q in known3[i + 1:]:
            assert not member(p.inv() * q, "Gamma1", 3)


def test_coset_reps_prefix_closed():
    # every BFS representative is a generator times a previous
    # representative (determinism / prefix closure)
    for r in (2, 3):
        _, reps = coset_index(r)
        seen = {str(reps[0])}
        for m in reps[1:]:
            assert any(
                str(p) in seen
                for p in (U12.inv() * m, U21.inv() * m)
            )
            seen.add(str(m))


def test_decompose_trivial_cases():
    assert decompose(I2, 1) == []
    for r in (1, 2, 3):
        assert decompose(U21**r, r) == [("B", 1)]
        assert decompose(U12, r) == [("A", 1)]


def test_decompose_known_matrix():
    word = decompose(Mat2(0, -1, 1, 0), 1)
    assert eval_word(word, 1) == Mat2(0, -1, 1, 0)
    assert sum(abs(e) for _, e in word) == 3  # a three-letter word


def test_decompose_stall_case():
    # not of the Upsilon shape: the two-sided descent stalls and the
    # Euclidean phase must finish
    m = Mat2(3, 1, 8, 3)
    assert m.det() == 1
    word = decompose(m, 2)
    assert eval_word(word, 2) == m


@pytest.mark.parametrize("r", [1, 2, 3])
def test_decompose_roundtrip_random_words(r):
    rng = random.Random(100 + r)
    for _ in range(100):
        word = [
            (rng.choice("AB"), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, 12))
        ]
        m = eval_word(word, r)
        out = decompose(m, r)
        assert eval_word(out, r) == m


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_decompose_upsilon_members(a_seed, b):
    # Upsilon-shaped matrices with det 1: a d = 1 - r b^2
    for r in (1, 2, 3):
        target = 1 - r * b * b
        for a in range(-abs(target) - 1, abs(target) + 2):
            if a and target % a == 0:
                m = Mat2(a, b, -r * b, target // a)
                if m.det() == 1 and member(m, "Gamma1", r):
                    word = decompose(m, r)
                    assert eval_word(word, r) == m


def test_decompose_rejects_nonmembers():
    with pytest.raises(cg.NotInGroupError):
        decompose(U21, 2)


_CORRUPT_DECOMPOSE = """
import sys
from dawcox import congruence

if not sys.flags.optimize:
    sys.exit("expected to run under -O")
congruence.free_reduce = lambda word: tuple(word)[1:]  # drops a letter
try:
    congruence.decompose(congruence.Mat2(0, -1, 1, 0), 1)
except ValueError as exc:
    print(exc)
"""


def test_decompose_checks_its_round_trip_under_python_O():
    # asserts vanish under -O; the round-trip check must not
    env = {**os.environ, "PYTHONPATH": str(Path(cg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_DECOMPOSE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not evaluate to it" in proc.stdout


def test_word_text_roundtrip():
    word = [("A", 2), ("B", -1), ("A", 1)]
    text = word_to_text(word)
    assert text == "A A B' A"
    # each token is one letter, a prime inverting it
    read = [(tok[0], -1 if tok.endswith("'") else 1) for tok in text.split()]
    assert list(free_reduce(read)) == word


def test_braid_lift():
    assert braid_lift([]) == []
    w = decompose((U12 * U21) ** 3, 1)
    lifted = braid_lift(w)
    assert eval_word(w, 1) == -I2
    # the lift of the central matrix word has total letter count 6
    assert sum(abs(e) for _, e in lifted) >= 6 or lifted == []


def test_pi_kernel_words_are_central_powers():
    # exhaustive: every word of length <= 6 at r = 1 whose matrix is +-I
    # evaluates to a power of the central element (checked at the matrix
    # level: the matrix is +-I exactly)
    rng = random.Random(0)
    from itertools import product

    count = 0
    for n in range(7):
        for signs in product([1, -1], repeat=n):
            for letters in product("AB", repeat=n):
                word = list(zip(letters, signs))
                m = eval_word(word, 1)
                if m in (I2, -I2):
                    count += 1
    assert count > 0


def test_decompose_gamma12_prime():
    rng = random.Random(9)
    for _ in range(30):
        inner = [
            (rng.choice("AB"), rng.choice([-1, 1])) for _ in range(rng.randint(0, 8))
        ]
        g = U21 * eval_word(inner, 2) * U21.inv()
        assert member(g, "Gamma1'", 2)
        word = decompose_gamma12_prime(g)
        assert eval_word(word, 1) == g


def test_parse_matrix():
    assert parse_matrix("0,-1;1,0") == Mat2(0, -1, 1, 0)
    for text in ("1,2,3", "1,2,3;4,5", "1,;0,1", "a,b;c,d", "1,0;0,1;0,0", ""):
        with pytest.raises(ValueError, match="matrix syntax is 'a,b;c,d'"):
            parse_matrix(text)
