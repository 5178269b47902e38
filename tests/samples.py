"""Sample inputs shared by the tests."""

import random

from dawcox.congruence import Mat2, member


def upsilon_samples(r: int, count: int, bound: int = 30, seed: int = 0):
    """Deterministic pseudo-random Upsilon_1(r) members with entries
    bounded by `bound`."""
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
        if m.det() == 1 and member(m, "Gamma1", r) and max(map(abs, (m.a, m.b, m.c, m.d))) <= bound:
            # prefer fresh matrices; repeats are allowed once the small
            # entry bound exhausts the supply (r = 3 has only 17 members)
            if str(m) not in seen or guard > 50000:
                seen.add(str(m))
                out.append(m)
    if len(out) < count:
        raise RuntimeError("not enough Upsilon samples")
    return out


def upsilon_prime_samples(count: int, bound: int = 30, seed: int = 42):
    """Deterministic pseudo-random Upsilon_1(2)' members (b even, c = -b)
    with entries bounded by `bound`."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        b = 2 * rng.randint(-5, 5)
        target = 1 - b * b
        divisors = [a for a in range(-bound, bound + 1) if a and target % a == 0
                    and abs(target // a) <= bound]
        if not divisors:
            continue
        a = rng.choice(divisors)
        m = Mat2(a, b, -b, target // a)
        if m.det() == 1 and member(m, "Upsilon1'", 2):
            out.append(m)
    return out
