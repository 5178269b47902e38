"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s or -v to see them and the timings)."""

import random
import time
from fractions import Fraction

from dawcox import autoaction, cli, congruence, dagroup, diagrams, heckeparams
from dawcox.congruence import I2, U12, U21, Mat2


def _report(num, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed * 1000:.1f} ms]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: {status} - {detail}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_matrix_identities():
    congruence.identities_suite()  # warm any lazy state
    t0 = time.perf_counter()
    results = congruence.identities_suite()
    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and elapsed < 0.001
    _report(1, ok, "exact matrix identities (u12/u21/e(r))", elapsed)


def test_criterion_2_coset_indices():
    t0 = time.perf_counter()
    idx2, reps2 = congruence.coset_index(2)
    idx3, reps3 = congruence.coset_index(3)
    ok = idx2 == 3 and idx3 == 8
    known2 = [I2, U21, U12 * U21]
    for i, p in enumerate(known2):
        ok = ok and any(congruence.same_coset(p, q, 2) for q in reps2)
        for q in known2[i + 1:]:
            ok = ok and not congruence.same_coset(p, q, 2)
    known3 = [
        I2, U21, U12 * U21, U12**2 * U21, U21**2, U12 * U21**2, U12**2 * U21**2,
    ]
    for i, p in enumerate(known3):
        ok = ok and any(congruence.same_coset(p, q, 3) for q in reps3)
        for q in known3[i + 1:]:
            ok = ok and not congruence.same_coset(p, q, 3)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, f"[SL2(Z) : Gamma1(2)] = {idx2}, [SL2(Z) : Gamma1(3)] = {idx3}",
            elapsed)


def _failed(records):
    return [name for name, lhs, rhs in records if lhs != rhs]


def _registry_failures(suite):
    """Run every check of one suite over the `verify` label matrix; the
    failed check ids with the names of their first failed records."""
    failures = []
    for name in cli.LABELS:
        for check_id, run in cli.checks_for(name, suite):
            failed = _failed(run())
            if failed:
                failures.append((check_id, failed[:3]))
    return failures


def test_criterion_3_presentations():
    t0 = time.perf_counter()
    failures = _registry_failures("presentation")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"presentations, derived identities + psi round trips over "
                   f"{len(cli.LABELS)} labels {failures if failures else ''}", elapsed)


# No double affine label corresponds to D3(2); its relations are checked
# on their own.
EXTRA_BERNSTEIN_TYPES = ["D3(2)"]


def test_criterion_4_bernstein_relations():
    t0 = time.perf_counter()
    failures = _registry_failures("bernstein")
    for lab in EXTRA_BERNSTEIN_TYPES:
        failed = _failed(dagroup.verify_bernstein_relations(lab))
        if failed:
            failures.append((lab, failed[:2]))
    types = {str(diagrams.correspondence(diagrams.parse(name))) for name in cli.LABELS}
    types.update(EXTRA_BERNSTEIN_TYPES)
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(4, ok, f"Bernstein-type relations over {len(types)} affine types "
                   f"{failures if failures else ''}", elapsed)


def test_criterion_5_automorphisms():
    t0 = time.perf_counter()
    failures = _registry_failures("auto")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(5, ok, f"a/b/e automorphism suite over {len(cli.LABELS)} labels "
                   f"{failures if failures else ''}", elapsed)


def test_criterion_6_basic_involutions():
    t0 = time.perf_counter()
    failures = []
    plan = [(1, "dddotA1"), (2, "ddotB2"), (3, "ddotG2")]
    for r, name in plan:
        for m in autoaction.upsilon_samples(r, 20, bound=30, seed=42):
            out = autoaction.basic_involution_check(m, r, name)
            if not (out["upsilon_member"] and out["involution"]):
                failures.append((name, str(m), out))
        neg = autoaction.basic_involution_check(U21 ** (2 * r), r, name)
        if neg["involution"] or neg["upsilon_member"]:
            failures.append((name, "u21^{2r} should fail", neg))
    # Upsilon_1(2)' acting on the starred C2 family.
    rng = random.Random(42)
    count = 0
    while count < 20:
        b = 2 * rng.randint(-5, 5)
        target = 1 - b * b
        divisors = [a for a in range(-30, 31) if a and target % a == 0
                    and abs(target // a) <= 30]
        if not divisors:
            continue
        a = rng.choice(divisors)
        m = Mat2(a, b, -b, target // a)
        if m.det() != 1 or not congruence.member(m, "Upsilon1'", 2):
            continue
        count += 1
        out = autoaction.basic_involution_check_cstar(m, 2)
        if not out["involution"]:
            failures.append(("dddotC2star", str(m), out))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(6, ok, f"basic involutions: 20 Upsilon members per level + C2* batch "
                   f"{failures if failures else ''}", elapsed)


def test_criterion_7_parameter_tables():
    t0 = time.perf_counter()
    table1 = {
        "dddotA1": 4, "dddotA1star": 3, "dddotA2": 1, "dddotB3": 2,
        "dddotC2": 5, "dddotC2star": 4, "dddotD4": 1, "dddotE6": 1,
        "dddotE7": 1, "dddotE8": 1, "dddotF4": 2, "dddotG2": 2,
        "ddotB3": 3, "ddotB2": 4, "ddotF4": 2, "ddotG2": 2,
    }
    ok = all(heckeparams.generic_param_count(k) == v for k, v in table1.items())
    table4 = [
        ("A1(1)", 1, 1), ("Cn(1)", 2, 3), ("(BCn,Cn)", 2, 4),
        ("(Cn^,Cn)", 2, 5), ("A2n(2)", 2, 3), ("(Cn^,BCn)", 2, 4),
        ("A3(2)", None, 3), ("(C2,C2^)", None, 4), ("Dn+1(2)", 3, 2),
        ("A2n-1(2)", 3, 2), ("(Bn,Bn^)", 3, 3),
    ]
    for system, n, count in table4:
        ok = ok and heckeparams.specialize(system, n).final_count == count
    table5 = [
        ("(BCn,Cn)", 2, 4), ("(Cn^,BCn)", 2, 4), ("(Bn,Bn^)", 3, 3),
        ("(Cn^,Cn)", 2, 5), ("(C2,C2^)", None, 4),
    ]
    for system, n, count in table5:
        reduced = heckeparams.nonreduced_to_reduced(system)
        rule = heckeparams.specialize(system, n)
        ok = ok and rule.final_count == count
        ok = ok and heckeparams.specialize(reduced, n).algebra == rule.algebra
    elapsed = time.perf_counter() - t0
    _report(7, ok, "Tables of Hecke parameter counts and specializations", elapsed)


APPENDIX_TYPES = {"B2": "C2(1)", "B3": "B3(1)", "C3": "C3(1)", "F4": "F4(1)",
                  "G2": "G2(1)"}


def test_criterion_8_appendix_a():
    from dawcox.rootsys import build, vsub, vscale
    from dawcox.weyl import WeylGroup, reflect

    t0 = time.perf_counter()
    failures = []
    for name, host in APPENDIX_TYPES.items():
        rs = build(host)
        wg = WeylGroup(rs)
        theta, phi = wg.theta_phi_finite()
        s_th, s_ph = reflect(rs, theta), reflect(rs, phi)
        theta_p = vsub(phi, theta)
        phi_p = vsub(vscale(rs.pairing(phi, theta), theta), phi)
        # the length factorization identities
        if wg.length(s_th) != wg.length(s_ph * s_th) + wg.length(reflect(rs, phi_p)):
            failures.append((name, "length factorization i"))
        if wg.length(s_ph) != wg.length(s_th * s_ph) + wg.length(reflect(rs, theta_p)):
            failures.append((name, "length factorization ii"))
        # compute_xy checks the x/y structural properties and raises
        # ValueError, naming the failed identities, when one fails
        try:
            x, y = wg.compute_xy()
        except ValueError as exc:
            failures.append((name, f"xy structure {exc}"))
            continue
        # explicit x/y identifications
        if name == "G2":
            i_th = next(i for i, a in enumerate(rs.simple_roots, 1)
                        if rs.bilinear(theta, a) != 0)
            i_ph = next(i for i, a in enumerate(rs.simple_roots, 1)
                        if rs.bilinear(phi, a) != 0)
            if x != wg.simples[i_ph - 1] or y != wg.simples[i_th - 1]:
                failures.append((name, "triply laced identification"))
        else:
            if x != reflect(rs, theta_p) or y != reflect(rs, phi_p):
                failures.append((name, "doubly laced identification"))
        # length law on 100 random elements
        rng = random.Random(name)
        for _ in range(100):
            w = wg.from_word([rng.randint(1, rs.n) for _ in range(rng.randint(0, 14))])
            red = wg.reduced_word(w)
            if len(red) != wg.length(w) or wg.from_word(red) != w:
                failures.append((name, "length law"))
                break
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(8, ok, f"Appendix combinatorics over {sorted(APPENDIX_TYPES)} "
                   f"{failures if failures else ''}", elapsed)


ORACLE_TYPES = ["A1(1)", "A2(2)", "C2(1)", "D3(2)", "D4(3)"]


def test_criterion_9_algebra_vs_action():
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for lab in ORACLE_TYPES:
        ctx = dagroup.context(lab)
        rng = random.Random(lab)  # a str seed gives the same stream in every process
        n = ctx.n
        syms = [f"s{i}" for i in range(n + 1)]
        syms += [f"lam_A{i}" for i in range(1, n + 1)]
        syms += [f"tau_a{i}" for i in range(1, n + 1)]
        syms += ["tau_delta", "tau_alpha0"]
        gens = {s: ctx.generator(s) for s in syms}

        def rand_el():
            g = ctx.identity()
            for _ in range(rng.randint(1, 4)):
                g = g * gens[rng.choice(syms)] ** rng.choice([-1, 1])
            return g

        pts = []
        for _ in range(5):
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n)]
            coords.append(Fraction(rng.randint(-2, 2)))
            coords.append(Fraction(1))
            pts.append(tuple(coords))
        for _ in range(1000):
            g1, g2 = rand_el(), rand_el()
            g12 = g1 * g2
            checked += 1
            for p in pts:
                if g12.act(p) != g1.act(g2.act(p)):
                    failures += 1
                    break
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    _report(9, ok, f"multiplication vs action oracle on {checked} pairs "
                   f"({len(ORACLE_TYPES)} types x 1000)", elapsed)


def test_criterion_10_a2n2_comparison():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2):
        records = dagroup.A2n2Comparison(n).report()
        names = {name for name, _, _ in records}
        ok = ok and {"kernel generator i trivial", "kernel generator ii trivial"} <= names
        ok = ok and not _failed(records)
    elapsed = time.perf_counter() - t0
    _report(10, ok, "A_{2n}^(2) comparison kernel generators trivialize (n = 1, 2)",
            elapsed)
