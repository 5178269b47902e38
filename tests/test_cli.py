import argparse
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dawcox
from dawcox import autoaction, cli, congruence, dagroup, diagrams, heckeparams, presentation
from dawcox.cli import CHECKS, LABELS, LARGE, checks_for, main
from dawcox.weyl import WeylGroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_diagram_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "diagram", "--family", "ddotG2", "--json")
    code2, out2, _ = run(capsys, "diagram", "--family", "ddotG2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["family"] == "ddotG2"


def test_diagram_dot(capsys):
    code, out, _ = run(capsys, "diagram", "--family", "ddotG2", "--dot")
    assert code == 0 and out.startswith("graph")


def test_diagram_bad_family(capsys):
    code, _, err = run(capsys, "diagram", "--family", "dddotB", "--rank", "2")
    assert code == 2 and "error" in err


def test_params_cncn(capsys):
    code, out, _ = run(capsys, "params", "--system", "(Cn^,Cn)", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["final_count"] == 5


def test_params_table4_row(capsys):
    code, out, _ = run(capsys, "params", "--system", "A2n(2)", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and payload["final_count"] == 3


@pytest.mark.parametrize("rank", [(), ("--n", "1")])
def test_params_a1_has_one_rank(capsys, rank):
    # A1(1) specializes dddotA1, at n = 1 or with no --n
    code, out, _ = run(capsys, "params", "--system", "A1(1)", *rank)
    payload = json.loads(out)
    assert code == 0 and payload["algebra"] == "dddotA1"
    assert payload["identifications"] == [
        ["theta01", "theta02"], ["theta02", "theta03"], ["theta03", "t1"]
    ]
    assert (payload["generic_count"], payload["final_count"]) == (4, 1)


@pytest.mark.parametrize("system,n", [("Cn(1)", 1), ("(BCn,Cn)", 1), ("Dn+1(2)", 2), ("An(1)", 1)])
def test_params_below_the_least_rank(capsys, system, n):
    code, out, err = run(capsys, "params", "--system", system, "--n", str(n))
    assert (code, out) == (2, "")
    assert "n >= " in err


@pytest.mark.parametrize("system,n", [("A1(1)", 3), ("A3(2)", 7), ("E6(1)", 3)])
def test_params_fixed_row_at_another_rank(capsys, system, n):
    code, out, err = run(capsys, "params", "--system", system, "--n", str(n))
    assert (code, out) == (2, "")
    assert f"only, not n = {n}" in err


@pytest.mark.parametrize("system,count", [("(Cn^,Cn)", 4), ("A2n(2)", 2), ("(Cn^,BCn)", 3)])
def test_params_rank_one_collapses(capsys, system, count):
    code, out, _ = run(capsys, "params", "--system", system, "--n", "1")
    assert code == 0 and json.loads(out)["final_count"] == count


def test_params_unknown(capsys):
    code, _, err = run(capsys, "params", "--system", "X9(9)")
    assert code == 2


def test_nf_central_word(capsys):
    code, out, _ = run(capsys, "nf", "--family", "dddotA1", "--word", "C")
    assert code == 0
    assert out.strip() == "w=[] mu=[0] beta=[0] k=1"


def test_nf_generator(capsys):
    code, out, _ = run(capsys, "nf", "--family", "dddotA2", "--word", "T1 T1")
    assert code == 0
    assert out.strip() == "w=[] mu=[0,0] beta=[0,0] k=0"


def test_nf_bad_word(capsys):
    code, _, err = run(capsys, "nf", "--family", "dddotA2", "--word", "Q7")
    assert code == 2


@pytest.mark.parametrize("tok", ["T1''", "C''", "Theta01'''"])
def test_nf_rejects_more_than_one_prime(capsys, tok):
    code, out, err = run(capsys, "nf", "--family", "dddotA", "--rank", "1", "--word", f"T1 {tok}")
    assert code == 2 and out == ""
    assert err == f"error: unknown generator {tok!r}\n"
    # one prime is the inverse
    code, out, _ = run(capsys, "nf", "--family", "dddotA", "--rank", "1", "--word", "T1 T1'")
    assert code == 0 and out.strip() == "w=[] mu=[0] beta=[0] k=0"


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "1,0;0,1", "--level", "1")
    assert code == 0 and "(empty word)" in out


def test_decompose_s_matrix(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "0,-1;1,0", "--level", "1")
    assert code == 0
    assert out.splitlines()[0] == "A B A"
    assert "round-trip: ok" in out


def test_decompose_nonmember(capsys):
    code, _, err = run(capsys, "decompose", "--matrix", "1,0;1,1", "--level", "2")
    assert code == 1


@pytest.mark.parametrize("argv", [
    # u12^20000 u21^2: the two-sided descent runs past its step guard
    ("decompose", "--matrix=-39999,-20000;2,1", "--level", "2"),
    ("involution", "--matrix=-39999,-20000;2,1", "--family", "ddotB2"),
    # u12^(10^11): a word of 10^11 letters, too long to print
    ("decompose", "--matrix=1,-100000000000;0,1", "--level", "1"),
])
def test_too_large_to_decompose_or_print_is_an_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in err


def test_decompose_reports_a_failed_round_trip(capsys, monkeypatch):
    # a free reduction that drops a letter makes decompose's own round-trip
    # check fail; the CLI reports it as an error, with no traceback
    monkeypatch.setattr(congruence, "free_reduce", lambda word: tuple(word)[1:])
    code, out, err = run(capsys, "decompose", "--matrix", "0,-1;1,0", "--level", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: decompose: the word for")
    assert "does not evaluate to it" in err and "Traceback" not in err


def test_involution_identity(capsys):
    code, out, _ = run(
        capsys, "involution", "--matrix", "1,0;0,1", "--family", "dddotA1"
    )
    assert code == 0
    assert "member: yes, involution: yes" in out


def test_involution_negative(capsys):
    code, out, _ = run(
        capsys, "involution", "--matrix", "1,0;2,1", "--family", "dddotA1"
    )
    assert code == 0
    assert "member: no, involution: no" in out


def test_involution_starred_json_reports_word_letters(capsys):
    code, out, _ = run(
        capsys, "involution", "--matrix", "1,2;-2,-3", "--family", "dddotC2star", "--json"
    )
    assert code == 0
    verdict, line = out.splitlines()
    assert verdict == "member: yes, involution: yes"
    word = congruence.decompose_gamma12_prime(congruence.Mat2(1, 2, -2, -3))
    assert json.loads(line) == {
        "involution": True,
        "matrix": "1,2;-2,-3",
        "upsilon_member": True,
        "word_letters": sum(abs(e) for _, e in word),
    }


@pytest.mark.parametrize("matrix", ["1,2,3;4,5", "1,;0,1", "a,b;c,d"])
@pytest.mark.parametrize(
    "command", [("decompose", "--level", "1"), ("involution", "--family", "dddotA1")]
)
def test_malformed_matrix_names_the_syntax(capsys, command, matrix):
    code, out, err = run(capsys, command[0], "--matrix", matrix, *command[1:])
    assert (code, out, err) == (2, "", "error: matrix syntax is 'a,b;c,d'\n")


def test_decompose_negative_matrix_space_separated(capsys):
    # a value that starts with a minus sign is not taken for an option
    spaced = run(capsys, "decompose", "--matrix", "-1,1;-6,5", "--level", "1")
    joined = run(capsys, "decompose", "--matrix=-1,1;-6,5", "--level", "1")
    assert spaced == joined == run(capsys, "decompose", "--mat", "-1,1;-6,5", "--level", "1")
    assert spaced[0] == 0 and "round-trip: ok" in spaced[1]


def test_involution_negative_matrix_space_separated(capsys):
    spaced = run(capsys, "involution", "--matrix", "-1,1;-6,5", "--family", "dddotA1")
    joined = run(capsys, "involution", "--matrix=-1,1;-6,5", "--family", "dddotA1")
    assert spaced == joined
    assert spaced[0] == 0 and "member: no, involution: no" in spaced[1]


def test_main_builds_one_parser(capsys, monkeypatch):
    # every main() call in a process parses with the same parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    good = [run(capsys, "decompose", "--matrix", "0,-1;1,0") for _ in range(2)]
    bad = [run(capsys, "decompose", "--level", "4") for _ in range(2)]
    assert built.count("dawcox") == 1
    assert good[0] == good[1] == (0, "A B A\nround-trip: ok\n", "")
    assert bad[0] == bad[1] and bad[0][0] == 2 and "usage: dawcox decompose" in bad[0][2]


def test_verify_single_family(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "dddotC2", "--suite", "presentation", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_appendix_skips_simply_laced(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "dddotA2", "--suite", "appendixA"
    )
    assert code == 0
    assert "skipped (simply-laced)" in out


def test_a_check_that_returns_no_records_fails(capsys, monkeypatch):
    # only appendixA on a simply-laced label may check nothing; any other
    # empty check is a failure, not a skip
    monkeypatch.setitem(cli.CHECKS, "params", (("params", lambda lab: True, lambda lab: []),))
    code, out, _ = run(capsys, "verify", "--family", "ddotB2", "--suite", "params")
    assert code == 1
    assert out.split()[:2] == ["FAIL", "ddotB2:params"]
    code, out, _ = run(capsys, "verify", "--family", "ddotB2", "--suite", "params", "--json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["id"] == "ddotB2:params" and check["status"] == "FAIL"
    assert check["witness"] == {"empty": "the check returned no records"}


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--family", "dddotZ", "--rank", "1")
    assert code == 2


def test_verify_empty_family_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "--family", "", "--suite", "appendixA")
    assert code == 2 and out == ""
    assert err == "error: cannot parse double affine label ''\n"


@pytest.mark.parametrize("family", ["dddotA²", "dddotC²star"])
def test_lookalike_digit_rank_is_not_a_label(capsys, family):
    # "²" is a digit to str.isdigit that int() rejects
    code, out, err = run(capsys, "diagram", "--family", family)
    assert code == 2 and out == ""
    assert err == f"error: cannot parse double affine label {family!r}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "dddotC"),
    ("diagram", "--family", "ddotB"),
    ("nf", "--family", "dddotA", "--word", "C"),
    ("involution", "--matrix", "1,1;-2,-1", "--family", "dddotCstar"),
])
def test_a_family_without_its_rank_says_it_needs_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    family = argv[argv.index("--family") + 1]
    assert code == 2 and out == ""
    assert err == f"error: {family} needs a rank\n"


@pytest.mark.parametrize("family,label", [
    ("dddotC2", ("dddotC", 2)), ("dddotC2star", ("dddotCstar", 2)), ("dddotF", ("dddotF", 4)),
    ("ddotB2", ("ddotB2", 2)), ("ddotG2", ("ddotG2", 2)),
])
def test_a_label_name_or_fixed_rank_family_needs_no_rank(capsys, family, label):
    code, out, err = run(capsys, "diagram", "--family", family, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (payload["family"], payload["rank"]) == label


def test_verify_rank_needs_a_family(capsys):
    code, out, err = run(capsys, "verify", "--rank", "3", "--suite", "appendixA")
    assert code == 2 and out == ""
    assert err == "error: --rank needs --family\n"


def test_verify_bernstein_instance(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "ddotG2", "--suite", "bernstein", "--json"
    )
    assert code == 0


def test_decompose_determinant_not_one(capsys):
    code, out, err = run(capsys, "decompose", "--matrix", "2,0;0,1")
    assert code == 2 and out == ""
    assert err.startswith("error: determinant must be 1") and "Traceback" not in err


def test_verify_e6_auto_passes(capsys):
    # the E family runs every suite, not only the presentation suite
    code, out, err = run(capsys, "verify", "--family", "dddotE6", "--suite", "auto", "--json")
    assert code == 0 and err == ""
    assert [(c["id"], c["status"]) for c in json.loads(out)["checks"]] == [
        ("dddotE6:auto", "pass")
    ]


def test_registry_yields_the_benchmark_ids(monkeypatch):
    # bench/plan.py keeps its own literal list of the ids each `verify
    # --family F --suite S` reports; the registry must yield exactly those
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import plan

    for family, suite, expected, _ in plan.verify_pairs():
        name = str(diagrams.parse(family))
        assert [check_id for check_id, _ in checks_for(name, suite)] == expected, (family, suite)
    # and no selection of a registry label is empty
    for name in LABELS + LARGE:
        for suite in (*CHECKS, "all"):
            assert list(checks_for(name, suite)), (name, suite)


def test_verify_appendix_reports_corrupted_xy(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--family", "ddotB2", "--suite", "appendixA")
    assert code == 0 and out.startswith("    pass  ddotB2:appendixA")
    real = WeylGroup.xy_candidates
    monkeypatch.setattr(WeylGroup, "xy_candidates", lambda self: real(self)[::-1])
    code, out, _ = run(
        capsys, "verify", "--family", "ddotB2", "--suite", "appendixA", "--json"
    )
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "FAIL"
    assert "x(theta) = theta" in {f["relation"] for f in check["witness"]["failures"]}


def test_verify_presentation_reports_a_broken_identity(capsys, monkeypatch):
    # swapping the Theta0 and Phi0 images breaks the derived B2 braid
    # pattern, which the presentation suite checks along with the relations
    images = presentation.generator_dictionary("ddotB2").images
    theta0, phi0 = images["Theta0"], images["Phi0"]
    monkeypatch.setitem(images, "Theta0", phi0)
    monkeypatch.setitem(images, "Phi0", theta0)
    code, out, _ = run(
        capsys, "verify", "--family", "ddotB2", "--suite", "presentation", "--json"
    )
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["id"] == "ddotB2:presentation" and check["status"] == "FAIL"
    failed = {f["relation"] for f in check["witness"]["failures"]}
    assert "B2 pattern Theta0,ThetaPrime commute" in failed


@pytest.mark.parametrize("family", ["dddotA1star", "dddotC1star", "dddotC2star", "dddotC3star"])
def test_verify_presentation_checks_the_half_delta_central_image(capsys, monkeypatch, family):
    # X_delta sent to tau_delta instead of tau_{delta/2} in the half-delta
    # dictionary: Theta02 picks up a central tau_{delta/2}, so C maps to
    # tau_delta there, and the half-delta central record must fail
    argv = ("verify", "--family", family, "--suite", "presentation", "--json")
    assert run(capsys, *argv)[0] == 0
    # --family names the label as it prints: dddotC1star as dddotA1star
    gd = presentation.generator_dictionary(str(diagrams.parse(family)))
    half = gd.quotient(half=True)
    monkeypatch.setitem(half.images, "Theta02", half.images["Theta02"] * half.ctx.tau_delta(half.k))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "FAIL"
    failures = {f["relation"]: f for f in check["witness"]["failures"]}
    record = failures["C -> tau_{delta/2} (half-delta)"]
    assert record["lhs_nf"].endswith("k=1") and record["rhs_nf"].endswith("k=1/2")


def _swap_theta0_phi0(monkeypatch):
    images = presentation.generator_dictionary("ddotB2").images
    monkeypatch.setitem(images, "Theta0", images["Phi0"])
    monkeypatch.setitem(images, "Phi0", images["Theta0"])


def _torsion_tau_delta(monkeypatch):
    monkeypatch.setattr(dagroup.DaweylContext, "tau_delta", lambda self, k=1: self.identity())


def _nontrivial_kernel(monkeypatch):
    # tau_{delta/2} built as tau_delta: the second kernel generator of the
    # comparison no longer vanishes
    real = dagroup.DaweylContext.tau_delta
    monkeypatch.setattr(
        dagroup.DaweylContext, "tau_delta",
        lambda self, k=1: real(self, 1 if k == Fraction(1, 2) else k),
    )


def _wrong_b_image(monkeypatch):
    b = autoaction.canon("ddotB2", "b")
    images = {**b.gen_images, "s1": b.gen_images["s1"] * b.gen_images["tau_delta"]}
    wrong = autoaction.CanonMap("ddotB2", "ddotB2", False, images)
    monkeypatch.setitem(autoaction._CANON_CACHE, ("ddotB2", "b"), wrong)


def test_the_corrupted_b_image_is_applied_by_products(monkeypatch):
    # an s1 image with a tau_delta factor has no integer form: apply
    # multiplies the images, and the broken record is still seen
    _wrong_b_image(monkeypatch)
    wrong = autoaction.canon("ddotB2", "b")
    assert wrong.integer_form is None
    witness = cli._witness(autoaction.braid_identity_check("ddotB2"))
    assert "b b^-1 = 1 on s1" in [f["relation"] for f in witness["failures"]]


def test_the_corrupted_b_image_composes_by_apply(monkeypatch):
    # as the inner and as the outer factor, a map with no integer form
    # makes a composite with none, whose images are built by apply when
    # it is composed; the broken record is still seen
    _wrong_b_image(monkeypatch)
    wrong = autoaction.canon("ddotB2", "b")
    a = autoaction.canon("ddotB2", "a")
    real = autoaction.CanonMap.apply
    for outer, inner in ((a, wrong), (wrong, a)):
        applied = []
        monkeypatch.setattr(autoaction.CanonMap, "apply",
                            lambda self, g: applied.append(g) or real(self, g))
        composite = outer.compose(inner)
        monkeypatch.setattr(autoaction.CanonMap, "apply", real)
        assert applied == list(inner.gen_images.values())
        assert "gen_images" in vars(composite) and composite.integer_form is None
        assert composite.gen_images == {s: outer.apply(x) for s, x in inner.gen_images.items()}
    witness = cli._witness(autoaction.braid_identity_check("ddotB2"))
    assert "b b^-1 = 1 on s1" in [f["relation"] for f in witness["failures"]]


def _a_preserving_star_relations(monkeypatch):
    # b^-1 = e a e keeps the real a
    b_inv = autoaction.inverse_maps("b", "dddotC2")
    monkeypatch.setattr(autoaction, "inverse_maps", lambda kind, name: b_inv)
    monkeypatch.setattr(autoaction, "a_map", lambda name: autoaction.EndoMap(
        "id", name, name,
        {g: ((g, 1),) for g in presentation.generator_dictionary(name).presentation.generators},
    ))


def _swapped_xy(monkeypatch):
    real = WeylGroup.xy_candidates
    monkeypatch.setattr(WeylGroup, "xy_candidates", lambda self: real(self)[::-1])


def _wrong_u21(monkeypatch):
    monkeypatch.setattr(congruence, "U21", congruence.Mat2(1, 0, 2, 1))


def _flipped_table1_count(monkeypatch):
    monkeypatch.setitem(heckeparams.TABLE1, "ddotB2", 5)


# check name -> (label, suite, corruption, a record the corruption breaks)
CORRUPTIONS = {
    "presentation": ("ddotB2", "presentation", _swap_theta0_phi0,
                     "B2 pattern Theta0,ThetaPrime commute"),
    "bernstein": ("dddotC2", "bernstein", _torsion_tau_delta, "tau_delta non-torsion"),
    "a2n2-comparison": ("dddotC2star", "bernstein", _nontrivial_kernel,
                        "kernel generator ii trivial"),
    "auto": ("ddotB2", "auto", _wrong_b_image, "b b^-1 = 1 on s1"),
    "auto-cstar": ("dddotC2star", "auto", _a_preserving_star_relations,
                   "a preserves C = Theta02^2"),
    "appendixA": ("ddotB2", "appendixA", _swapped_xy, "x(theta) = theta"),
    "congruence": ("dddotA1", "congruence", _wrong_u21, "(u12 u21)^3 = -I"),
    "params": ("ddotB2", "params", _flipped_table1_count, "Table 1 generic count"),
}


@pytest.mark.parametrize("check", sorted({c for table in CHECKS.values() for c, _, _ in table}))
def test_verify_names_the_broken_record(capsys, monkeypatch, check):
    label, suite, corrupt, relation = CORRUPTIONS[check]
    argv = ("verify", "--family", label, "--suite", suite, "--json")
    assert run(capsys, *argv)[0] == 0
    corrupt(monkeypatch)
    (code, first, _), (_, second, _) = (run(capsys, *argv) for _ in range(2))
    assert code == 1
    (report,) = (c for c in json.loads(first)["checks"] if c["id"] == f"{label}:{check}")
    assert report["status"] == "FAIL"
    (failures,) = report["witness"].values()
    assert relation in [f["relation"] for f in failures]
    assert all(set(f) == {"relation", "lhs_nf", "rhs_nf"} for f in failures)
    mask = functools.partial(re.sub, r'"elapsed_ms": \d+', "")
    assert mask(first) == mask(second)


def test_bernstein_right_hand_sides_do_not_read_the_lattice_matrices(capsys, monkeypatch):
    # an xconj record's right-hand side tau_{s_i beta} is computed from
    # the finite Cartan matrix, and its left-hand side s_i tau_beta s_i by
    # the product, which reads s_i's matrix on nu(Q^v): a wrong matrix
    # there must fail the record, not move both sides alike.  The wrong
    # matrix goes into the element's own dict, so it holds whether or not
    # the element's lattice matrices were built before.
    argv = ("verify", "--family", "dddotB", "--rank", "5", "--suite", "bernstein", "--json")
    assert run(capsys, *argv)[0] == 0
    lab = diagrams.label("dddotB", 5)
    s1 = dagroup.context(diagrams.correspondence(lab)).wg.simples[0]
    identity = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    assert s1.qcheck_matrix != identity
    monkeypatch.setitem(s1.__dict__, "qcheck_matrix", identity)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    (report,) = (c for c in json.loads(out)["checks"] if c["id"] == "dddotB5:bernstein")
    assert report["status"] == "FAIL"
    assert any(f["relation"] == "xconj i=1" for f in report["witness"]["failures"])


def _flipped_family_count(monkeypatch):
    monkeypatch.setitem(heckeparams.TABLE1, "ddotB", 4)


def _flipped_table4_count(monkeypatch):
    row = heckeparams.TABLE4["Dn+1(2)"]
    monkeypatch.setitem(heckeparams.TABLE4, "Dn+1(2)", row._replace(count=3))


@pytest.mark.parametrize("corrupt,relation", [
    (_flipped_family_count, "Table 1 generic count"),
    (_flipped_table4_count, "Table 4 Dn+1(2) n=6 final count"),
])
def test_a_broken_rank_rule_names_the_label(capsys, monkeypatch, corrupt, relation):
    # a rule stated for general n fails at a rank outside the registry
    argv = ("verify", "--family", "ddotB", "--rank", "6", "--suite", "params", "--json")
    assert run(capsys, *argv)[0] == 0
    corrupt(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report["id"] == "ddotB6:params" and report["status"] == "FAIL"
    assert [f["relation"] for f in report["witness"]["failures"]] == [relation]


def _simply_laced(name):
    return dagroup.context(diagrams.correspondence(diagrams.parse(name))).wg.is_simply_laced()


def test_every_check_returns_named_records():
    for name in LABELS + LARGE:
        for check_id, run_check in checks_for(name, "all"):
            records = run_check()
            assert isinstance(records, list), check_id
            assert all(len(r) == 3 and isinstance(r[0], str) for r in records), check_id
            # only appendixA on a simply-laced label checks nothing
            skipped = check_id.endswith(":appendixA") and _simply_laced(name)
            assert bool(records) != skipped, check_id


_UNDER_O = """
import sys
from dawcox import cli
from dawcox.weyl import WeylGroup

if not sys.flags.optimize:
    sys.exit("expected to run under -O")
argv = ["verify", "--family", "ddotB2", "--suite", "appendixA", "--json"]
cli.main(argv)
WeylGroup.xy_candidates = lambda self: (self.id, self.id)
cli.main(argv)
"""


def test_appendix_a_checks_under_python_O():
    # asserts vanish under -O; the structural lemma must still be checked
    env = {**os.environ, "PYTHONPATH": str(Path(dawcox.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    good, bad = (json.loads(line) for line in proc.stdout.splitlines())
    assert [c["status"] for c in good["checks"]] == ["pass"]
    assert [c["status"] for c in bad["checks"]] == ["FAIL"]
    failed = {f["relation"] for f in bad["checks"][0]["witness"]["failures"]}
    assert "s_phi s_theta = y x" in failed


def test_verify_computes_xy_once_and_never_enumerates(capsys, monkeypatch):
    # fresh per-label caches for this test; monkeypatch restores the
    # process-wide ones afterwards
    for module, name in ((dagroup, "_context"), (presentation, "_generator_dictionary")):
        fresh = functools.cache(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, fresh)
    calls = {"enumerate": [], "longest_in_stabilizer": []}
    for method in calls:
        real = getattr(WeylGroup, method)

        def counting(self, *args, _real=real, _calls=calls[method]):
            _calls.append(self)
            return _real(self, *args)

        monkeypatch.setattr(WeylGroup, method, counting)
    # the presentation and the appendixA suites both read x, y of F4
    for suite in ("presentation", "appendixA"):
        code, _, _ = run(capsys, "verify", "--family", "ddotF4", "--suite", suite)
        assert code == 0
    assert len(calls["longest_in_stabilizer"]) == 1
    assert calls["enumerate"] == []


def _strip_elapsed(report):
    report.pop("elapsed_ms")
    for check in report["checks"]:
        check.pop("elapsed_ms")
    return report


def test_verify_report_does_not_depend_on_warm_caches(capsys):
    # ddotC3's e map crosses to ddotB3; dddotC2star is read in two quotients
    for family in ("ddotB2", "ddotC3", "dddotC2star"):
        argv = ("verify", "--family", family, "--suite", "all", "--json")
        first, second = (run(capsys, *argv) for _ in range(2))
        assert first[0] == second[0] == 0, family
        assert _strip_elapsed(json.loads(first[1])) == _strip_elapsed(json.loads(second[1]))


@pytest.mark.parametrize("family", ["dddotA2", "ddotB2"])
def test_verify_checks_that_c_is_central(capsys, monkeypatch, family):
    # C's word gains a T1, so C maps to tau_delta s_1, which does not
    # commute with T2: both the presentation and the auto suite name the
    # failed centrality relation
    pres = presentation.generator_dictionary(family).presentation
    monkeypatch.setattr(pres, "central_word", pres.central_word + (("T1", 1),))
    monkeypatch.setattr(autoaction, "_CANON_CACHE", {})  # keep no map built from it
    for suite, relation in (("presentation", "central [C,T2]"), ("auto", "a: central [C,T2]")):
        code, out, _ = run(capsys, "verify", "--family", family, "--suite", suite, "--json")
        assert code == 1
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "FAIL"
        assert relation in {f["relation"] for f in check["witness"]["failures"]}


# ---------------------------------------------------------------------
# The CLI contract on arbitrary input: exit code 0, 1 or 2, no traceback,
# and the same output for the same invocation.

FAMILIES = sorted(diagrams.FAMILIES)
GENERATORS = ["T1", "T2", "T3", "Theta01", "Theta02", "Theta03", "Theta0", "Phi0", "C"]

# "²" is a digit to str.isdigit that int() rejects; "٣" is a decimal
# digit that int() reads as 3
junk = st.text(alphabet="abcdAB0123²٣(),;' -", max_size=8)
# a real family name with a rank of digits and lookalikes, or with junk,
# appended; at most one decimal digit keeps any rank it spells below 10
tail = (st.text(alphabet="1²٣", min_size=1, max_size=2) | junk).filter(
    lambda text: sum(map(str.isdecimal, text)) <= 1
)
family = (
    st.sampled_from(FAMILIES) | st.sampled_from(LABELS) | junk
    | st.builds(str.__add__, st.sampled_from(FAMILIES), tail)
)
rank = st.none() | st.integers(0, 4)
entry = st.integers(-6, 6)
SL2 = [
    f"{a},{b};{c},{d}"
    for a in range(-6, 7) for b in range(-6, 7) for c in range(-6, 7) for d in range(-6, 7)
    if a * d - b * c == 1
]
# half the draws lie in SL(2, Z), so that the commands get past the
# determinant check
matrix = st.sampled_from(SL2) | (st.builds("{},{};{},{}".format, entry, entry, entry, entry) | junk)
# --matrix=VALUE and --matrix VALUE, which must parse the same
matrix_option = st.builds(
    lambda m, joined: [f"--matrix={m}"] if joined else ["--matrix", m], matrix, st.booleans()
)
word = st.lists(
    st.builds(str.__add__, st.sampled_from(GENERATORS + [""]), st.sampled_from(["", "'"])),
    max_size=6,
).map(" ".join)


def _with_rank(argv, r):
    return argv + ["--rank", str(r)] if r is not None else argv


invocation = st.one_of(
    st.builds(
        lambda f, r, dot: _with_rank(["diagram", "--family", f], r) + (["--dot"] if dot else []),
        family, rank, st.booleans(),
    ),
    st.builds(
        lambda s, n: ["params", "--system", s] + ([] if n is None else ["--n", str(n)]),
        st.sampled_from(["A1(1)", "Cn(1)", "(Cn^,Cn)", "A2n(2)", "Dn+1(2)", "E6(2)"]) | junk,
        rank,
    ),
    st.builds(lambda f, r, w: _with_rank(["nf", "--family", f, "--word", w], r), family, rank, word),
    st.builds(
        lambda m, lv: ["decompose", *m, "--level", str(lv)],
        matrix_option, st.sampled_from([1, 2, 3]) | st.integers(0, 4),
    ),
    st.builds(
        lambda m, f: ["involution", *m, "--family", f],
        matrix_option, st.sampled_from(["dddotA1", "ddotB2", "ddotG2", "dddotC1star"]) | junk,
    ),
    st.builds(
        lambda f, s, js: ["verify", "--family", f, "--suite", s] + (["--json"] if js else []),
        st.sampled_from(LABELS) | junk,
        st.sampled_from([*CHECKS, "all"]) | junk,
        st.booleans(),
    ),
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # verify reports its own running time; everything else must repeat exactly
    return code, re.sub(r'\d+ ms|"elapsed_ms": \d+', "ms", out.getvalue()), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(invocation)
def test_cli_contract_on_arbitrary_input(argv):
    code, out, err = _call(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    assert _call(argv) == (code, out, err), argv
