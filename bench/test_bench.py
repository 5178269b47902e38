"""Smoke tests of the benchmark: every workload runs a short round through
the real child process, its checks accept the outputs, and each check
rejects a deliberately corrupted output.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import plan
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def child_round(workload, inputs, trace=False, spans=None):
    job = {"workload": workload, "inputs": inputs, "trace": trace,
           "setup_only": False, "spans": str(spans)}
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------
# inputs


def test_inputs_repeat_per_seed_and_differ_between_seeds():
    for workload in plan.WORKLOADS:
        assert plan.make_inputs(workload, 7) == plan.make_inputs(workload, 7)
    for workload in ("involutions", "oracle"):
        assert plan.make_inputs(workload, 7) != plan.make_inputs(workload, 8)


def test_involution_members_are_distinct_members_of_the_listed_lengths():
    for seed in range(20):
        items = plan.make_inputs("involutions", seed)["items"]
        for label, r, _, lengths in plan.INVOLUTION_LABELS:
            members = [tuple(i["matrix"]) for i in items
                       if i["label"] == label and i["kind"] == "member"]
            assert len(set(members)) == len(members)
            assert [plan.greedy_length(m, r) for m in members] == list(lengths)
            assert all(checks.in_upsilon1(m, r) for m in members)
        cstar = [tuple(i["matrix"]) for i in items if i["kind"] == "cstar"]
        assert sorted(cstar) == sorted(plan.upsilon_prime_pool(plan.CSTAR_LABEL[2]))
        assert all(checks.in_upsilon1_prime(m) for m in cstar)


def test_verify_list_is_the_full_large_matrix():
    pairs = plan.verify_pairs()
    ids = [i for _, _, expected, _ in pairs for i in expected]
    assert len(pairs) == 83 and len(ids) == 87
    assert [p[0] for p in pairs][-2:] == ["dddotE7", "dddotE8"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)


# ---------------------------------------------------------------------
# one short round per workload, and a corrupted output for each


def test_verify_matrix_round_and_corruptions():
    families = [f for f in plan.VERIFY_FAMILIES if f[0] in ("dddotA1", "dddotC2", "dddotC1star")]
    inputs = {"pairs": plan.verify_pairs(families)}
    outputs = child_round("verify_matrix", inputs)["outputs"]
    assert checks.check_verify(inputs, outputs) == []
    assert set(checks.suite_seconds(outputs)) == set(run.CLI_SUITES)

    def corrupted(edit):
        bad = copy.deepcopy(outputs)
        edit(bad)
        return checks.check_verify(inputs, bad)

    def fail_one(bad):
        report = json.loads(bad[0]["report"])
        report["checks"][0]["status"] = "FAIL"
        bad[0]["report"] = json.dumps(report)

    def drop_one(bad):
        report = json.loads(bad[1]["report"])
        report["checks"] = []
        bad[1]["report"] = json.dumps(report)

    def unskip(bad):  # dddotA1 is simply laced: appendixA must be skipped
        report = json.loads(bad[3]["report"])
        report["checks"][0]["status"] = "pass"
        bad[3]["report"] = json.dumps(report)

    def exit_one(bad):
        bad[2]["exit"] = 1

    for edit in (fail_one, drop_one, unskip, exit_one):
        assert corrupted(edit), edit.__name__


def test_involutions_round_and_corruptions():
    full = plan.make_inputs("involutions", 3)
    firsts, seen = [], set()
    for item in full["items"]:
        if (item["label"], item["kind"]) not in seen and item["label"] != "dddotD4":
            seen.add((item["label"], item["kind"]))
            firsts.append(item)
    inputs = {"items": firsts, "setup_labels": full["setup_labels"]}
    outputs = child_round("involutions", inputs)["outputs"]
    assert checks.check_involutions(inputs, outputs) == []

    def corrupted(i, key, value):
        bad = copy.deepcopy(outputs)
        bad[i][key] = value
        return checks.check_involutions(inputs, bad)

    member = next(i for i, it in enumerate(firsts) if it["kind"] == "member")
    control = next(i for i, it in enumerate(firsts) if it["kind"] == "control")
    cstar = next(i for i, it in enumerate(firsts) if it["kind"] == "cstar")
    assert corrupted(member, "involution", False)
    assert corrupted(member, "member", False)
    assert corrupted(control, "involution", True)
    assert corrupted(cstar, "involution", False)
    # A wrong matrix: the word of another input.
    assert corrupted(member, "word", outputs[control]["word"])


def test_oracle_round_and_corruptions():
    full = plan.make_inputs("oracle", 5)
    labels = [dict(lab, triples=lab["triples"][:4]) for lab in full["labels"][:4]]
    inputs = {"labels": labels}
    outputs = child_round("oracle", inputs)["outputs"]
    assert checks.check_oracle(inputs, outputs) == []

    def corrupted(edit):
        bad = copy.deepcopy(outputs)
        edit(bad[2])
        return checks.check_oracle(inputs, bad)

    def swap_product(out):  # (g1 g2) replaced by another product
        t0, t1 = out["triples"][0], out["triples"][1]
        t0["act12"], t1["act12"] = t1["act12"], t0["act12"]

    def swap_assoc(out):
        out["triples"][0]["assoc"][0] = out["triples"][1]["assoc"][0]

    def wrong_matrix(out):  # the Weyl part of g g^-1 is not the identity
        w = out["triples"][0]["unit"][0]
        w[0], w[1] = w[1], w[0]

    def wrong_generator(out):
        p = out["gen_act"]["s1"][0]
        p[0] = str(-int(p[0].split("/")[0]) - 1)

    for edit in (swap_product, swap_assoc, wrong_matrix, wrong_generator):
        assert corrupted(edit), edit.__name__


# ---------------------------------------------------------------------
# tracing


def test_traced_round_counts_and_spans(tmp_path):
    full = plan.make_inputs("oracle", 5)
    inputs = {"labels": [dict(lab, triples=lab["triples"][:4]) for lab in full["labels"][:2]]}
    spans = tmp_path / "spans.json"
    plain = child_round("oracle", inputs)
    traced = child_round("oracle", inputs, trace=True, spans=spans)
    assert traced["outputs"] == plain["outputs"]
    assert traced["spans"]["dagroup.mul"]["calls"] > 0
    assert traced["spans"]["weyl.mat_mul"]["calls"] >= traced["spans"]["dagroup.mul"]["calls"]
    dump = json.loads(spans.read_text())
    assert len(dump["spans"]) == sum(s["calls"] for s in traced["spans"].values())
    again = child_round("oracle", inputs, trace=True, spans=spans)
    assert {k: v["calls"] for k, v in again["spans"].items()} == {
        k: v["calls"] for k, v in traced["spans"].items()
    }


def test_wrappers_return_what_the_program_returns():
    sys.path.insert(0, str(ROOT / "src"))
    from dawcox import dagroup, presentation

    import spans

    def sample():
        ctx = dagroup.context("C2(1)")
        g = dagroup.evaluate(ctx, [("s0", 1), ("lam_A1", -1), ("tau_a2", 3), ("s2", 1)])
        point = tuple(Fraction(i + 1, 2) for i in range(ctx.rs.dim))
        return g, g.inv(), g.act(point), presentation.verify_presentation("dddotA2")

    before = sample()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        during = sample()
    finally:
        uninstall()
    assert during == before
    assert tracer.summary()["dagroup.mul"]["calls"] > 0
    assert sample() == before
    assert not hasattr(dagroup.DaweylElement.__mul__, "__wrapped__")
    assert not hasattr(dagroup.context, "__wrapped__")


# ---------------------------------------------------------------------
# the command


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)


def test_refuses_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert "-O" in out.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
