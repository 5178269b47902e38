"""The dawcox benchmark: one workload, run for a fixed time, as rounds in
fresh child processes, one at a time.

    python3 bench/run.py --workload {verify_matrix,involutions,oracle}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics (setup_s, wall_s,
total_s, peak_rss_mb), each the median over the run's rounds.  With
--trace 1 it alternates traced and untraced rounds and prints the
per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the run's samples, host
and git revision go to bench/out/<workload>-trace<0|1>.json.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Import and set-up are short; a run sets up at least this many times so
# that setup_s is a median even when each round is long.
SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics read from the traced rounds' span summaries.
SPAN_CALLS = (
    "dagroup.mul", "dagroup.pow", "dagroup.inv", "dagroup.act", "dagroup.context",
    "dagroup.walk", "weyl.mat_mul", "weyl.mat_inv", "weyl.reduced_word",
    "weyl.enumerate", "rootsys.build", "rootsys.lattice_coords", "rootsys.bilinear",
    "presentation.build", "presentation.evaluate", "autoaction.apply_word",
    "autoaction.canon_apply", "autoaction.canon_compose", "autoaction.canon",
    "congruence.decompose",
)
SPAN_SELF = (
    "dagroup.mul", "dagroup.act", "dagroup.context", "dagroup.walk", "dagroup.bernstein",
    "weyl.mat_mul", "weyl.mat_inv", "weyl.reduced_word", "weyl.enumerate",
    "rootsys.build", "rootsys.lattice_coords", "rootsys.bilinear",
    "presentation.build", "presentation.psi_words", "presentation.evaluate",
    "autoaction.apply_word", "autoaction.canon_apply", "autoaction.canon_compose",
    "congruence.decompose", "diagrams.build_diagram",
)
COUNTS = (
    "weyl.reduced_word.letters", "weyl.enumerate.elements",
    "presentation.evaluate.letters", "autoaction.braid_letters",
)
CLI_SUITES = ("presentation", "bernstein", "a2n2-comparison", "auto", "auto-cstar", "appendixA")


def metric_key(label: str) -> str:
    return label.replace("(", "_").replace(")", "_")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"{s}.calls", "count") for s in SPAN_CALLS]
    out += [(f"{s}.self_s", "s") for s in SPAN_SELF]
    out += [(c, "count") for c in COUNTS]
    out.append(("autoaction.canon.hit_ratio", "ratio"))
    out += [(f"dagroup.oracle.{metric_key(lab)}_s", "s") for lab in plan.ORACLE_LABELS]
    labels = [lab for lab, *_ in plan.INVOLUTION_LABELS] + [plan.CSTAR_LABEL[0]]
    out += [(f"autoaction.involution.{lab}_s", "s") for lab in labels]
    out += [(f"cli.{suite}_s", "s") for suite in CLI_SUITES]
    out += [("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s")]
    return out


# ---------------------------------------------------------------------


def run_child(job: bytes, traced: bool = False) -> dict:
    """Run one child to its end; the parent times it from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        stdout, _ = proc.communicate(job)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    total_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: a benchmark round exited with code {proc.returncode}")
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    return {**result, "total_s": total_s, "traced": traced}


def git_revision() -> str:
    """HEAD of the checkout's .git, read without starting git; "unknown"
    where the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(full: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in full + setups),
        "wall_s": _median(full, "wall_s"),
        "total_s": _median(full, "total_s"),
        "peak_rss_mb": _median(full, "peak_rss_mb"),
    }


def per_layer(workload: str, traced: list, untraced: list) -> dict:
    """Counts and self times from the traced rounds; per-label and
    per-suite seconds and the untraced wall time from the untraced
    rounds.  A metric the workload does not exercise reads 0."""
    values = {name: 0 for name, _ in per_layer_names()}

    def span_median(span, field):
        return statistics.median(r["spans"].get(span, {}).get(field, 0) for r in traced)

    for s in SPAN_CALLS:
        values[f"{s}.calls"] = span_median(s, "calls")
    for s in SPAN_SELF:
        values[f"{s}.self_s"] = span_median(s, "self_s")
    for c in COUNTS:
        values[c] = statistics.median(r["counts"].get(c, 0) for r in traced)
    calls = span_median("autoaction.canon", "calls")
    if calls:
        built = statistics.median(r["counts"]["autoaction.canon.built"] for r in traced)
        values["autoaction.canon.hit_ratio"] = (calls - built) / calls
    prefix = {"oracle": "dagroup.oracle.", "involutions": "autoaction.involution."}
    for lab in untraced[0]["labels"]:
        values[f"{prefix[workload]}{metric_key(lab)}_s"] = statistics.median(
            r["labels"][lab] for r in untraced
        )
    if workload == "verify_matrix":
        for suite in CLI_SUITES:
            values[f"cli.{suite}_s"] = statistics.median(r["suites"][suite] for r in untraced)
    values["trace.traced_wall_s"] = _median(traced, "wall_s")
    values["trace.untraced_wall_s"] = _median(untraced, "wall_s")
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        # dawcox checks mathematics with assert statements, which -O drops.
        print("error: run without -O; dawcox's checks are assert statements", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "dawcox" / "__init__.py").is_file():
        print(f"error: no dawcox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    inputs = plan.make_inputs(args.workload, args.seed)
    ops = plan.operations(args.workload, inputs)
    spans_file = str(OUT / f"spans-{args.workload}.json")

    def job(trace=False, setup_only=False):
        return json.dumps({
            "workload": args.workload, "inputs": inputs, "trace": trace,
            "setup_only": setup_only, "spans": spans_file,
        }).encode()

    # Rounds of one run have the same inputs, so a round whose outputs
    # equal an earlier round's has the same verdict.  Outputs are checked
    # as each round ends and then dropped.
    check = checks.CHECKS[args.workload]
    verdicts: dict = {}
    problems: set = set()

    def round_(trace=False):
        r = run_child(job(trace=trace), traced=trace)
        outputs = r.pop("outputs")
        key = json.dumps(outputs, sort_keys=True)
        if key not in verdicts:
            verdicts[key] = check(inputs, outputs)
        problems.update(verdicts[key])
        if args.workload == "verify_matrix":
            r["suites"] = checks.suite_seconds(outputs)
        return r

    deadline = time.perf_counter() + args.seconds
    traced, untraced, setups = [], [], []
    while not untraced or time.perf_counter() < deadline:
        if args.trace:
            traced.append(round_(trace=True))
        untraced.append(round_())
    while not args.trace and len(untraced) + len(setups) < SETUP_SAMPLES:
        setups.append(run_child(job(setup_only=True)))
    for line in sorted(problems):
        print(f"INCORRECT: {line}", file=sys.stderr)

    rounds = traced + untraced
    if args.trace:
        values = per_layer(args.workload, traced, untraced)
        units = dict(per_layer_names())
    else:
        values = end_to_end(untraced, setups)
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": ops * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(), "result": result,
        "rounds": [
            {k: r[k] for k in ("traced", "setup_s", "wall_s", "total_s", "peak_rss_mb", "labels")}
            for r in rounds
        ] + [{"setup_s": r["setup_s"], "setup_only": True} for r in setups],
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
