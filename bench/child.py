"""One round of one workload, in a fresh interpreter.

Reads a job {"workload", "inputs", "trace", "setup_only", "spans"} as
JSON on standard input and prints one JSON result line.  A fresh process
per round matters: autoaction keeps module-global caches, and a second
round in the same process would measure warm caches that no user of the
`dawcox` command gets.

Timing: `setup_s` runs from before `import dawcox` to the end of the
workload's set-up, `wall_s` is the timed phase after it.  Converting the
JSON inputs comes before both; serializing the outputs for the parent's
checks comes after both.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _str(v) -> list:
    return [str(x) for x in v]


def _nf(g) -> list:
    return [[_str(row) for row in g.w.matrix], _str(g.mu), _str(g.beta), str(g.k)]


def _attempt(fn, *args):
    """Run one operation; an exception is a failed operation, not a
    crash of the round."""
    try:
        return fn(*args)
    except Exception as exc:  # recorded and counted by the parent
        return {"error": repr(exc)}


def peak_rss_mb() -> float:
    """This process's peak resident size: VmHWM, which exec resets.
    (ru_maxrss is not used: it keeps the parent's size from before the
    exec.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


@contextlib.contextmanager
def _no_span(name):
    yield


# ---------------------------------------------------------------------
# verify_matrix
# ---------------------------------------------------------------------


def setup_verify(inputs):
    return None


def run_verify(state, inputs, span, labels):
    from dawcox import cli

    def invoke(family, suite):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--family", family, "--suite", suite, "--json"])
        return {"exit": code, "report": buf.getvalue()}

    outputs = []
    for family, suite, _, _ in inputs["pairs"]:
        with span(f"verify {family} {suite}"):
            outputs.append(_attempt(invoke, family, suite))
    return outputs


def finish_verify(state, inputs, outputs):
    return outputs


# ---------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------


def setup_involutions(inputs):
    from dawcox import autoaction

    for label in inputs["setup_labels"]:
        for kind in ("a", "b", "e", "a_inv", "b_inv", "id"):
            autoaction.canon(label, kind)
    return None


def run_involutions(state, inputs, span, labels):
    from dawcox import autoaction
    from dawcox.congruence import Mat2

    def check(item):
        m = Mat2(*item["matrix"])
        if item["kind"] == "cstar":
            out = autoaction.basic_involution_check_cstar(m, item["r"])
        else:
            out = autoaction.basic_involution_check(m, item["r"], item["label"])
        return {"member": out["upsilon_member"], "involution": out["involution"]}

    outputs = []
    for item in inputs["items"]:
        t = time.perf_counter()
        with span(f"involution {item['label']}"):
            outputs.append(_attempt(check, item))
        labels[item["label"]] = labels.get(item["label"], 0.0) + time.perf_counter() - t
    return outputs


def finish_involutions(state, inputs, outputs):
    """Attach the word each check lifted: decompose for Gamma_1(r),
    decompose_gamma12_prime for the starred batch."""
    from dawcox import congruence
    from dawcox.congruence import Mat2

    for item, out in zip(inputs["items"], outputs):
        if "error" not in out:
            m = Mat2(*item["matrix"])
            if item["kind"] == "cstar":
                word = congruence.decompose_gamma12_prime(m)
            else:
                word = congruence.decompose(m, item["r"])
            out["word"] = [list(x) for x in word]
    return outputs


# ---------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------


def setup_oracle(inputs):
    from dawcox import dagroup

    state = []
    for lab in inputs["labels"]:
        ctx = dagroup.context(lab["label"])
        gens = {sym: ctx.generator(sym) for sym in lab["symbols"]}
        state.append((ctx, gens))
    return state


def run_oracle(state, inputs, span, labels):
    from dawcox.dagroup import product

    outputs = []
    for lab, (ctx, gens) in zip(inputs["labels"], state):
        t = time.perf_counter()
        points = lab["points"]
        with span(f"oracle {lab['label']}"):
            out = {
                "gen_act": {s: [g.act(p) for p in points] for s, g in gens.items()},
                "gen_inv_act": {s: [g.inv().act(p) for p in points] for s, g in gens.items()},
                "triples": [],
            }

            def triple(words):
                g1, g2, g3 = (product(ctx, (gens[s] ** e for s, e in w)) for w in words)
                g12 = g1 * g2
                return {
                    "act12": [g12.act(p) for p in points],
                    "act1_2": [g1.act(g2.act(p)) for p in points],
                    "assoc": (g12 * g3, g1 * (g2 * g3)),
                    "unit": g1 * g1.inv(),
                }

            for words in lab["triples"]:
                out["triples"].append(_attempt(triple, words))
        labels[lab["label"]] = time.perf_counter() - t
        outputs.append(out)
    return outputs


def finish_oracle(state, inputs, outputs):
    """Serialize the results and attach each label's root-system data
    (Gram matrix, alpha_0, M basis) for the parent's own action."""
    for (ctx, _), out in zip(state, outputs):
        rs = ctx.rs
        out["data"] = {
            "n": rs.n,
            "gram": [_str(row) for row in rs.gram],
            "alpha0": _str(rs.alpha0),
            "m_basis": [_str(v) for v in rs.m_basis()],
        }
        for key in ("gen_act", "gen_inv_act"):
            out[key] = {s: [_str(v) for v in vs] for s, vs in out[key].items()}
        for res in out["triples"]:
            if "error" not in res:
                res["act12"] = [_str(v) for v in res["act12"]]
                res["act1_2"] = [_str(v) for v in res["act1_2"]]
                res["assoc"] = [_nf(g) for g in res["assoc"]]
                res["unit"] = _nf(res["unit"])
    return outputs


def _oracle_points(inputs):
    for lab in inputs["labels"]:
        lab["points"] = [tuple(Fraction(x) for x in p) for p in lab["points"]]


WORKLOADS = {
    "verify_matrix": (setup_verify, run_verify, finish_verify),
    "involutions": (setup_involutions, run_involutions, finish_involutions),
    "oracle": (setup_oracle, run_oracle, finish_oracle),
}


def main() -> int:
    if sys.flags.optimize:
        print("error: the checks inside dawcox are asserts; run without -O", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    workload, inputs = job["workload"], job["inputs"]
    setup, run, finish = WORKLOADS[workload]
    if workload == "oracle":
        _oracle_points(inputs)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import dawcox.cli  # noqa: F401  (imports every module)

    tracer = None
    if job["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
        from dawcox import autoaction

        canon_built = len(autoaction._CANON_CACHE)
    state = setup(inputs)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not job["setup_only"]:
        labels: dict = {}
        span = tracer.span if tracer else _no_span
        t1 = time.perf_counter()
        outputs = run(state, inputs, span, labels)
        result["wall_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            uninstall()  # the calls finish() makes for the checks are not traced
        result["labels"] = labels
        result["outputs"] = finish(state, inputs, outputs)
        result["failed"] = _failures(workload, outputs)
    if tracer:
        result["spans"] = tracer.summary()
        result["counts"] = tracer.counts
        result["counts"]["autoaction.canon.built"] = len(autoaction._CANON_CACHE) - canon_built
        tracer.dump(job["spans"])
    print(json.dumps(result))
    return 0


def _failures(workload, outputs) -> int:
    if workload == "oracle":
        return sum("error" in res for out in outputs for res in out["triples"])
    return sum("error" in out for out in outputs)


if __name__ == "__main__":
    sys.exit(main())
