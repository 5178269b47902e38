"""Batch command-line interface.

Subcommands: diagram, params, nf, decompose, involution, verify.
Exit codes: 0 success, 1 failed checks, 2 bad arguments.  All output is
deterministic; --json switches to machine-readable reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import autoaction, congruence, dagroup, diagrams, heckeparams, presentation
from .rootsys import UnknownTypeError
from .weyl import WeylElement

# The check registry: every claim of the paper that `verify` checks.
# `verify --suite all` runs every check of LABELS; --large adds the E7/E8
# labels.  CHECKS maps each suite to its checks (name, applies(label),
# run(label) -> [(name, lhs, rhs), ...]); a check passes when lhs == rhs
# for each of its records, and its id is "<label name>:<name>".  The
# congruence suite checks the SL(2,Z) identities at the label's level,
# the params suite its rows of the Hecke parameter tables.
LABELS = (
    "dddotA1", "dddotA2", "dddotA3", "dddotA4", "dddotA1star",
    "dddotB3", "dddotB4", "dddotC2", "dddotC3",
    "dddotC1star", "dddotC2star", "dddotC3star",
    "dddotD4", "dddotD5", "dddotE6", "dddotF4", "dddotG2",
    "ddotB2", "ddotB3", "ddotB4", "ddotC3", "ddotC4", "ddotF4", "ddotG2",
)
LARGE = ("dddotE7", "dddotE8")


def _weyl_group(lab):
    return dagroup.context(diagrams.correspondence(lab)).wg


def _appendix_a(lab):
    """The x, y and primed-reflection identities; none for a
    simply-laced label, which has no x, y."""
    wg = _weyl_group(lab)
    return [] if wg.is_simply_laced() else wg.xy_identities()


def _checks_nothing_by_design(name: str, check_id: str) -> bool:
    """appendixA on a simply-laced label, the one check that may return
    no records; verify reports it skipped."""
    return check_id == f"{name}:appendixA" and _weyl_group(diagrams.parse(name)).is_simply_laced()


def _every(lab) -> bool:
    return True


def _star(lab) -> bool:
    return lab.is_star


def _plain(lab) -> bool:
    return not lab.is_star


CHECKS = {
    "presentation": (("presentation", _every, presentation.verify_presentation),),
    "bernstein": (
        ("bernstein", _every,
         lambda lab: dagroup.verify_bernstein_relations(diagrams.correspondence(lab))),
        ("a2n2-comparison", _star, lambda lab: dagroup.a2n2_comparison(lab.rank)),
    ),
    "auto": (
        ("auto", _plain, lambda lab: autoaction.verify_automorphisms(str(lab))),
        ("auto-cstar", _star, lambda lab: autoaction.cstar_restriction_check(str(lab))),
    ),
    "appendixA": (("appendixA", _every, _appendix_a),),
    "congruence": (
        ("congruence", _every,
         lambda lab: congruence.level_identities(diagrams.correspondence(lab).twist)),
    ),
    "params": (("params", _every, heckeparams.verify_params),),
}


def checks_for(name: str, suite: str):
    """The (check id, run) pairs of one label name in one suite, or in
    every suite for "all", in registry order."""
    lab = diagrams.parse(name)
    for key, table in CHECKS.items():
        if suite in (key, "all"):
            for check, applies, run in table:
                if applies(lab):
                    yield f"{name}:{check}", functools.partial(run, lab)


def _nf(value):
    """A record side as a witness prints it: the normal form of a group
    element, the matrix of a Weyl element, anything else as it is."""
    if isinstance(value, WeylElement):
        return value.matrix
    return value.describe() if hasattr(value, "describe") else value


def _witness(records) -> dict | None:
    """None when every record holds; otherwise the records that differ,
    with their two sides."""
    failures = [
        {"relation": name, "lhs_nf": _nf(lhs), "rhs_nf": _nf(rhs)}
        for name, lhs, rhs in records
        if lhs != rhs
    ]
    return {"failures": failures} if failures else None


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _label(args) -> diagrams.DoubleAffineLabel:
    """The label of --family and --rank: a family name with its rank, or
    with no --rank a label name such as dddotC2, which parse reads."""
    if args.rank is None and args.family not in diagrams.FAMILIES:
        return diagrams.parse(args.family)
    return diagrams.label(args.family, args.rank)


def cmd_diagram(args) -> int:
    try:
        lab = _label(args)
        d = diagrams.build_diagram(lab)
    except UnknownTypeError as exc:
        return _fail(str(exc))
    if args.dot:
        sys.stdout.write(diagrams.export_dot(d))
    else:
        print(diagrams.to_json(d))
    return 0


def cmd_params(args) -> int:
    try:
        rule = heckeparams.specialize(args.system, args.n)
    except UnknownTypeError as exc:
        return _fail(str(exc))
    payload = {
        "system": rule.system,
        "algebra": rule.algebra,
        "generic_count": rule.generic_count,
        "identifications": [list(p) for p in rule.identifications],
        "final_count": rule.final_count,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_nf(args) -> int:
    try:
        lab = _label(args)
        gd = presentation.generator_dictionary(lab)
    except UnknownTypeError as exc:
        return _fail(str(exc))
    word = []
    for tok in args.word.split():
        # one trailing prime inverts; "T1''" names no generator
        name = tok[:-1] if tok.endswith("'") else tok
        e = -1 if tok.endswith("'") else 1
        if name != presentation.CENTRAL and name not in gd.presentation.generators:
            return _fail(f"unknown generator {tok!r}")
        word.append((name, e))
    el = gd.evaluate(tuple(word))
    print(el.describe())
    return 0


def _matrix(text: str) -> congruence.Mat2:
    """A determinant-one matrix in the CLI syntax; ValueError otherwise."""
    m = congruence.parse_matrix(text)
    if m.det() != 1:
        raise ValueError(f"determinant must be 1, got {m.det()}")
    return m


# decompose prints one token per letter: a longer word is refused.
MAX_PRINTED_LETTERS = 10**6


def cmd_decompose(args) -> int:
    try:
        m = _matrix(args.matrix)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        # decompose raises ValueError unless its word evaluates to m
        word = congruence.decompose(m, args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    letters = sum(abs(e) for _, e in word)
    if letters > MAX_PRINTED_LETTERS:
        print(f"error: the word has {letters} letters, more than "
              f"{MAX_PRINTED_LETTERS} to print", file=sys.stderr)
        return 1
    text = congruence.word_to_text(word)
    print(text if text else "(empty word)")
    print("round-trip: ok")
    return 0


def cmd_involution(args) -> int:
    try:
        m = _matrix(args.matrix)
        lab = _label(args)
    except (ValueError, UnknownTypeError) as exc:
        return _fail(str(exc))
    try:
        r = diagrams.correspondence(lab).twist
        out = autoaction.basic_involution_check(m, r, str(lab))
    except (congruence.NotInGroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"member: {'yes' if out['upsilon_member'] else 'no'}, "
        f"involution: {'yes' if out['involution'] else 'no'}"
    )
    if args.json:
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    if args.rank is not None and args.family is None:
        return _fail("--rank needs --family")
    if args.family is not None:
        try:
            names = [str(_label(args))]
        except UnknownTypeError as exc:
            return _fail(str(exc))
    else:
        names = LABELS + LARGE if args.large else LABELS
    checks = []
    t0 = time.monotonic()
    any_fail = False
    for name in names:
        for check_id, fn in checks_for(name, args.suite):
            start = time.monotonic()
            try:
                records = fn()
                witness = _witness(records)
            except Exception as exc:  # surface, don't swallow
                records, witness = None, {"exception": repr(exc)}
            if records == [] and not _checks_nothing_by_design(name, check_id):
                witness = {"empty": "the check returned no records"}
            status = "FAIL" if witness else "skipped (simply-laced)" if records == [] else "pass"
            check = {
                "id": check_id,
                "status": status,
                "elapsed_ms": int((time.monotonic() - start) * 1000),
            }
            if witness:
                check["witness"] = witness
                any_fail = True
            checks.append(check)
    report = {
        "suite": args.suite,
        "checks": checks,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for c in checks:
            print(f"{c['status']:>8}  {c['id']}  ({c['elapsed_ms']} ms)")
        print(f"total: {len(checks)} checks, {report['elapsed_ms']} ms")
    return 1 if any_fail else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(prog="dawcox")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagram", help="build and print a double affine Coxeter diagram")
    d.add_argument("--family", required=True)
    d.add_argument("--rank", type=int)
    d.add_argument("--dot", action="store_true")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_diagram)

    pa = sub.add_parser("params", help="Hecke parameter counts and specializations")
    pa.add_argument("--system", required=True)
    pa.add_argument("--n", type=int)
    pa.set_defaults(fn=cmd_params)

    nf = sub.add_parser("nf", help="normal form of a generator word")
    nf.add_argument("--family", required=True)
    nf.add_argument("--rank", type=int)
    nf.add_argument("--word", required=True)
    nf.set_defaults(fn=cmd_nf)

    de = sub.add_parser("decompose", help="decompose a Gamma_1(r) matrix")
    de.add_argument("--matrix", required=True)
    de.add_argument("--level", type=int, default=1, choices=(1, 2, 3))
    de.set_defaults(fn=cmd_decompose)

    inv = sub.add_parser("involution", help="basic involution verdict for a matrix")
    inv.add_argument("--matrix", required=True)
    inv.add_argument("--family", required=True)
    inv.add_argument("--rank", type=int)
    inv.add_argument("--json", action="store_true")
    inv.set_defaults(fn=cmd_involution)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--family")
    v.add_argument("--rank", type=int)
    v.add_argument(
        "--suite",
        default="all",
        choices=(*CHECKS, "all"),
    )
    v.add_argument("--large", action="store_true",
                   help="include the E7/E8 labels")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)

    return p


def _attach_matrix_values(argv: list[str]) -> list[str]:
    """`--matrix -1,1;-6,5` as `--matrix=-1,1;-6,5`, and the same for an
    abbreviation such as `--mat`: argparse would take a value that starts
    with a minus sign for an option and stop."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and "--matrix".startswith(prev) and re.match(r"-\d", tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_matrix_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
