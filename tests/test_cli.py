import json
import os
import subprocess
import sys
from pathlib import Path

import dawcox
from dawcox.cli import main
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


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--family", "dddotZ", "--rank", "1")
    assert code == 2


def test_verify_bernstein_instance(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "ddotG2", "--suite", "bernstein", "--json"
    )
    assert code == 0


def test_decompose_determinant_not_one(capsys):
    code, out, err = run(capsys, "decompose", "--matrix", "2,0;0,1")
    assert code == 2 and out == ""
    assert err.startswith("error: determinant must be 1") and "Traceback" not in err


def test_verify_selection_without_checks(capsys):
    # the auto suite has no check for a presentation-only family
    code, out, err = run(capsys, "verify", "--family", "dddotE6", "--suite", "auto")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no check" in err


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
    assert "x(theta) = theta" in check["witness"]["failures"]


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
    assert "s_phi s_theta = y x" in bad["checks"][0]["witness"]["failures"]
