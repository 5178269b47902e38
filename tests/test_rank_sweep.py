"""The rank sweep: every family at every admissible rank, not only the
registry labels.  The paper states its claims for general n, so a rule
that holds only at small rank fails here with the family and rank named.

`params` runs at every rank <= 12 (82 labels) and every suite at every
rank <= 8 (54 labels).  On a 2-CPU host with Python 3.11.7 the first
takes about 0.2 s and the second about 3.0 s."""

import pytest

from dawcox import diagrams
from dawcox.cli import main


def _sweep(most):
    return [
        (family, n)
        for family, row in diagrams.FAMILIES.items()
        for n in range(1, most + 1)
        if row.admits(n)
    ]


def _verify(capsys, family, n, suite) -> tuple[int, str]:
    code = main(["verify", "--family", family, "--rank", str(n), "--suite", suite])
    return code, capsys.readouterr().out


def test_sweep_sizes():
    assert (len(_sweep(12)), len(_sweep(8))) == (82, 54)


@pytest.mark.parametrize("family,n", _sweep(12))
def test_params_at_every_rank(capsys, family, n):
    code, out = _verify(capsys, family, n, "params")
    assert code == 0, out


@pytest.mark.parametrize("family,n", _sweep(8))
def test_every_suite_at_every_rank(capsys, family, n):
    code, out = _verify(capsys, family, n, "all")
    assert code == 0, out
