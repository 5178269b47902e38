"""The rank sweep: every family at every admissible rank, not only the
registry labels.  The paper states its claims for general n, so a rule
that holds only at small rank fails here with the family and rank named.

`params` runs at every rank <= 12 (82 labels) and every suite at every
rank <= 8 (54 labels).  On a 2-CPU host with Python 3.11.7 the first
takes about 0.2 s and the second about 3.0 s."""

import pytest

from dawcox import autoaction, diagrams
from dawcox.cli import main
from dawcox.congruence import U21
from samples import upsilon_prime_samples, upsilon_samples


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


@pytest.mark.parametrize("family,n", [(f, n) for f, n in _sweep(8) if n >= 5])
def test_basic_involutions_at_ranks_5_to_8(family, n):
    """Seeded basic involution checks at every label of rank 5 to 8 (31
    labels): three Upsilon_1(r) members (Upsilon_1(2)' on a starred label)
    are involutions, and the control u21^{2r} is neither a member nor an
    involution.  On a 2-CPU host with Python 3.11.7 the 31 labels take
    about 2.5 s together; ddotB7, ddotB8 and dddotE8 take about 0.2 s
    each."""
    name = str(diagrams.parse(f"{family}{n}"))
    lab = diagrams.parse(name)
    r = diagrams.correspondence(lab).twist
    members = upsilon_prime_samples(3, seed=n) if lab.is_star else upsilon_samples(r, 3, seed=n)
    for m in members:
        out = autoaction.basic_involution_check(m, r, name)
        assert out["upsilon_member"] and out["involution"], (name, str(m))
    control = autoaction.basic_involution_check(U21 ** (2 * r), r, name)
    assert not control["upsilon_member"] and not control["involution"], name
