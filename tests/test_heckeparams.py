import pytest

from dawcox import diagrams
from dawcox import heckeparams as hp
from dawcox.rootsys import UnknownTypeError
from paper_tables import GENERIC_COUNTS, NONREDUCED, SPECIALIZATION_COUNTS, row_name

# Table 1 as (label, None, generic count), label by label
TABLE1 = [(name, None, count) for name, count in GENERIC_COUNTS.items()]


def _records(name):
    """The params check's records of one label, by name."""
    return {rec: (lhs, rhs) for rec, lhs, rhs in hp.verify_params(diagrams.parse(name))}


@pytest.mark.parametrize("name,_,count", TABLE1)
def test_generic_param_counts(name, _, count):
    assert _records(name)["Table 1 generic count"] == (count, count)


def test_param_symbols_shared_on_one_connected():
    pa = hp.param_assignment("dddotB3")
    # Theta01, Theta02, Theta03, T1, T2 are all one-connected
    assert pa.symbol_of["Theta01"] == pa.symbol_of["T1"] == pa.symbol_of["T2"]
    assert pa.symbol_of["T3"] != pa.symbol_of["T1"]


@pytest.mark.parametrize("system,n,count", SPECIALIZATION_COUNTS)
def test_specializations(system, n, count):
    rule = hp.specialize(system, n)
    assert rule.final_count == count
    assert rule.final_count <= rule.generic_count
    # the params check of the row's algebra records it
    row = row_name(system, n)
    assert _records(rule.algebra)[f"Table 4 {row} final count"] == (count, count)


# Table 5: the rows of Table 4 whose system is nonreduced
TABLE5 = [row for row in SPECIALIZATION_COUNTS if row[0] in NONREDUCED]


@pytest.mark.parametrize("system,n,count", TABLE5)
def test_table5_via_nonreduced(system, n, count):
    reduced = hp.nonreduced_to_reduced(system)
    rule = hp.specialize(system, n)
    assert rule.final_count == count
    # the nonreduced system's double affine group matches the reduced one;
    # (C1^,C1) reduces to C1(1) = A1(1), a rank Table 4 states no Cn(1) count for
    reduced_row = hp.TABLE4[reduced]
    if n is not None and n < reduced_row.least and n not in reduced_row.collapses:
        with pytest.raises(UnknownTypeError, match=f"n >= {reduced_row.least}"):
            hp.specialize(reduced, n)
        assert str(diagrams.parse(reduced_row.algebra.format(n=n))) == rule.algebra
    else:
        assert hp.specialize(reduced, n).algebra == rule.algebra
    row = row_name(system, n)
    record = _records(rule.algebra)[f"Table 5 {row} gives the algebra of {reduced}"]
    assert record == (rule.algebra, rule.algebra)


def test_nonreduced_table():
    for system, reduced in NONREDUCED.items():
        assert hp.nonreduced_to_reduced(system) == reduced
    # the params check takes the systems written as pairs for the nonreduced ones
    assert {system for system in hp.TABLE4 if system.startswith("(")} == set(NONREDUCED)
    for system in hp.TABLE4.keys() - NONREDUCED.keys():
        with pytest.raises(UnknownTypeError):
            hp.nonreduced_to_reduced(system)


def test_empty_rules():
    assert hp.specialize("Bn(1)", 3).identifications == []
    assert hp.specialize("G2(1)").final_count == 2
    assert hp.specialize("E6(2)").final_count == 2
    assert hp.specialize("D4(3)").final_count == 2
    with pytest.raises(UnknownTypeError):
        hp.specialize("H3(1)")
    with pytest.raises(UnknownTypeError):
        hp.specialize("Cn(1)")  # missing rank


@pytest.mark.parametrize("system,n,least", [
    ("Cn(1)", 1, 2), ("Cn(1)", 0, 2), ("(BCn,Cn)", 1, 2),
    ("Dn+1(2)", 2, 3), ("A2n-1(2)", 2, 3), ("(Bn,Bn^)", 2, 3), ("An(1)", 1, 2),
])
def test_specialize_refuses_ranks_below_the_row(system, n, least):
    # Table 4 states these rows from rank `least` on, with no collapse below
    with pytest.raises(UnknownTypeError, match=f"n >= {least}"):
        hp.specialize(system, n)


@pytest.mark.parametrize("system,n,rank", [
    ("A1(1)", 3, 1), ("A1(1)", 2, 1), ("A3(2)", 7, 2), ("(C2,C2^)", 1, 2),
    ("E6(1)", 3, 6), ("G2(1)", 3, 2), ("E6(2)", 6, 4), ("D4(3)", 3, 2),
])
def test_specialize_refuses_other_ranks_of_a_fixed_row(system, n, rank):
    # a row of one algebra answers at that algebra's rank, or with no rank
    with pytest.raises(UnknownTypeError, match=f"at n = {rank} only, not n = {n}"):
        hp.specialize(system, n)
    assert hp.specialize(system, rank) == hp.specialize(system)


@pytest.mark.parametrize("system,count", [("(Cn^,Cn)", 4), ("A2n(2)", 2), ("(Cn^,BCn)", 3)])
def test_specialize_answers_the_rank_one_collapses(system, count):
    assert hp.specialize(system, 1).final_count == count


def test_quadratic_relations():
    # one parameter symbol per node: five distinct ones on dddotC2
    symbol_of = hp.param_assignment("dddotC2").symbol_of
    assert len(symbol_of) == 5 and len(set(symbol_of.values())) == 5
    # the starred generator's parameter is the constant 1
    assert hp.param_assignment("dddotC2star").symbol_of["Theta02"] == "1"
    # two one-connected nodes share a symbol
    pa = hp.param_assignment("dddotB3")
    assert pa.symbol_of["T1"] == pa.symbol_of["T2"]
