import re

import pytest

from dawcox import cli, diagrams
from dawcox.diagrams import (
    FAMILIES,
    DoubleAffineLabel,
    braid_relation_list,
    build_diagram,
    correspondence,
    correspondence_inverse,
    export_dot,
    label,
    one_connected_components,
    parse,
    partner,
    to_json,
)
from dawcox.rootsys import UnknownTypeError, affine_cartan, parse_label

ALL = cli.LABELS + cli.LARGE

# The admissible ranks of every family up to 11, as the README states
# them; rank 1 of dddotC and dddotCstar is an alias, not a rank of theirs.
ADMISSIBLE = {
    "dddotA": range(1, 12),
    "dddotB": range(3, 12),
    "dddotC": range(2, 12),
    "dddotD": range(4, 12),
    "dddotE": (6, 7, 8),
    "dddotF": (4,),
    "dddotG": (2,),
    "dddotAstar": (1,),
    "dddotCstar": range(2, 12),
    "ddotB": range(3, 12),
    "ddotC": range(3, 12),
    "ddotB2": (2,),
    "ddotF4": (4,),
    "ddotG2": (2,),
}
ALIASES = {("dddotC", 1): "dddotA", ("dddotCstar", 1): "dddotAstar"}
# Every family at every admissible rank up to 9, and the two aliases, by
# name: dddotC1, ..., dddotA1star, ..., ddotB2, ...
TABLE = sorted(
    {str(DoubleAffineLabel(f, n)) for f, ranks in ADMISSIBLE.items() for n in ranks if n <= 9}
    | {str(DoubleAffineLabel(f, n)) for f, n in ALIASES}
)


def test_label_validation():
    with pytest.raises(UnknownTypeError):
        label("dddotB", 2)
    with pytest.raises(UnknownTypeError):
        label("dddotD", 3)
    with pytest.raises(UnknownTypeError):
        label("ddotB", 2)
    with pytest.raises(UnknownTypeError):
        label("dddotG", 3)
    # The C1 = A1 aliasing convention.
    c1 = label("dddotC", 1)
    assert c1.family == "dddotA" and c1.alias_of == "dddotC"
    c1s = label("dddotCstar", 1)
    assert c1s.family == "dddotAstar" and c1s.alias_of == "dddotCstar"


def test_parse_names():
    assert str(parse("dddotC3")) == "dddotC3"
    assert parse("dddotC2star").family == "dddotCstar"
    assert parse("ddotG2").rank == 2
    assert parse("ddotB4").family == "ddotB"
    with pytest.raises(UnknownTypeError):
        parse("dddotH3")


def test_table_names_cover_the_verify_labels():
    assert set(ADMISSIBLE) == set(FAMILIES)
    assert set(ALL) <= set(TABLE)


@pytest.mark.parametrize("family", sorted(ADMISSIBLE))
def test_label_admits_exactly_the_admissible_ranks(family):
    for n in range(-1, 12):
        if (family, n) in ALIASES:
            expected = (ALIASES[family, n], n, family)
        elif n in ADMISSIBLE[family]:
            expected = (family, n, None)
        else:
            with pytest.raises(UnknownTypeError):
                label(family, n)
            continue
        lab = label(family, n)
        assert (lab.family, lab.rank, lab.alias_of) == expected


def test_label_keeps_its_error_messages():
    messages = {
        ("dddotF", 5): "dddotF has fixed rank 4",
        ("dddotAstar", 2): "dddotAstar exists at rank 1 only",
        ("dddotAstar", None): "dddotAstar needs a rank",
        ("dddotE", None): "dddotE needs a rank",
        ("ddotB", 2): "invalid family/rank: ddotB 2",
    }
    for (family, rank), message in messages.items():
        with pytest.raises(UnknownTypeError, match=f"^{message}$"):
            label(family, rank)
    # a starred name carries its rank; the fixed-rank names may drop it
    with pytest.raises(UnknownTypeError, match="cannot parse"):
        parse("dddotAstar")
    assert str(parse("dddotG")) == "dddotG2" and str(parse("ddotF4")) == "ddotF4"


@pytest.mark.parametrize("name", TABLE)
def test_str_roundtrips_through_parse(name):
    lab = parse(name)
    again = parse(str(lab))
    assert (again.family, again.rank) == (lab.family, lab.rank)
    assert str(again) == str(lab)


def test_triple_node_expansion_a1():
    d = build_diagram("dddotA1")
    assert len(d.nodes) == 4
    affine = [nd.label for nd in d.affine_nodes]
    assert affine == ["Theta01", "Theta02", "Theta03"]
    for p in range(1, 4):
        for q in range(p + 1, 4):
            assert d.multiplicity(f"Theta0{p}", f"Theta0{q}") == 4
        assert d.multiplicity(f"Theta0{p}", "T1") == 4
    # six quadruple edges in total
    assert sum(1 for _, _, m in braid_relation_list(d) if m == 4) == 6


def test_dddotc3_shape():
    d = build_diagram("dddotC3")
    assert len(d.nodes) == 6
    for p in range(1, 4):
        assert d.multiplicity(f"Theta0{p}", "T1") == 2
        assert d.multiplicity(f"Theta0{p}", "T2") == 0
    assert d.multiplicity("T1", "T2") == 1
    assert d.multiplicity("T2", "T3") == 2


def test_ddotb2_square():
    d = build_diagram("ddotB2")
    assert len(d.nodes) == 4
    assert d.multiplicity("Theta0", "Phi0") == 2
    assert d.multiplicity("T1", "T2") == 2
    assert d.multiplicity("Theta0", "T2") == 2
    assert d.multiplicity("Phi0", "T1") == 2
    assert d.multiplicity("Theta0", "T1") == 0
    assert d.multiplicity("Phi0", "T2") == 0
    assert [nd.label for nd in d.affine_nodes] == ["Theta0", "Phi0"]


def test_ddotbn_cn_shapes():
    b = build_diagram("ddotB3")
    assert b.multiplicity("Theta0", "T1") == 2
    assert b.multiplicity("Phi0", "T2") == 1
    assert b.multiplicity("Theta0", "Phi0") == 2
    assert b.multiplicity("T2", "T3") == 2
    c = build_diagram("ddotC3")
    assert c.multiplicity("Theta0", "T2") == 1
    assert c.multiplicity("Phi0", "T1") == 2
    assert c.multiplicity("Theta0", "Phi0") == 2


def test_ddotg2_shape():
    d = build_diagram("ddotG2")
    assert d.multiplicity("Theta0", "T1") == 1
    assert d.multiplicity("Phi0", "T2") == 1
    assert d.multiplicity("T1", "T2") == 3
    assert d.multiplicity("Theta0", "Phi0") == 3


def test_ddotf4_hexagon():
    d = build_diagram("ddotF4")
    assert d.multiplicity("Theta0", "T1") == 1
    assert d.multiplicity("Phi0", "T4") == 1
    assert d.multiplicity("T2", "T3") == 2
    assert d.multiplicity("Theta0", "Phi0") == 2
    # hexagon: every node has exactly two neighbors
    names = [nd.label for nd in d.nodes]
    for x in names:
        deg = sum(1 for y in names if y != x and d.multiplicity(x, y))
        assert deg == 2


@pytest.mark.parametrize("name", ALL)
def test_erasing_affine_nodes_gives_connected_finite(name):
    d = build_diagram(name)
    finite = [nd.label for nd in d.finite_nodes]
    # connectivity of the finite diagram
    seen = {finite[0]}
    frontier = [finite[0]]
    while frontier:
        x = frontier.pop()
        for y in finite:
            if y not in seen and d.multiplicity(x, y) > 0:
                seen.add(y)
                frontier.append(y)
    assert seen == set(finite)


@pytest.mark.parametrize("name", ALL)
def test_erasing_all_but_one_affine_gives_affine_diagram(name):
    """Keeping Theta01 (or Theta0) must reproduce the Coxeter diagram of
    the corresponding affine Dynkin type, with the kept node as node 0."""
    d = build_diagram(name)
    aff = correspondence(d.label)
    cartan = affine_cartan(aff).cartan
    n = len(cartan) - 1
    keep = "Theta01" if d.label.is_triple else "Theta0"
    names = {0: keep, **{i: f"T{i}" for i in range(1, n + 1)}}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            assert d.multiplicity(names[i], names[j]) == cartan[i][j] * cartan[j][i]


TABLE1 = {
    "dddotA1": 4,
    "dddotA1star": 3,
    "dddotA2": 1,
    "dddotA3": 1,
    "dddotB3": 2,
    "dddotB4": 2,
    "dddotC2": 5,
    "dddotC3": 5,
    "dddotC2star": 4,
    "dddotC3star": 4,
    "dddotD4": 1,
    "dddotD5": 1,
    "dddotE6": 1,
    "dddotE7": 1,
    "dddotE8": 1,
    "dddotF4": 2,
    "dddotG2": 2,
    "ddotB3": 3,
    "ddotB4": 3,
    "ddotC3": 3,
    "ddotC4": 3,
    "ddotB2": 4,
    "ddotF4": 2,
    "ddotG2": 2,
}


@pytest.mark.parametrize("name,count", sorted(TABLE1.items()))
def test_one_connected_component_counts(name, count):
    d = build_diagram(name)
    comps = one_connected_components(d)
    star_discount = 1 if d.specialized else 0
    assert len(comps) - star_discount == count


def test_single_node_component():
    d = build_diagram("dddotA1")
    comps = one_connected_components(d)
    assert all(len(c) == 1 for c in comps)


def test_correspondence_table():
    assert str(correspondence(parse("ddotF4"))) == "E6(2)"
    assert str(correspondence(parse("dddotC2star"))) == "A4(2)"
    assert str(correspondence(parse("dddotG2"))) == "G2(1)"
    assert str(correspondence(parse("ddotB3"))) == "D4(2)"
    assert str(correspondence(parse("ddotC3"))) == "A5(2)"
    assert str(correspondence(parse("ddotB2"))) == "A3(2)"
    assert str(correspondence(parse("ddotG2"))) == "D4(3)"
    assert str(correspondence(parse("dddotA1star"))) == "A2(2)"


@pytest.mark.parametrize("name", TABLE)
def test_correspondence_roundtrip(name):
    lab = parse(name)
    aff = correspondence(lab)
    back = correspondence_inverse(aff)
    assert back.family == lab.family and back.rank == lab.rank
    assert str(correspondence(back)) == str(aff)


def test_correspondence_inverse_reports_types_without_a_label():
    for text, message in (
        ("D3(2)", "invalid family/rank: ddotB 2"),
        ("B2(1)", "invalid family/rank: dddotB 2"),
        ("E7(2)", "E7(2)"),
        ("C3(3)", "C3(3)"),
    ):
        with pytest.raises(UnknownTypeError, match=rf"^{re.escape(message)}$"):
            correspondence_inverse(parse_label(text))
    # A2(2) is dddotA1star itself, not the alias dddotC1star
    assert correspondence_inverse(parse_label("A2(2)")) == DoubleAffineLabel("dddotAstar", 1)
    assert correspondence_inverse(parse_label("C1(1)")) == label("dddotC", 1)


@pytest.mark.parametrize("name", TABLE)
def test_partner_is_an_involution_of_the_same_twist(name):
    lab = parse(name)
    other = partner(lab)
    assert partner(other) == lab
    assert other.rank == lab.rank and other.is_triple == lab.is_triple
    assert correspondence(other).twist == correspondence(lab).twist
    assert (other == lab) == (lab.family not in ("ddotB", "ddotC"))


def test_partner_orders_are_permutations_fixing_node_0():
    permuted = {family: row for family, row in FAMILIES.items() if row.order}
    assert sorted(permuted) == ["ddotB2", "ddotF4", "ddotG2"]
    for row in permuted.values():
        assert row.least == row.most == len(row.order) - 1
        assert sorted(row.order) == list(range(len(row.order))) and row.order[0] == 0


def test_braid_relation_list_values():
    d = build_diagram("dddotG2")
    rels = dict()
    for x, y, m in braid_relation_list(d):
        rels[(x, y)] = m
    assert rels[("T1", "T2")] == 3
    assert rels[("T2", "Theta01")] == 0


def test_export_dot_stable_and_filled():
    d = build_diagram("dddotA1")
    text1 = export_dot(d)
    text2 = export_dot(build_diagram("dddotA1"))
    assert text1 == text2
    assert text1.count("style=filled") == 3
    assert text1.count('"Theta01" -- "Theta02";') == 4
    j1 = to_json(d)
    j2 = to_json(build_diagram("dddotA1"))
    assert j1 == j2


def test_star_specialization_marker():
    d = build_diagram("dddotC2star")
    assert d.specialized == "Theta02"
    # the diagram itself is the dddotC2 diagram
    plain = build_diagram("dddotC2")
    assert braid_relation_list(d) == braid_relation_list(plain)


def test_union_find_joins_each_pair_into_one_class():
    find = diagrams.union_find("abcdef", [("a", "b"), ("c", "d"), ("b", "d"), ("e", "e")])
    assert len({find(x) for x in "abcd"}) == 1
    assert len({find(x) for x in "abcdef"}) == 3
    assert find("e") == "e" and find("f") == "f"
