"""Hecke-parameter bookkeeping: the parameter symbol of each node, the
specialization rules per affine root system (reduced and nonreduced),
the nonreduced-to-reduced correspondence, and the paper's parameter
counts with the check that compares them to the computed ones.

The counts are stated as the paper states them, for general n: Table 1
per double affine family (TABLE1), Tables 4 and 5 per affine root
system (TABLE4).  So the check reads a count for every admissible rank.

Parameters are formal symbols: lowercase names of the 1-connected
component representatives ("theta01", "t1", ...).  No algebra arithmetic
happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import diagrams
from .diagrams import DoubleAffineLabel, build_diagram, one_connected_components, union_find
from .rootsys import UnknownTypeError


@dataclass
class ParamAssignment:
    symbol_of: dict  # node label -> parameter symbol


def param_assignment(lab) -> ParamAssignment:
    if isinstance(lab, str):
        lab = diagrams.parse(lab)
    d = build_diagram(lab)
    finite_index = {nd.label: nd.index for nd in d.finite_nodes}
    symbol_of = {}
    for comp in one_connected_components(d):
        # prefer a finite node name, smallest index, as the t-symbol
        finite = [n for n in comp if n in finite_index]
        rep = min(finite, key=finite_index.get) if finite else min(comp)
        sym = rep.lower()
        for n in comp:
            symbol_of[n] = sym
    if d.specialized:
        # the starred generator's parameter is pinned to the constant 1
        symbol_of[d.specialized] = "1"
    return ParamAssignment(symbol_of=symbol_of)


@dataclass
class SpecializationRule:
    system: str
    algebra: str  # double affine Coxeter label of the generic algebra
    identifications: list  # list of (symbol, symbol) merges
    generic_count: int
    final_count: int


# Table 1: the generic number of parameters of each family, the same at
# every admissible rank but one, which is keyed by (family, rank).
# dddotC1 and dddotC1star are dddotA1 and dddotA1star.
TABLE1 = {
    "dddotA": 1, "dddotB": 2, "dddotC": 5, "dddotD": 1, "dddotE": 1,
    "dddotF": 2, "dddotG": 2, "dddotAstar": 3, "dddotCstar": 4,
    "ddotB": 3, "ddotC": 3, "ddotB2": 4, "ddotF4": 2, "ddotG2": 2,
    ("dddotA", 1): 4,
}


class Row(NamedTuple):
    """One affine root system of Tables 4 and 5: the algebra whose
    parameters it specializes, the identifications, the final count of
    Table 4 with its rank-one collapses, and Table 5's reduced system."""

    algebra: str  # the double affine label; "{n}" is the rank
    identifications: tuple = ()  # node pairs merged; "Tn" is the last finite node
    least: int | None = None  # Table 4 states the row for n >= least (None: no least rank)
    count: int | None = None  # Table 4's final count (None: the row is not in Table 4)
    collapses: dict = {}  # rank -> final count, at the ranks below `least`
    reduced: str | None = None  # Table 5: a nonreduced system's reduced one


TABLE4 = {
    "A1(1)": Row("dddotA1", (("Theta01", "Theta02"), ("Theta02", "Theta03"), ("Theta03", "T1")),
                 1, 1),
    "Cn(1)": Row("dddotC{n}", (("Theta01", "Theta02"), ("Theta02", "Theta03")), 2, 3),
    "(BCn,Cn)": Row("dddotC{n}", (("Theta01", "Theta02"),), 2, 4, reduced="Cn(1)"),
    # Koornwinder's five parameters (Sahi, Ann. Math. 150, 1999)
    "(Cn^,Cn)": Row("dddotC{n}", (), 2, 5, {1: 4}, "Cn(1)"),
    "A2n(2)": Row("dddotC{n}star", (("Theta03", "Tn"),), 2, 3, {1: 2}),
    "(Cn^,BCn)": Row("dddotC{n}star", (), 2, 4, {1: 3}, "A2n(2)"),
    "A3(2)": Row("ddotB2", (("Theta0", "T1"),), count=3),
    "(C2,C2^)": Row("ddotB2", (), count=4, reduced="A3(2)"),
    "Dn+1(2)": Row("ddotB{n}", (("Theta0", "Tn"),), 3, 2),
    "A2n-1(2)": Row("ddotC{n}", (("Phi0", "Tn"),), 3, 2),
    "(Bn,Bn^)": Row("ddotC{n}", (), 3, 3, reduced="A2n-1(2)"),
    # Reduced systems with no specialization necessary; A1(1) is its own row.
    "An(1)": Row("dddotA{n}", least=2), "Bn(1)": Row("dddotB{n}"), "Dn(1)": Row("dddotD{n}"),
    "E6(1)": Row("dddotE6"), "E7(1)": Row("dddotE7"), "E8(1)": Row("dddotE8"),
    "F4(1)": Row("dddotF4"), "G2(1)": Row("dddotG2"), "E6(2)": Row("ddotF4"),
    "D4(3)": Row("ddotG2"),
}


def normalize_system(text: str) -> str:
    return text.replace(" ", "").replace("∨", "^").replace("v", "^")


def nonreduced_to_reduced(system: str) -> str:
    row = TABLE4.get(normalize_system(system))
    if row is None or row.reduced is None:
        raise UnknownTypeError(f"{system} is not a nonreduced affine root system")
    return row.reduced


def _algebra(row: Row, n: int | None) -> DoubleAffineLabel:
    return diagrams.parse(row.algebra.format(n=n))


def specialize(system: str, n: int | None = None) -> SpecializationRule:
    """The parameter specialization for an affine root system label like
    'Cn(1)', 'A2n(2)', '(Cn^,Cn)', 'D n+1(2)'; n supplies the rank, which
    a row of fixed rank ('A1(1)', 'E6(1)') takes as given or omitted."""
    key = normalize_system(system)
    if key not in TABLE4:
        raise UnknownTypeError(f"no specialization rule for {system!r}")
    row = TABLE4[key]
    if n is None and "{n}" in row.algebra:
        raise UnknownTypeError(f"{system} needs a rank (--n)")
    if n is not None and row.least is not None and n < row.least and n not in row.collapses:
        raise UnknownTypeError(f"Table 4 states {system} for n >= {row.least}, not n = {n}")
    lab = _algebra(row, n)
    if n is not None and "{n}" not in row.algebra and n != lab.rank:
        raise UnknownTypeError(f"Table 4 states {system} at n = {lab.rank} only, not n = {n}")
    symbol_of = param_assignment(lab).symbol_of

    def sub(node: str) -> str:
        return node.replace("Tn", f"T{lab.rank}")

    symbols = set(symbol_of.values())
    merges = [(symbol_of[sub(x)], symbol_of[sub(y)]) for x, y in row.identifications]
    find = union_find(symbols, merges)
    final = {find(s) for s in symbols if s != "1"}
    # pinning to the constant never counts as a parameter
    final = {f for f in final if find(f) != find("1")} if "1" in symbols else final
    generic = len(symbols - {"1"})
    return SpecializationRule(
        system=key,
        algebra=str(lab),
        identifications=merges,
        generic_count=generic,
        final_count=len(final),
    )


def verify_params(lab: DoubleAffineLabel) -> list:
    """The paper's parameter counts of one label as (name, lhs, rhs)
    records: its Table 1 generic count, the final count of each Table 4
    row whose algebra it is, and for a nonreduced row that the reduced
    system of Table 5 gives the same algebra."""
    name, n = str(lab), lab.rank
    symbols = set(param_assignment(lab).symbol_of.values())
    generic = TABLE1.get((lab.family, n), TABLE1[lab.family])
    records = [("Table 1 generic count", len(symbols - {"1"}), generic)]
    for system, row in TABLE4.items():
        stated = row.least is None or n >= row.least
        count = row.collapses.get(n, row.count if stated else None)
        if count is None or str(_algebra(row, n)) != name:
            continue
        rule = specialize(system, n)
        title = system if row.least is None else f"{system} n={n}"
        records.append((f"Table 4 {title} final count", rule.final_count, count))
        if system.startswith("("):  # a nonreduced system is written as a pair
            reduced = nonreduced_to_reduced(system)
            # the reduced row's algebra, also at a rank where Table 4 has
            # no count for it (C1(1) = A1(1) under (C1^,C1))
            records.append((f"Table 5 {title} gives the algebra of {reduced}",
                            rule.algebra, str(_algebra(TABLE4[reduced], n))))
    return records
