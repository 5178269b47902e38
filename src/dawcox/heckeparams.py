"""Hecke-parameter bookkeeping: the parameter symbol of each node, the
specialization rules per affine root system (reduced and nonreduced),
the nonreduced-to-reduced correspondence, and the paper's parameter
counts with the check that compares them to the computed ones.

Parameters are formal symbols: lowercase names of the 1-connected
component representatives ("theta01", "t1", ...).  No algebra arithmetic
happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Table rows: affine root system -> (algebra family, identifications).
# Identifications are written on the diagram node names; "n" in a node
# name is replaced by the rank.
_SPECIALIZATION_TABLE = {
    "A1(1)": ("dddotA1", [("Theta01", "Theta02"), ("Theta02", "Theta03"), ("Theta03", "T1")]),
    "Cn(1)": ("dddotC{n}", [("Theta01", "Theta02"), ("Theta02", "Theta03")]),
    "(BCn,Cn)": ("dddotC{n}", [("Theta01", "Theta02")]),
    "(Cn^,Cn)": ("dddotC{n}", []),
    "A2n(2)": ("dddotC{n}star", [("Theta03", "Tn")]),
    "(Cn^,BCn)": ("dddotC{n}star", []),
    "A3(2)": ("ddotB2", [("Theta0", "T1")]),
    "(C2,C2^)": ("ddotB2", []),
    "Dn+1(2)": ("ddotB{n}", [("Theta0", "Tn")]),
    "A2n-1(2)": ("ddotC{n}", [("Phi0", "Tn")]),
    "(Bn,Bn^)": ("ddotC{n}", []),
}

# Reduced systems with no specialization necessary.
_EMPTY_RULE_FAMILIES = {
    "An(1)": "dddotA{n}",
    "Bn(1)": "dddotB{n}",
    "Dn(1)": "dddotD{n}",
    "E6(1)": "dddotE6",
    "E7(1)": "dddotE7",
    "E8(1)": "dddotE8",
    "F4(1)": "dddotF4",
    "G2(1)": "dddotG2",
    "E6(2)": "ddotF4",
    "D4(3)": "ddotG2",
}

# Table: nonreduced affine root systems and their non-multipliable parts.
_NONREDUCED_TABLE = {
    "(BCn,Cn)": "Cn(1)",
    "(Cn^,BCn)": "A2n(2)",
    "(Bn,Bn^)": "A2n-1(2)",
    "(Cn^,Cn)": "Cn(1)",
    "(C2,C2^)": "A3(2)",
}


# Table 1: the generic number of parameters of each double affine label.
# dddotA_n has one parameter for every n >= 2.
GENERIC_COUNTS = {
    "dddotA1": 4, "dddotA1star": 3, "dddotA2": 1, "dddotA3": 1, "dddotA4": 1,
    "dddotB3": 2, "dddotB4": 2, "dddotC2": 5, "dddotC3": 5,
    "dddotC2star": 4, "dddotC3star": 4, "dddotD4": 1, "dddotD5": 1,
    "dddotE6": 1, "dddotE7": 1, "dddotE8": 1, "dddotF4": 2, "dddotG2": 2,
    "ddotB3": 3, "ddotB4": 3, "ddotC3": 3, "ddotC4": 3,
    "ddotB2": 4, "ddotF4": 2, "ddotG2": 2,
}

# Table 4: (affine root system, rank, number of parameters after the
# specialization).  The rank-one rows are the collapses noted in the
# text: (Cn^,Cn) specializes dddotA1, A2n(2) and (Cn^,BCn) dddotA1star.
SPECIALIZATION_COUNTS = (
    ("A1(1)", 1, 1),
    ("Cn(1)", 2, 3),
    ("Cn(1)", 3, 3),
    ("(BCn,Cn)", 2, 4),
    ("(BCn,Cn)", 3, 4),
    ("(Cn^,Cn)", 2, 5),
    ("(Cn^,Cn)", 3, 5),
    ("(Cn^,Cn)", 1, 4),
    ("A2n(2)", 2, 3),
    ("A2n(2)", 1, 2),
    ("(Cn^,BCn)", 2, 4),
    ("(Cn^,BCn)", 1, 3),
    ("A3(2)", None, 3),
    ("(C2,C2^)", None, 4),
    ("Dn+1(2)", 3, 2),
    ("Dn+1(2)", 4, 2),
    ("A2n-1(2)", 3, 2),
    ("A2n-1(2)", 4, 2),
    ("(Bn,Bn^)", 3, 3),
    ("(Bn,Bn^)", 4, 3),
)


def normalize_system(text: str) -> str:
    return text.replace(" ", "").replace("∨", "^").replace("v", "^")


def nonreduced_to_reduced(system: str) -> str:
    key = normalize_system(system)
    if key not in _NONREDUCED_TABLE:
        raise UnknownTypeError(f"{system} is not a nonreduced affine root system")
    return _NONREDUCED_TABLE[key]


def _rule(system: str, n: int | None):
    """The normalized system, its double affine label and its
    identifications."""
    key = normalize_system(system)
    if key in _SPECIALIZATION_TABLE:
        family, idents = _SPECIALIZATION_TABLE[key]
    elif key in _EMPTY_RULE_FAMILIES:
        family, idents = _EMPTY_RULE_FAMILIES[key], []
    else:
        raise UnknownTypeError(f"no specialization rule for {system!r}")
    if "{n}" in family:
        if n is None:
            raise UnknownTypeError(f"{system} needs a rank (--n)")
        family = family.format(n=n)
    return key, diagrams.parse(family), idents


def specialize(system: str, n: int | None = None) -> SpecializationRule:
    """The parameter specialization for an affine root system label like
    'Cn(1)', 'A2n(2)', '(Cn^,Cn)', 'D n+1(2)'; n supplies the rank."""
    key, lab, idents = _rule(system, n)
    symbol_of = param_assignment(lab).symbol_of

    def sub(node: str) -> str:
        return node.replace("Tn", f"T{lab.rank}")

    symbols = set(symbol_of.values())
    merges = [(symbol_of[sub(x)], symbol_of[sub(y)]) for x, y in idents]
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
    name = str(lab)
    symbols = set(param_assignment(lab).symbol_of.values())
    records = [("Table 1 generic count", len(symbols - {"1"}), GENERIC_COUNTS[name])]
    for system, n, count in SPECIALIZATION_COUNTS:
        if str(_rule(system, n)[1]) != name:
            continue
        rule = specialize(system, n)
        row = system if n is None else f"{system} n={n}"
        records.append((f"Table 4 {row} final count", rule.final_count, count))
        if system in _NONREDUCED_TABLE:
            reduced = nonreduced_to_reduced(system)
            records.append((f"Table 5 {row} gives the algebra of {reduced}",
                            rule.algebra, specialize(reduced, n).algebra))
    return records
