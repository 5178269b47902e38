"""Hecke-parameter bookkeeping: generic parameter counts, the
specialization rules per affine root system (reduced and nonreduced),
and the nonreduced-to-reduced correspondence.

Parameters are formal symbols: lowercase names of the 1-connected
component representatives ("theta01", "t1", ...).  No algebra arithmetic
happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import diagrams
from .diagrams import DoubleAffineLabel, build_diagram, one_connected_components
from .rootsys import UnknownTypeError


@dataclass
class ParamAssignment:
    label: DoubleAffineLabel
    components: list
    symbol_of: dict  # node label -> parameter symbol
    # formal square roots adjoined to the field of parameters
    field_symbols: list = field(default_factory=list)

    @property
    def symbols(self):
        return sorted(set(self.symbol_of.values()))


def param_assignment(lab) -> ParamAssignment:
    if isinstance(lab, str):
        lab = diagrams.parse(lab)
    d = build_diagram(lab)
    comps = one_connected_components(d)
    symbol_of = {}
    for comp in comps:
        # prefer a finite node name, smallest index, as the t-symbol
        finite = sorted(
            (n for n in comp if n.startswith("T") and n[1:].isdigit()),
            key=lambda n: int(n[1:]),
        )
        rep = finite[0] if finite else sorted(comp)[0]
        sym = rep.lower()
        for n in comp:
            symbol_of[n] = sym
    if d.specialized:
        # the starred generator's parameter is pinned to the constant 1
        symbol_of[d.specialized] = "1"
    return ParamAssignment(
        label=d.label,
        components=comps,
        symbol_of=symbol_of,
        field_symbols=[f"{s}^(1/2)" for s in sorted(set(symbol_of.values())) if s != "1"],
    )


def generic_param_count(lab) -> int:
    pa = param_assignment(lab)
    return len({s for s in pa.symbol_of.values() if s != "1"})


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
    "A1(1)": ("dddotA{n}", [("Theta01", "Theta02"), ("Theta02", "Theta03"), ("Theta03", "T1")]),
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


def normalize_system(text: str) -> str:
    return text.replace(" ", "").replace("∨", "^").replace("v", "^")


def nonreduced_to_reduced(system: str) -> str:
    key = normalize_system(system)
    if key not in _NONREDUCED_TABLE:
        raise UnknownTypeError(f"{system} is not a nonreduced affine root system")
    return _NONREDUCED_TABLE[key]


def specialize(system: str, n: int | None = None) -> SpecializationRule:
    """The parameter specialization for an affine root system label like
    'Cn(1)', 'A2n(2)', '(Cn^,Cn)', 'D n+1(2)'; n supplies the rank."""
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
    lab = diagrams.parse(family)
    pa = param_assignment(lab)
    symbol_of = dict(pa.symbol_of)

    def sub(node: str) -> str:
        return node.replace("Tn", f"T{lab.rank}")

    merges = []
    parent: dict = {s: s for s in symbol_of.values()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in idents:
        sx, sy = symbol_of[sub(x)], symbol_of[sub(y)]
        merges.append((sx, sy))
        parent.setdefault(sx, sx)
        parent.setdefault(sy, sy)
        if find(sx) != find(sy):
            parent[find(sx)] = find(sy)
    final = {find(s) for s in symbol_of.values() if s != "1"}
    # pinning to the constant never counts as a parameter
    final = {f for f in final if find(f) != find("1")} if "1" in parent else final
    generic = len({s for s in symbol_of.values() if s != "1"})
    return SpecializationRule(
        system=key,
        algebra=str(lab),
        identifications=merges,
        generic_count=generic,
        final_count=len(final),
    )


@dataclass
class QuadraticRelation:
    node: str
    symbol: str

    def render(self) -> str:
        if self.symbol == "1":
            return f"{self.node}^2 = 1"
        s = self.symbol
        return f"{self.node} - {self.node}^-1 = {s}^(1/2) - {s}^(-1/2)"


def quadratic_relation(lab, node: str) -> QuadraticRelation:
    pa = param_assignment(lab)
    if node not in pa.symbol_of:
        raise KeyError(node)
    return QuadraticRelation(node=node, symbol=pa.symbol_of[node])


def quadratic_relations(lab) -> list[QuadraticRelation]:
    pa = param_assignment(lab)
    return [QuadraticRelation(n, s) for n, s in sorted(pa.symbol_of.items())]
