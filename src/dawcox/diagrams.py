"""Double affine Coxeter diagrams.

Two families: the triple-node diagrams (three pairwise quadruple-laced
affine nodes, each inheriting the triple node's connectivity to the
finite diagram) and the two-affine-node diagrams.  Finite nodes carry
the conventional numbering of the corresponding affine Dynkin diagram;
affine nodes come last, in the fixed order Theta01, Theta02, Theta03
(or Theta0, Phi0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache

from .rootsys import AffineLabel, UnknownTypeError, affine_cartan, parse_label


class NodeKind(Enum):
    FINITE = "finite"
    AFFINE = "affine"


@dataclass(frozen=True)
class NodeId:
    index: int
    kind: NodeKind
    label: str  # "T1".."Tn", "Theta01".."Theta03", "Theta0", "Phi0"


TRIPLE_FAMILIES = {
    "dddotA": ("A", 1),
    "dddotB": ("B", 3),
    "dddotC": ("C", 1),   # dddotC1 aliases dddotA1
    "dddotD": ("D", 4),
    "dddotE": ("E", 6),
    "dddotF": ("F", 4),
    "dddotG": ("G", 2),
}

STAR_FAMILIES = {"dddotAstar": 1, "dddotCstar": 1}

DDOT_FAMILIES = {
    "ddotB": 3,
    "ddotC": 3,
    "ddotB2": 2,
    "ddotF4": 4,
    "ddotG2": 2,
}

FIXED_RANK = {"dddotF": 4, "dddotG": 2, "dddotE": None,
              "ddotB2": 2, "ddotF4": 4, "ddotG2": 2}


@dataclass(frozen=True)
class DoubleAffineLabel:
    family: str
    rank: int
    # Set when the label is an alias (dddotC rank 1 is stored as dddotA 1,
    # dddotCstar rank 1 as dddotAstar 1).
    alias_of: str | None = None

    def __str__(self) -> str:
        if self.family in ("ddotB2", "ddotF4", "ddotG2"):
            return self.family
        if self.family.endswith("star"):
            return f"{self.family[:-4]}{self.rank}star"
        return f"{self.family}{self.rank}"

    @property
    def is_star(self) -> bool:
        return self.family in STAR_FAMILIES

    @property
    def base_family(self) -> str:
        """The family whose diagram carries this label (stars reuse it)."""
        if self.family == "dddotAstar":
            return "dddotA"
        if self.family == "dddotCstar":
            return "dddotC" if self.rank >= 2 else "dddotA"
        return self.family


def label(family: str, rank: int | None = None) -> DoubleAffineLabel:
    """Validate and normalize a (family, rank) pair."""
    if family in FIXED_RANK and FIXED_RANK[family] is not None:
        if rank not in (None, FIXED_RANK[family]):
            raise UnknownTypeError(f"{family} has fixed rank {FIXED_RANK[family]}")
        rank = FIXED_RANK[family]
    if rank is None:
        raise UnknownTypeError(f"{family} needs a rank")
    if family == "dddotA" and rank >= 1:
        return DoubleAffineLabel(family, rank)
    if family == "dddotAstar":
        if rank != 1:
            raise UnknownTypeError("dddotAstar exists at rank 1 only")
        return DoubleAffineLabel(family, 1)
    if family == "dddotB" and rank >= 3:
        return DoubleAffineLabel(family, rank)
    if family == "dddotC":
        if rank == 1:
            return DoubleAffineLabel("dddotA", 1, alias_of="dddotC")
        if rank >= 2:
            return DoubleAffineLabel(family, rank)
    if family == "dddotCstar":
        if rank == 1:
            return DoubleAffineLabel("dddotAstar", 1, alias_of="dddotCstar")
        if rank >= 2:
            return DoubleAffineLabel(family, rank)
    if family == "dddotD" and rank >= 4:
        return DoubleAffineLabel(family, rank)
    if family == "dddotE" and rank in (6, 7, 8):
        return DoubleAffineLabel(family, rank)
    if family in ("dddotF", "dddotG", "ddotB2", "ddotF4", "ddotG2"):
        return DoubleAffineLabel(family, FIXED_RANK[family])
    if family in ("ddotB", "ddotC") and rank >= 3:
        return DoubleAffineLabel(family, rank)
    raise UnknownTypeError(f"invalid family/rank: {family} {rank}")


@cache
def parse(text: str) -> DoubleAffineLabel:
    """Parse e.g. 'dddotC3', 'dddotC2star', 'ddotB4', 'ddotG2'.  Memoized:
    the per-label factories look labels up by name on every call."""
    text = text.strip()
    for fam in sorted(
        list(TRIPLE_FAMILIES) + list(STAR_FAMILIES) + list(DDOT_FAMILIES),
        key=len,
        reverse=True,
    ):
        if fam in FIXED_RANK and FIXED_RANK[fam] is not None and text == fam:
            return label(fam)
        if text.startswith(fam):
            rest = text[len(fam):]
            if rest.isdigit():
                return label(fam, int(rest))
            if rest.endswith("star") and rest[:-4].isdigit() and fam in (
                "dddotA", "dddotC"
            ):
                return label(fam + "star", int(rest[:-4]))
    raise UnknownTypeError(f"cannot parse double affine label {text!r}")


def correspondence(lab: DoubleAffineLabel) -> AffineLabel:
    """The affine Dynkin type isomorphic to the double affine group."""
    f, n = lab.family, lab.rank
    if f == "dddotA" and n == 1 and lab.alias_of == "dddotC":
        return parse_label("A1(1)")
    if f in ("dddotA", "dddotB", "dddotC", "dddotD", "dddotE", "dddotF", "dddotG"):
        letter = f[-1]
        return parse_label(f"{letter}{n}(1)")
    if f == "dddotAstar":
        return parse_label("A2(2)")
    if f == "dddotCstar":
        return parse_label(f"A{2 * n}(2)")
    if f == "ddotB" and n >= 3:
        return parse_label(f"D{n + 1}(2)")
    if f == "ddotC" and n >= 3:
        return parse_label(f"A{2 * n - 1}(2)")
    if f == "ddotB2":
        return parse_label("A3(2)")
    if f == "ddotF4":
        return parse_label("E6(2)")
    if f == "ddotG2":
        return parse_label("D4(3)")
    raise UnknownTypeError(str(lab))


def correspondence_inverse(aff: AffineLabel) -> DoubleAffineLabel:
    """The double affine Coxeter label for an affine Dynkin type."""
    L, N, r = aff.letter, aff.N, aff.twist
    if r == 1:
        fam = "dddot" + L
        return label(fam, N)
    if r == 2:
        if L == "A" and N == 2:
            return label("dddotAstar", 1)
        if L == "A" and N % 2 == 0:
            return label("dddotCstar", N // 2)
        if L == "A" and N == 3:
            return label("ddotB2")
        if L == "A":
            return label("ddotC", (N + 1) // 2)
        if L == "D":
            return label("ddotB", N - 1)
        if L == "E" and N == 6:
            return label("ddotF4")
    if r == 3 and L == "D" and N == 4:
        return label("ddotG2")
    raise UnknownTypeError(str(aff))


@dataclass
class CoxeterDiagram:
    label: DoubleAffineLabel
    nodes: tuple[NodeId, ...]
    mult: dict = field(default_factory=dict)  # frozenset({label,label}) -> 0..4
    # For star labels: the name of the specialized generator.
    specialized: str | None = None

    def multiplicity(self, a: str, b: str) -> int:
        if a == b:
            raise ValueError("multiplicity is defined for distinct nodes")
        return self.mult.get(frozenset((a, b)), 0)

    def node(self, name: str) -> NodeId:
        for nd in self.nodes:
            if nd.label == name:
                return nd
        raise KeyError(name)

    @property
    def finite_nodes(self):
        return [nd for nd in self.nodes if nd.kind is NodeKind.FINITE]

    @property
    def affine_nodes(self):
        return [nd for nd in self.nodes if nd.kind is NodeKind.AFFINE]


def build_diagram(lab: DoubleAffineLabel | str) -> CoxeterDiagram:
    if isinstance(lab, str):
        lab = parse(lab)
    aff = correspondence(lab)
    cartan = affine_cartan(aff)
    n = cartan.n
    a = cartan.cartan
    fam = lab.base_family

    finite = [NodeId(i, NodeKind.FINITE, f"T{i}") for i in range(1, n + 1)]
    mult: dict = {}

    def put(x: str, y: str, m: int):
        if m:
            mult[frozenset((x, y))] = m

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            put(f"T{i}", f"T{j}", a[i][j] * a[j][i])

    if fam.startswith("dddot"):
        affine = [NodeId(n + k, NodeKind.AFFINE, f"Theta0{k}") for k in (1, 2, 3)]
        for p in (1, 2, 3):
            for q in range(p + 1, 4):
                put(f"Theta0{p}", f"Theta0{q}", 4)
            for i in range(1, n + 1):
                put(f"Theta0{p}", f"T{i}", a[0][i] * a[i][0])
    else:
        affine = [
            NodeId(n, NodeKind.AFFINE, "Theta0"),
            NodeId(n + 1, NodeKind.AFFINE, "Phi0"),
        ]
        for i in range(1, n + 1):
            put("Theta0", f"T{i}", a[0][i] * a[i][0])
        # Phi0 attaches like the 0-node of the companion labeling: its
        # braid relations are those of X_{phi^v} Phi^{-1}, read off from
        # the affine diagram of the partner type.
        partner = _partner_cartan(lab)
        pa = partner.cartan
        for i in range(1, n + 1):
            put("Phi0", f"T{i}", pa[0][i] * pa[i][0])
        put("Theta0", "Phi0", {2: 2, 3: 3}[cartan.twist])

    diagram = CoxeterDiagram(
        label=lab,
        nodes=tuple(finite + affine),
        mult=mult,
        specialized="Theta02" if lab.is_star or (lab.alias_of == "dddotCstar") else None,
    )
    return diagram


# Partner types of ddotB2, ddotF4, ddotG2 whose node order must be
# permuted so that the partner 0-node attaches where Phi0 does: the order
# lists the partner node at each position.
_PERMUTED_PARTNERS = {
    "ddotB2": ("A3(2)", (0, 2, 1)),  # the square is symmetric: swap T1, T2
    "ddotF4": ("E6(2)", (0, 4, 3, 2, 1)),  # reverse the chain: Phi0 attaches to T4
    "ddotG2": ("D4(3)", (0, 2, 1)),
}


def _partner_cartan(lab: DoubleAffineLabel):
    """Affine Cartan data whose 0-node matches Phi0's connectivity."""
    f, n = lab.family, lab.rank
    if f == "ddotB":
        return affine_cartan(parse_label(f"A{2 * n - 1}(2)"))
    if f == "ddotC":
        return affine_cartan(parse_label(f"D{n + 1}(2)"))
    if f not in _PERMUTED_PARTNERS:
        raise UnknownTypeError(str(lab))
    partner, order = _PERMUTED_PARTNERS[f]
    data = affine_cartan(parse_label(partner))
    m = data.cartan
    return replace(data, cartan=tuple(tuple(m[i][j] for j in order) for i in order))


def one_connected_components(d: CoxeterDiagram) -> list[frozenset]:
    """Components after erasing all edges of multiplicity >= 2."""
    names = [nd.label for nd in d.nodes]
    parent = {x: x for x in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key, m in d.mult.items():
        if m == 1:
            x, y = tuple(key)
            parent[find(x)] = find(y)
    groups: dict = {}
    for x in names:
        groups.setdefault(find(x), set()).add(x)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda s: sorted(s),
    )


def braid_relation_list(d: CoxeterDiagram):
    """One entry per unordered node pair: (label, label, multiplicity)."""
    out = []
    names = [nd.label for nd in d.nodes]
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            out.append((x, y, d.multiplicity(x, y)))
    return out


def export_dot(d: CoxeterDiagram) -> str:
    """Deterministic DOT text; affine nodes are rendered filled.

    Multiple edges are emitted as parallel edge statements so that the
    multiplicity is visible to standard layout tools.
    """
    lines = [f'graph "{d.label}" {{']
    for nd in d.nodes:
        style = ' [style=filled, fillcolor=black, fontcolor=white]' if (
            nd.kind is NodeKind.AFFINE
        ) else ""
        lines.append(f'  "{nd.label}"{style};')
    for x, y, m in braid_relation_list(d):
        for _ in range(m):
            lines.append(f'  "{x}" -- "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(d: CoxeterDiagram) -> str:
    payload = {
        "family": d.label.family,
        "rank": d.label.rank,
        "nodes": [
            {"index": nd.index, "kind": nd.kind.value, "label": nd.label}
            for nd in d.nodes
        ],
        "edges": [
            {"a": x, "b": y, "multiplicity": m}
            for x, y, m in braid_relation_list(d)
            if m
        ],
    }
    if d.specialized:
        payload["specialized"] = d.specialized
    return json.dumps(payload, sort_keys=True, indent=2)
