"""Double affine Coxeter diagrams.

Two families: the triple-node diagrams (three pairwise quadruple-laced
affine nodes, each inheriting the triple node's connectivity to the
finite diagram) and the two-affine-node diagrams.  Finite nodes carry
the conventional numbering of the corresponding affine Dynkin diagram;
affine nodes come last, in the fixed order Theta01, Theta02, Theta03
(or Theta0, Phi0).

FAMILIES is the one table of double affine labels: each family's affine
Dynkin type at rank n, its admissible ranks, its e-partner and the
partner's node order as Phi0 sees it.  The ranks are n >= 1 for dddotA,
n >= 3 for dddotB, ddotB and ddotC, n >= 2 for dddotC and dddotCstar
(rank 1 of each aliases dddotA1 and dddotA1star), n >= 4 for dddotD,
6, 7, 8 for dddotE and one fixed rank for the rest.  Labels, parsing,
the correspondence with affine types (both ways) and the two-node
diagrams all read the table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property

from .rootsys import AffineLabel, UnknownTypeError, affine_cartan


class NodeKind(Enum):
    FINITE = "finite"
    AFFINE = "affine"


@dataclass(frozen=True)
class NodeId:
    index: int
    kind: NodeKind
    label: str  # "T1".."Tn", "Theta01".."Theta03", "Theta0", "Phi0"


# "A{2n-1}(2)" (linear in the rank n) or "E6(2)" (fixed)
_KAC = re.compile(r"([A-G])(?:\{(\d*)n([+-]\d+)?\}|(\d+))\((\d)\)")


@dataclass(frozen=True)
class Family:
    """One row of FAMILIES: the affine type `kac` at rank n, admissible
    for least <= n <= most (most None: no bound), the e-partner family
    (None: the family itself), and the partner node at each position
    0..n as Phi0 sees it (empty: in order)."""

    kac: str
    least: int
    most: int | None = None
    partner: str | None = None
    order: tuple[int, ...] = ()

    @cached_property
    def _form(self) -> tuple[str, int, int, int]:
        """(X, a, b, r) for the affine type X_{an+b}^(r)."""
        letter, a, b, fixed, twist = _KAC.fullmatch(self.kac).groups()
        if fixed:
            return letter, 0, int(fixed), int(twist)
        return letter, int(a or 1), int(b or 0), int(twist)

    def admits(self, rank) -> bool:
        return self.least <= rank and (self.most is None or rank <= self.most)

    def affine(self, n: int) -> AffineLabel:
        letter, a, b, twist = self._form
        return AffineLabel(letter, a * n + b, twist)

    def rank_of(self, aff: AffineLabel) -> int | None:
        """The rank, admissible or not, at which this family has type aff."""
        letter, a, b, twist = self._form
        if (aff.letter, aff.twist) != (letter, twist):
            return None
        if a == 0:
            return self.least if aff.N == b else None
        n, rest = divmod(aff.N - b, a)
        return None if rest else n


FAMILIES = {
    "dddotA": Family("A{n}(1)", 1),
    "dddotB": Family("B{n}(1)", 3),
    "dddotC": Family("C{n}(1)", 2),
    "dddotD": Family("D{n}(1)", 4),
    "dddotE": Family("E{n}(1)", 6, 8),
    "dddotF": Family("F{n}(1)", 4, 4),
    "dddotG": Family("G{n}(1)", 2, 2),
    "dddotAstar": Family("A2(2)", 1, 1),
    "dddotCstar": Family("A{2n}(2)", 2),
    "ddotB": Family("D{n+1}(2)", 3, partner="ddotC"),
    "ddotC": Family("A{2n-1}(2)", 3, partner="ddotB"),
    # The partner order attaches the partner 0-node where Phi0 attaches.
    "ddotB2": Family("A3(2)", 2, 2, order=(0, 2, 1)),  # the square is symmetric: swap T1, T2
    "ddotF4": Family("E6(2)", 4, 4, order=(0, 4, 3, 2, 1)),  # reverse the chain: Phi0 at T4
    "ddotG2": Family("D4(3)", 2, 2, order=(0, 2, 1)),
}

# Rank-1 labels stored under another family.
_ALIASES = {("dddotC", 1): "dddotA", ("dddotCstar", 1): "dddotAstar"}


@dataclass(frozen=True)
class DoubleAffineLabel:
    family: str
    rank: int

    def __str__(self) -> str:
        if self.family[-1].isdigit():  # ddotB2, ddotF4, ddotG2 name their rank
            return self.family
        if self.is_star:
            return f"{self.family[:-4]}{self.rank}star"
        return f"{self.family}{self.rank}"

    @property
    def is_star(self) -> bool:
        return self.family.endswith("star")

    @property
    def is_triple(self) -> bool:
        """Three affine nodes Theta01..Theta03 (starred labels too), not
        the two nodes Theta0, Phi0."""
        return self.family.startswith("dddot")


def _fixed_rank(family: str) -> int | None:
    """The rank a family takes when none is given: its one admissible
    rank, except for a starred family, whose name carries its rank."""
    row = FAMILIES.get(family)
    if row is None or row.least != row.most or family.endswith("star"):
        return None
    return row.least


def label(family: str, rank: int | None = None) -> DoubleAffineLabel:
    """Validate and normalize a (family, rank) pair."""
    row = FAMILIES.get(family)
    fixed = _fixed_rank(family)
    if fixed is not None:
        if rank not in (None, fixed):
            raise UnknownTypeError(f"{family} has fixed rank {fixed}")
        rank = fixed
    if rank is None:
        raise UnknownTypeError(f"{family} needs a rank")
    if (family, rank) in _ALIASES:
        return DoubleAffineLabel(_ALIASES[family, rank], rank)
    if row is not None and row.admits(rank):
        return DoubleAffineLabel(family, rank)
    if row is not None and row.least == row.most:
        raise UnknownTypeError(f"{family} exists at rank {row.least} only")
    raise UnknownTypeError(f"invalid family/rank: {family} {rank}")


@cache
def parse(text: str) -> DoubleAffineLabel:
    """Parse e.g. 'dddotC3', 'dddotC2star', 'ddotB4', 'ddotG2'.  Memoized:
    the per-label factories look labels up by name on every call."""
    text = text.strip()
    for fam in sorted(FAMILIES, key=len, reverse=True):
        if text == fam and _fixed_rank(fam) is not None:
            return label(fam)
        if text.startswith(fam):
            rest = text[len(fam):]
            if rest.isdecimal():
                return label(fam, int(rest))
            if rest.endswith("star") and rest[:-4].isdecimal() and fam + "star" in FAMILIES:
                return label(fam + "star", int(rest[:-4]))
    raise UnknownTypeError(f"cannot parse double affine label {text!r}")


def correspondence(lab: DoubleAffineLabel) -> AffineLabel:
    """The affine Dynkin type isomorphic to the double affine group."""
    row = FAMILIES.get(lab.family)
    if row is None:
        raise UnknownTypeError(str(lab))
    return row.affine(lab.rank)


def correspondence_inverse(aff: AffineLabel) -> DoubleAffineLabel:
    """The double affine Coxeter label for an affine Dynkin type: the
    family that has type aff at an admissible rank, or else the one that
    has it at some other rank, which label() then reports."""
    hits = [(fam, n) for fam, row in FAMILIES.items() if (n := row.rank_of(aff)) is not None]
    if not hits:
        raise UnknownTypeError(str(aff))
    return label(*min(hits, key=lambda hit: not FAMILIES[hit[0]].admits(hit[1])))


def partner(lab: DoubleAffineLabel) -> DoubleAffineLabel:
    """The label that the anti-involution e carries lab to."""
    fam = FAMILIES[lab.family].partner
    return lab if fam is None else label(fam, lab.rank)


def host(lab: DoubleAffineLabel) -> DoubleAffineLabel:
    """The label whose presentation the congruence matrices of lab act
    on: lab itself, or for a starred label its unstarred family at the
    same rank, on which Gamma1(2)' acts through the level-one lift."""
    return label(lab.family.removesuffix("star"), lab.rank) if lab.is_star else lab


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

    finite = [NodeId(i, NodeKind.FINITE, f"T{i}") for i in range(1, n + 1)]
    mult: dict = {}

    def put(x: str, y: str, m: int):
        if m:
            mult[frozenset((x, y))] = m

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            put(f"T{i}", f"T{j}", a[i][j] * a[j][i])

    if lab.is_triple:
        affine = [NodeId(n + k, NodeKind.AFFINE, f"Theta0{k}") for k in (1, 2, 3)]
        for p in (1, 2, 3):
            for q in range(p + 1, 4):
                put(f"Theta0{p}", f"Theta0{q}", 4)
            for i in range(1, n + 1):
                put(f"Theta0{p}", f"T{i}", a[0][i] * a[i][0])
    else:
        affine = [
            NodeId(n + 1, NodeKind.AFFINE, "Theta0"),
            NodeId(n + 2, NodeKind.AFFINE, "Phi0"),
        ]
        for i in range(1, n + 1):
            put("Theta0", f"T{i}", a[0][i] * a[i][0])
        # Phi0 attaches like the 0-node of the companion labeling: its
        # braid relations are those of X_{phi^v} Phi^{-1}, read off from
        # the affine diagram of the partner type.
        pa = _partner_cartan(lab)
        for i in range(1, n + 1):
            put("Phi0", f"T{i}", pa[0][i] * pa[i][0])
        put("Theta0", "Phi0", {2: 2, 3: 3}[cartan.twist])

    diagram = CoxeterDiagram(
        label=lab,
        nodes=tuple(finite + affine),
        mult=mult,
        specialized="Theta02" if lab.is_star else None,
    )
    return diagram


def _partner_cartan(lab: DoubleAffineLabel):
    """An affine Cartan matrix whose 0-node matches Phi0's connectivity:
    the e-partner's, its nodes in the order Phi0 sees them."""
    m = affine_cartan(correspondence(partner(lab))).cartan
    order = FAMILIES[lab.family].order
    if not order:
        return m
    return tuple(tuple(m[i][j] for j in order) for i in order)


def union_find(items, pairs):
    """The class representative function of the items after joining each
    pair (union-find with path halving)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    return find


def one_connected_components(d: CoxeterDiagram) -> list[frozenset]:
    """Components after erasing all edges of multiplicity >= 2."""
    names = [nd.label for nd in d.nodes]
    find = union_find(names, (tuple(key) for key, m in d.mult.items() if m == 1))
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
