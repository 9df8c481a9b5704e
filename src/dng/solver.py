"""Structure digraph over intersection subgroups and the mex type calculus.

A node is an intersection subgroup I; its structure class holds the game
positions whose smallest enclosing intersection subgroup is I.  Within a
class, positions of equal parity share a nim-number, so a class is fully
described by a type triple (parity of I, nim of even positions, nim of odd
positions).  Types are solved bottom-up:

* positions of the same parity ``p`` as I (including I itself) can only move
  into option classes, landing on opposite-parity positions there:
  ``nim_p = mex{comp(t, 1-p)}`` over option types ``t``;
* opposite-parity positions can additionally move within the class:
  ``nim_{1-p} = mex({nim_p} ∪ {comp(t, p)})``.

``comp(t, q)`` is the nim-number of parity-``q`` positions of a class of
type ``t``.  A solved type outside the paper's four-type spectrum
(``SPECTRUM``) raises SolverConsistencyError.

The nodes are the intersection poset and each node's successors its moves,
found in one walk over incidences.  ``solve`` (for ``analyze``, ``verify``
and ``game_nim``) reads them keyed by incidence
(``lattice.incidence_poset``), in ascending incidence popcount, which is a
reverse topological order.  Only the structure diagram numbers the nodes by
(order, mask), with one ascending successor tuple per node
(``structure_digraph``, ``solve_types``).  Both solve the types through one
memo on option sets: each type gets a one-hot id, a node's options are the
OR of its successors' ids, and each distinct (parity, options) pair is
solved once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Union

from .errors import SolverConsistencyError, TrivialGroupError
from .groups import Group, bits
from .lattice import incidence_poset, intersection_subgroups, maximal_incidence


@dataclass(frozen=True, order=True)
class TypeTriple:
    """(parity of I, nim of even positions, nim of odd positions)."""

    parity: int
    nim_even: int
    nim_odd: int

    def component(self, parity: int) -> int:
        """Nim-number of the positions of the given parity (comp(t, q))."""
        return self.nim_odd if parity else self.nim_even

    def __str__(self) -> str:
        return f"({self.parity},{self.nim_even},{self.nim_odd})"


#: The only type triples a structure class can take.
SPECTRUM = frozenset(
    {TypeTriple(0, 0, 1), TypeTriple(1, 0, 1), TypeTriple(1, 1, 0), TypeTriple(1, 3, 2)}
)


@dataclass
class StructureDigraph:
    """Intersection subgroups with class-option edges; source is the Frattini node.

    The numbered form of the poset that ``solve`` reads keyed by incidence,
    for the structure diagram and the library API.  Nodes are sorted
    ascending by (order, mask), so node 0 is the Frattini subgroup; each
    node is its subgroup's mask.
    ``successors[i]`` lists node i's option nodes, ascending; each edge
    (i, j) strictly increases the subgroup, hence the digraph is acyclic and
    the source has no incoming edges.
    """

    nodes: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    types: tuple[TypeTriple, ...] | None = None
    source: int = 0

    @property
    def solved(self) -> bool:
        return self.types is not None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (i, j), node by node: sorted, as the lists ascend."""
        return tuple((i, j) for i, out in enumerate(self.successors) for j in out)


@dataclass(frozen=True)
class SimplifiedNode:
    triple: TypeTriple
    min_member_order: int


@dataclass
class SimplifiedDiagram:
    """Structure diagram with same-signature classes merged and loops removed."""

    nodes: tuple[SimplifiedNode, ...]
    edges: tuple[tuple[int, int], ...]


def mex(values) -> int:
    """Least nonnegative integer absent from ``values``."""
    s = set(values)
    m = 0
    while m in s:
        m += 1
    return m


def structure_digraph(g: Group) -> StructureDigraph:
    """Build the (unsolved) structure digraph of the avoidance game on g.

    Its nodes are the intersection subgroups and its successor lists the
    moves between them (``lattice.intersection_subgroups``).
    """
    if g.order < 2:
        raise TrivialGroupError("no avoidance game for the trivial group")
    poset = intersection_subgroups(g)
    return StructureDigraph(nodes=poset.members, successors=poset.successors)


def _type_ids(order, masks, successors) -> tuple[dict, list[TypeTriple]]:
    """Each node's one-hot type id, and the types: id 1 << b is ``kinds[b]``.

    Nodes are visited in ``order``, a reverse topological order: node v's
    subgroup is ``masks[v]`` and its option nodes ``successors[v]``, all
    visited before v.  The OR of their ids is v's option set, and each
    distinct (parity, option set) is solved once.  A type outside
    ``SPECTRUM`` raises SolverConsistencyError.
    """
    kinds: list[TypeTriple] = []
    solved: dict[int, int] = {}  # options << 1 | parity -> id
    ids = {}
    for v in order:
        options = 0
        for j in successors[v]:
            options |= ids[j]
        size = masks[v].bit_count()
        p = size & 1
        key = options << 1 | p
        if key not in solved:
            opts = {kinds[b] for b in bits(options)}
            nim_same = mex({t.component(1 - p) for t in opts})
            nim_other = mex({nim_same} | {t.component(p) for t in opts})
            if p:
                t = TypeTriple(1, nim_other, nim_same)
            else:
                t = TypeTriple(0, nim_same, nim_other)
            if t not in SPECTRUM:
                raise SolverConsistencyError(
                    f"node of order {size}: options "
                    f"{sorted(map(str, opts))} give the type {t}, outside "
                    "the four-type spectrum"
                )
            if t not in kinds:
                kinds.append(t)
            solved[key] = 1 << kinds.index(t)
        ids[v] = solved[key]
    return ids, kinds


def solve_types(d: StructureDigraph) -> StructureDigraph:
    """Solve all type triples in reverse topological order.

    Successors are later nodes (nodes are sorted by order and every edge
    strictly enlarges the subgroup), so descending index is a reverse
    topological order; a successor at or before its node is a ValueError.
    Types are solved by ``_type_ids``, as in ``solve``.
    """
    n = len(d.nodes)
    descending = range(n - 1, -1, -1)
    for i in descending:
        out = d.successors[i]
        if out and min(out) <= i:
            raise ValueError(f"edge ({i}, {min(out)}) does not point to a later node")
    ids, kinds = _type_ids(descending, d.nodes, d.successors)
    return replace(d, types=tuple(kinds[ids[i].bit_length() - 1] for i in range(n)))


def solve(g: Group) -> dict:
    """The solver's part of the ``dng-analysis-v1`` document: the game's
    nim-number, the node and edge counts and the type multiset.

    The types are solved over the poset keyed by incidence
    (``lattice.incidence_poset``), whose order is a reverse topological one.
    The answer is the type of the empty set's incidence, the Frattini node.
    """
    if g.order < 2:
        raise TrivialGroupError("no avoidance game for the trivial group")
    poset = incidence_poset(g)
    ids, kinds = _type_ids(poset.masks, poset.masks, poset.moves)
    counts = Counter(ids.values())
    return {
        "nim": kinds[ids[maximal_incidence(g).everything].bit_length() - 1].nim_even,
        "nodes": len(poset.masks),
        "edges": sum(map(len, poset.moves.values())),
        "types": _printed(
            {kinds[k.bit_length() - 1]: c for k, c in counts.items()}
        ),
    }


def game_nim(g: Group) -> int:
    """Nim-number of the game: nim of even positions at the Frattini node."""
    return solve(g)["nim"]


def simplify(d: StructureDigraph) -> SimplifiedDiagram:
    """Merge same-signature classes and drop self-loops.

    The signature of a node is its own type together with the set of its
    option types plus its own type.  One merge reaches the fixpoint: a merged
    node's option types, plus its own type, are its members' common set, so
    two merged nodes keep different signatures.  Merged nodes are sorted by
    (type, least member order).
    """
    if not d.solved:
        raise ValueError("simplify needs a solved digraph")
    options = [{t} for t in d.types]
    for i, j in d.edges:
        options[i].add(d.types[j])
    classes: dict[tuple, list[int]] = {}
    for i, t in enumerate(d.types):
        classes.setdefault((t, frozenset(options[i])), []).append(i)
    least = {
        sig: min(d.nodes[i].bit_count() for i in ids) for sig, ids in classes.items()
    }
    keys = sorted(classes, key=lambda sig: (sig[0], least[sig]))
    remap = {i: new for new, sig in enumerate(keys) for i in classes[sig]}
    nodes = tuple(
        SimplifiedNode(triple=sig[0], min_member_order=least[sig]) for sig in keys
    )
    edges = {(remap[i], remap[j]) for i, j in d.edges if remap[i] != remap[j]}
    return SimplifiedDiagram(nodes=nodes, edges=tuple(sorted(edges)))


def emit_dot(d: Union[StructureDigraph, SimplifiedDiagram]) -> str:
    """Deterministic DOT rendering of a solved structure or simplified diagram.

    Each node carries its type as a label and its parity as an attribute
    (odd classes are the down-pointing triangles of hand-drawn diagrams).
    """
    if isinstance(d, StructureDigraph):
        if not d.solved:
            raise ValueError("emit_dot needs a solved digraph")
        graph, version = "structure", "dng-structure-v1"
        triples = d.types
    else:
        graph, version = "simplified", "dng-simplified-v1"
        triples = [n.triple for n in d.nodes]
    lines = [f"digraph {graph} {{", f"  // format: {version}"]
    for i, t in enumerate(triples):
        parity = "odd" if t.parity else "even"
        lines.append(
            f'  n{i} [label="pty={t.parity} | even={t.nim_even} | odd={t.nim_odd}"'
            f' parity="{parity}"];'
        )
    for i, j in sorted(d.edges):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def type_multiset(d: StructureDigraph) -> dict[str, int]:
    """Counts of solved node types, keyed by the printed triple."""
    if not d.solved:
        raise ValueError("type_multiset needs a solved digraph")
    # count the field tuples, then print the few distinct ones
    counts = Counter(map(attrgetter("parity", "nim_even", "nim_odd"), d.types))
    return _printed({TypeTriple(*t): c for t, c in counts.items()})


def _printed(counts: dict[TypeTriple, int]) -> dict[str, int]:
    """Counts of solved types keyed by the printed triple, in sorted order:
    the type multiset of ``solve`` and ``type_multiset``."""
    return dict(sorted((str(t), c) for t, c in counts.items()))
