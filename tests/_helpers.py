"""Shared test utilities: independent brute-force oracles and extra groups."""

from dataclasses import replace
from itertools import product

import numpy as np

from dng.groups import (
    Group,
    _validate_table,
    bits,
    closure_mask,
    join_element,
    mask_of,
)
from dng.errors import GeneratorCapError, SolverConsistencyError
from dng.lattice import (
    _is_prime_power,
    all_subgroups,
    frattini,
    intersection_subgroups,
    maximal_incidence,
    maximal_subgroups,
)
from dng.solver import StructureDigraph, TypeTriple, mex


def brute_force_subgroup_masks(g: Group) -> set[int]:
    """All subgroups of g by scanning every subset containing the identity.

    Independent of the lattice module's join-closure enumeration; only
    practical for order <= 12.
    """
    n = g.order
    assert n <= 12
    t = g.table.tolist()
    found = set()
    for mask in range(1, 1 << n, 2):  # bit 0 (identity) always set
        members = [x for x in range(n) if mask >> x & 1]
        if all(mask >> t[a][b] & 1 for a in members for b in members):
            found.add(mask)
    return found


def element_orders(g: Group) -> list[int]:
    return sorted(g.element_orders)


def union_of_maximals(g: Group) -> int:
    u = 0
    for m in maximal_subgroups(g):
        u |= m
    return u


def digraph_to_json(d: StructureDigraph) -> dict:
    """JSON rendering of a solved digraph with stable node indices."""
    if not d.solved:
        raise ValueError("digraph_to_json needs a solved digraph")
    return {
        "format": "dng-digraph-v1",
        "nodes": [
            {
                "subgroup_order": s.bit_count(),
                "parity": t.parity,
                "nim_even": t.nim_even,
                "nim_odd": t.nim_odd,
            }
            for s, t in zip(d.nodes, d.types)
        ],
        "edges": [[i, j] for i, j in d.edges],
    }


def _mat_mul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def matrix_group_2x2(p: int, det_one: bool, name: str) -> Group:
    """GL(2,p) or SL(2,p) as an explicit Cayley table (identity first)."""
    mats = []
    for m in product(range(p), repeat=4):
        det = (m[0] * m[3] - m[1] * m[2]) % p
        if det == 0:
            continue
        if det_one and det != 1:
            continue
        mats.append(m)
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    index = {m: i for i, m in enumerate(mats)}
    table = [[index[_mat_mul(a, b, p)] for b in mats] for a in mats]
    return Group.from_table(table, name)


# ---------------------------------------------------------------------------
# Reference lattice pipeline: the numpy closure, join fixpoint, inclusion-scan
# maximals, pairwise-intersection fixpoint and per-move maximal scan that the
# library used before its coset join and incidence index.  Nothing here reads
# or fills the group's cache.


def _close(g: Group, member_mask: int, frontier_mask: int) -> int:
    """Close ``member_mask`` under products, multiplying only against the
    frontier (products within member_mask \\ frontier are assumed known)."""
    n = g.order
    member = np.zeros(n, dtype=bool)
    member[list(bits(member_mask))] = True
    frontier = np.fromiter(bits(frontier_mask), dtype=np.int64)
    while frontier.size:
        elems = np.flatnonzero(member)
        prods = np.concatenate(
            (g.table[np.ix_(frontier, elems)].ravel(), g.table[np.ix_(elems, frontier)].ravel())
        )
        grown = member.copy()
        grown[prods] = True
        if int(grown.sum()) > n // 2:
            # a subgroup of order > n/2 can only be the whole group
            return g.full_mask
        frontier = np.flatnonzero(grown & ~member)
        member = grown
    return mask_of(int(x) for x in np.flatnonzero(member))


def reference_closure_mask(g: Group, mask: int) -> int:
    return _close(g, mask | 1, mask | 1)


def reference_join_mask(g: Group, closed: int, extra: int) -> int:
    fresh = extra & ~closed
    if fresh == 0:
        return closed
    return _close(g, closed | fresh, fresh)


def reference_subgroup_masks(g: Group) -> set[int]:
    """Cyclic seeds joined with every subgroup found until a fixpoint."""
    full = g.full_mask
    cyclics = sorted({reference_closure_mask(g, 1 << x) for x in range(g.order)})
    found = {1, full, *cyclics}
    frontier = list(found)
    while frontier:
        fresh = []
        for h in frontier:
            if h == full:
                continue
            for c in cyclics:
                if c & ~h == 0:
                    continue
                j = reference_join_mask(g, h, c)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return found


def by_order(masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def reference_maximal_masks(g: Group, subgroups: set[int]) -> list[int]:
    """Proper subgroups inside no other proper subgroup, by (order, mask)."""
    proper = [s for s in by_order(subgroups) if s != g.full_mask]
    return [s for s in proper if not any(t != s and s & ~t == 0 for t in proper)]


def reference_intersection_masks(maximals: list[int]) -> set[int]:
    """The maximal subgroups closed under pairwise intersection.

    Every intersection of k maximal subgroups is one of k - 1 of them
    intersected with one more, so each new mask meets only the maximals.
    """
    found = set(maximals)
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in maximals:
                c = a & b
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    return found


def reference_digraph_edges(
    g: Group, nodes: list[int], maximals: list[int]
) -> tuple[tuple[int, int], ...]:
    """Structure digraph edges, each move's target found by scanning the maximals."""
    index = {s: i for i, s in enumerate(nodes)}
    edges = set()
    for i, node in enumerate(nodes):
        for x in bits(g.full_mask & ~node):
            s = node | 1 << x
            inter = None
            for m in maximals:
                if s & ~m == 0:
                    inter = m if inter is None else inter & m
            if inter is not None:
                edges.add((i, index[inter]))
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Reference enumeration: every subgroup joined with every cyclic subgroup until
# a fixpoint, one coset join each, as the library did before it enumerated up
# to conjugacy.  Subgroups and maximals in (order, mask) order.


def reference_enumerate(g: Group) -> tuple[list[int], list[int]]:
    full = g.full_mask
    generator: dict[int, int] = {}
    for x in range(g.order):
        generator.setdefault(reference_cyclic_mask(g, x), x)
    cyclics = sorted(generator.items())
    found: set[int] = {1, full}
    found.update(generator)
    maximals: list[int] = []
    frontier = list(found)
    while frontier:
        fresh: list[int] = []
        for h in frontier:
            if h == full:
                continue
            members = list(bits(h))
            maximal = True
            for c, x in cyclics:
                if c & ~h == 0:
                    continue
                # every element of h generates h, as before generating sets
                j = join_element(g, members, members[1:], x)
                if j == full:
                    continue
                maximal = False
                if j not in found:
                    found.add(j)
                    fresh.append(j)
            if maximal:
                maximals.append(h)
        frontier = fresh
    return by_order(found), by_order(maximals)


def reference_lattice_dot(g: Group) -> str:
    """The subgroup-lattice DOT by an all-pairs inclusion scan and a
    transitive reduction over index lists."""
    subs = all_subgroups(g)
    lines = ["digraph lattice {", "  // format: dng-lattice-v1"]
    for i, s in enumerate(subs):
        lines.append(f'  n{i} [label="{s.bit_count()}"];')
    n = len(subs)
    below = [
        [j for j in range(n) if j != i and subs[j] & ~subs[i] == 0]
        for i in range(n)
    ]
    for i in range(n):
        for j in below[i]:
            # keep j -> i only when no subgroup sits strictly between
            if not any(j in below[k] for k in below[i] if k != j):
                lines.append(f"  n{j} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_dicyclic_table(n: int) -> list[list[int]]:
    """Cayley table of Dic n, element x^i y^j at id j*2n + i, entry by entry."""
    m = 2 * n
    t = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(2):
            for k in range(m):
                for l in range(2):
                    if j == 0:
                        ei, ej = (i + k) % m, l
                    else:
                        ei, ej = (i - k) % m, 1 + l
                        if ej == 2:  # y^2 = x^n
                            ei, ej = (ei + n) % m, 0
                    t[j * m + i][l * m + k] = ej * m + ei
    return t


#: Orders up to this bound get the cubic associativity check here; it takes
#: about 2 s on one table of order 720 (S6, D360, Dic180) on a 2-core box.
ASSOC_CHECK_BOUND = 256


def assert_valid_construction(g: Group) -> None:
    """The check a constructor and the quotient skip: the table is
    C-contiguous int32 and passes ``_validate_table``, and the inverses the
    group reads off it are those found by ``reference_inverses``.  Above
    ``ASSOC_CHECK_BOUND`` the table is checked as ``_validate_table`` checks
    it but for associativity."""
    t = g.table
    assert t.dtype == np.int32 and t.flags.c_contiguous, g.name
    if g.order <= ASSOC_CHECK_BOUND:
        _validate_table(t)
    else:
        ids = np.arange(g.order)
        assert (t[0] == ids).all() and (t[:, 0] == ids).all(), g.name
        assert (np.sort(t, axis=1) == ids).all(), g.name
        assert (np.sort(t, axis=0) == ids[:, None]).all(), g.name
    assert g.inverses.dtype == np.int32, g.name
    assert g.inverses.tolist() == reference_inverses(t), g.name


def reference_inverses(table: np.ndarray) -> list[int]:
    """The inverse of each element, by finding the identity in its row."""
    return [int(np.flatnonzero(row == 0)[0]) for row in table]


def reference_perm_table(perms: list[tuple]) -> list[list[int]]:
    """Cayley table of the permutations by composing tuples: p*q is i -> p[q[i]]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]


def reference_by_level(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's level order as it was first built: the popcount of every
    subset, then one full-array pass per size for the subsets of that size."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    order = np.empty(1 << n, dtype=np.int32)
    starts = [0]
    for s in range(n + 1):
        level = np.flatnonzero(sizes == s)
        order[starts[-1] : starts[-1] + len(level)] = level
        starts.append(starts[-1] + len(level))
    return sizes, order, np.array(starts)


# ---------------------------------------------------------------------------
# Reference oracle: the memoised game-tree search that scans every maximal
# subgroup at every position for its legal moves, as the library did before
# its incidence index and its level-by-level sweep.  Same literal positions
# and effort count; no budget.


class ReferenceSearch:
    def __init__(self, maximals: list[int]):
        self.maximals = maximals
        self.memo: dict[int, int] = {}
        self.effort = 0

    def legal(self, p: int) -> bool:
        return any(p & ~m == 0 for m in self.maximals)

    def nim(self, p: int) -> int:
        hit = self.memo.get(p)
        if hit is not None:
            return hit
        cover = 0
        for m in self.maximals:
            if p & ~m == 0:
                cover |= m
        values = set()
        for x in bits(cover & ~p):
            self.effort += 1
            values.add(self.nim(p | 1 << x))
        result = 0
        while result in values:
            result += 1
        self.memo[p] = result
        return result


def reference_smallest_intersection(maximals: list[int], s: int) -> int | None:
    """Intersection of the maximals containing ``s``; None when there are none."""
    inter = None
    for m in maximals:
        if s & ~m == 0:
            inter = m if inter is None else inter & m
    return inter


# ---------------------------------------------------------------------------
# Reference predicates that scan the whole subgroup lattice, as the library
# did before it read them off the maximal subgroups alone.


def reference_is_nilpotent(g: Group) -> bool:
    """True iff each prime divisor has a unique (hence normal) Sylow subgroup."""
    subgroup_orders = [s.bit_count() for s in all_subgroups(g)]
    n = g.order
    p = 2
    while n > 1:
        if n % p == 0:
            pe = 1
            while n % p == 0:
                n //= p
                pe *= p
            if subgroup_orders.count(pe) != 1:
                return False
        p += 1 if p == 2 else 2
    return True


def reference_largest_odd_normal_in_frattini(g: Group) -> int:
    """Largest odd-order normal subgroup inside the Frattini subgroup, by scan."""
    phi = frattini(g)
    best = 1
    for s in all_subgroups(g):
        if s & ~phi:
            continue
        if s.bit_count() % 2 == 0 or s.bit_count() <= best.bit_count():
            continue
        if reference_is_normal(g, s):
            best = s
    return best


# ---------------------------------------------------------------------------
# Reference quotient arithmetic: one table lookup at a time, as the library
# did before its whole-table gathers.


def reference_normalizer(g: Group, mask: int) -> int:
    """The elements x with x*m*x^-1 in the subgroup for every m in it."""
    t = g.table.tolist()
    inv = g.inverses.tolist()
    members = list(bits(mask))
    return mask_of(
        x for x in range(g.order) if all(mask >> t[t[x][m]][inv[x]] & 1 for m in members)
    )


def reference_is_normal(g: Group, mask: int) -> bool:
    """True iff x*m*x^-1 lies in the subgroup for every x in g and m in it."""
    return reference_normalizer(g, mask) == g.full_mask


def reference_coset_ids(g: Group, mask: int) -> list[int]:
    """Coset ids by a scan: the coset of each element not yet numbered gets
    the next id."""
    t = g.table.tolist()
    cos = [-1] * g.order
    nxt = 0
    for x in range(g.order):
        if cos[x] < 0:
            for m in bits(mask):
                cos[t[x][m]] = nxt
            nxt += 1
    return cos


def reference_quotient_table(g: Group, mask: int) -> list[list[int]]:
    """The quotient's table entry by entry, on the least element of each coset."""
    t = g.table.tolist()
    cos = reference_coset_ids(g, mask)
    reps = [cos.index(i) for i in range(max(cos) + 1)]
    return [[cos[t[a][b]] for b in reps] for a in reps]


def reference_real_element_disjunction(g: Group, x: int) -> bool:
    """For a real odd-order x: some proper even subgroup contains x, or g is
    the dihedral extension of <x>."""
    k = g.element_orders[x]
    t = g.table.tolist()
    xinv = int(g.inverses[x])
    full = g.full_mask
    for s in all_subgroups(g):
        if s != full and s.bit_count() % 2 == 0 and s >> x & 1:
            return True
    if g.order == 2 * k:
        for u in range(1, g.order):
            # u*x*u^-1 = u*x*u for an involution u
            if t[u][u] == 0 and t[t[u][x]][u] == xinv:
                if closure_mask(g, 1 << x | 1 << u) == full:
                    return True
    return False


# ---------------------------------------------------------------------------
# Reference structure solver: the nodes by closing the maximal subgroups under
# pairwise intersection, the digraph by one big-int AND per (node, element
# outside it), and one mex solve per node, as the library did before its walk
# over incidences and its option-set memo.


def successor_lists(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Each of n nodes' successors, in the order of ``edges``."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    return tuple(map(tuple, succ))


def reference_structure_digraph(g: Group) -> StructureDigraph:
    incidence = maximal_incidence(g)
    masks = reference_intersection_masks(list(incidence.masks))
    nodes = tuple(by_order(masks))
    elem_inc = incidence.elements
    node_inc = [incidence.of(node) for node in nodes]
    index = {inc: i for i, inc in enumerate(node_inc)}
    edges: set[tuple[int, int]] = set()
    for i, (node, inc) in enumerate(zip(nodes, node_inc)):
        for x in bits(g.full_mask & ~node):
            target = inc & elem_inc[x]
            if target:
                edges.add((i, index[target]))
    return StructureDigraph(
        nodes=nodes, successors=successor_lists(len(nodes), sorted(edges))
    )


def reference_class_sizes(g: Group) -> tuple[int, ...]:
    """``lattice.class_sizes`` by testing every pair of poset members for
    inclusion, as the library did before it read overgroups off an index."""
    masks = intersection_subgroups(g).members
    sizes: list[int] = []
    # members are sorted by order, so every proper subgroup J of I comes first
    for i, a in enumerate(masks):
        n = 1 << a.bit_count()
        for b, size in zip(masks[:i], sizes):
            if b & ~a == 0:
                n -= size
        sizes.append(n)
    return tuple(sizes)


def reference_solve_types(d: StructureDigraph) -> StructureDigraph:
    n = len(d.nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in d.edges:
        succ[i].append(j)
    types: list[TypeTriple | None] = [None] * n
    # edges point to strictly larger subgroups, so descending order is a
    # reverse topological order
    for i in sorted(range(n), key=lambda k: -d.nodes[k].bit_count()):
        opts = {types[j] for j in succ[i]}
        p = d.nodes[i].bit_count() % 2
        nim_same = mex({t.component(1 - p) for t in opts})
        nim_other = mex({nim_same} | {t.component(p) for t in opts})
        check = mex({nim_other} | {t.component(1 - p) for t in opts})
        if check != nim_same:
            raise SolverConsistencyError(
                f"node of order {d.nodes[i].bit_count()}: parity {p}, "
                f"options {sorted(map(str, opts))} give "
                f"nim_same={nim_same}, nim_other={nim_other}, recheck={check}"
            )
        if p:
            types[i] = TypeTriple(1, nim_other, nim_same)
        else:
            types[i] = TypeTriple(0, nim_same, nim_other)
    return replace(d, types=tuple(types))


# ---------------------------------------------------------------------------
# Reference generation queries: the power loop, the prime-power seeds found by
# it, Barnes' criterion over every element and the k-subset closure search, as
# the library answered them before its cyclic subgroup walks, its seeds per
# cyclic subgroup and its incidence search.


def reference_element_order(g: Group, x: int) -> int:
    """Least k >= 1 with x^k = identity, by multiplying x in until it is."""
    k = 1
    y = x
    while y != 0:
        y = int(g.table[y, x])
        k += 1
    return k


def reference_cyclic_mask(g: Group, x: int) -> int:
    """Bitmask of the powers of x, by multiplying x in until the identity."""
    mask = 1
    y = x
    while y != 0:
        mask |= 1 << y
        y = int(g.table[y, x])
    return mask


def reference_seeds(g: Group) -> list[tuple[int, int]]:
    """Each cyclic subgroup of prime-power order with its first generator."""
    generator: dict[int, int] = {}
    for x in range(1, g.order):
        c = reference_cyclic_mask(g, x)
        if _is_prime_power(c.bit_count()):
            generator.setdefault(c, x)
    return sorted(generator.items())


def reference_barnes_first_player_wins(g: Group) -> bool:
    """Barnes' criterion by trying every odd-order element, not one
    generator per cyclic subgroup."""
    orders = g.element_orders
    involutions = [t for t, k in enumerate(orders) if k == 2]
    full = g.full_mask
    for x, k in enumerate(orders):
        if k % 2 == 0:
            continue
        if all(closure_mask(g, 1 << x | 1 << t) == full for t in involutions):
            return True
    return False


def reference_min_generators(g: Group, cap: int = 3) -> int:
    """Least k <= cap such that some k-subset generates g, by closing every
    k-subset whose elements each add to the closure of the ones before."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if g.order == 1:
        return 0
    full = g.full_mask
    n = g.order
    # many prefixes close to the same subgroup, so each closure is kept
    closures: dict[int, int] = {}

    def extend(closed: int, start: int, remaining: int) -> bool:
        for x in range(start, n):
            if closed >> x & 1:
                continue  # x adds nothing: same closure as the shorter prefix
            mask = closed | 1 << x
            c = closures.get(mask)
            if c is None:
                c = closures[mask] = closure_mask(g, mask)
            if c == full:
                return True
            if remaining > 1 and extend(c, x + 1, remaining - 1):
                return True
        return False

    for k in range(1, cap + 1):
        if extend(1, 1, k):
            return k
    raise GeneratorCapError(cap)


def d_or_cap(min_gens, g: Group, cap: int):
    """``min_gens(g, cap)``, or ``">cap"`` when it raises GeneratorCapError,
    as the ``verify`` column ``d`` shows it."""
    try:
        return min_gens(g, cap)
    except GeneratorCapError as exc:
        return f">{exc.cap}"
