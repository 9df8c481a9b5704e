"""Subgroup lattice, maximal subgroups, Frattini subgroup, intersection poset.

Enumeration works up to conjugacy, by cyclic extension (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005).  The seeds are the
cyclic subgroups of prime-power order (``Group.cyclic_masks``): every
element is a product of prime-power powers of itself, so every subgroup is a
join of seeds.  Starting from the trivial subgroup, one representative H of
each conjugacy class is joined with every seed by a coset walk
(``groups.join_element``) that multiplies by the seed's generator x and by a
generating set of H: its parent's generators and the seed that made it.  The
trivial subgroup's join with a seed is the seed, and a normal H, alone in
its class, is walked by x alone, since H<x> is a subgroup when x normalizes
H.  A join not seen before is a new class, whose members are listed at once
by conjugating with generators of g modulo its centre Z: the cyclic
generators, largest order first, each outside the span of those before it,
taken once per distinct action (one acting as a kept y does is a central
element times y); each member's elements are the image list that found it.
That walk also gives N_G(H) (Schreier's lemma): with K = u_K*H*u_K^-1 for
each member K, a step by x from K to a member K' seen before gives
u_K'^-1*x*u_K, and these, with Z, generate N_G(H).  Z fixes every coset
under conjugation, so they alone give its orbits.  Since <H, hx> = <H, x>
for h in H, and n<H, x>n^-1 = <H, nxn^-1> for n in N_G(H) is in the class of
<H, x>, listed whole when found, and is g only if <H, x> is, a
representative is joined with at most one seed per N_G(H)-orbit of right
cosets under conjugation.  Joins whose result Lagrange's theorem fixes are
skipped: when K contains H with prime index, no subgroup lies strictly
between them, so <H, x> = K for every x in K \\ H.  A representative of
prime index in g is therefore maximal with no join at all, a join that
returns a new class of prime index over H settles every member of it that
contains H, and so does every prime-index overgroup found before H's turn.
Those are the found subgroups of order |H|p that hold each generator of H:
for each order, the found subgroups of that order are listed with one bitset
over the list per element, and the bitsets of H's generators at order |H|p
are ANDed, so no bitset is wider than the subgroups of one order.  A proper
subgroup is maximal iff its join with every seed outside it is the whole
group (an element outside H has a prime-power part outside H), and the
maximal subgroups are the classes of the maximal representatives.

Which members of a list of subgroups contain a set is answered by its
incidence, the bitmask of those members: the AND of its elements'
incidences, as Python ints, which are exact keys at any width.  One
``Incidence`` index serves three lists: the maximal subgroups
(``maximal_incidence``; a set generates the group iff its incidence is 0),
all subgroups, whose incidences are their containers in the lattice
(``lattice_dot``), and the intersection subgroups, whose incidences are
their overgroups (``class_sizes``).  The intersection poset and the moves
between its members are found in one walk over maximal incidences, from the
empty set's: adding an element to a set ANDs in the element's incidence.
The walk is breadth first, so it also gives d(G), the fewest elements that
generate g.  Each member's subgroup is then read off its moves, in ascending
incidence popcount, with no AND over the maximal subgroups it names.  A
one-bit incidence names its maximal subgroup.  A walked incidence I of two
or more bits is the union of its moves' incidences, so its subgroup is the
AND of theirs: for each maximal Mi in I, the intersection of I's maximals is
a proper subgroup of Mi (distinct maximal subgroups do not contain each
other), and for y in Mi outside it the move to the incidence of I with y
added keeps bit i.  The solver, the class sizes and ``min_generators`` read
the poset keyed by incidence (``incidence_poset``); only the structure
diagram numbers it by (order, mask) (``intersection_subgroups``).  The whole
lattice is sorted only when read (``all_subgroups``, for ``lattice_dot``).

Results that depend only on the group are computed once per group: the
``per_group`` decorator stores each in ``Group.derived`` under its function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    GeneratingSetError,
    LatticeGuardError,
    SolverConsistencyError,
    TrivialGroupError,
)
from .groups import Group, bits, element_order, join_element, mask_of

#: Abort enumeration beyond this many subgroups (pathological 2-groups).
SUBGROUP_GUARD = 20000


@dataclass(frozen=True, order=True)
class Subgroup:
    """Bit-set of element ids closed under the group operation."""

    mask: int

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def is_even(self) -> bool:
        return self.order % 2 == 0

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)


@dataclass
class IntersectionPoset:
    """All intersections of nonempty sets of maximal subgroups, numbered by
    (order, mask): ``intersection_subgroups``.

    ``successors[i]`` lists, ascending, each j such that adding one element
    to a set whose smallest enclosing intersection is ``members[i]`` makes
    ``members[j]`` the smallest one enclosing the enlarged set, a proper
    overgroup.  Moves that reach a generating set are left out.
    """

    members: tuple[Subgroup, ...]  # sorted by (order, mask); the first is Frattini
    successors: tuple[tuple[int, ...], ...]


@dataclass
class IncidencePoset:
    """All intersections of nonempty sets of maximal subgroups, keyed by
    incidence over the maximal subgroups.

    ``masks`` maps each member's incidence to its subgroup, in ascending
    incidence popcount.  ``moves`` maps it to the incidences its moves reach
    (those of ``IntersectionPoset.successors``).  A move adds bits to the
    subgroup and drops them from the incidence, so every member comes after
    its moves in ``masks``: a reverse topological order.  The empty set's
    incidence, all ones, names the Frattini subgroup.  ``d`` is d(G), read
    off the walk's breadth-first order (``_walk``).
    """

    masks: dict[int, int]
    moves: dict[int, tuple[int, ...]]
    d: int


def per_group(fn):
    """Compute ``fn(g)`` once per group and return the stored result after."""

    @functools.wraps(fn)
    def once(g: Group):
        if fn not in g.derived:
            g.derived[fn] = fn(g)
        return g.derived[fn]

    return once


def _sorted_subgroups(masks) -> tuple[Subgroup, ...]:
    return tuple(
        Subgroup(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))
    )


def _least_prime(k: int) -> int:
    p = 2
    while k % p:
        p += 1
    return p


def _is_prime_power(k: int) -> bool:
    p = _least_prime(k)
    while k % p == 0:
        k //= p
    return k == 1


def _seeds(g: Group) -> list[tuple[int, int]]:
    """Each cyclic subgroup of prime-power order with its least generator,
    sorted by mask."""
    orders, cyclic = g.element_orders, g.cyclic_masks
    prime_powers = {k for k in set(orders) if k > 1 and _is_prime_power(k)}
    return sorted(
        (cyclic[x], x) for x in g.cyclic_generators if orders[x] in prime_powers
    )


def _enumerate(
    g: Group,
) -> tuple[set[int], list[int], list[tuple[list[int], list[int], tuple[int, ...]]]]:
    """The masks of all subgroups and of the maximal subgroups, unsorted, and
    the conjugacy classes of subgroups, found one class at a time.

    Each class lists its members, representative H first, a generating set
    of H, and generators of N_G(H) modulo its centre.  When a join of H
    returns a new class of prime index over H, every member of it over H is
    settled at once: its joins with H are itself.
    """
    n, full = g.order, g.full_mask
    cols = g.columns
    inverses = g.inverses.tolist()
    orders, cyclic = g.element_orders, g.cyclic_masks
    # joining a seed's generator joins the seed
    seeds = _seeds(g)
    # conjugation by a generating set of g modulo its centre, taken greedily
    # from the cyclic generators, largest order first: each generator x with
    # conj[h] = x*h*x^-1, kept once per distinct action.  An x acting as the
    # identity is central, and one acting as a kept y does is (x*y^-1)*y, a
    # central element times y, so the kept ones move subgroups as g does.
    conjugations: list[tuple[int, list[int]]] = []
    actions = [list(range(n))]  # the identity's, then the kept ones
    span, span_gens = 1, []
    for x in sorted(g.cyclic_generators[1:], key=lambda x: (-orders[x], x)):
        if span == full:
            break
        c = cyclic[x]
        if c & ~span:
            # the span's first step is the cyclic subgroup itself
            span = join_element(g, list(bits(span)), span_gens, x) if span_gens else c
            span_gens = [*span_gens, x]
            conj = g.table[:, inverses[x]][g.table[x]].tolist()
            if conj not in actions:
                actions.append(conj)
                conjugations.append((x, conj))

    pow2 = [1 << x for x in range(n)]

    def conjugacy_class(
        h: int,
    ) -> tuple[list[int], tuple[int, ...], list[int] | None]:
        """The class of H, H first, generators of N_G(H) modulo the centre
        (Schreier's lemma over the distinct actions): v^-1*x*u for each
        step from u*H*u^-1 to a member v*H*v^-1 seen before, less the
        identity, and the elements of H, ascending (None if g is
        abelian: nothing is conjugated, and they are listed only if H
        is joined)."""
        if not conjugations:  # g is abelian
            return [h], (), None
        orbit = [h]
        elements = list(bits(h))
        # each member's elements: H's, then the image that found the member
        lists = [elements]
        via = {h: 0}  # each member K, with a u such that K = u*H*u^-1
        normalizer = set()
        for k, members in zip(orbit, lists):  # both grow while walked
            u = via[k]
            for x, conj in conjugations:
                # the images are distinct bits, so their sum is their OR
                image = sum(map(pow2.__getitem__, map(conj.__getitem__, members)))
                v = via.get(image)
                if v is None:
                    via[image] = cols[u][x]
                    orbit.append(image)
                    lists.append(list(map(conj.__getitem__, members)))
                else:
                    normalizer.add(cols[u][cols[x][inverses[v]]])
        normalizer.discard(0)
        return orbit, tuple(sorted(normalizer)), elements

    # every prime dividing |g| is the order of an element (Cauchy)
    primes = {k for k in set(orders) if k > 1 and _least_prime(k) == k}
    seed_gens = mask_of(x for _, x in seeds)
    found = {1, full}
    # Per order m, the proper nontrivial subgroups of order m found so far,
    # and per element id z the bitset over that list of those holding z
    # (kept for the seed generators only).
    by_order: dict[int, tuple[list[int], list[int]]] = {}
    # each class: its members, representative first, a generating set of the
    # representative (its parent's plus the seed that made it, at most log2
    # of its order long) and the representative's normalizer generators;
    # alongside, the representative's elements
    orbit, normalizer, members = conjugacy_class(1)
    classes = [(orbit, [], normalizer)]
    rep_elements = [members]
    maximals: list[int] = []
    for (orbit, gens, normalizer), members in zip(classes, rep_elements):  # both grow
        h = orbit[0]
        k = h.bit_count()
        if n // k in primes:  # a subgroup of prime index is maximal
            maximals.extend(orbit)
            continue
        # the prime-index overgroups K of H found so far: the found subgroups
        # of order |H|p that hold every generator of H.  <H, x> = K for every
        # x in K, so those joins are known.
        maximal = True
        known = h  # H and its known overgroups
        for p in primes:
            if n // k % p == 0 and (index := by_order.get(k * p)):
                listed, holding = index
                over = (1 << len(listed)) - 1
                for z in gens:
                    over &= holding[z]
                if over:
                    maximal = False
                while over:
                    i = over.bit_length() - 1
                    over ^= 1 << i
                    known |= listed[i]
        todo = seed_gens & ~known
        if not todo:  # every join is a known overgroup, so H is not maximal
            continue
        if members is None:
            members = list(bits(h))
        # x normalizes a normal H, so H<x> is a subgroup: the join walks the
        # powers of x alone
        walk_gens = gens if len(orbit) > 1 else []
        # conjugation by each normalizer generator s: y -> s*y*s^-1
        by = [(s, cols[inverses[s]]) for s in normalizer]
        # one join per N_G(H)-orbit of right cosets (see the module docstring)
        coset = bytearray(n)
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            if coset[x]:
                continue
            # <1, x> = <x>, which the cyclic subgroup walks already hold
            j = cyclic[x] if k == 1 else join_element(g, members, walk_gens, x)
            if j != full:
                maximal = False
                size = j.bit_count()
                if j not in found:
                    orbit_j, normalizer_j, members_j = conjugacy_class(j)
                    classes.append((orbit_j, [*gens, x], normalizer_j))
                    rep_elements.append(members_j)
                    found.update(orbit_j)
                    if len(found) > SUBGROUP_GUARD:
                        raise LatticeGuardError(
                            f"more than {SUBGROUP_GUARD} subgroups in {g.name}"
                        )
                    index = by_order.get(size)
                    if index is None:
                        index = by_order[size] = ([], [0] * n)
                    listed, holding = index
                    for m in orbit_j:
                        bit = 1 << len(listed)
                        listed.append(m)
                        m &= seed_gens
                        while m:
                            z = m.bit_length() - 1
                            m ^= 1 << z
                            holding[z] |= bit
                    if size // k in primes:
                        # <H, y> = K for every y in a K of prime index over
                        # H: j and every other member of its class over H
                        for m in orbit_j:
                            if m & h == h:
                                todo &= ~m
                        continue
            # mark the orbit of Hx, one right coset per element reached
            col = cols[x]
            for m in members:
                coset[col[m]] = 1
            ys = [x]
            for y in ys:  # grows while it is walked
                col = cols[y]
                for s, right in by:
                    z = right[col[s]]
                    if not coset[z]:
                        ys.append(z)
                        col_z = cols[z]
                        for m in members:
                            coset[col_z[m]] = 1
        if maximal:
            maximals.extend(orbit)
    return found, maximals, classes


@per_group
def _lattice(g: Group) -> tuple[set[int], tuple[Subgroup, ...]]:
    """The masks of all subgroups, unsorted, and the maximal subgroups, sorted
    by (order, mask).  The classes are not kept: on Z2^6 they would triple
    the memory this result holds."""
    found, maximals, _ = _enumerate(g)
    return found, _sorted_subgroups(maximals)


@per_group
def all_subgroups(g: Group) -> tuple[Subgroup, ...]:
    """Every subgroup of g, sorted by (order, mask)."""
    return _sorted_subgroups(_lattice(g)[0])


def maximal_subgroups(g: Group) -> list[Subgroup]:
    """Proper subgroups maximal under inclusion, sorted by (order, mask)."""
    if g.order < 2:
        raise TrivialGroupError("the trivial group has no maximal subgroups")
    return list(_lattice(g)[1])


@dataclass(frozen=True)
class Incidence:
    """Which of a list of masks contain each element.

    Bit i of an incidence stands for ``masks[i]``.  The incidence of a set is
    the AND of its elements' incidences, all ones for the empty set: the
    masks that contain the set.
    """

    masks: tuple[int, ...]
    elements: tuple[int, ...]  # per element id, the masks containing it

    @classmethod
    def over(cls, masks, order: int) -> "Incidence":
        """The index of ``masks``, subsets of a group of order ``order``."""
        elements = [0] * order
        for i, m in enumerate(masks):
            for x in bits(m):
                elements[x] |= 1 << i
        return cls(masks=tuple(masks), elements=tuple(elements))

    @property
    def everything(self) -> int:
        """Incidence of the empty set: every mask."""
        return (1 << len(self.masks)) - 1

    def of(self, mask: int) -> int:
        """Incidence of the set ``mask``."""
        inc = self.everything
        for x in bits(mask):
            inc &= self.elements[x]
        return inc

    def meet(self, inc: int) -> int:
        """Intersection of the masks in a nonzero incidence."""
        out = -1  # all ones
        for i in bits(inc):
            out &= self.masks[i]
        return out


@per_group
def maximal_incidence(g: Group) -> Incidence:
    """The index of the maximal subgroups, in ``maximal_subgroups`` order.

    An incidence is 0 exactly when its set generates g.
    """
    return Incidence.over([m.mask for m in maximal_subgroups(g)], g.order)


def frattini(g: Group) -> Subgroup:
    """Intersection of all maximal subgroups."""
    inter = g.full_mask
    for m in maximal_subgroups(g):
        inter &= m.mask
    return Subgroup(inter)


def _walk(index: Incidence) -> tuple[dict[int, tuple[int, ...]], int]:
    """Each intersection's incidence, with its moves' incidences, and d(G).

    The walk starts from the empty set's incidence, which names the Frattini
    subgroup.  A member's moves are the distinct ANDs of its incidence with
    each element's, less 0 (the enlarged set generates g) and its own (the
    element was in it already).  Each member is reached by adding its
    elements one at a time, so the walk finds them all.  When T is reached
    from I, T & y = T & (I & y) for every element y, so T is ANDed only with
    I's moves.  The walk is breadth first, so d(G) is one more than the least
    depth of a T with some T & y = 0.  The parent I of that T is shallower,
    so I & y is not 0, nor I (else T & y = T): it is a move of I, so T sees 0.
    """
    top = index.everything
    moves: dict[int, tuple[int, ...]] = {}
    seen = {top}
    d = 0
    # each member, its parent's moves and one more than its depth
    walk = [(top, index.elements, 1)]
    for inc, near, k in walk:  # grows while it is walked
        out = {inc & s for s in near}
        if not d and 0 in out:
            d = k
        out.discard(0)
        out.discard(inc)
        moves[inc] = out = tuple(out)
        for t in out:
            if t not in seen:
                seen.add(t)
                walk.append((t, out, k + 1))
    return moves, d


def _masks(index: Incidence, moves: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """The subgroup each walked incidence names, read off its moves.

    A one-bit incidence names its maximal subgroup, and a wider one is the
    union of its moves' incidences (see the module docstring), so its
    subgroup is the AND of theirs.  Moves drop bits, so ascending popcount
    reaches every move's subgroup first; the dict keeps that order.
    """
    masks: dict[int, int] = {}
    for inc in sorted(moves, key=int.bit_count):
        if inc & (inc - 1):
            m = -1  # all ones
            for t in moves[inc]:
                m &= masks[t]
            masks[inc] = m
        else:
            masks[inc] = index.masks[inc.bit_length() - 1]
    return masks


@per_group
def incidence_poset(g: Group) -> IncidencePoset:
    """All intersections of nonempty sets of maximal subgroups and their
    moves, keyed by incidence.

    An intersection is named by its incidence (``_walk``, with d(G)) and its
    subgroup is read off its moves (``_masks``).  Two incidences that meet in
    one subgroup would mean one is not closed: SolverConsistencyError.
    """
    index = maximal_incidence(g)
    moves, d = _walk(index)
    masks = _masks(index, moves)
    if len(set(masks.values())) < len(masks):
        raise SolverConsistencyError(
            f"{len(masks)} walked incidences of {g.name} meet in "
            f"{len(set(masks.values()))} intersection subgroups"
        )
    return IncidencePoset(masks=masks, moves=moves, d=d)


@per_group
def intersection_subgroups(g: Group) -> IntersectionPoset:
    """All intersections of nonempty sets of maximal subgroups, sorted by
    (order, mask), and each one's successors."""
    poset = incidence_poset(g)
    masks = poset.masks
    order = sorted(masks, key=lambda inc: (masks[inc].bit_count(), masks[inc]))
    at = {inc: i for i, inc in enumerate(order)}
    return IntersectionPoset(
        members=tuple(Subgroup(masks[inc]) for inc in order),
        successors=tuple(
            tuple(sorted(map(at.__getitem__, poset.moves[inc]))) for inc in order
        ),
    )


def class_sizes(g: Group) -> tuple[int, ...]:
    """Number of subsets whose smallest containing intersection is each
    member of ``incidence_poset(g).masks``, in its order.

    Every non-generating subset has exactly one smallest intersection
    subgroup containing it, so g(I) = 2^|I| - sum of g(J) over the members J
    strictly inside I, and the sizes sum to the number of game positions.
    """
    masks = list(incidence_poset(g).masks.values())
    index = Incidence.over(masks, g.order)
    sizes = [1 << a.bit_count() for a in masks]
    # a proper subgroup J of I has more incidence bits, so it comes later in
    # masks and has its final size when I's turn comes, in reverse
    for i in reversed(range(len(masks))):
        for j in bits(index.of(masks[i]) & ~(1 << i)):
            sizes[j] -= sizes[i]
    return tuple(sizes)


def smallest_intersection_containing(g: Group, s) -> Subgroup:
    """Intersection of all maximal subgroups containing the set ``s``.

    ``s`` may be an iterable of element ids or an int bitmask.  This is the
    unique minimal intersection subgroup containing ``s``; raises
    GeneratingSetError when no maximal subgroup contains ``s`` and
    ValueError when ``s`` holds an element outside g.
    """
    mask = s if isinstance(s, int) else mask_of(s)
    if mask < 0 or mask >> g.order:
        raise ValueError(f"the set has elements outside {g.name}")
    index = maximal_incidence(g)
    inc = index.of(mask)
    if not inc:
        raise GeneratingSetError("the set generates the whole group")
    return Subgroup(index.meet(inc))


def even_maximals_cover(g: Group) -> bool:
    """True iff the union of even-order maximal subgroups is all of g."""
    u = 0
    for m in maximal_subgroups(g):
        if m.is_even:
            u |= m.mask
    return u == g.full_mask


def all_maximals_even(g: Group) -> bool:
    return all(m.is_even for m in maximal_subgroups(g))


def largest_odd_normal_in_frattini(g: Group) -> Subgroup:
    """Largest odd-order normal subgroup contained in the Frattini subgroup.

    The Frattini subgroup is nilpotent (Frattini's theorem), so its
    odd-order elements form its Hall 2'-subgroup.  That subgroup is
    characteristic in the Frattini subgroup, hence normal in g, and holds
    every odd-order subgroup of the Frattini subgroup.
    """
    phi = frattini(g).mask
    return Subgroup(mask_of(x for x in bits(phi) if element_order(g, x) % 2))


def lattice_dot(g: Group) -> str:
    """DOT rendering of the subgroup lattice.

    Nodes are labeled by subgroup order; inclusion edges are transitively
    reduced.  Output is deterministic for a fixed group.
    """
    subs = all_subgroups(g)
    lines = ["digraph lattice {", "  // format: dng-lattice-v1"]
    for i, s in enumerate(subs):
        lines.append(f'  n{i} [label="{s.order}"];')
    # a subgroup's incidence is its containers, itself among them
    index = Incidence.over([s.mask for s in subs], g.order)
    containers = [index.of(s.mask) for s in subs]
    edges = []
    for j, c in enumerate(containers):
        # The least container left is a cover of subs[j]: subs is sorted by
        # order, so a subgroup strictly between them would have a smaller
        # index and would have taken its containers, that one among them,
        # out of the rest already.
        rest = c & ~(1 << j)
        while rest:
            i = (rest & -rest).bit_length() - 1
            edges.append((i, j))
            rest &= ~containers[i]
    lines += [f"  n{j} -> n{i};" for i, j in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
