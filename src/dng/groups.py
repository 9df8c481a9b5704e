"""Small finite groups represented by dense Cayley tables.

Elements are ids ``0..n-1`` with the identity fixed at id 0.  Subsets of a
group are passed around as int bitmasks (bit ``x`` set means element ``x``
is in the set), which keeps subgroup and position handling uniform across
the package.

The order of every element and the cyclic subgroup it generates are read off
one walk per cyclic subgroup, which multiplies its least generator in until
the identity.  ``closure_mask`` and ``join_element`` generate subgroups by
coset walks; ``min_generators`` instead reads d(G) off the breadth-first
walk over which maximal subgroups contain each set (``lattice``).

The constructors' tables, and the quotient's, are groups by construction:
each is built with its inverses in closed form and is not validated when
built.  The test suite runs ``_validate_table`` on them instead; at run time
only ``from_table`` validates, on a caller's table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BudgetError,
    GeneratorCapError,
    NonAbelianError,
    NotNormalError,
)

#: Largest group order the constructors build by default.
ORDER_BUDGET = 720

#: Most bytes a group may need, estimated from its order n as
#: ``BYTES_PER_CELL * n**2`` before any table exists; a larger group is
#: refused with BudgetError.
MEMORY_CAP = 1 << 30

#: Peak bytes per Cayley-table cell, measured and rounded up: the int32
#: table (4 bytes), its Python column lists (8) and the object array they
#: are read from (8) make 20, 20.3 on S6; the constructors' int32
#: temporaries peak at 12 (Dic500) to 20 (S7).
BYTES_PER_CELL = 21


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with the given element ids set."""
    m = 0
    for x in ids:
        m |= 1 << x
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the element ids set in ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(eq=False)
class Group:
    """Finite group: ``table[a][b]`` is the id of a*b, identity at id 0."""

    order: int
    table: np.ndarray
    inverses: np.ndarray
    name: str
    #: ``lattice.per_group`` results, keyed by function
    derived: dict = field(default_factory=dict, repr=False)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({self.name!r}, order={self.order})"

    @functools.cached_property
    def _cyclic(self) -> tuple[list[int], list[int], list[int]]:
        """The order of each element, the bitmask of the cyclic subgroup it
        generates, and the least generator of each cyclic subgroup.

        One walk per cyclic subgroup starts from its least generator x and
        multiplies x in until the identity; x^e generates the same subgroup
        iff gcd(e, k) = 1, where k is the order of x.
        """
        orders = [0] * self.order
        masks = [0] * self.order
        generators = []
        for x, col in enumerate(self.columns):
            if orders[x]:
                continue  # x generates a cyclic subgroup walked already
            generators.append(x)
            powers = [0]  # x^0, x^1, ...
            y = x
            while y:
                powers.append(y)
                y = col[y]  # x^(e+1) = x^e * x
            k = len(powers)
            mask = mask_of(powers)
            for e, y in enumerate(powers):
                if math.gcd(e, k) == 1:
                    orders[y] = k
                    masks[y] = mask
        return orders, masks, generators

    @property
    def element_orders(self) -> list[int]:
        """The order of each element."""
        return self._cyclic[0]

    @property
    def cyclic_masks(self) -> list[int]:
        """Bitmask of the cyclic subgroup each element generates: its powers."""
        return self._cyclic[1]

    @property
    def cyclic_generators(self) -> list[int]:
        """The least generator of each cyclic subgroup, ascending; the
        identity's comes first."""
        return self._cyclic[2]

    @functools.cached_property
    def columns(self) -> list[list[int]]:
        """``columns[b][a]`` is the id of a*b, as Python lists."""
        # the entries share one int object per id at any order: 8 bytes
        # each, not 36
        ids = np.array(range(self.order), dtype=object)
        return ids[self.table.T].tolist()

    @classmethod
    def from_table(cls, table, name: str) -> "Group":
        """Build a group from a raw Cayley table, with every check of
        ``_validate_table``, the cubic associativity check among them."""
        t = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        inverses = _validate_table(t)
        return cls(order=len(inverses), table=t, inverses=inverses, name=name)

    @classmethod
    def _constructed(cls, table, name: str, inverses=None) -> "Group":
        """A constructor's table, a group by construction, made C-contiguous
        int32 without validation.  ``inverses`` default to the column of the
        identity in each row."""
        t = np.ascontiguousarray(table, dtype=np.int32)
        if inverses is None:
            inverses = _row_inverses(t)
        return cls(order=len(t), table=t, inverses=inverses, name=name)


def _row_inverses(t: np.ndarray) -> np.ndarray:
    """The inverse of each element of a Latin square: the identity is in
    exactly one column of each row."""
    return np.argmax(t == 0, axis=1).astype(np.int32)


def _validate_table(t: np.ndarray) -> np.ndarray:
    """Check that ``t`` is a group table; return the inverse of each element."""
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise ValueError("Cayley table must be a nonempty square matrix")
    n = t.shape[0]
    ids = np.arange(n, dtype=np.int32)
    # each check compares whole arrays with one ``==`` and ``all``, which
    # costs far less per call than ``np.array_equal`` on small tables
    if not ((t[0] == ids).all() and (t[:, 0] == ids).all()):
        raise ValueError("element 0 is not a two-sided identity")
    if not (np.sort(t, axis=1) == ids).all():
        raise ValueError("some row is not a permutation of 0..n-1")
    if not (np.sort(t, axis=0) == ids[:, None]).all():
        raise ValueError("some column is not a permutation of 0..n-1")
    # (a*b)*c == a*(b*c), checked one row of a at a time to bound memory.
    for a in range(n):
        if not (t[t[a], :] == t[a][t]).all():
            raise ValueError(f"associativity fails for a={a}")
    return _row_inverses(t)


def capped_product(factors: Iterable[int | None], cap: int | None = None) -> int | None:
    """Product of ``factors``, a group order built up one factor at a time.

    With a ``cap`` no product is formed from a number above it, and None
    stands for an order above the cap: ``S1000000`` under a cap of 720 stops
    at 7!.  A factor taken into an order of 1 forms no product, so a lone
    factor comes back as it is.  A None factor gives None.
    """
    order = 1
    for k in factors:
        if k is None or cap is not None and order > 1 and max(order, k) > cap:
            return None
        order *= k
    return order


def check_budget(factors: Iterable[int | None], budget: int, what: str) -> int:
    """The order ``capped_product(factors, budget)``, raising BudgetError
    above the budget or when its tables would need more than ``MEMORY_CAP``
    bytes; the message gives the order only when it was reached exactly."""
    order = capped_product(factors, budget)
    if order is None:
        raise BudgetError(f"{what} has an order exceeding budget {budget}")
    if order > budget:
        raise BudgetError(f"{what} has order {order}, exceeding budget {budget}")
    need = BYTES_PER_CELL * order**2
    if need > MEMORY_CAP:
        raise BudgetError(
            f"{what} has order {order}, whose tables need about "
            f"{-(-need // 2**20):,} MiB, exceeding the memory cap of "
            f"{MEMORY_CAP // 2**20:,} MiB"
        )
    return order


# ---------------------------------------------------------------------------
# Constructors


def make_cyclic(n: int, budget: int = ORDER_BUDGET) -> Group:
    """Cyclic group Z_n with table[a][b] = (a+b) mod n."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    check_budget([n], budget, f"Z{n}")
    ids = np.arange(n, dtype=np.int32)
    t = ids[:, None] + ids  # below 2n, so one subtraction of n reduces it
    np.subtract(t, n, out=t, where=t >= n)
    return Group._constructed(t, f"Z{n}", (n - ids) % n)


def is_abelian(g: Group) -> bool:
    return bool(np.array_equal(g.table, g.table.T))


def make_generalized_dihedral(a: Group, budget: int = ORDER_BUDGET) -> Group:
    """Dih(A) = A extended by an inverting involution; order 2|A|.

    Ids 0..|A|-1 are the canonical copy of A; the reflecting coset follows.
    """
    if not is_abelian(a):
        raise NonAbelianError(f"Dih argument {a.name} is not abelian")
    m = a.order
    check_budget([2, m], budget, f"Dih({a.name})")
    ta = a.table
    tinv = ta[:, a.inverses]  # a_i * a_j^-1
    # element a_i * t^e; (a_i t^e1)(a_j t^e2) = a_i a_j^((-1)^e1) t^(e1 xor e2)
    t = np.empty((2 * m, 2 * m), dtype=np.int32)
    t[:m, :m] = ta
    t[:m, m:] = ta + m
    t[m:, :m] = tinv + m
    t[m:, m:] = tinv
    # each reflection is its own inverse
    inverses = np.concatenate([a.inverses, np.arange(m, 2 * m, dtype=np.int32)])
    return Group._constructed(t, f"Dih({a.name})", inverses)


def make_dicyclic(n: int, budget: int = ORDER_BUDGET) -> Group:
    """Dicyclic (generalized quaternion) group of order 4n, n >= 2."""
    if n < 2:
        raise ValueError("dicyclic group needs n >= 2")
    check_budget([4, n], budget, f"Dic{n}")
    m = 2 * n  # order of <x>
    # element x^i y^j with id j*m + i, on axes (j, i) x (l, k):
    # x^i y^j x^k y^l = x^(i + (-1)^j k) y^(j+l), and y^2 = x^n; int32 holds
    # every exponent, as each lies between -m and 3m
    j = np.arange(2, dtype=np.int32)[:, None, None, None]
    i = np.arange(m, dtype=np.int32)[None, :, None, None]
    l = np.arange(2, dtype=np.int32)[None, None, :, None]
    k = np.arange(m, dtype=np.int32)[None, None, None, :]
    e = i + (1 - 2 * j) * k + n * j * l
    t = ((j + l) % 2 * m + e % m).reshape(2 * m, 2 * m)
    return Group._constructed(t, f"Dic{n}")


def _perm_parity(p: tuple) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def _perm_group(perms: list[tuple], name: str) -> Group:
    """Group of the given permutations of 0..n-1; product p*q maps i to p[q[i]]."""
    p = np.array(perms, dtype=np.int32)
    n = p.shape[1]
    # a permutation's code: its images as the digits of a base-n numeral,
    # below n^n.  int32 holds it: the memory cap refuses S8, and 7^7 < 2^31.
    weights = (n ** np.arange(n - 1, -1, -1)).tolist()
    codes = sum(p[:, i] * w for i, w in enumerate(weights))
    # p[a]*p[b] maps i to p[a, p[b, i]]
    products = sum(p[:, p[:, i]] * w for i, w in enumerate(weights))
    rank = np.argsort(codes)
    t = rank[np.searchsorted(codes[rank], products)]
    return Group._constructed(t, name)


def make_symmetric(n: int, budget: int = ORDER_BUDGET) -> Group:
    """Symmetric group on n letters via permutation composition."""
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    check_budget(range(2, n + 1), budget, f"S{n}")
    perms = list(permutations(range(n)))  # identity comes first
    return _perm_group(perms, f"S{n}")


def make_alternating(n: int, budget: int = ORDER_BUDGET) -> Group:
    """Alternating group on n letters (even permutations)."""
    if n < 1:
        raise ValueError("alternating group needs n >= 1")
    check_budget(range(3, n + 1), budget, f"A{n}")  # n!/2, and 1 below A3
    perms = [p for p in permutations(range(n)) if _perm_parity(p) == 0]
    return _perm_group(perms, f"A{n}")


def direct_product(g: Group, h: Group, budget: int = ORDER_BUDGET) -> Group:
    """Component-wise product on pairs, flattened to ids (a, b) -> a*|h|+b."""
    n = check_budget([g.order, h.order], budget, f"{g.name} x {h.name}")
    t = (g.table[:, None, :, None] * h.order + h.table[None, :, None, :]).reshape(n, n)
    inverses = (g.inverses[:, None] * h.order + h.inverses[None, :]).ravel()
    return Group._constructed(t, f"{g.name} x {h.name}", inverses)


def _check_mask(g: Group, mask: int) -> None:
    """Raise ValueError unless ``mask`` is a set of elements of g."""
    if mask < 0 or mask >> g.order:
        raise ValueError(f"the mask has bits outside the elements of {g.name}")


def _membership(g: Group, sub) -> tuple[np.ndarray, np.ndarray]:
    """Ids in a Subgroup or int bitmask, ascending, and one flag per element."""
    mask = getattr(sub, "mask", sub)
    if not isinstance(mask, int):
        raise TypeError("expected a Subgroup or an int bitmask")
    _check_mask(g, mask)
    raw = np.frombuffer(mask.to_bytes(-(-g.order // 8), "little"), dtype=np.uint8)
    inside = np.unpackbits(raw, count=g.order, bitorder="little").view(bool)
    return np.flatnonzero(inside), inside


def is_normal(g: Group, sub) -> bool:
    """True iff x*N*x^-1 = N for every x in g."""
    return _is_normal(g, *_membership(g, sub))


def _is_normal(g: Group, members: np.ndarray, inside: np.ndarray) -> bool:
    # row x holds x*m*x^-1 for each member m
    return bool(inside[g.table[g.table[:, members], g.inverses[:, None]]].all())


def quotient(g: Group, sub) -> Group:
    """Quotient group on the left cosets of a normal subgroup N, each coset
    represented by its least element, the identity's first.

    Its table is a group by construction, like the constructors', and is
    not validated; only the divisor is checked.
    """
    members, inside = _membership(g, sub)
    # a finite set that holds the identity and its products is a subgroup
    if not inside[0] or not inside[g.table[np.ix_(members, members)]].all():
        raise ValueError("quotient divisor is not a subgroup")
    if not _is_normal(g, members, inside):
        raise NotNormalError("quotient divisor is not normal")
    # row x of table[:, members] is the coset xN; the distinct least
    # elements are the representatives, ascending, and number the cosets
    reps, cos = np.unique(g.table[:, members].min(axis=1), return_inverse=True)
    cos = cos.astype(np.int32)
    t = cos[g.table[np.ix_(reps, reps)]]
    return Group._constructed(t, f"{g.name}/N{len(members)}", cos[g.inverses[reps]])


# ---------------------------------------------------------------------------
# Queries


#: Turns a 0/1 bytearray into the ASCII digits of a binary numeral.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def join_element(g: Group, members: list[int], gens: list[int], x: int) -> int:
    """Bitmask of the subgroup generated by a subgroup H and one element x.

    ``members`` lists the elements of H, and ``gens`` generate H, or are
    empty when x normalizes H.  Dimino's coset step (G. Butler,
    *Fundamental Algorithms for Permutation Groups*, 1991): the result is a
    union of right cosets H*r, grown from H by adding the whole coset H*(r*s)
    whenever a coset representative r times a generator s (one of ``gens``,
    or x) lands outside it.  With no ``gens`` the walk multiplies by x alone
    and gives H<x>, a subgroup when x normalizes H.  Once the union has more
    than n/2 elements it can only be the whole group.
    """
    cols = g.columns
    n = g.order
    half = n // 2
    k = len(members)
    gens = [*gens, x]
    seen = bytearray(n)
    for h in members:
        seen[h] = 1
    reps = [0]
    for r in reps:  # grows while it is walked
        for s in gens:
            y = cols[s][r]
            if not seen[y]:
                col = cols[y]
                for h in members:
                    seen[col[h]] = 1
                reps.append(y)
                if k * len(reps) > half:
                    return g.full_mask
    # bit x of the mask is seen[x]: read the flags as a binary numeral
    return int(seen[::-1].translate(_BINARY_DIGITS), 2)


def closure_mask(g: Group, mask: int) -> int:
    """Bitmask of the subgroup generated by the elements in ``mask``.

    The cyclic subgroup of its lowest element other than the identity, joined
    (``join_element``) with each further element not yet in the result; each
    element joined is added to the generators.  Raises ValueError when
    ``mask`` has a bit outside g.
    """
    _check_mask(g, mask)
    closed, gens = 1, []
    rest = mask & ~1  # the identity generates nothing
    while rest:
        x = (rest & -rest).bit_length() - 1
        closed = (
            join_element(g, list(bits(closed)), gens, x) if gens else g.cyclic_masks[x]
        )
        gens.append(x)
        rest &= ~closed
    return closed


def is_cyclic(g: Group) -> bool:
    """True iff some element has order |g|."""
    return g.order in g.element_orders


def min_generators(g: Group, cap: int = 3) -> int:
    """Least k <= cap such that some k-subset generates g.

    d(G) is read off the breadth-first walk over maximal incidences that
    builds the intersection poset (``lattice.incidence_poset``).  Raises
    GeneratorCapError when d(G) > ``cap``, which is distinguishable from any
    returned value.
    """
    from .lattice import incidence_poset  # lattice imports this module

    if cap < 1:
        raise ValueError("cap must be >= 1")
    d = 0 if g.order == 1 else incidence_poset(g).d
    if d > cap:
        raise GeneratorCapError(cap)
    return d
