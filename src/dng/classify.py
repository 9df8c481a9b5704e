"""Fast nim-number determination via an ordered checklist, plus family
formulas and Barnes' first-player criterion."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import TrivialGroupError
from .groups import (
    Group,
    closure_mask,
    is_abelian,
    is_cyclic,
    is_normal,
)
from .lattice import (
    all_maximals_even,
    even_maximals_cover,
    frattini,
    maximal_subgroups,
)


class Rule(str, Enum):
    """Decision path through the checklist; names are a stable contract."""

    SIZE2 = "Size2"
    ODD_ORDER = "OddOrder"
    EVEN_FRATTINI = "EvenFrattini"
    ALL_MAXIMALS_EVEN = "AllMaximalsEven"
    EVEN_COVER = "EvenCover"
    FALLTHROUGH3 = "Fallthrough3"


@dataclass(frozen=True)
class Classification:
    nim: int
    rule: Rule
    outcome: str  # "N-position" or "P-position"

    def to_json_dict(self) -> dict:
        return {"nim": self.nim, "rule": self.rule.value, "outcome": self.outcome}


def _outcome(nim: int) -> str:
    return "P-position" if nim == 0 else "N-position"


def classify(g: Group) -> Classification:
    """Apply the checklist clauses in order; first match wins.

    1. |G|=2 -> *1; 2. G odd -> *1; 3. Frattini even -> *0;
    4. all maximals even -> *0; 5. even maximals cover -> *0; 6. else *3.
    """
    if g.order < 2:
        raise TrivialGroupError("no avoidance game for the trivial group")
    if g.order == 2:
        nim, rule = 1, Rule.SIZE2
    elif g.order % 2 == 1:
        nim, rule = 1, Rule.ODD_ORDER
    elif frattini(g).is_even:
        nim, rule = 0, Rule.EVEN_FRATTINI
    elif all_maximals_even(g):
        nim, rule = 0, Rule.ALL_MAXIMALS_EVEN
    elif even_maximals_cover(g):
        nim, rule = 0, Rule.EVEN_COVER
    else:
        nim, rule = 3, Rule.FALLTHROUGH3
    return Classification(nim=nim, rule=rule, outcome=_outcome(nim))


def barnes_first_player_wins(g: Group) -> bool:
    """True iff some odd-order element generates g together with every involution.

    The quantifier over involutions is vacuous for groups without any.
    <x, t> depends on x only through <x>, so one generator of each odd-order
    cyclic subgroup is tried.  Conjugating by x maps <x, t> onto
    <x, x*t*x^-1>, which is g iff <x, t> is, so one involution t of each
    orbit of conjugation by x is closed.
    """
    if g.order < 2:
        raise TrivialGroupError("no avoidance game for the trivial group")
    orders = g.element_orders
    involutions = [t for t, k in enumerate(orders) if k == 2]
    cols = g.columns
    full = g.full_mask
    for x in g.cyclic_generators:
        if orders[x] % 2 == 0:
            continue
        by_inverse = cols[int(g.inverses[x])]  # a -> a*x^-1
        seen = bytearray(g.order)
        for t in involutions:
            if seen[t]:
                continue
            if closure_mask(g, 1 << x | 1 << t) != full:
                break
            while not seen[t]:  # the orbit of t, t -> x*t*x^-1
                seen[t] = 1
                t = by_inverse[cols[t][x]]
        else:
            return True
    return False


def cyclic_formula(n: int) -> int:
    """Nim-number of the game on Z_n without building the group."""
    if n < 2:
        raise ValueError("cyclic formula needs n >= 2")
    if n % 2 == 1 or n == 2:
        return 1
    if n % 4 == 2:
        return 3
    return 0


def is_nilpotent(g: Group) -> bool:
    """True iff every maximal subgroup is normal, which for a finite group
    is equivalent to nilpotency."""
    return g.order == 1 or all(is_normal(g, m) for m in maximal_subgroups(g))


def nilpotent_formula(g: Group) -> int:
    """Closed-form nim-number for nontrivial nilpotent groups."""
    if g.order < 2:
        raise TrivialGroupError("formula needs a nontrivial group")
    if not is_nilpotent(g):
        raise ValueError(f"{g.name} is not nilpotent")
    if g.order == 2 or g.order % 2 == 1:
        return 1
    if g.order % 4 == 2 and is_cyclic(g):
        # Z_2 x Z_{2k+1} is exactly the cyclic group of order 2 mod 4 (> 2)
        return 3
    return 0


def gendih_formula(a: Group) -> int:
    """Nim-number of the game on Dih(a), predicted from the abelian base."""
    if not is_abelian(a):
        raise ValueError(f"{a.name} is not abelian")
    if a.order == 1:
        return 1  # Dih(Z1) has order 2
    return 3 if a.order % 2 == 1 and is_cyclic(a) else 0


def quaternion_formula() -> int:
    """Every dicyclic (generalized quaternion) group plays to *0."""
    return 0


def real_element_disjunction(g: Group, x: int) -> bool:
    """For a real odd-order element x of a group of order > 2: x lies in a
    proper even subgroup, or g is the dihedral extension of <x>.

    The second branch is detected structurally: |g| = 2*order(x) and some
    involution inverts x while generating g together with x.
    """
    if g.order <= 2:
        raise ValueError("needs |g| > 2")
    k = g.element_orders[x]
    if k % 2 == 0:
        raise ValueError("x must have odd order")
    # inverting[t] iff t*x*t^-1 = x^-1
    inverting = g.table[g.table[:, x], g.inverses] == g.inverses[x]
    if not inverting.any():
        raise ValueError("x is not real")
    # a proper even subgroup lies in a maximal one, whose order is then even
    if any(m.is_even and x in m for m in maximal_subgroups(g)):
        return True
    if g.order == 2 * k:
        for u in inverting.nonzero()[0].tolist():
            if g.element_orders[u] == 2:  # an inverting involution
                if closure_mask(g, 1 << x | 1 << u) == g.full_mask:
                    return True
    return False
