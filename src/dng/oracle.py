"""Brute-force verification by memoized mex recursion over literal positions.

The memo is keyed on the literal selected-set bitmask, never on structure
classes, so the oracle stays independent of the theory it cross-checks.  A
move is legal when the enlarged set still lies inside some maximal subgroup,
which is exactly the non-generating condition for a finite group.  The
search carries each position's incidence, the bitmask of the maximal
subgroups that contain it (``lattice.maximal_incidence``): a move ANDs it
with the new element's incidence, and the legal moves are the union of the
maximals in it, minus the position.  A move thus costs one big-int AND and
one memo lookup, and only memo misses recurse.

Before a full search the oracle counts the positions it would visit, the
non-generating subsets, from the intersection poset (``class_sizes``) and
skips the search when the count exceeds the budget.  The poset decides only
whether the search runs; the value never depends on it, and a finished
search must have visited exactly the predicted number of positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GeneratingSetError,
    OracleBudgetError,
    SolverConsistencyError,
    TrivialGroupError,
)
from .groups import Group, bits
from .lattice import class_sizes, maximal_incidence, maximal_subgroups

#: Default cap on the number of positions (non-generating subsets) a full
#: search may visit, decided before searching; larger games fall back to
#: solver-only verification.
DEFAULT_BUDGET = 2_000_000

#: Largest budget the command line accepts.  A search that runs visits every
#: subset of some maximal subgroup M, so 2^|M| <= budget and its recursion is
#: at most log2(budget) + 1 = 65 deep, well under Python's recursion limit.
MAX_BUDGET = 2**64


@dataclass(frozen=True)
class Position:
    """A non-generating subset of the group, as a bitmask of element ids."""

    chosen: int

    @property
    def parity(self) -> int:
        return self.chosen.bit_count() % 2


@dataclass
class OracleResult:
    nim: int
    memo_size: int
    effort: int


def mex(values) -> int:
    """Least nonnegative integer absent from ``values``."""
    s = set(values)
    m = 0
    while m in s:
        m += 1
    return m


class _Search:
    """Memoized mex recursion that carries each position's incidence.

    The union of the maximals in an incidence is cached per incidence, so
    the cache holds at most one entry per intersection subgroup.
    """

    def __init__(self, g: Group, budget: int):
        if g.order < 2:
            raise TrivialGroupError("no avoidance game for the trivial group")
        self.incidence = maximal_incidence(g)
        self.covers: dict[int, int] = {}
        self.budget = budget
        self.memo: dict[int, int] = {}
        self.effort = 0

    def nim(self, p: int, inc: int) -> int:
        """Nim-number of a position missing from the memo, given its incidence."""
        memo = self.memo
        if len(memo) >= self.budget:
            raise OracleBudgetError(f"memo would exceed {self.budget} positions")
        cover = self.covers.get(inc)
        if cover is None:
            cover = self.covers[inc] = self.incidence.join(inc)
        elem_inc = self.incidence.elements
        moves = cover & ~p
        self.effort += moves.bit_count()
        values = set()
        while moves:
            low = moves & -moves
            moves ^= low
            child = p | low
            value = memo.get(child)
            if value is None:
                value = self.nim(child, inc & elem_inc[low.bit_length() - 1])
            values.add(value)
        result = mex(values)
        memo[p] = result
        return result


def _preflight(g: Group, budget: int) -> int:
    """Exact number of positions of g; OracleBudgetError if above ``budget``.

    The lower bound 2^max|M| needs only the maximal subgroups, so a game that
    is plainly too big is skipped without building the intersection poset.
    Passing the preflight also bounds the recursion depth by log2(budget) + 1.
    """
    top = max(m.order for m in maximal_subgroups(g))
    if 1 << top > budget:
        raise OracleBudgetError(
            f"at least 2^{top} positions, over the budget of {budget}"
        )
    predicted = sum(class_sizes(g))
    if predicted > budget:
        raise OracleBudgetError(
            f"{predicted} positions, over the budget of {budget}"
        )
    return predicted


def _check_count(visited: int, predicted: int) -> None:
    if visited != predicted:
        raise SolverConsistencyError(
            f"search visited {visited} positions, class sizes predict {predicted}"
        )


def _full_search(g: Group, budget: int) -> _Search:
    predicted = _preflight(g, budget)
    search = _Search(g, budget)
    search.nim(0, search.incidence.everything)
    _check_count(len(search.memo), predicted)
    return search


def brute_nim(g: Group, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Nim-number of the starting position by depth-first mex recursion."""
    search = _full_search(g, budget)
    return OracleResult(
        nim=search.memo[0], memo_size=len(search.memo), effort=search.effort
    )


def brute_nim_table(g: Group, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Nim-numbers of every position, keyed by bitmask.

    All non-generating subsets are reachable from the empty set by adding
    elements one at a time, so the memo after solving the start is complete.
    """
    return _full_search(g, budget).memo


def brute_nim_position(g: Group, p, budget: int = DEFAULT_BUDGET) -> int:
    """Nim-number of an arbitrary position (bitmask or Position).

    Raises OracleBudgetError before searching when some maximal subgroup M
    containing p has 2^(|M| - |p|) > ``budget``: every subset of M that
    contains p is a position below p.  Passing this bounds the recursion
    depth by log2(budget).
    """
    mask = p.chosen if isinstance(p, Position) else p
    search = _Search(g, budget)
    inc = search.incidence.of(mask)
    if not inc:
        raise GeneratingSetError("the set generates the whole group")
    top = max(search.incidence.maximals[i].bit_count() for i in bits(inc))
    if 1 << (top - mask.bit_count()) > budget:
        raise OracleBudgetError(
            f"at least 2^{top - mask.bit_count()} positions below this one, "
            f"over the budget of {budget}"
        )
    return search.nim(mask, inc)


def strategy_free_outcome_check(g: Group, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every maximal line of play from the empty set has one winner.

    Only defined when all maximal subgroups share one parity.  A line ending
    at a terminal position of size k awards the win to the first player when
    k is odd and to the second player when k is even.
    """
    incidence = maximal_incidence(g)
    parities = {m.bit_count() % 2 for m in incidence.maximals}
    if len(parities) != 1:
        raise ValueError("maximal subgroups have mixed parities")
    predicted = _preflight(g, budget)
    elem_inc = incidence.elements
    covers: dict[int, int] = {}
    memo: dict[int, frozenset[int]] = {}

    def winners(p: int, inc: int) -> frozenset[int]:
        hit = memo.get(p)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise OracleBudgetError(f"memo would exceed {budget} positions")
        cover = covers.get(inc)
        if cover is None:
            cover = covers[inc] = incidence.join(inc)
        moves = cover & ~p
        if moves == 0:
            result = frozenset({p.bit_count() % 2})
        else:
            acc: set[int] = set()
            for x in bits(moves):
                acc |= winners(p | 1 << x, inc & elem_inc[x])
            result = frozenset(acc)
        memo[p] = result
        return result

    outcome = len(winners(0, incidence.everything)) == 1
    _check_count(len(memo), predicted)
    return outcome
