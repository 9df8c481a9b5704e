"""Brute-force verification by one level-by-level sweep over literal positions.

The positions of the game are the non-generating sets, which are exactly the
subsets of the maximal subgroups.  For each maximal subgroup M the sweep
keeps one numpy array over the subsets of M, indexed by a local bitmask: bit
b stands for the b-th element of M.  A cell holds the nim-number of its
position as a one-hot ``uint8``, so a seen-set is the OR of its children's
cells and the mex is its lowest clear bit.  Up to 8 maximals of the same
order share a stack, one byte lane each: the stack holds one word of 1, 2, 4
or 8 bytes per subset, and the lanes no maximal fills hold a free game valued
0 or 1.  The arrays are filled one size level at a time, from |M| down to the
empty set, and each level of a stack a chunk of subsets at a time, so that
no numpy temporary reaches glibc's mmap threshold:

1. each cell ORs its children one level up inside its own maximal, one
   element at a time: the child that adds element b, one word for every
   lane at once;
2. for each pair i < j of maximals, every subset of Mi and Mj ORs its cell
   in maximal j into its cell in maximal i, so the first maximal containing
   a position, its owner, has seen every child, in whichever maximal the
   child lies;
3. every cell takes the mex of what it has seen;
4. for each pair i < j in ascending i, every subset of Mi and Mj copies its
   value from maximal i to maximal j, so each copy of a position holds its
   owner's value before the next level reads it.

Steps 2 and 4 take a pair's whole shared power set at every level up to its
size: a shared subset above the level holds its owner's value in both
maximals, copied at its own level, and one below is still 0 in both, as a
level writes only its own cells, so OR and copy leave both unchanged.

Each subset of size s is the child of exactly s positions, so the number of
moves (``effort``) is the sum of the sizes of the owned subsets.  Values are
kept per literal subset and never read the structure classes, so the oracle
stays independent of the theory it cross-checks.  Before every sweep the
oracle counts the positions from the intersection poset, keyed by incidence
and never numbered (``class_sizes``), and skips the sweep when the count
exceeds the budget.  The poset decides only whether the sweep runs; the
value never depends on it, and the maximals must own exactly the predicted
number of positions before any position is valued.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import OracleBudgetError, SolverConsistencyError
from .groups import Group, bits
from .lattice import class_sizes, maximal_subgroups

#: Default cap on the number of positions (non-generating subsets) a full
#: sweep may value, decided before sweeping; larger games fall back to
#: solver-only verification.
DEFAULT_BUDGET = 2_000_000

#: Largest budget the command line accepts.  The budget counts positions,
#: not memory: a sweep allocates at least one cell per subset of each maximal
#: subgroup M, the sum of 2^|M|, and ``MAX_CELLS`` bounds the cells it
#: allocates.
MAX_BUDGET = 2**64

#: Most cells a sweep may allocate, padding lanes included, counted before
#: the first allocation; above it the sweep raises OracleBudgetError whatever
#: the budget.  Sweeps of ``Z40`` and ``Z2^5`` peak at 7.2 and 3.4 bytes per
#: cell (tracemalloc), so this bounds a sweep near 30 MB.  Games within the
#: default budget need about a quarter of it: on the catalog up to order 96
#: the most is ``S3 x S3``, 1,081,344 cells, and ``Z2^5`` needs 2,097,152.
MAX_CELLS = 2**22

#: Subsets per chunk of a sweep, whose temporaries are one 8-byte index or
#: one word of at most 8 bytes per subset: 64 KiB at most, below glibc's
#: default mmap threshold of 128 KiB, so the temporaries reuse heap memory
#: instead of faulting in fresh pages.
CHUNK_CELLS = 2**13


@dataclass
class OracleResult:
    nim: int
    # the positions valued, under the old memo's name: perfbench/harness.py reads it
    memo_size: int
    effort: int


_ONE = np.uint8(1)
_LOW7 = np.uint8(0x7F)


def _mex_bit(seen: np.ndarray, size: int) -> np.ndarray:
    """One-hot mex of each seen-set: its lowest clear bit.

    A mex of 7 or more has no room to be seen by a parent in 8 bits, so it
    raises SolverConsistencyError instead of wrapping.  No position of any
    group gets there: the structure-class types have nim-numbers up to 3.
    """
    if np.any((seen & _LOW7) == _LOW7):
        raise SolverConsistencyError(
            f"a position of size {size} has nim-number 7 or more, "
            "past the 8-bit seen-sets"
        )
    return ~seen & (seen + _ONE)


def _by_level(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size of each subset 0..2^n-1, the subsets sorted by size (stably),
    and where each size starts.

    Both are built by doubling, one element k at a time, with each level
    growing inside its final run of ``order``: the subsets of size s over
    k + 1 elements are those over k elements, then those of size s - 1 with
    element k added, and both runs are ascending.
    """
    sizes = np.zeros(1 << n, dtype=np.uint8)
    order = np.zeros(1 << n, dtype=np.int32)  # order[0] is the empty set
    starts = [0]
    for s in range(n + 1):
        starts.append(starts[-1] + comb(n, s))
    ends = [1] + starts[1:-1]  # level s over k elements ends at ends[s]
    for k in range(n):
        half = 1 << k
        np.add(sizes[:half], _ONE, out=sizes[half : 2 * half])
        for s in range(k + 1, 0, -1):  # from the top: ends[s - 1] is still k's
            grown = ends[s] + ends[s - 1] - starts[s - 1]
            np.bitwise_or(
                order[starts[s - 1] : ends[s - 1]], half, out=order[ends[s] : grown]
            )
            ends[s] = grown
    return sizes, order, np.array(starts)


def _unions(weights: list[int]) -> list[int]:
    """The OR of the weights in each subset: entry s for the subset whose
    bit b stands for ``weights[b]``."""
    unions = [0]
    for w in weights:
        unions += [u | w for u in unions]
    return unions


def _width(lanes: list[int]) -> int:
    """Bytes per word of a stack of these lanes: their count rounded up to
    1, 2, 4 or 8.  A padding lane belongs to no maximal; it sees only itself,
    a free game valued 0 or 1, so it never trips ``_mex_bit``."""
    return 1 << (len(lanes) - 1).bit_length()


@dataclass
class _Sweep:
    elems: list[list[int]]  # per maximal subgroup, its elements
    cells: list[np.ndarray]  # per maximal, the one-hot value of each subset
    positions: int  # subsets owned by their first maximal
    effort: int  # sum of the owned subsets' sizes


def _sweep(g: Group, budget: int) -> _Sweep:
    """Value every position of the game, largest first.

    Every check comes first, in this order, and all but the last before any
    array is allocated:

    1. OracleBudgetError when some maximal subgroup M has 2^|M| > ``budget``:
       every subset of M is a position.  This reads only the maximal
       subgroups;
    2. OracleBudgetError when the class sizes predict more than ``budget``
       positions;
    3. OracleBudgetError when the stacks, padding lanes included, need more
       than ``MAX_CELLS`` cells;
    4. SolverConsistencyError, before the stacks are allocated, when the
       maximals own a different number of positions than predicted.
    """
    masks = [m.mask for m in maximal_subgroups(g)]
    top = max(m.bit_count() for m in masks)
    if 1 << top > budget:
        raise OracleBudgetError(
            f"at least 2^{top} positions, over the budget of {budget}"
        )
    predicted = sum(class_sizes(g))
    if predicted > budget:
        raise OracleBudgetError(
            f"{predicted} positions, over the budget of {budget}"
        )
    elems = [list(bits(m)) for m in masks]
    # maximals of the same order share stacks of at most 8 lanes
    layout = []
    for n in sorted(set(map(len, elems))):
        same = [i for i, e in enumerate(elems) if len(e) == n]
        layout += [(n, same[lo : lo + 8]) for lo in range(0, len(same), 8)]
    count = sum(_width(lanes) << n for n, lanes in layout)
    if count > MAX_CELLS:
        raise OracleBudgetError(
            f"{count} cells to sweep, over the cap of {MAX_CELLS}"
        )
    bit = [{x: 1 << b for b, x in enumerate(e)} for e in elems]
    owned = [np.ones(1 << len(f), dtype=bool) for f in elems]
    pairs = []  # (k, i, j, ii, jj): the 2^k shared subsets' local indices
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            shared = list(bits(masks[i] & masks[j]))
            ii, jj = (np.array(_unions([bit[m][x] for x in shared])) for m in (i, j))
            owned[j][jj] = False
            pairs.append((len(shared), i, j, ii, jj))
    positions = sum(int(np.count_nonzero(o)) for o in owned)
    if positions != predicted:
        raise SolverConsistencyError(
            f"search visited {positions} positions, "
            f"class sizes predict {predicted}"
        )
    levels = {n: _by_level(n) for n in set(map(len, elems))}
    effort = sum(
        int(levels[len(f)][0][o].sum(dtype=np.int64)) for f, o in zip(elems, owned)
    )

    column: dict[int, np.ndarray] = {}  # per maximal, its lane of a stack
    stacks = []  # (n, words): one word per subset, one byte lane per maximal
    for n, lanes in layout:
        width = _width(lanes)
        stack = np.zeros((1 << n, width), dtype=np.uint8)
        column.update((i, stack[:, lane]) for lane, i in enumerate(lanes))
        stacks.append((n, stack.view(f"u{width}").reshape(-1)))
    cells = [column[i] for i in range(len(elems))]

    def chunks(level: int):
        """Each stack with one chunk of its subsets at this level at a time."""
        for n, words in stacks:
            if level <= n:
                _, order, starts = levels[n]
                at = order[starts[level] : starts[level + 1]]
                for lo in range(0, len(at), CHUNK_CELLS):
                    yield n, words, at[lo : lo + CHUNK_CELLS].astype(np.intp)

    for level in range(max(n for n, _ in stacks), -1, -1):
        for n, words, part in chunks(level):
            seen = np.zeros(len(part), dtype=words.dtype)
            # a child that adds an element already in the subset is the
            # subset itself, whose word is still 0
            for b in range(n):
                seen |= np.take(words, part | 1 << b)
            words[part] = seen
        live = [(cells[i], cells[j], ii, jj) for k, i, j, ii, jj in pairs if level <= k]
        for ci, cj, ii, jj in live:  # owners see the children in every maximal
            ci[ii] |= cj[jj]
        for n, words, part in chunks(level):
            valued = _mex_bit(words[part].view(np.uint8), level)
            words[part] = valued.view(words.dtype)
        for ci, cj, ii, jj in live:  # ascending i: each source is final
            cj[jj] = ci[ii]
    return _Sweep(elems=elems, cells=cells, positions=positions, effort=effort)


def brute_nim(g: Group, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Nim-number of the starting position, with the number of positions and
    the number of moves between them (``effort``)."""
    sweep = _sweep(g, budget)
    return OracleResult(
        nim=int(sweep.cells[0][0]).bit_length() - 1,
        memo_size=sweep.positions,
        effort=sweep.effort,
    )


def brute_nim_table(g: Group, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Nim-numbers of every position, keyed by bitmask."""
    sweep = _sweep(g, budget)
    table: dict[int, int] = {}
    for elems, cells in zip(sweep.elems, sweep.cells):
        masks = _unions([1 << x for x in elems])  # the position at each index
        nims = np.bitwise_count(cells - _ONE)  # 1 << v minus 1 has v bits
        table.update(zip(masks, nims.tolist()))
    return table
