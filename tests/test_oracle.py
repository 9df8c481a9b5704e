import tracemalloc

import numpy as np
import pytest

from dng import oracle
from dng.errors import (
    OracleBudgetError,
    SolverConsistencyError,
    TrivialGroupError,
)
from dng.groups import make_cyclic, make_symmetric
from dng.groupspec import build, parse_spec
from dng.lattice import class_sizes, incidence_poset, maximal_incidence, maximal_subgroups
from dng.oracle import brute_nim, brute_nim_table
from dng.solver import mex


@pytest.mark.parametrize(
    "values,expected",
    [(set(), 0), ({0, 1, 3}, 2), ({1, 2}, 0), ({0, 1, 2, 3}, 4)],
)
def test_mex(values, expected):
    assert mex(values) == expected


def test_mex_bit_is_the_lowest_clear_bit():
    seen = np.array([0, 0b1011, 0b111111], dtype=np.uint8)  # mex 0, 2, 6
    assert oracle._mex_bit(seen, 0).tolist() == [1, 0b100, 0b1000000]


@pytest.mark.parametrize("seen", [0x7F, 0xFF])  # mex 7, 8
def test_mex_bit_raises_instead_of_wrapping(seen):
    with pytest.raises(SolverConsistencyError, match="7 or more"):
        oracle._mex_bit(np.array([0, seen], dtype=np.uint8), 5)


def test_brute_z2():
    res = brute_nim(make_cyclic(2))
    assert res.nim == 1
    assert res.memo_size == 2  # {} and {e}


def test_brute_s3():
    assert brute_nim(make_symmetric(3)).nim == 3


def test_brute_z2xz3xz3():
    assert brute_nim(build(parse_spec("Z2 x Z3 x Z3"))).nim == 0


def test_brute_rejects_trivial():
    with pytest.raises(TrivialGroupError):
        brute_nim(make_cyclic(1))


def test_budget_exceeded():
    with pytest.raises(OracleBudgetError):
        brute_nim(make_symmetric(4), budget=100)


@pytest.mark.parametrize(
    "spec", ["S3", "Z6", "A4", "S4", "Dic6", "Z2 x Z2 x Z2 x Z2", "A5"]
)
def test_class_sizes_count_positions(spec):
    g = build(parse_spec(spec))
    assert sum(class_sizes(g)) == brute_nim(g).memo_size


def test_class_sizes_s5_golden():
    assert sum(class_sizes(make_symmetric(5))) == 1152921504697036488


def test_budget_is_exact_cap():
    s4 = make_symmetric(4)
    assert brute_nim(s4, budget=5016).memo_size == 5016
    with pytest.raises(OracleBudgetError, match="5016 positions"):
        brute_nim(s4, budget=5015)
    assert len(brute_nim_table(s4, budget=5016)) == 5016
    with pytest.raises(OracleBudgetError):
        brute_nim_table(s4, budget=5015)


def _refuse(*args):
    raise AssertionError("called although the sweep should have skipped")


def _refuse_arrays(monkeypatch):
    """Make every array allocation of a sweep fail."""
    monkeypatch.setattr(oracle.np, "zeros", _refuse)
    monkeypatch.setattr(oracle.np, "ones", _refuse)
    monkeypatch.setattr(oracle, "_by_level", _refuse)


@pytest.mark.parametrize(
    "spec,budget",
    [("S5", oracle.DEFAULT_BUDGET), ("Z202", 5000), ("S4", 5015)],
)
def test_skip_happens_before_search(monkeypatch, spec, budget):
    g = build(parse_spec(spec))
    _refuse_arrays(monkeypatch)
    with pytest.raises(OracleBudgetError):
        brute_nim(g, budget)


@pytest.mark.parametrize("spec,budget", [("S5", oracle.DEFAULT_BUDGET), ("Z202", 5000)])
def test_lower_bound_skip_needs_no_poset(monkeypatch, spec, budget):
    g = build(parse_spec(spec))
    monkeypatch.setattr(oracle, "class_sizes", _refuse)
    with pytest.raises(OracleBudgetError, match=r"at least 2\^"):
        brute_nim(g, budget)


def test_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(oracle, "class_sizes", lambda g: (13,))
    with pytest.raises(SolverConsistencyError, match="14.*13"):
        brute_nim(make_symmetric(3))


def test_count_mismatch_raises_before_the_budget(monkeypatch):
    # 5016 positions pass a budget of 5010 only because the prediction is
    # 16 short, and the owned count catches it
    monkeypatch.setattr(oracle, "class_sizes", lambda g: (5000,))
    with pytest.raises(SolverConsistencyError, match="5016.*5000"):
        brute_nim(make_symmetric(4), budget=5010)


def test_position_count_mismatch_raises(monkeypatch):
    # Z8 has 16 positions: the subsets of its maximal of order 4
    z8 = make_cyclic(8)
    monkeypatch.setattr(oracle, "class_sizes", lambda g: (15,))
    monkeypatch.setattr(oracle.np, "zeros", _refuse)  # the stacks
    monkeypatch.setattr(oracle, "_by_level", _refuse)
    with pytest.raises(SolverConsistencyError, match="16.*15"):
        brute_nim_table(z8)


def test_cell_cap_skips_before_allocating(monkeypatch):
    g = build(parse_spec("S5"))  # 1.15e18 positions pass a budget of 2**64
    monkeypatch.setattr(oracle.np, "zeros", _refuse)
    monkeypatch.setattr(oracle.np, "ones", _refuse)
    with pytest.raises(OracleBudgetError, match="cells to sweep"):
        brute_nim(g, oracle.MAX_BUDGET)


def test_cell_cap_counts_padding_lanes(monkeypatch):
    # S3 x S3: 6 maximals of order 12 take a stack of 8 lanes and 3 of order
    # 18 one of 4, so 811,008 cells of maximals allocate 1,081,344
    g = build(parse_spec("S3 x S3"))
    class_sizes(g)  # the sweep's poset, built before numpy is patched
    monkeypatch.setattr(oracle, "MAX_CELLS", 1_000_000)
    monkeypatch.setattr(oracle.np, "zeros", _refuse)
    monkeypatch.setattr(oracle.np, "ones", _refuse)
    with pytest.raises(OracleBudgetError, match="1081344 cells to sweep"):
        brute_nim(g)


def test_sweep_temporaries_stay_small():
    # Z40's 2^20 one-byte cells take 1 MiB, and its level order 5 MiB; Z2^5
    # has 31 maximals in 4 stacks of 2^16 eight-byte words; S3 x S3 has
    # stacks of 8 and 4 lanes; a level-wide child matrix took 75 MiB
    for spec, mib in [("Z40", 12), ("Z2 x Z2 x Z2 x Z2 x Z2", 10), ("S3 x S3", 4)]:
        g = build(parse_spec(spec))
        class_sizes(g)  # the subgroups and the poset, outside the trace
        tracemalloc.start()
        try:
            assert brute_nim(g, 10**7).nim == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, spec


def _allocated_cells(orders):
    """Cells of the stacks for maximal subgroups of these orders: at most 8
    lanes a stack, their count rounded up to 1, 2, 4 or 8."""
    cells = 0
    for n in set(orders):
        k = orders.count(n)
        cells += 8 * (k // 8) << n
        if k % 8:
            cells += {1: 1, 2: 2, 3: 4, 4: 4}.get(k % 8, 8) << n
    return cells


def test_cell_cap_keeps_default_budget_decisions(catalog96):
    for spec, g in catalog96:
        maximals = [m.order for m in maximal_subgroups(g)]
        if 1 << max(maximals) > oracle.DEFAULT_BUDGET:
            continue
        if sum(class_sizes(g)) <= oracle.DEFAULT_BUDGET:
            assert _allocated_cells(maximals) <= oracle.MAX_CELLS, spec


@pytest.mark.parametrize(
    "weights", [[], [1], [4, 1], [1 << 9, 1 << 3, 1 << 40], [3, 5, 6]]
)
def test_unions_or_each_subsets_weights(weights):
    unions = oracle._unions(weights)
    assert len(unions) == 1 << len(weights)
    for s, u in enumerate(unions):
        expected = 0
        for b, w in enumerate(weights):
            if s >> b & 1:
                expected |= w
        assert u == expected, s


@pytest.mark.parametrize("spec", ["A5", "S3 x S3", "Z2 x Z2 x Z2 x Z2"])
def test_level_order_only_for_stacks(monkeypatch, spec):
    # pairs exchange their whole shared power sets, so only the stacks, one
    # per free size of a maximal, need a level order
    g = build(parse_spec(spec))
    real, sizes = oracle._by_level, []
    monkeypatch.setattr(oracle, "_by_level", lambda n: sizes.append(n) or real(n))
    brute_nim(g)
    assert sorted(sizes) == sorted({m.order for m in maximal_subgroups(g)})


def test_position_empty_equals_game():
    g = build(parse_spec("Z6 x Z2"))
    assert brute_nim_table(g)[0] == brute_nim(g).nim


def test_position_identity_in_s3():
    assert brute_nim_table(make_symmetric(3))[1] == 2


def test_full_odd_maximal_is_terminal():
    z15 = make_cyclic(15)
    table = brute_nim_table(z15)
    for m in maximal_subgroups(z15):
        assert table[m.mask] == 0


def test_position_skips_before_a_deep_search(monkeypatch):
    # a sweep would allocate 2^1001 cells for the maximal subgroup of order 1001
    z2002 = make_cyclic(2002, budget=3000)
    _refuse_arrays(monkeypatch)
    monkeypatch.setattr(oracle, "class_sizes", _refuse)
    with pytest.raises(OracleBudgetError, match=r"at least 2\^1001 positions"):
        brute_nim_table(z2002, budget=5000)


def test_position_budget_counts_positions_below():
    s3 = make_symmetric(3)  # 2^3 cells fit in 13, but the 14 positions do not
    assert brute_nim(s3, budget=14).nim == 3
    with pytest.raises(OracleBudgetError, match="14 positions"):
        brute_nim(s3, budget=13)


def test_all_positions_are_subsets_of_maximals():
    g = build(parse_spec("Z6 x Z2"))
    maximals = [m.mask for m in maximal_subgroups(g)]
    for p in brute_nim_table(g):
        assert any(p & ~m == 0 for m in maximals)


def test_uniformity_on_small_groups():
    for spec in ["S3", "A4", "Z12", "Dic2"]:
        g = build(parse_spec(spec))
        table = brute_nim_table(g)
        # each position's smallest enclosing intersection, keyed by incidence
        masks, index = incidence_poset(g).masks, maximal_incidence(g)
        cells = {}
        for p, nim in table.items():
            key = (masks[index.of(p)], p.bit_count() % 2)
            cells.setdefault(key, set()).add(nim)
        assert all(len(v) == 1 for v in cells.values())


def test_class_option_compatibility():
    # every position in a structure class reaches the same other classes
    for spec in ["S3", "Z12", "A4", "Dic2", "Z6 x Z2"]:
        g = build(parse_spec(spec))
        maximals = [m.mask for m in maximal_subgroups(g)]
        masks, index = incidence_poset(g).masks, maximal_incidence(g)
        reachable = {}
        for p in brute_nim_table(g):
            cls = masks[index.of(p)]
            opts = set()
            cover = 0
            for m in maximals:
                if p & ~m == 0:
                    cover |= m
            for x in range(g.order):
                if cover >> x & 1 and not p >> x & 1:
                    opts.add(masks[index.of(p | 1 << x)])
            reachable.setdefault(cls, set()).add(frozenset(opts - {cls}))
        assert all(len(v) == 1 for v in reachable.values())


def test_parity_alternation():
    g = make_symmetric(3)
    table = brute_nim_table(g)
    maximals = [m.mask for m in maximal_subgroups(g)]
    for p in table:
        for x in range(g.order):
            q = p | 1 << x
            if q != p and any(q & ~m == 0 for m in maximals):
                assert q.bit_count() == p.bit_count() + 1
