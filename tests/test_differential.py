"""The lattice pipeline and the oracle against the reference implementations
in _helpers."""

from itertools import permutations

import pytest

from _helpers import (
    ReferenceSearch,
    by_order,
    d_or_cap,
    matrix_group_2x2,
    reference_barnes_first_player_wins,
    reference_by_level,
    reference_closure_mask,
    reference_coset_ids,
    reference_class_sizes,
    reference_cyclic_mask,
    reference_dicyclic_table,
    reference_digraph_edges,
    reference_element_order,
    reference_enumerate,
    reference_intersection_masks,
    reference_inverses,
    reference_is_nilpotent,
    reference_is_normal,
    reference_join_mask,
    reference_lattice_dot,
    reference_largest_odd_normal_in_frattini,
    reference_maximal_masks,
    reference_min_generators,
    reference_normalizer,
    reference_perm_table,
    reference_quotient_table,
    reference_real_element_disjunction,
    reference_seeds,
    reference_smallest_intersection,
    reference_solve_types,
    reference_structure_digraph,
    reference_subgroup_masks,
)
from dng import lattice, oracle
from dng.catalog import catalog_specs
from dng.classify import (
    barnes_first_player_wins,
    is_nilpotent,
    real_element_disjunction,
)
from dng.errors import GeneratingSetError, SolverConsistencyError
from dng.groups import (
    _perm_parity,
    bits,
    closure_mask,
    coset_ids,
    element_order,
    is_cyclic,
    is_normal,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_symmetric,
    mask_of,
    min_generators,
    quotient,
)
from dng.groupspec import build, parse_spec
from dng.lattice import (
    _enumerate,
    _masks,
    _seeds,
    _walk,
    all_subgroups,
    class_sizes,
    incidence_poset,
    intersection_subgroups,
    largest_odd_normal_in_frattini,
    lattice_dot,
    maximal_incidence,
    maximal_subgroups,
    smallest_intersection_containing,
)
from dng.oracle import brute_nim, brute_nim_table
from dng.solver import solve, solve_types, structure_digraph, type_multiset

SPECS = catalog_specs(36) + ["Z2 x Z2 x Z2 x Z2 x Z2", "S5"]


@pytest.mark.parametrize("spec", SPECS)
def test_lattice_pipeline_matches_reference(spec):
    g = build(parse_spec(spec))
    subgroups = reference_subgroup_masks(g)
    maximals = reference_maximal_masks(g, subgroups)
    nodes = by_order(reference_intersection_masks(maximals))
    assert {s.mask for s in all_subgroups(g)} == subgroups
    assert [m.mask for m in maximal_subgroups(g)] == maximals
    assert [s.mask for s in intersection_subgroups(g).members] == nodes
    assert structure_digraph(g).edges == reference_digraph_edges(g, nodes, maximals)


#: Groups with many maximal subgroups, so incidences are ints of 64 bits
#: (Z2^6 x Z3), 68 (D67), 128 (D127 and Dic127), 130 (D254) and 360 (D359).
SOLVER_SPECS = catalog_specs(96) + [
    "S6",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z3",
    "D67",
    "Z2 x Z2 x Z2 x Z2",
    "D127",
    "Dic127",
    "D254",
    "D359",
]


@pytest.mark.parametrize("spec", SOLVER_SPECS)
def test_structure_solver_matches_reference(spec, built):
    g = built(spec)
    d = structure_digraph(g)
    ref = reference_structure_digraph(g)
    assert d.nodes == ref.nodes
    assert d.edges == ref.edges
    assert all(type(i) is int and type(j) is int for i, j in d.edges)
    assert solve_types(d).types == reference_solve_types(ref).types


@pytest.mark.parametrize("spec", SOLVER_SPECS)
def test_keyed_solve_matches_reference(spec, built):
    g = built(spec)
    ref = solve_types(reference_structure_digraph(g))
    assert solve(g) == {
        "nim": ref.types[ref.source].nim_even,
        "nodes": len(ref.nodes),
        "edges": len(ref.edges),
        "types": type_multiset(ref),
    }


def test_keyed_solve_raises_outside_the_spectrum(monkeypatch):
    # Z15's Frattini node, trivial, has the odd maximals Z3 and Z5 as its
    # options; read as even it solves to (0,1,0)
    def even_frattini(index, moves):
        masks = _masks(index, moves)
        masks[index.everything] |= 1 << 1
        return masks

    monkeypatch.setattr(lattice, "_masks", even_frattini)
    with pytest.raises(SolverConsistencyError, match=r"\(0,1,0\)"):
        solve(build(parse_spec("Z15")))


def test_keyed_solve_raises_on_incidences_meeting_in_one_subgroup(monkeypatch):
    def merged(index, moves):
        masks = _masks(index, moves)
        a, b = list(masks)[:2]
        masks[b] = masks[a]
        return masks

    monkeypatch.setattr(lattice, "_masks", merged)
    with pytest.raises(SolverConsistencyError, match="meet in"):
        solve(build(parse_spec("S4")))


#: The six groups of the ``ladder`` benchmark, then three more large posets.
MOVE_MASK_SPECS = list(
    dict.fromkeys(
        catalog_specs(96)
        + [
            "A5",
            "S5",
            "A4 x A4",
            "Z2 x Z2 x Z2 x Z2 x Z2",
            "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
            "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
            "S6",
            "S4 x S4",
            "Z3 x Z3 x Z3 x Z3 x Z3",
        ]
    )
)


@pytest.mark.parametrize("spec", MOVE_MASK_SPECS)
def test_masks_read_off_moves_are_the_meets(spec, built):
    index = maximal_incidence(built(spec))
    moves, _ = _walk(index)
    assert _masks(index, moves) == {inc: index.meet(inc) for inc in moves}


@pytest.mark.parametrize(
    "spec, count", [("Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z3", 64), ("D67", 68)]
)
def test_incidence_width_boundary(spec, count):
    assert len(maximal_subgroups(build(parse_spec(spec)))) == count


ENUMERATION_SPECS = catalog_specs(36) + [
    "A4 x A4",
    "S4 x S3",
    "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
    "Z2 x Z2 x Z2 x Z2 x Z2",
    "Z3 x Z3 x Z3 x Z3",
    "Z2 x Z2 x Z2 x Z2 x Z3",
    "GL(2,3)",
    "SL(2,3)",
    "D48",
    "Dic24",
    "D45",
    "D60",
]


def _group(spec):
    if spec.endswith("L(2,3)"):
        return matrix_group_2x2(3, det_one=spec == "SL(2,3)", name=spec)
    return build(parse_spec(spec))


@pytest.mark.parametrize("spec", ENUMERATION_SPECS)
def test_enumeration_matches_coset_fixpoint(spec):
    g = _group(spec)
    subgroups, maximals = reference_enumerate(_group(spec))
    assert [s.mask for s in all_subgroups(g)] == subgroups
    assert [m.mask for m in maximal_subgroups(g)] == maximals


@pytest.mark.parametrize(
    "spec", catalog_specs(48) + ["S5", "A4 x A4", "S4 x S3", "D48", "Dic24", "D60"]
)
def test_class_normalizers_match_brute_force(spec):
    """Enumeration joins a class representative H once per orbit of right
    cosets under the normalizer generators recorded with its class.  Each of
    them normalizes H, and with the centre, whose elements fix every coset,
    they generate N_G(H)."""
    g = build(parse_spec(spec))
    t = g.table.tolist()
    center = mask_of(z for z, row in enumerate(t) if row == [r[z] for r in t])
    for orbit, _, normalizer in _enumerate(g)[2]:
        expected = reference_normalizer(g, orbit[0])
        assert mask_of(normalizer) & ~expected == 0
        assert reference_closure_mask(g, mask_of(normalizer) | center) == expected


#: Z2^4 and D127 have 67 and 130 subgroups, so containers are ints of as many
#: bits.
@pytest.mark.parametrize(
    "spec",
    catalog_specs(24)
    + ["Z2 x Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2 x Z2", "S5", "D127"],
)
def test_lattice_dot_matches_reference(spec):
    g = build(parse_spec(spec))
    assert lattice_dot(g) == reference_lattice_dot(g)


@pytest.mark.parametrize(
    "make, n", [(make_symmetric, n) for n in range(1, 6)]
    + [(make_alternating, n) for n in range(3, 6)],
)
def test_permutation_table_matches_tuple_composition(make, n):
    g = make(n)
    perms = list(permutations(range(n)))
    if make is make_alternating:
        perms = [p for p in perms if _perm_parity(p) == 0]
    assert g.table.tolist() == reference_perm_table(perms)


@pytest.mark.parametrize("n", range(2, 25))
def test_dicyclic_table_matches_reference(n):
    assert make_dicyclic(n).table.tolist() == reference_dicyclic_table(n)


def test_inverses_match_reference(catalog96):
    for spec, g in catalog96:
        assert g.inverses.tolist() == reference_inverses(g.table), spec


@pytest.mark.parametrize("spec", SPECS)
def test_closure_of_pairs_matches_reference(spec):
    g = build(parse_spec(spec))
    for a in range(g.order):
        for b in range(a, g.order):
            mask = 1 << a | 1 << b
            assert closure_mask(g, mask) == reference_closure_mask(g, mask)


@pytest.mark.parametrize("spec", ["S4", "Dih(Z3 x Z3)", "Z2 x Z2 x Z2 x Z2"])
def test_join_of_subgroup_and_element_matches_reference(spec):
    g = build(parse_spec(spec))
    for h in reference_subgroup_masks(g):
        for x in bits(g.full_mask & ~h):
            extra = 1 << x | 1 << (g.order - 1 - x)
            assert closure_mask(g, h | extra) == reference_join_mask(g, h, extra)


@pytest.mark.parametrize("n", [2, 7])
def test_prime_cyclic_has_only_the_trivial_maximal(n):
    g = make_cyclic(n)
    assert [m.mask for m in maximal_subgroups(g)] == [1]
    assert [s.mask for s in intersection_subgroups(g).members] == [1]
    assert structure_digraph(g).edges == ()


def test_closure_of_nothing_is_trivial():
    for spec in ["Z2", "Z7", "S3"]:
        assert closure_mask(build(parse_spec(spec)), 0) == 1


# ---------------------------------------------------------------------------
# The oracle's sweep against the per-maximal game-tree search.

ORACLE_SPECS = catalog_specs(24) + [
    "A5",
    "Z65",  # order above 64
    "Z3 x Z3 x Z3",
    "Z2 x Z2 x Z2 x Z2",
]


def _maximal_masks(g):
    return [m.mask for m in maximal_subgroups(g)]


@pytest.fixture(scope="module")
def searched(built):
    """The reference search of a spec's game, run from the empty set once per
    module, so its memo holds every position: ``searched("S3")``."""
    refs = {}

    def get(spec):
        if spec not in refs:
            refs[spec] = ReferenceSearch(_maximal_masks(built(spec)))
            refs[spec].nim(0)
        return refs[spec]

    return get


@pytest.mark.parametrize("n", range(17))
def test_by_level_matches_reference(n):
    sizes, order, starts = oracle._by_level(n)
    ref_sizes, ref_order, ref_starts = reference_by_level(n)
    assert sizes.dtype == ref_sizes.dtype and order.dtype == ref_order.dtype
    assert sizes.tolist() == ref_sizes.tolist()
    assert order.tolist() == ref_order.tolist()
    assert starts.tolist() == ref_starts.tolist()


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_oracle_matches_reference_search(built, searched, spec):
    g, ref = built(spec), searched(spec)
    table = brute_nim_table(g)
    assert table == ref.memo
    res = brute_nim(g)
    assert (res.nim, res.memo_size, res.effort) == (
        ref.memo[0], len(ref.memo), ref.effort
    )
    # a position of size s is the child of exactly s positions
    assert res.effort == sum(p.bit_count() for p in table)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_position_matches_reference_search(built, searched, spec):
    g, ref = built(spec), searched(spec)
    # every copy of a position, not only the one brute_nim_table keeps: a
    # position in several maximals is read from each at the level below
    sweep = oracle._sweep(g, oracle.DEFAULT_BUDGET)
    for elems, cells in zip(sweep.elems, sweep.cells):
        positions = oracle._unions([1 << x for x in elems])
        values = [c.bit_length() - 1 for c in cells.tolist()]
        assert values == [ref.nim(p) for p in positions], elems


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_outcome_check_matches_reference(searched, spec):
    # a position is terminal exactly when it is a maximal subgroup, so when
    # the maximals share one parity every line of play ends at that parity,
    # and the first player wins iff it is odd; mixed parities decide nothing
    ref = searched(spec)
    parities = {m.bit_count() % 2 for m in ref.maximals}
    if len(parities) == 1:
        assert (ref.nim(0) != 0) == (parities == {1})


def test_sweep_stacks_cover_every_lane_width(built):
    # a maximal's cells are one byte lane of its stack's words, so the row
    # stride of its cells is the stack's width
    widths, crowded = set(), set()
    for spec in ORACLE_SPECS:
        sweep = oracle._sweep(built(spec), oracle.DEFAULT_BUDGET)
        widths |= {c.strides[0] for c in sweep.cells}
        sizes = [len(e) for e in sweep.elems]
        if any(sizes.count(n) > 8 for n in sizes):
            crowded.add(spec)
    assert widths == {1, 2, 4, 8}
    # A5 has 10 maximals of order 6, D11 11 of order 2, Z2^4 15 of order 8
    assert {"A5", "D11", "Z2 x Z2 x Z2 x Z2"} <= crowded


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_sweep_chunk_boundaries_match_reference(monkeypatch, built, searched, spec):
    g, ref = built(spec), searched(spec)
    # chunks of one or three subsets split every level of every stack
    for chunk in [1, 3]:
        monkeypatch.setattr(oracle, "CHUNK_CELLS", chunk)
        assert brute_nim_table(g) == ref.memo, chunk


@pytest.mark.parametrize("spec", catalog_specs(12))
def test_smallest_intersection_matches_reference(spec):
    g = build(parse_spec(spec))
    maximals = _maximal_masks(g)
    for s in range(1 << g.order):
        expected = reference_smallest_intersection(maximals, s)
        if expected is None:
            with pytest.raises(GeneratingSetError):
                smallest_intersection_containing(g, s)
        else:
            assert smallest_intersection_containing(g, s).mask == expected


@pytest.mark.parametrize(
    "spec, counters",
    [
        ("A5", (0, 26984, 155100)),
        ("Z30", (3, 33814, 250977)),
        ("S3 x S3", (0, 808856, 7217226)),
    ],
)
def test_oracle_counters_are_pinned(spec, counters):
    res = brute_nim(build(parse_spec(spec)))
    assert (res.nim, res.memo_size, res.effort) == counters


# ---------------------------------------------------------------------------
# Predicates read off the maximal subgroups against the lattice scans they
# replace.

PREDICATE_SPECS = catalog_specs(36) + ["A5", "S5", "GL(2,3)", "SL(2,3)"]


@pytest.mark.parametrize("spec", PREDICATE_SPECS)
def test_predicates_match_lattice_scans(spec):
    g = _group(spec)
    assert is_nilpotent(g) == reference_is_nilpotent(g)
    assert largest_odd_normal_in_frattini(g).mask == (
        reference_largest_odd_normal_in_frattini(g)
    )
    if g.order <= 2:
        return
    t, inv = g.table.tolist(), g.inverses.tolist()
    for x in range(g.order):
        real = any(t[t[u][x]][inv[u]] == inv[x] for u in range(g.order))
        if element_order(g, x) % 2 and real:
            assert real_element_disjunction(g, x) == reference_real_element_disjunction(g, x)


@pytest.mark.parametrize("spec", catalog_specs(36) + ["A4 x Z2 x Z2", "S4 x S3", "S5"])
def test_quotient_gathers_match_scalar_loops(spec, built):
    g = built(spec)
    for s in all_subgroups(g):
        normal = reference_is_normal(g, s.mask)
        assert is_normal(g, s.mask) == normal
        if normal:
            assert coset_ids(g, s.mask).tolist() == reference_coset_ids(g, s.mask)
            q = quotient(g, s.mask)
            assert q.table.tolist() == reference_quotient_table(g, s.mask)


# ---------------------------------------------------------------------------
# Generation questions answered from the cyclic subgroup walks and the
# maximal incidence against the closure loops they replace.

#: Z720 has the longest power chain under the order budget; D360 and Dic180
#: walk 384 and 204 cyclic subgroups, most of order 2 or 4.
POWER_EXTRAS = ["S6", "A6", "Z720", "D360", "Dic180"]

#: Z2^6 and the Dih group exhaust every cap; S6 is the largest group here.
GENERATOR_EXTRAS = [
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
    "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
    "S5",
    "A4 x A4",
    "S6",
]


def test_cyclic_walks_match_power_loop_and_closure(catalog96, built):
    for name, g in catalog96 + [(spec, built(spec)) for spec in POWER_EXTRAS]:
        orders = [reference_element_order(g, x) for x in range(g.order)]
        assert [element_order(g, x) for x in range(g.order)] == orders, name
        cyclic = [reference_cyclic_mask(g, x) for x in range(g.order)]
        assert g.cyclic_masks == cyclic, name
        assert is_cyclic(g) == (g.order in orders), name
        assert _seeds(g) == reference_seeds(g), name


def test_class_sizes_match_pairwise_inclusion(catalog96, built):
    extras = ["S6", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "Z3 x Z3 x Z3 x Z3 x Z3"]
    for name, g in catalog96 + [(spec, built(spec)) for spec in extras]:
        # keyed sizes come in the walk's order, the reference's by (order, mask)
        keyed = zip(incidence_poset(g).masks.values(), class_sizes(g))
        members = [s.mask for s in intersection_subgroups(g).members]
        assert dict(keyed) == dict(zip(members, reference_class_sizes(g))), name


def test_min_generators_matches_closure_search(catalog96, built):
    for name, g in catalog96 + [(spec, built(spec)) for spec in GENERATOR_EXTRAS]:
        # the search tries k = 1, 2, 3, 4 in turn, so one run at cap 4 also
        # answers every smaller cap
        d = d_or_cap(reference_min_generators, g, 4)
        for cap in range(1, 5):
            expected = d if isinstance(d, int) and d <= cap else f">{cap}"
            assert d_or_cap(min_generators, g, cap) == expected, (name, cap)


def test_barnes_over_cyclic_subgroups_matches_element_loop(catalog96, built):
    for name, g in catalog96 + [("S5", built("S5"))]:
        assert barnes_first_player_wins(g) == reference_barnes_first_player_wins(g), name
