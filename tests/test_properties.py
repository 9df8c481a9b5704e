"""Hypothesis properties: relabeling invariance, three-way agreement,
subgroup enumeration against the coset-join fixpoint, the structure solver
against its per-element loop, the oracle's sweep against the game-tree
search, and the cyclic subgroup walks and the incidence search for generators
against the closure loops."""

from _helpers import (
    ReferenceSearch,
    assert_valid_construction,
    d_or_cap,
    reference_barnes_first_player_wins,
    reference_cyclic_mask,
    reference_element_order,
    reference_enumerate,
    reference_min_generators,
    reference_seeds,
    reference_solve_types,
    reference_structure_digraph,
)
from hypothesis import event, given, reject, settings, strategies as st

from dng.catalog import catalog_specs
from dng.classify import barnes_first_player_wins, classify, is_nilpotent
from dng.errors import NonAbelianError, OracleBudgetError
from dng.groups import Group, min_generators
from dng.groupspec import (
    Atom,
    DirectProduct,
    GeneralizedDihedralOf,
    build,
    parse_spec,
    spec_order,
)
from dng.lattice import (
    _seeds,
    all_subgroups,
    largest_odd_normal_in_frattini,
    maximal_subgroups,
)
from dng.oracle import brute_nim, brute_nim_table
from dng.solver import emit_dot, game_nim, simplify, solve_types, structure_digraph, type_multiset

#: Oracle budget for random specs: larger games are skipped, not failed.
ORACLE_TEST_BUDGET = 20_000


def _relabeled(g: Group, perm: list[int]) -> Group:
    """g with element a renamed perm[a]; perm[0] is 0."""
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[int(g.table[a, b])]
    return Group.from_table(table, g.name)


def _invariants(g: Group) -> tuple:
    cls = classify(g)
    d = solve_types(structure_digraph(g))
    return (
        cls.nim,
        cls.rule,
        game_nim(g),
        type_multiset(d),
        emit_dot(simplify(d)),
        is_nilpotent(g),
        largest_odd_normal_in_frattini(g).bit_count(),
        barnes_first_player_wins(g),
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(catalog_specs(24)), st.data())
def test_relabeling_keeps_every_invariant(spec, data):
    g = build(parse_spec(spec))
    perm = [0] + data.draw(st.permutations(range(1, g.order)), label="perm")
    assert _invariants(_relabeled(g, perm)) == _invariants(g)


_atoms = st.one_of(
    st.builds(Atom, st.just("Z"), st.integers(2, 48)),
    st.builds(Atom, st.just("D"), st.integers(1, 24)),
    st.builds(Atom, st.just("Dic"), st.integers(2, 12)),
    st.builds(Atom, st.just("S"), st.integers(2, 4)),
    st.builds(Atom, st.just("A"), st.integers(3, 4)),
)
_small_specs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(GeneralizedDihedralOf, inner),
        st.builds(DirectProduct, inner, inner),
    ),
    max_leaves=3,
).filter(lambda spec: spec_order(spec) <= 48)


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_constructed_tables_are_groups(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    assert_valid_construction(g)


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_classifier_solver_and_oracle_agree(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    nim = classify(g).nim
    assert game_nim(g) == nim
    try:
        assert brute_nim(g, ORACLE_TEST_BUDGET).nim == nim
    except OracleBudgetError:
        event("oracle skipped (budget)")


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_enumeration_matches_coset_fixpoint(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    subgroups, maximals = reference_enumerate(build(spec))
    assert list(all_subgroups(g)) == subgroups
    assert maximal_subgroups(g) == maximals


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_structure_solver_matches_reference(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    d = structure_digraph(g)
    ref = reference_structure_digraph(g)
    assert d.edges == ref.edges
    assert solve_types(d).types == reference_solve_types(ref).types


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_oracle_table_matches_reference_search(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    try:
        table = brute_nim_table(g, ORACLE_TEST_BUDGET)
    except OracleBudgetError:
        event("oracle skipped (budget)")
        return
    ref = ReferenceSearch(maximal_subgroups(g))
    ref.nim(0)
    assert table == ref.memo


@settings(max_examples=100, deadline=None)
@given(_small_specs)
def test_generation_queries_match_closure_loops(spec):
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    assert g.element_orders == [reference_element_order(g, x) for x in range(g.order)]
    assert g.cyclic_masks == [reference_cyclic_mask(g, x) for x in range(g.order)]
    assert _seeds(g) == reference_seeds(g)
    assert barnes_first_player_wins(g) == reference_barnes_first_player_wins(g)
    for cap in range(1, 5):
        assert d_or_cap(min_generators, g, cap) == d_or_cap(reference_min_generators, g, cap)
