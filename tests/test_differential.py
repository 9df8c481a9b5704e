"""The lattice pipeline against the reference implementations in _helpers."""

import pytest

from _helpers import (
    by_order,
    reference_closure_mask,
    reference_digraph_edges,
    reference_intersection_masks,
    reference_join_mask,
    reference_maximal_masks,
    reference_subgroup_masks,
)
from dng.catalog import catalog_specs
from dng.groups import bits, closure_mask, join_mask, make_cyclic
from dng.groupspec import build, parse_spec
from dng.lattice import all_subgroups, intersection_subgroups, maximal_subgroups
from dng.solver import structure_digraph

SPECS = catalog_specs(36) + ["Z2 x Z2 x Z2 x Z2 x Z2", "S5"]


@pytest.mark.parametrize("spec", SPECS)
def test_lattice_pipeline_matches_reference(spec):
    g = build(parse_spec(spec))
    subgroups = reference_subgroup_masks(g)
    maximals = reference_maximal_masks(g, subgroups)
    nodes = by_order(reference_intersection_masks(maximals))
    assert {s.mask for s in all_subgroups(g).subgroups} == subgroups
    assert [m.mask for m in maximal_subgroups(g)] == maximals
    assert [s.mask for s in intersection_subgroups(g).members] == nodes
    assert structure_digraph(g).edges == reference_digraph_edges(g, nodes, maximals)


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
            assert join_mask(g, h, extra) == reference_join_mask(g, h, extra)


@pytest.mark.parametrize("n", [2, 7])
def test_prime_cyclic_has_only_the_trivial_maximal(n):
    g = make_cyclic(n)
    assert [m.mask for m in maximal_subgroups(g)] == [1]
    assert [s.mask for s in intersection_subgroups(g).members] == [1]
    assert structure_digraph(g).edges == ()


def test_closure_of_nothing_is_trivial():
    for spec in ["Z2", "Z7", "S3"]:
        assert closure_mask(build(parse_spec(spec)), 0) == 1
