import tracemalloc
from dataclasses import replace

import pytest

from _helpers import digraph_to_json, successor_lists
from dng.errors import SolverConsistencyError, TrivialGroupError
from dng.groups import bits, make_alternating, make_cyclic, make_symmetric
from dng.groupspec import build, parse_spec
from dng.lattice import (
    Subgroup,
    frattini,
    maximal_incidence,
    maximal_subgroups,
)
from dng.solver import (
    SPECTRUM,
    StructureDigraph,
    TypeTriple,
    emit_dot,
    game_nim,
    simplify,
    solve_types,
    structure_digraph,
    type_multiset,
)


def solved(g):
    return solve_types(structure_digraph(g))


def test_prime_cyclic_digraph_is_single_node():
    d = structure_digraph(make_cyclic(5))
    assert len(d.nodes) == 1
    assert d.edges == ()
    assert d.nodes[d.source].order == 1


def test_trivial_group_rejected():
    with pytest.raises(TrivialGroupError):
        structure_digraph(make_cyclic(1))


def test_source_is_frattini_node():
    for spec in ["A4", "Z18 x Z2", "S4"]:
        g = build(parse_spec(spec))
        d = structure_digraph(g)
        assert d.nodes[d.source].mask == frattini(g).mask


def test_edges_strictly_increase():
    for spec in ["A4", "S4", "Z6 x Z2", "Dic3"]:
        d = structure_digraph(build(parse_spec(spec)))
        for i, j in d.edges:
            a, b = d.nodes[i], d.nodes[j]
            assert a.mask != b.mask and a.mask & ~b.mask == 0


def test_z6xz2_digraph_has_three_edges_to_order6_classes():
    d = structure_digraph(build(parse_spec("Z6 x Z2")))
    src = d.source
    targets = [d.nodes[j].order for i, j in d.edges if i == src]
    assert targets.count(6) == 3


def test_a4_digraph_edges():
    a4 = make_alternating(4)
    d = structure_digraph(a4)
    maximals = {m.mask for m in maximal_subgroups(a4)}
    assert {d.nodes[j].mask for i, j in d.edges if i == d.source} == maximals
    assert len(d.edges) == len(maximals)


def test_unclosed_incidence_raises():
    g = build(parse_spec("S4"))
    index = maximal_incidence(g)
    # a phantom copy of the last maximal that only some of its elements name:
    # a walked incidence with the phantom and one without it meet alike
    k, last = len(index.masks), index.masks[-1]
    halves = list(bits(last))[1::2]
    elements = list(index.elements)
    for x in halves:
        elements[x] |= 1 << k
    g.derived[maximal_incidence.__wrapped__] = replace(
        index, masks=index.masks + (last,), elements=tuple(elements)
    )
    with pytest.raises(SolverConsistencyError, match="meet in"):
        structure_digraph(g)


def test_digraph_memory_stays_small():
    # Z2^6: 2824 nodes and 23,499 edges
    g = build(parse_spec("Z2 x Z2 x Z2 x Z2 x Z2 x Z2"))
    maximal_incidence(g)  # the subgroups and maximals, outside the trace
    tracemalloc.start()
    try:
        assert len(structure_digraph(g).edges) == 23499
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def _manual(nodes_orders, edges):
    return StructureDigraph(
        nodes=tuple(Subgroup((1 << o) - 1) for o in nodes_orders),
        successors=successor_lists(len(nodes_orders), edges),
    )


def test_terminal_odd_node_type():
    d = solve_types(_manual([3], []))
    assert d.types[0] == TypeTriple(1, 1, 0)


def test_terminal_even_node_type():
    d = solve_types(_manual([4], []))
    assert d.types[0] == TypeTriple(0, 0, 1)


def test_edges_must_point_to_later_nodes():
    with pytest.raises(ValueError, match="later node"):
        solve_types(_manual([1, 3], [(1, 0)]))


def test_every_successor_must_be_a_later_node():
    # node 1's successors (2, 0) are unsorted: the first points forward
    with pytest.raises(ValueError, match="later node"):
        solve_types(_manual([1, 3, 4], [(1, 2), (1, 0)]))


def test_mixed_options_give_star3():
    # odd source with an even terminal and an odd terminal option
    d = solve_types(_manual([1, 3, 4], [(0, 1), (0, 2)]))
    assert d.types[0] == TypeTriple(1, 3, 2)


def test_type_outside_the_spectrum_raises():
    # an even node whose only option is a terminal odd node solves to
    # (0,1,0); no group has it, as a subgroup of an odd maximal is odd
    with pytest.raises(SolverConsistencyError, match=r"\(0,1,0\)"):
        solve_types(_manual([2, 3], [(0, 1)]))


def test_game_nim_examples():
    assert game_nim(make_symmetric(3)) == 3
    assert game_nim(make_cyclic(4)) == 0
    assert game_nim(make_cyclic(3)) == 1


def test_spectrum_on_catalog(catalog36):
    for _, g in catalog36:
        for t in solved(g).types:
            assert t in SPECTRUM


def test_only_odd_maximals_forces_1_1_0(catalog36):
    for _, g in catalog36:
        maximals = maximal_subgroups(g)
        d = solved(g)
        for node, t in zip(d.nodes, d.types):
            parents = [m for m in maximals if node.mask & ~m.mask == 0]
            if parents and all(m.order % 2 == 1 for m in parents):
                assert t == TypeTriple(1, 1, 0)


def test_simplify_single_node():
    s = simplify(solve_types(_manual([3], [])))
    assert len(s.nodes) == 1 and s.edges == ()
    assert s.nodes[0].triple == TypeTriple(1, 1, 0)


def test_simplify_all_odd_maximals_collapses():
    # every class solves to (1,1,0), so one loop-free node remains
    s = simplify(solved(make_cyclic(15)))
    assert len(s.nodes) == 1
    assert s.nodes[0].triple == TypeTriple(1, 1, 0)
    assert s.edges == ()


def test_simplify_preserves_types():
    g = build(parse_spec("Z18 x Z2"))
    d = solved(g)
    s = simplify(d)
    assert {n.triple for n in s.nodes} == set(d.types)


def test_frattini_quotient_shares_simplified_diagram():
    a = emit_dot(simplify(solved(build(parse_spec("Z18 x Z2")))))
    b = emit_dot(simplify(solved(build(parse_spec("Z6 x Z2")))))
    assert a == b


def test_emit_dot_single_odd_node():
    dot = emit_dot(solved(make_cyclic(3)))
    assert dot == (
        "digraph structure {\n"
        "  // format: dng-structure-v1\n"
        '  n0 [label="pty=1 | even=1 | odd=0" parity="odd"];\n'
        "}\n"
    )


def test_emit_dot_s3_source_label():
    dot = emit_dot(solved(make_symmetric(3)))
    assert 'n0 [label="pty=1 | even=3 | odd=2"' in dot


def test_emit_dot_deterministic():
    g = build(parse_spec("Z6 x Z2"))
    assert emit_dot(solved(g)) == emit_dot(solved(g))


def test_emit_dot_requires_solved():
    with pytest.raises(ValueError):
        emit_dot(structure_digraph(make_symmetric(3)))


def test_digraph_json():
    d = solved(make_symmetric(3))
    j = digraph_to_json(d)
    assert j["format"] == "dng-digraph-v1"
    assert j["nodes"][0] == {
        "subgroup_order": 1,
        "parity": 1,
        "nim_even": 3,
        "nim_odd": 2,
    }
    assert all(i < j_ for i, j_ in j["edges"])


def test_type_multiset():
    assert type_multiset(solved(make_symmetric(3))) == {
        "(0,0,1)": 3,
        "(1,1,0)": 1,
        "(1,3,2)": 1,
    }
