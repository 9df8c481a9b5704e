import pytest

from _helpers import brute_force_subgroup_masks, union_of_maximals
from dng.errors import LatticeGuardError, TrivialGroupError
from dng.groups import (
    bits,
    closure_mask,
    is_cyclic,
    is_normal,
    make_alternating,
    make_cyclic,
    make_symmetric,
    mask_of,
)
from dng.groupspec import build, parse_spec
from dng import lattice
from dng.lattice import (
    all_maximals_even,
    all_subgroups,
    even_maximals_cover,
    frattini,
    incidence_poset,
    intersection_subgroups,
    largest_odd_normal_in_frattini,
    lattice_dot,
    maximal_incidence,
    maximal_subgroups,
)


def test_subgroup_counts_small():
    assert len(all_subgroups(make_cyclic(6))) == 4
    assert len(all_subgroups(build(parse_spec("Z2 x Z2")))) == 5


@pytest.mark.parametrize("spec", ["A4", "Z12", "Dic2", "D4", "Z2 x Z2 x Z2"])
def test_enumeration_matches_brute_force(spec):
    g = build(parse_spec(spec))
    expected = brute_force_subgroup_masks(g)
    got = {s.mask for s in all_subgroups(g)}
    assert got == expected


def test_a4_has_ten_subgroups():
    assert len(all_subgroups(make_alternating(4))) == 10


def test_lattice_guard(monkeypatch):
    monkeypatch.setattr(lattice, "SUBGROUP_GUARD", 10)
    with pytest.raises(LatticeGuardError):
        all_subgroups(build(parse_spec("Z2 x Z2 x Z2 x Z2")))


_PINNED_WORK = [
    ("S4", 13, 30, 8),
    ("S5", 58, 156, 22),
    ("A4 x A4", 165, 216, 12),
    ("S6", 446, 1455, 53),
    ("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", 2765, 2825, 63),
    ("Dih(Z2 x Z2 x Z2 x Z2 x Z3)", 1958, 1362, 34),
    ("S4 x S4", 2071, 2976, 17),
    ("Z3 x Z3 x Z3 x Z3 x Z3", 2545, 2664, 121),
    ("D48", 119, 134, 6),
    ("D360", 1070, 1194, 11),
    ("Dic24", 59, 70, 6),
]


@pytest.mark.parametrize(
    "spec, joins, subgroups, maximals", _PINNED_WORK, ids=[w[0] for w in _PINNED_WORK]
)
def test_enumeration_work_is_pinned(monkeypatch, spec, joins, subgroups, maximals):
    """Listing whole conjugacy classes, joining once per orbit of right
    cosets under the normalizer, skipping the joins inside prime-index
    overgroups (every member over H of a class just found among them) and
    reading the trivial subgroup's joins, the span's first join among them,
    off the cyclic subgroups change how many joins enumeration makes, not
    what it finds, so the count is pinned.  So does the span of g, taken
    from the cyclic generators of largest order first.  An abelian group has
    nothing to conjugate, so the normalizer orbits leave Z2^6 at one join
    per right coset."""
    calls = []
    join = lattice.join_element
    monkeypatch.setattr(lattice, "join_element", lambda *a: calls.append(a) or join(*a))
    g = build(parse_spec(spec))
    assert len(all_subgroups(g)) == subgroups
    assert len(maximal_subgroups(g)) == maximals
    assert len(calls) == joins


@pytest.mark.parametrize("spec", ["S5", "A4 x A4", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2"])
def test_joins_take_short_generating_sets(monkeypatch, spec):
    """Enumeration joins each class representative H, and each step of its
    span of g, with a generating set of H at most log2|H| long, or with none
    when H is normal: x then normalizes H, so the powers of x alone walk
    H<x>."""
    calls = []
    join = lattice.join_element
    monkeypatch.setattr(lattice, "join_element", lambda *a: calls.append(a) or join(*a))
    g = build(parse_spec(spec))
    all_subgroups(g)
    generators = {(mask_of(members), tuple(gens)) for _, members, gens, _ in calls}
    for h, gens in generators:
        if gens:
            assert closure_mask(g, mask_of(gens)) == h
            assert 2 ** len(gens) <= h.bit_count()
        else:
            assert is_normal(g, h)


def test_subgroup_invariants():
    for spec in ["A4", "Dic3", "Z18 x Z2", "Dih(Z3 x Z3)"]:
        g = build(parse_spec(spec))
        for s in all_subgroups(g):
            assert 0 in s
            assert closure_mask(g, s.mask) == s.mask
            assert g.order % s.order == 0


def test_maximals_of_a4():
    orders = sorted(m.order for m in maximal_subgroups(make_alternating(4)))
    assert orders == [3, 3, 3, 3, 4]


def test_maximals_of_z12():
    orders = sorted(m.order for m in maximal_subgroups(make_cyclic(12)))
    assert orders == [4, 6]


def test_maximals_of_prime_cyclic():
    maximals = maximal_subgroups(make_cyclic(7))
    assert [m.order for m in maximals] == [1]


def test_maximals_trivial_group_raises():
    with pytest.raises(TrivialGroupError):
        maximal_subgroups(make_cyclic(1))


def test_frattini_examples():
    assert frattini(make_alternating(4)).order == 1
    assert frattini(build(parse_spec("Z18 x Z2"))).order == 3
    assert frattini(make_cyclic(4)).order == 2


def test_intersection_subgroups_a4():
    a4 = make_alternating(4)
    poset = intersection_subgroups(a4)
    assert sorted(s.order for s in poset.members) == [1, 3, 3, 3, 3, 4]
    # the order-2 subgroups exist in the lattice but are not intersections
    assert any(s.order == 2 for s in all_subgroups(a4))
    assert not any(s.order == 2 for s in poset.members)
    assert poset.members[0].order == 1


def test_intersection_subgroups_prime_cyclic():
    poset = intersection_subgroups(make_cyclic(5))
    assert [s.order for s in poset.members] == [1]


def test_intersection_subgroups_z6xz2():
    poset = intersection_subgroups(build(parse_spec("Z6 x Z2")))
    orders = [s.order for s in poset.members]
    assert poset.members[0].order == 1
    assert orders.count(6) == 3


def test_intersection_closed_and_bottom_minimal():
    for spec in ["A4", "S4", "Z6 x Z2", "Dic3", "Z18 x Z2"]:
        g = build(parse_spec(spec))
        poset = intersection_subgroups(g)
        masks = {s.mask for s in poset.members}
        for a in masks:
            for b in masks:
                assert a & b in masks
        assert all(frattini(g).mask & ~s.mask == 0 for s in poset.members)
        assert poset.members[0].mask == frattini(g).mask


def test_smallest_intersection_of_empty_set_is_frattini():
    for spec in ["A4", "Z12", "S3"]:
        g = build(parse_spec(spec))
        assert incidence_poset(g).masks[maximal_incidence(g).of(0)] == frattini(g).mask


def test_smallest_intersection_of_maximal_is_itself():
    g = make_symmetric(4)
    masks, index = incidence_poset(g).masks, maximal_incidence(g)
    for m in maximal_subgroups(g):
        assert masks[index.of(m.mask)] == m.mask


def test_smallest_intersection_of_three_cycle():
    a4 = make_alternating(4)
    x = next(i for i in range(a4.order) if closure_mask(a4, 1 << i).bit_count() == 3)
    found = incidence_poset(a4).masks[maximal_incidence(a4).of(1 << x)]
    assert found.bit_count() == 3 and found >> x & 1


def test_smallest_intersection_rejects_generating_set():
    # a generating set's incidence is 0, which keys no member
    g = make_cyclic(6)
    assert maximal_incidence(g).of(1 << 1) == 0
    assert 0 not in incidence_poset(g).masks


def test_covering_predicates():
    assert even_maximals_cover(build(parse_spec("Z2 x Z3 x Z3")))
    assert not even_maximals_cover(make_symmetric(3))
    assert all_maximals_even(make_cyclic(4))


def test_cover_iff_noncyclic(catalog36):
    for _, g in catalog36:
        covers = union_of_maximals(g) == g.full_mask
        assert covers == (not is_cyclic(g))


def test_direct_product_maximals(catalog24):
    from dng.groups import direct_product

    for hs, ks in [("S3", "Z2"), ("Z4", "Z3"), ("A4", "Z2")]:
        h, k = build(parse_spec(hs)), build(parse_spec(ks))
        g = direct_product(h, k)
        gmax = {m.mask for m in maximal_subgroups(g)}
        kfull = k.full_mask
        for m in maximal_subgroups(h):
            lifted = 0
            for a in bits(m.mask):
                lifted |= kfull << (a * k.order)
            assert lifted in gmax


def test_cyclic_even_maximals_iff_4_divides():
    for n in range(2, 65):
        assert all_maximals_even(make_cyclic(n)) == (n % 4 == 0)


def test_generalized_dihedral_maximals():
    for aspec in ["Z3", "Z5", "Z6", "Z2 x Z2", "Z3 x Z3", "Z2 x Z4"]:
        a = build(parse_spec(aspec))
        g = build(parse_spec(f"Dih({aspec})"))
        a_copy_mask = (1 << a.order) - 1  # canonical embedding: A ids come first
        for m in maximal_subgroups(g):
            if m.mask != a_copy_mask:
                assert m.order % 2 == 0


def test_largest_odd_normal_in_frattini():
    assert largest_odd_normal_in_frattini(build(parse_spec("Z18 x Z2"))).order == 3
    assert largest_odd_normal_in_frattini(make_symmetric(4)).order == 1
    assert largest_odd_normal_in_frattini(make_cyclic(27)).order == 9


def test_lattice_dot_deterministic():
    g = make_alternating(4)
    dot = lattice_dot(g)
    assert dot == lattice_dot(g)
    assert dot.count("[label=") == 10
    assert dot.startswith("digraph lattice {")


def test_lattice_dot_transitive_reduction():
    dot = lattice_dot(make_cyclic(4))
    # chain 1 < 2 < 4: only the two covering edges survive
    assert dot.count("->") == 2
