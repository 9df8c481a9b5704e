import math

import numpy as np
import pytest

from _helpers import assert_valid_construction, element_orders, reference_coset_ids
from dng.errors import BudgetError, GeneratorCapError, NonAbelianError, NotNormalError
from dng.groups import (
    Group,
    closure_mask,
    direct_product,
    is_abelian,
    is_cyclic,
    is_normal,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_generalized_dihedral,
    make_symmetric,
    min_generators,
    quotient,
)
from dng import groups
from dng.groupspec import build, check_order, parse_spec
from dng.lattice import frattini, largest_odd_normal_in_frattini


def involutions(g):
    return [x for x in range(1, g.order) if g.table[x, x] == 0]


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1


def test_columns_share_one_int_per_id():
    g = make_cyclic(300)  # above CPython's cache of small ints
    assert g.columns == g.table.T.tolist()
    assert len({id(x) for col in g.columns for x in col}) == g.order


def test_cyclic_table():
    g = make_cyclic(4)
    assert g.table[1, 3] == 0
    assert involutions(g) == [2]


def test_cyclic_element_orders():
    assert element_orders(make_cyclic(6)) == [1, 2, 3, 3, 6, 6]


def test_cyclic_budget():
    with pytest.raises(BudgetError):
        make_cyclic(1000)


@pytest.mark.parametrize(
    "make,n,budget,message",
    [
        (make_symmetric, 2000, 720, "S2000 has an order exceeding budget 720"),
        (make_symmetric, 10**6, 720, "S1000000 has an order exceeding budget 720"),
        (make_alternating, 2000, 720, "A2000 has an order exceeding budget 720"),
        (make_alternating, 10**6, 720, "A1000000 has an order exceeding budget 720"),
        (make_symmetric, 5, 100, "S5 has order 120, exceeding budget 100"),
        (make_alternating, 6, 100, "A6 has order 360, exceeding budget 100"),
    ],
)
def test_permutation_group_budget(make, n, budget, message):
    # the order is multiplied up only until it passes the budget, never to n!,
    # and the message gives it only when it was reached exactly
    with pytest.raises(BudgetError) as exc:
        make(n, budget)
    assert str(exc.value) == message


def test_generalized_dihedral_of_z3():
    g = make_generalized_dihedral(make_cyclic(3))
    assert g.order == 6
    assert len(involutions(g)) == 3
    # same element-order multiset as Sym(3)
    assert element_orders(g) == element_orders(make_symmetric(3))


def test_generalized_dihedral_of_trivial():
    assert make_generalized_dihedral(make_cyclic(1)).order == 2


def test_generalized_dihedral_of_z3xz3():
    a = build(parse_spec("Z3 x Z3"))
    g = make_generalized_dihedral(a)
    assert g.order == 18
    # everything outside the abelian copy is an involution
    assert all(g.element_orders[x] == 2 for x in range(9, 18))
    assert len(involutions(g)) == 9


def test_generalized_dihedral_rejects_nonabelian():
    with pytest.raises(NonAbelianError):
        make_generalized_dihedral(make_symmetric(3))


def test_dicyclic_q8():
    q8 = make_dicyclic(2)
    assert q8.order == 8
    assert len(involutions(q8)) == 1


def test_dicyclic_coset_orders():
    g = make_dicyclic(3)
    assert g.order == 12
    assert all(g.element_orders[x] == 4 for x in range(6, 12))


def test_dicyclic_rejects_small_n():
    with pytest.raises(ValueError):
        make_dicyclic(1)


def test_symmetric_3():
    s3 = make_symmetric(3)
    assert s3.order == 6
    assert len(involutions(s3)) == 3
    for t in involutions(s3):
        assert s3.element_orders[t] == 2


def test_alternating_3_is_cyclic():
    a3 = make_alternating(3)
    assert a3.order == 3
    assert is_cyclic(a3)


def test_alternating_4_orders():
    a4 = make_alternating(4)
    assert a4.order == 12
    assert 6 not in element_orders(a4)


def test_symmetric_sizes():
    for n in range(1, 6):
        assert make_symmetric(n).order == math.factorial(n)
        assert make_alternating(n).order == max(math.factorial(n) // 2, 1)


def test_direct_product_z2_z3():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    assert 6 in element_orders(g)


def test_direct_product_identity_factor():
    s3 = make_symmetric(3)
    g = direct_product(s3, make_cyclic(1))
    assert element_orders(g) == element_orders(s3)


def test_direct_product_z18_z2():
    assert direct_product(make_cyclic(18), make_cyclic(2)).order == 36


@pytest.mark.parametrize("specs", ["Z2 x Z3", "Z4 x Z6", "S3 x Z4"])
def test_direct_product_order_is_lcm(specs):
    g = build(parse_spec(specs))
    left, right = specs.split(" x ")
    a, b = build(parse_spec(left)), build(parse_spec(right))
    for x in range(a.order):
        for y in range(b.order):
            expected = math.lcm(a.element_orders[x], b.element_orders[y])
            assert g.element_orders[x * b.order + y] == expected


def test_quotient_frattini_of_z18xz2():
    g = build(parse_spec("Z18 x Z2"))
    q = quotient(g, frattini(g))
    assert q.order == 12
    assert element_orders(q) == element_orders(build(parse_spec("Z6 x Z2")))


def test_quotient_by_trivial():
    g = make_symmetric(3)
    q = quotient(g, 1)
    assert element_orders(q) == element_orders(g)


def test_quotient_z6_by_z3():
    z6 = make_cyclic(6)
    sub = closure_mask(z6, 1 << 2)  # <2> = {0, 2, 4}
    q = quotient(z6, sub)
    assert q.order == 2


def test_quotient_rejects_non_normal():
    s3 = make_symmetric(3)
    t = involutions(s3)[0]
    with pytest.raises(NotNormalError):
        quotient(s3, closure_mask(s3, 1 << t))


@pytest.mark.parametrize("mask", [0, 0b110, 0b1011])
def test_quotient_rejects_non_subgroup(mask):
    # the empty set, a set without the identity (id 0), a set not closed
    with pytest.raises(ValueError, match="not a subgroup"):
        quotient(make_symmetric(3), mask)


@pytest.mark.parametrize("fn", [is_normal, quotient, closure_mask])
@pytest.mark.parametrize("mask", [1 | 1 << 7, 1 << 6, 1 << 80, -1, 1 << 7, 1 | 1 << 6, -2])
def test_masks_outside_the_group_are_refused(fn, mask):
    # S3 has elements 0..5: bits 6 and 7 sit inside the last byte, bit 80
    # far past it; -1 sets every bit, and -2 every bit but the identity's
    with pytest.raises(ValueError, match="outside"):
        fn(make_symmetric(3), mask)


class _Masked:
    """An object that carries a mask but is not one."""

    mask = 0b1001


@pytest.mark.parametrize("fn", [is_normal, quotient])
@pytest.mark.parametrize(
    "sub", [[0, 3], 9.0, "9", _Masked()], ids=["list", "float", "str", "masked"]
)
def test_only_int_masks_are_accepted(fn, sub):
    with pytest.raises(TypeError, match="int bitmask"):
        fn(make_cyclic(6), sub)


@pytest.mark.parametrize("divisor", [1, 0b1001, 0b10101, 0b111111])
def test_quotient_unpacks_its_divisor_once(monkeypatch, divisor):
    # the subgroups of Z6: {0}, <3> = {0, 3}, <2> = {0, 2, 4} and Z6
    calls = []
    unpack = groups._membership
    monkeypatch.setattr(groups, "_membership", lambda *a: calls.append(a) or unpack(*a))
    quotient(make_cyclic(6), divisor)
    assert len(calls) == 1


def test_quotient_projection_is_homomorphism():
    for spec in ["Z18 x Z2", "Dic3", "A4"]:
        g = build(parse_spec(spec))
        q = quotient(g, frattini(g))
        proj = reference_coset_ids(g, frattini(g))
        for a in range(g.order):
            for b in range(g.order):
                assert proj[g.table[a, b]] == q.table[proj[a], proj[b]]


def test_element_order_identity_and_generator():
    z6 = make_cyclic(6)
    assert z6.element_orders[0] == 1
    assert z6.element_orders[1] == 6


def test_element_order_divides_group_order():
    for spec in ["Z12", "S4", "Dic3", "Dih(Z3 x Z3)"]:
        g = build(parse_spec(spec))
        assert all(g.order % k == 0 for k in g.element_orders)


def test_is_cyclic_and_min_generators():
    assert is_cyclic(make_cyclic(6))
    assert min_generators(make_cyclic(6)) == 1
    v4 = build(parse_spec("Z2 x Z2"))
    assert not is_cyclic(v4)
    assert min_generators(v4) == 2
    assert min_generators(make_symmetric(4)) == 2


def test_min_generators_cap():
    g = build(parse_spec("Z2 x Z2 x Z2"))
    assert min_generators(g, cap=3) == 3
    with pytest.raises(GeneratorCapError):
        min_generators(g, cap=2)


@pytest.mark.parametrize(
    "spec, d",
    [
        ("Z2 x Z2 x Z2 x Z2", 4),
        ("Z2 x Z2 x Z2 x Z2 x Z2", 5),
        ("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", 6),
        ("Z3 x Z3 x Z3 x Z3", 4),
        ("Dih(Z3 x Z3 x Z3 x Z3)", 5),  # Z3^4 needs 4, and a reflection
    ],
)
def test_min_generators_beyond_the_default_cap(spec, d):
    # an elementary abelian p-group Zp^k needs exactly k generators
    g = build(parse_spec(spec))
    assert min_generators(g, cap=d) == d
    with pytest.raises(GeneratorCapError) as info:
        min_generators(g, cap=d - 1)
    assert info.value.cap == d - 1


@pytest.mark.parametrize(
    "spec",
    ["Z1", "Z17", "D6", "Dic2", "S4", "A4", "Z2 x Z3 x Z3", "Dih(Z2 x Z4)"],
)
def test_group_axioms_exhaustively(spec):
    g = build(parse_spec(spec))
    n = g.order
    ids = np.arange(n)
    assert np.array_equal(g.table[0], ids) and np.array_equal(g.table[:, 0], ids)
    assert np.array_equal(np.sort(g.table, axis=1), np.broadcast_to(ids, (n, n)))
    assert np.array_equal(np.sort(g.table, axis=0), np.broadcast_to(ids[:, None], (n, n)))
    t = g.table.tolist()
    assert all(t[x][g.inverses[x]] == 0 for x in range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]


#: A loop of order 5: a Latin square with identity 0 that is no group table.
_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_from_table_rejects_bad_tables():
    """Each check of the table fires on its own fault with its own message,
    and a table with several faults is named by the first check."""
    shape = "nonempty square matrix"
    identity = "element 0 is not a two-sided identity"
    row = "some row is not a permutation"
    column = "some column is not a permutation"
    cases = [
        ([], shape),
        (np.zeros((0, 0)), shape),
        ([[0, 1, 2], [1, 2, 0]], shape),
        (np.zeros((2, 2, 2)), shape),
        ([[1, 0], [0, 1]], identity),
        ([[0, 2, 1], [1, 2, 0], [2, 0, 1]], identity),  # row 0
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], identity),  # column 0
        ([[1, 1], [1, 1]], identity),  # no row or column is a permutation
        ([[0, 1], [1, 1]], row),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], row),  # and no column either
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], column),
    ]
    for table, message in cases:
        with pytest.raises(ValueError, match=message):
            Group.from_table(table, "bad")
    with pytest.raises(ValueError, match="associativity fails for a=1"):
        Group.from_table(_LOOP5, "loop")


def test_catalog_tables_are_groups(catalog96):
    for _, g in catalog96:
        assert_valid_construction(g)


def test_mod_frattini_quotients_are_groups(catalog96, built):
    """The quotient is not validated when built, so each ``--mod-frattini``
    quotient of the catalog to order 96, and of D360, is validated here."""
    for name, g in catalog96 + [("D360", built("D360"))]:
        divisor = largest_odd_normal_in_frattini(g)
        if divisor != 1:
            assert_valid_construction(quotient(g, divisor))


@pytest.mark.parametrize(
    "spec",
    [
        "S6",
        "A6",
        "S4 x S4",
        "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
        "Z3 x Z3 x Z3 x Z3 x Z3",
        "D360",
        "Dic180",
        "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z3 x Z3",
    ],
)
def test_large_tables_are_groups(built, spec):
    assert_valid_construction(built(spec))


def test_memory_cap_refuses_before_building(monkeypatch):
    """The largest order under ``MEMORY_CAP`` passes the check; larger ones
    are refused, by ``build`` and by a constructor called directly, before
    any table exists."""
    n = math.isqrt(groups.MEMORY_CAP // groups.BYTES_PER_CELL)
    budget = 10 * n
    assert check_order(parse_spec(f"Z{n}"), budget) == n
    monkeypatch.setattr(np, "arange", None)  # any table would need it
    for spec in [f"Z{n + 1}", f"Dih(Z{n // 2 + 1})", f"Z{n + 1} x Z1"]:
        with pytest.raises(BudgetError, match="exceeding the memory cap of 1,024 MiB"):
            build(parse_spec(spec), budget)
    with pytest.raises(BudgetError, match=f"Dic{n // 4 + 1} has order"):
        make_dicyclic(n // 4 + 1, budget)


def test_is_abelian():
    assert is_abelian(make_cyclic(12))
    assert not is_abelian(make_symmetric(3))

