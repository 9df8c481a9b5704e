import pytest
from hypothesis import given, reject, strategies as st

from dng.errors import BudgetError, NonAbelianError, SpecSyntaxError, SpecValueError
from dng.groups import ORDER_BUDGET
from dng.groupspec import (
    _FAMILIES,
    MAX_ATOMS,
    Atom,
    DirectProduct,
    GeneralizedDihedralOf,
    build,
    parse_spec,
    print_spec,
    spec_order,
)


def test_left_associative_product():
    ast = parse_spec("Z2 x Z3 x Z3")
    assert ast == DirectProduct(DirectProduct(Atom("Z", 2), Atom("Z", 3)), Atom("Z", 3))
    assert spec_order(ast) == 18


def test_capped_order_is_exact_or_above_the_cap():
    for text in ["S1", "A2", "S5", "A5", "S6", "D721", "Dic200", "Z2 x S4", "Dih(Z3 x Z3)"]:
        spec = parse_spec(text)
        exact = spec_order(spec)
        for cap in [1, 24, 100, 720]:
            capped = spec_order(spec, cap)
            assert capped == exact if capped is not None else exact > cap, (text, cap)
    assert spec_order(parse_spec("S5"), 100) == 120
    assert spec_order(Atom("S", 10**6), 720) is None  # stops at 7! > 720


def test_atom_limit():
    # 64 atoms, each Dih( and ( counted as one, parse and evaluate
    product = " x ".join(["Z2"] * MAX_ATOMS)
    assert spec_order(parse_spec(product)) == 2**MAX_ATOMS
    assert print_spec(parse_spec(product)) == product
    assert spec_order(parse_spec("(" * 63 + "Z2" + ")" * 63)) == 2
    assert spec_order(parse_spec("Dih(" * 63 + "Z2" + ")" * 63)) == 2**64
    # one more fails where the 65th starts, before any deep recursion
    for text, offset in [
        ("(" * 3000 + "Z2" + ")" * 3000, 64),
        ("Dih(" * 1500 + "Z2" + ")" * 1500, 256),
        (" x ".join(["Z1"] * 1000), 320),
        (product + " x Z2", 320),
    ]:
        with pytest.raises(SpecValueError, match=f"offset {offset} is past the limit"):
            parse_spec(text)


def test_dih_atom():
    ast = parse_spec("Dih(Z5)")
    assert ast == GeneralizedDihedralOf(Atom("Z", 5))
    assert build(ast).order == 10


def test_syntax_error_offset():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("Z2 x x Z3")
    assert exc.value.offset == 5
    assert '"Z"' in exc.value.expected


def test_whitespace_insensitive():
    assert parse_spec(" Z2xZ3 ") == parse_spec("Z2 x Z3")


def test_atom_lookahead():
    assert parse_spec("D4") == Atom("D", 4)
    assert parse_spec("Dic4") == Atom("Dic", 4)
    assert parse_spec("Dih(Z4)") == GeneralizedDihedralOf(Atom("Z", 4))


def test_parenthesized_atom():
    ast = parse_spec("Z2 x (Z3 x Z5)")
    assert ast == DirectProduct(Atom("Z", 2), DirectProduct(Atom("Z", 3), Atom("Z", 5)))


def test_trailing_junk_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec("Z2 )")
    with pytest.raises(SpecSyntaxError):
        parse_spec("Dih(Z3")


def test_missing_integer():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("Z x Z2")
    assert exc.value.expected == frozenset({"integer"})


def test_case_sensitive():
    with pytest.raises(SpecSyntaxError):
        parse_spec("z2")


def test_build_dihedral_names_order():
    g = build(parse_spec("D5"))
    assert g.order == 10
    assert g.name == "D5"


def test_build_rejects_dih_of_nonabelian():
    with pytest.raises(NonAbelianError):
        build(parse_spec("Dih(S3)"))


def test_build_budget():
    with pytest.raises(BudgetError):
        build(parse_spec("Z40 x Z40"))
    with pytest.raises(BudgetError):
        build(parse_spec("S5"), budget=100)


_atoms = st.one_of(
    st.builds(Atom, st.just("Z"), st.integers(1, 30)),
    st.builds(Atom, st.just("D"), st.integers(1, 15)),
    st.builds(Atom, st.just("Dic"), st.integers(2, 8)),
    st.builds(Atom, st.just("S"), st.integers(1, 5)),
    st.builds(Atom, st.just("A"), st.integers(1, 5)),
)
_specs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(GeneralizedDihedralOf, inner),
        st.builds(DirectProduct, inner, inner),
    ),
    max_leaves=6,
)


@given(_specs)
def test_print_parse_round_trip(spec):
    assert parse_spec(print_spec(spec)) == spec


@given(_specs)
def test_table_order_is_the_built_order(spec):
    """The order ``_FAMILIES`` predicts is the order its constructor builds."""
    order = spec_order(spec)
    if order > ORDER_BUDGET:
        reject()
    try:
        g = build(spec)
    except NonAbelianError:
        reject()
    assert g.order == order


@pytest.mark.parametrize("prefix", list(_FAMILIES))
def test_each_family_starts_at_its_least_parameter(prefix):
    least = _FAMILIES[prefix][0]
    spec = parse_spec(f"{prefix}{least}")
    assert build(spec).order == spec_order(spec)
    with pytest.raises(SpecValueError, match=f"needs n >= {least}$"):
        build(parse_spec(f"{prefix}{least - 1}"))


@pytest.mark.parametrize("family", ["Q", "Dih", "", "z", "Z "])
def test_atom_of_an_unknown_family_raises(family):
    """An atom names a family in ``_FAMILIES`` or is never made, so printing,
    sizing and building never meet an unknown prefix.  Each known family
    makes its atoms in ``test_each_family_starts_at_its_least_parameter``."""
    with pytest.raises(SpecValueError, match=f"no atom family {family!r}"):
        Atom(family, 2)
