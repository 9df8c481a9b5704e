import sys

import pytest

from _helpers import matrix_group_2x2
from dng.classify import (
    Rule,
    barnes_first_player_wins,
    classify,
    cyclic_formula,
    gendih_formula,
    is_nilpotent,
    nilpotent_formula,
    quaternion_formula,
    real_element_disjunction,
)
from dng.errors import TrivialGroupError
from dng.groups import (
    closure_mask,
    is_cyclic,
    make_cyclic,
    make_dicyclic,
    make_symmetric,
    min_generators,
)
from dng import lattice
from dng.catalog import catalog_specs
from dng.groupspec import build, parse_spec
from dng.lattice import all_subgroups, even_maximals_cover
from dng.solver import game_nim


def test_checklist_size2():
    c = classify(make_cyclic(2))
    assert (c.nim, c.rule) == (1, Rule.SIZE2)
    assert c.outcome == "N-position"


def test_checklist_odd():
    assert classify(make_cyclic(9)).rule == Rule.ODD_ORDER


def test_checklist_order():
    assert classify(make_cyclic(4)).rule == Rule.EVEN_FRATTINI
    assert classify(build(parse_spec("Z2 x Z2"))).rule == Rule.ALL_MAXIMALS_EVEN
    assert classify(build(parse_spec("Z2 x Z3 x Z3"))).rule == Rule.EVEN_COVER
    c = classify(build(parse_spec("Dih(Z5)")))
    assert (c.nim, c.rule) == (3, Rule.FALLTHROUGH3)


def test_checklist_rejects_trivial():
    with pytest.raises(TrivialGroupError):
        classify(make_cyclic(1))


def test_gl23_and_sl23_even_frattini():
    gl = matrix_group_2x2(3, det_one=False, name="GL(2,3)")
    sl = matrix_group_2x2(3, det_one=True, name="SL(2,3)")
    assert (gl.order, sl.order) == (48, 24)
    for g in (gl, sl):
        c = classify(g)
        assert (c.nim, c.rule) == (0, Rule.EVEN_FRATTINI)


def test_barnes_examples():
    assert barnes_first_player_wins(make_cyclic(3))  # vacuous: no involutions
    assert not barnes_first_player_wins(make_cyclic(4))
    assert barnes_first_player_wins(make_symmetric(3))


def test_barnes_matches_nim(catalog24, oracle_nims24):
    for name, g in catalog24:
        assert barnes_first_player_wins(g) == (oracle_nims24[name] != 0)


def _refuse(*args, **kwargs):
    raise AssertionError("Barnes' criterion read the subgroup lattice")


def test_barnes_reads_no_maximal_subgroup(monkeypatch):
    # fresh groups each time, so no cached lattice can hide a read
    specs = catalog_specs(24)
    expected = [barnes_first_player_wins(build(parse_spec(s))) for s in specs]
    monkeypatch.setattr(lattice, "_enumerate", _refuse)
    monkeypatch.setattr(lattice, "maximal_incidence", _refuse)
    got = [barnes_first_player_wins(build(parse_spec(s))) for s in specs]
    assert got == expected


def test_barnes_closes_one_involution_per_conjugation_orbit(monkeypatch):
    """Conjugation by the rotation r of D45 maps each reflection t to
    r*t*r^-1 = t*r^-2, and r^-2 generates <r>, so all 45 reflections are one
    orbit and <r, t> is closed for one of them."""
    g = build(parse_spec("D45"))
    calls = []
    module = sys.modules["dng.classify"]  # dng.classify is also a function
    monkeypatch.setattr(
        module, "closure_mask", lambda g, m: calls.append(m) or closure_mask(g, m)
    )
    assert barnes_first_player_wins(g)
    rotation = g.element_orders.index(45)  # the generator Barnes tries
    assert sum(m >> rotation & 1 for m in calls) == 1
    assert len(calls) == 2  # the identity fails on its first involution


def test_cyclic_formula_values():
    assert cyclic_formula(2) == 1
    assert cyclic_formula(6) == 3
    assert cyclic_formula(8) == 0
    assert cyclic_formula(9) == 1
    with pytest.raises(ValueError):
        cyclic_formula(1)


def test_cyclic_formula_matches_classifier():
    for n in range(2, 65):
        assert cyclic_formula(n) == classify(make_cyclic(n)).nim


def test_is_nilpotent():
    assert is_nilpotent(make_cyclic(12))
    assert not is_nilpotent(make_symmetric(3))
    assert is_nilpotent(make_dicyclic(2))


def test_nilpotent_formula():
    assert nilpotent_formula(build(parse_spec("Z2 x Z2"))) == 0
    assert nilpotent_formula(make_cyclic(9)) == 1
    assert nilpotent_formula(make_cyclic(6)) == 3
    with pytest.raises(ValueError):
        nilpotent_formula(make_symmetric(3))


def test_nilpotent_formula_matches_classifier(catalog24):
    for _, g in catalog24:
        if is_nilpotent(g):
            assert nilpotent_formula(g) == classify(g).nim


def test_gendih_formula():
    assert gendih_formula(make_cyclic(5)) == 3
    assert gendih_formula(build(parse_spec("Z3 x Z3"))) == 0
    assert gendih_formula(make_cyclic(4)) == 0
    with pytest.raises(ValueError):
        gendih_formula(make_symmetric(3))


def test_gendih_formula_matches_classifier():
    for aspec in ["Z2", "Z3", "Z5", "Z6", "Z9", "Z2 x Z2", "Z3 x Z3", "Z2 x Z4"]:
        a = build(parse_spec(aspec))
        g = build(parse_spec(f"Dih({aspec})"))
        assert gendih_formula(a) == classify(g).nim


def test_quaternion_prediction():
    assert quaternion_formula() == 0
    for n in range(2, 7):
        assert classify(make_dicyclic(n)).nim == 0


def test_real_element_s3():
    s3 = make_symmetric(3)
    x = s3.element_orders.index(3)
    assert real_element_disjunction(s3, x)


def test_real_element_inside_big_dihedral():
    g = build(parse_spec("Dih(Z3 x Z3)"))
    for x in range(1, 9):
        assert real_element_disjunction(g, x)


def test_real_element_preconditions():
    s3 = make_symmetric(3)
    t = next(i for i in range(1, 6) if s3.table[i, i] == 0)
    with pytest.raises(ValueError):
        real_element_disjunction(s3, t)  # even order
    with pytest.raises(ValueError):
        real_element_disjunction(make_cyclic(2), 1)  # |g| <= 2


def test_classifier_matches_solver_and_oracle(catalog24, oracle_nims24):
    for name, g in catalog24:
        nim = classify(g).nim
        assert nim == game_nim(g)
        assert nim == oracle_nims24[name]


def test_zero_iff_covering(catalog24, oracle_nims24):
    # for even non-cyclic groups: even cover <=> all odd-order elements in a
    # proper even subgroup <=> nim 0
    for name, g in catalog24:
        if g.order % 2 or is_cyclic(g):
            continue
        cover = even_maximals_cover(g)
        full = g.full_mask
        subs = [s for s in all_subgroups(g)
                if s.mask != full and s.order % 2 == 0]
        odd_wrapped = all(
            any(s.mask >> x & 1 for s in subs)
            for x in range(g.order)
            if g.element_orders[x] % 2 == 1
        )
        assert cover == odd_wrapped == (oracle_nims24[name] == 0)


def test_three_generators_forces_zero(catalog24):
    for _, g in catalog24:
        if g.order % 2 == 0 and min_generators(g, cap=3) >= 3:
            assert classify(g).nim == 0


def test_exactly_one_hypothesis(catalog24):
    for _, g in catalog24:
        assert not (is_cyclic(g) and g.order % 4 == 0 and even_maximals_cover(g))


def test_classification_json():
    d = classify(make_symmetric(3)).to_json_dict()
    assert d == {"nim": 3, "rule": "Fallthrough3", "outcome": "N-position"}
