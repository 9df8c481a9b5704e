"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report when run with ``pytest -s``.
"""

import pathlib
import time

from _helpers import matrix_group_2x2, union_of_maximals
from dng.classify import barnes_first_player_wins, classify
from dng.groups import is_cyclic, make_cyclic, quotient
from dng.groupspec import build, parse_spec
from dng.lattice import (
    all_maximals_even,
    incidence_poset,
    largest_odd_normal_in_frattini,
    maximal_incidence,
)
from dng.oracle import brute_nim, brute_nim_table
from dng.solver import (
    SPECTRUM,
    emit_dot,
    game_nim,
    simplify,
    solve_types,
    structure_digraph,
)


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


KNOWN_VALUES = [
    ("Z2", 1),
    ("Z3", 1),
    ("Z4", 0),
    ("Z6", 3),
    ("Z8", 0),
    ("S3", 3),
    ("Z2 x Z3 x Z3", 0),
    # Alt(3) is the odd group Z3, so it plays to *1 like every odd group.
    ("A3", 1),
    ("A4", 3),
    ("S4", 0),
    ("S5", 0),
    ("Dic2", 0),
    ("Dih(Z5)", 3),
    ("Dih(Z3 x Z3)", 0),
]


def test_criterion_1_known_values():
    start = time.perf_counter()
    bad = []
    for spec, expected in KNOWN_VALUES:
        got = classify(build(parse_spec(spec))).nim
        if got != expected:
            bad.append(f"{spec}: got *{got}, want *{expected}")
    for g, expected in [
        (matrix_group_2x2(3, det_one=True, name="SL(2,3)"), 0),
        (matrix_group_2x2(3, det_one=False, name="GL(2,3)"), 0),
    ]:
        got = classify(g).nim
        if got != expected:
            bad.append(f"{g.name}: got *{got}, want *{expected}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    _report(
        "criterion 1: published nim-number table",
        ok,
        "; ".join(bad) or f"{len(KNOWN_VALUES) + 2} values in {elapsed:.2f}s",
    )


def test_criterion_2_triple_agreement(catalog24):
    start = time.perf_counter()
    bad = []
    for name, g in catalog24:
        c = classify(g).nim
        s = game_nim(g)
        o = brute_nim(g, budget=2_000_000).nim
        if not c == s == o:
            bad.append(f"{name}: classifier *{c}, solver *{s}, oracle *{o}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _report(
        "criterion 2: classifier = solver = oracle on catalog (order <= 24)",
        ok,
        "; ".join(bad) or f"{len(catalog24)} groups in {elapsed:.2f}s",
    )


def test_criterion_3_spectrum(catalog36):
    bad = []
    checked = 0
    for name, g in catalog36:
        d = solve_types(structure_digraph(g))
        for t in d.types:
            checked += 1
            if t not in SPECTRUM:
                bad.append(f"{name}: {t}")
    _report(
        "criterion 3: all class types in the four-value spectrum",
        not bad,
        "; ".join(bad) or f"{checked} class types over {len(catalog36)} groups",
    )


def test_criterion_4_uniformity(catalog24):
    small = [(n, g) for n, g in catalog24 if g.order <= 12]
    bad = []
    for name, g in small:
        d = solve_types(structure_digraph(g))
        by_mask = {node.mask: t for node, t in zip(d.nodes, d.types)}
        masks, index = incidence_poset(g).masks, maximal_incidence(g)
        for p, nim in brute_nim_table(g).items():
            cls = masks[index.of(p)]
            parity = p.bit_count() % 2
            if nim != by_mask[cls].component(parity):
                bad.append(f"{name}: position {p:#x}")
    _report(
        "criterion 4: oracle nims uniform per class/parity and equal solver types",
        not bad,
        "; ".join(bad[:3]) or f"{len(small)} groups",
    )


def test_criterion_5_barnes(catalog24):
    bad = [
        name
        for name, g in catalog24
        if barnes_first_player_wins(g) != (classify(g).nim != 0)
    ]
    _report(
        "criterion 5: first-player criterion <=> nim nonzero (order <= 24)",
        not bad,
        "; ".join(bad) or f"{len(catalog24)} groups",
    )


def test_criterion_6_frattini_quotient(catalog36):
    bad = []
    hit_instance = False
    for name, g in catalog36:
        n = largest_odd_normal_in_frattini(g)
        if n.order == 1:
            continue
        q = quotient(g, n)
        if classify(g).nim != classify(q).nim:
            bad.append(name)
    za = build(parse_spec("Z18 x Z2"))
    qa = quotient(za, largest_odd_normal_in_frattini(za))
    zb = build(parse_spec("Z6 x Z2"))
    dots_equal = emit_dot(simplify(solve_types(structure_digraph(za)))) == emit_dot(
        simplify(solve_types(structure_digraph(zb)))
    )
    hit_instance = (
        qa.order == 12
        and classify(za).nim == classify(zb).nim == 0
        and dots_equal
    )
    _report(
        "criterion 6: nim invariant under odd-Frattini quotients",
        not bad and hit_instance,
        "; ".join(bad) or "includes Z18xZ2 -> Z6xZ2 with matching diagrams",
    )


def test_criterion_7_covering_lemma(catalog36):
    bad = [
        name
        for name, g in catalog36
        if (union_of_maximals(g) == g.full_mask) != (not is_cyclic(g))
    ]
    _report(
        "criterion 7: maximals cover the group iff it is non-cyclic",
        not bad,
        "; ".join(bad) or f"{len(catalog36)} groups",
    )


def test_criterion_8_cyclic_even_maximals():
    bad = [n for n in range(2, 65) if all_maximals_even(make_cyclic(n)) != (n % 4 == 0)]
    _report(
        "criterion 8: cyclic group has all-even maximals iff 4 divides n",
        not bad,
        ", ".join(map(str, bad)) or "n = 2..64",
    )


def test_criterion_9_scope_statement():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    needed = ["sporadic", "rubik", "lie type", "alternating"]
    missing = [w for w in needed if w not in text]
    _report(
        "criterion 9: README states which large-group results are out of scope",
        not missing,
        "missing: " + ", ".join(missing) if missing else "scope statement present",
    )
