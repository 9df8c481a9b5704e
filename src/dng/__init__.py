"""Nim-numbers of the impartial avoidance game on finite groups.

Three independent routes to the same value: a maximal-subgroup checklist
(`classify`), a structure-class mex solver (`game_nim`), and a brute-force
game-tree oracle (`brute_nim`).
"""

from .classify import (
    Classification,
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
from .groups import (
    Group,
    coset_ids,
    direct_product,
    element_order,
    is_cyclic,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_generalized_dihedral,
    make_symmetric,
    min_generators,
    quotient,
)
from .groupspec import GroupSpec, build, parse_spec, print_spec
from .lattice import (
    IntersectionPoset,
    Subgroup,
    all_maximals_even,
    all_subgroups,
    even_maximals_cover,
    frattini,
    intersection_subgroups,
    maximal_subgroups,
    smallest_intersection_containing,
)
from .oracle import OracleResult, brute_nim, brute_nim_table
from .solver import (
    SimplifiedDiagram,
    StructureDigraph,
    TypeTriple,
    emit_dot,
    game_nim,
    mex,
    simplify,
    solve_types,
    structure_digraph,
    type_multiset,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "Group",
    "GroupSpec",
    "IntersectionPoset",
    "OracleResult",
    "Rule",
    "SimplifiedDiagram",
    "StructureDigraph",
    "Subgroup",
    "TypeTriple",
    "all_maximals_even",
    "all_subgroups",
    "barnes_first_player_wins",
    "brute_nim",
    "brute_nim_table",
    "build",
    "classify",
    "coset_ids",
    "cyclic_formula",
    "direct_product",
    "element_order",
    "emit_dot",
    "even_maximals_cover",
    "frattini",
    "game_nim",
    "gendih_formula",
    "intersection_subgroups",
    "is_cyclic",
    "is_nilpotent",
    "make_alternating",
    "make_cyclic",
    "make_dicyclic",
    "make_generalized_dihedral",
    "make_symmetric",
    "maximal_subgroups",
    "mex",
    "min_generators",
    "nilpotent_formula",
    "parse_spec",
    "print_spec",
    "quaternion_formula",
    "quotient",
    "real_element_disjunction",
    "simplify",
    "smallest_intersection_containing",
    "solve_types",
    "structure_digraph",
    "type_multiset",
]
