"""Built-in catalog of test groups for the verification survey."""

from __future__ import annotations

from .groupspec import parse_spec, spec_order

#: Direct products and generalized dihedrals beyond the single-atom families.
_EXTRA_SPECS = (
    "Z2 x Z2",
    "Z2 x Z4",
    "Z2 x Z8",
    "Z2 x Z2 x Z2",
    "Z2 x Z2 x Z3",
    "Z3 x Z3",
    "Z3 x Z9",
    "Z2 x Z3 x Z3",
    "Z4 x Z4",
    "Z6 x Z2",
    "Z12 x Z2",
    "Z18 x Z2",
    "Z5 x Z5",
    "Z6 x Z6",
    "Dih(Z2 x Z2)",
    "Dih(Z2 x Z4)",
    "Dih(Z2 x Z6)",
    "Dih(Z3 x Z3)",
    "S3 x Z2",
    "S3 x Z3",
    "S3 x S3",
    "A4 x Z2",
)


def catalog_specs(max_order: int) -> list[str]:
    """Deterministic list of DSL specs for groups of order <= max_order."""
    specs: list[str] = []
    specs += [f"Z{n}" for n in range(2, max_order + 1)]
    specs += [f"D{n}" for n in range(2, max_order // 2 + 1)]
    specs += [f"Dic{n}" for n in range(2, max_order // 4 + 1)]
    atoms = [f"{family}{n}" for n in range(3, 6) for family in "SA"]
    specs += [s for s in [*atoms, *_EXTRA_SPECS] if spec_order(parse_spec(s)) <= max_order]
    return specs
