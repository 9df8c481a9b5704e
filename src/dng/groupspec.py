"""Group-expression DSL: parsing, printing, and evaluation.

Grammar (whitespace-insensitive, case-sensitive)::

    spec := atom ("x" atom)*
    atom := "Z"int | "D"int | "Dic"int | "S"int | "A"int
          | "Dih(" spec ")" | "(" spec ")"

``D n`` denotes the dihedral group of order 2n, i.e. Dih(Z_n).  The atoms
with an integer come from the ``_FAMILIES`` table, which gives each family's
least parameter, order and constructor.  The parser tries ``Dih(`` first and
then the prefixes in table order, ``Dic`` before ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .errors import SpecSyntaxError, SpecValueError
from .groups import Group, ORDER_BUDGET


class GroupSpec:
    """Abstract syntax tree node of a group expression."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(GroupSpec):
    """One group of a family in ``_FAMILIES``, named by its grammar prefix."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise SpecValueError(
                f"no atom family {self.family!r}: the families are "
                + ", ".join(_FAMILIES)
            )


@dataclass(frozen=True)
class GeneralizedDihedralOf(GroupSpec):
    inner: GroupSpec


@dataclass(frozen=True)
class DirectProduct(GroupSpec):
    left: GroupSpec
    right: GroupSpec


#: Most atoms a spec may have, each ``Dih(`` and ``(`` counted as one.  Any
#: atom but Z1, S1, A1, A2 and ``(`` at least doubles the order, so a group of
#: order below 2^64 never needs more, and every recursion over a spec stays
#: far below the interpreter's limit.
MAX_ATOMS = 64

#: Atom families by grammar prefix, in the order the parser tries them:
#: least parameter, order factors and constructor.  D1 is Z2, Dic2 is Q8.
_FAMILIES = {
    "Dic": (2, lambda n: [4, n], groups.make_dicyclic),
    "D": (
        1,
        lambda n: [2, n],
        lambda n, budget: groups.make_generalized_dihedral(groups.make_cyclic(n, budget), budget),
    ),
    "Z": (1, lambda n: [n], groups.make_cyclic),
    "S": (1, lambda n: range(2, n + 1), groups.make_symmetric),
    "A": (1, lambda n: range(3, n + 1), groups.make_alternating),  # n!/2, and 1 below A3
}

_ATOM_EXPECTED = frozenset([f'"{prefix}"' for prefix in _FAMILIES] + ['"Dih("', '"("'])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms = 0

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _fail(self, expected: frozenset[str]):
        raise SpecSyntaxError(self.pos, expected)

    def _int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail(frozenset({"integer"}))
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on digits
            raise SpecValueError(
                f"the integer at offset {start} has {self.pos - start} digits, "
                "too many to read"
            ) from None

    def _lit(self, s: str) -> bool:
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def atom(self) -> GroupSpec:
        self._ws()
        self.atoms += 1
        if self.atoms > MAX_ATOMS:
            raise SpecValueError(
                f"the atom at offset {self.pos} is past the limit of {MAX_ATOMS} "
                "atoms, each Dih( and ( counted as one"
            )
        dih = self._lit("Dih(")
        if dih or self._lit("("):
            inner = self.spec()
            self._ws()
            if not self._lit(")"):
                self._fail(frozenset({'")"', '"x"'}))
            return GeneralizedDihedralOf(inner) if dih else inner
        for prefix in _FAMILIES:
            if self._lit(prefix):
                return Atom(prefix, self._int())
        self._fail(_ATOM_EXPECTED)

    def spec(self) -> GroupSpec:
        node = self.atom()
        while True:
            self._ws()
            if self._lit("x"):
                node = DirectProduct(node, self.atom())
            else:
                return node


def parse_spec(text: str) -> GroupSpec:
    """Parse a group expression; errors carry offset and expected tokens."""
    p = _Parser(text)
    node = p.spec()
    p._ws()
    if p.pos != len(text):
        p._fail(frozenset({'"x"', "end of input"}))
    return node


def print_spec(spec: GroupSpec) -> str:
    """Render an AST back to DSL text; parse(print(ast)) == ast."""
    if isinstance(spec, Atom):
        return f"{spec.family}{spec.n}"
    if isinstance(spec, GeneralizedDihedralOf):
        return f"Dih({print_spec(spec.inner)})"
    if isinstance(spec, DirectProduct):
        right = print_spec(spec.right)
        if isinstance(spec.right, DirectProduct):
            right = f"({right})"
        return f"{print_spec(spec.left)} x {right}"
    raise TypeError(f"not a GroupSpec: {spec!r}")


def spec_order(spec: GroupSpec, cap: int | None = None) -> int | None:
    """Order of the group a spec evaluates to, without building it.

    With a ``cap`` the order is evaluated only until it passes the cap: no
    product is formed from a number above the cap, and None stands for its
    order, which exceeds the cap.  Raises SpecValueError for an atom whose
    parameter names no group, wherever it is in the spec.
    """
    if isinstance(spec, Atom):
        least, order_factors, _ = _FAMILIES[spec.family]
        if spec.n < least:
            raise SpecValueError(f"{print_spec(spec)} names no group: needs n >= {least}")
        factors = order_factors(spec.n)
    elif isinstance(spec, GeneralizedDihedralOf):
        factors = [2, spec_order(spec.inner, cap)]
    elif isinstance(spec, DirectProduct):
        factors = [spec_order(spec.left, cap), spec_order(spec.right, cap)]
    else:
        raise TypeError(f"not a GroupSpec: {spec!r}")
    return groups.capped_product(factors, cap)


def check_order(spec: GroupSpec, budget: int = ORDER_BUDGET) -> int:
    """``spec_order`` up to the budget, raising BudgetError above it."""
    return groups.check_budget([spec_order(spec, budget)], budget, print_spec(spec))


def build(spec: GroupSpec, budget: int = ORDER_BUDGET) -> Group:
    """Evaluate a spec to a Group, enforcing the order budget up front.

    Raises SpecValueError for an atom that names no group and NonAbelianError
    for ``Dih`` of a non-abelian group.
    """
    check_order(spec, budget)
    g = _build(spec, budget)
    g.name = print_spec(spec)
    return g


def _build(spec: GroupSpec, budget: int) -> Group:
    if isinstance(spec, Atom):
        return _FAMILIES[spec.family][2](spec.n, budget)
    if isinstance(spec, GeneralizedDihedralOf):
        return groups.make_generalized_dihedral(_build(spec.inner, budget), budget)
    if isinstance(spec, DirectProduct):
        return groups.direct_product(_build(spec.left, budget), _build(spec.right, budget), budget)
    raise TypeError(f"not a GroupSpec: {spec!r}")
