"""Group-expression DSL: parsing, printing, and evaluation.

Grammar (whitespace-insensitive, case-sensitive)::

    spec := atom ("x" atom)*
    atom := "Z"int | "D"int | "Dic"int | "S"int | "A"int
          | "Dih(" spec ")" | "(" spec ")"

``D n`` denotes the dihedral group of order 2n, i.e. Dih(Z_n).
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
class Cyclic(GroupSpec):
    n: int


@dataclass(frozen=True)
class Dihedral(GroupSpec):
    n: int


@dataclass(frozen=True)
class Dicyclic(GroupSpec):
    n: int


@dataclass(frozen=True)
class Symmetric(GroupSpec):
    n: int


@dataclass(frozen=True)
class Alternating(GroupSpec):
    n: int


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

_ATOM_EXPECTED = frozenset({'"Z"', '"D"', '"Dic"', '"S"', '"A"', '"Dih("', '"("'})


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
        if self._lit("Dih("):
            inner = self.spec()
            self._ws()
            if not self._lit(")"):
                self._fail(frozenset({'")"', '"x"'}))
            return GeneralizedDihedralOf(inner)
        if self._lit("Dic"):
            return Dicyclic(self._int())
        if self._lit("D"):
            return Dihedral(self._int())
        if self._lit("Z"):
            return Cyclic(self._int())
        if self._lit("S"):
            return Symmetric(self._int())
        if self._lit("A"):
            return Alternating(self._int())
        if self._lit("("):
            inner = self.spec()
            self._ws()
            if not self._lit(")"):
                self._fail(frozenset({'")"', '"x"'}))
            return inner
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
    if isinstance(spec, Cyclic):
        return f"Z{spec.n}"
    if isinstance(spec, Dihedral):
        return f"D{spec.n}"
    if isinstance(spec, Dicyclic):
        return f"Dic{spec.n}"
    if isinstance(spec, Symmetric):
        return f"S{spec.n}"
    if isinstance(spec, Alternating):
        return f"A{spec.n}"
    if isinstance(spec, GeneralizedDihedralOf):
        return f"Dih({print_spec(spec.inner)})"
    if isinstance(spec, DirectProduct):
        right = print_spec(spec.right)
        if isinstance(spec.right, DirectProduct):
            right = f"({right})"
        return f"{print_spec(spec.left)} x {right}"
    raise TypeError(f"not a GroupSpec: {spec!r}")


#: Least parameter of each atom family: Z1, D1 (= Z2), Dic2 (= Q8), S1, A1.
_LEAST_PARAMETER = {Cyclic: 1, Dihedral: 1, Dicyclic: 2, Symmetric: 1, Alternating: 1}


def spec_order(spec: GroupSpec, cap: int | None = None) -> int | None:
    """Order of the group a spec evaluates to, without building it.

    With a ``cap`` the order is evaluated only until it passes the cap: no
    product is formed from a number above the cap, and None stands for its
    order, which exceeds the cap.  Raises SpecValueError for an atom whose
    parameter names no group, wherever it is in the spec.
    """
    least = _LEAST_PARAMETER.get(type(spec))
    if least is not None and spec.n < least:
        raise SpecValueError(f"{print_spec(spec)} names no group: needs n >= {least}")
    if isinstance(spec, Cyclic):
        factors = [spec.n]
    elif isinstance(spec, Dihedral):
        factors = [2, spec.n]
    elif isinstance(spec, Dicyclic):
        factors = [4, spec.n]
    elif isinstance(spec, Symmetric):
        factors = range(2, spec.n + 1)
    elif isinstance(spec, Alternating):
        factors = range(3, spec.n + 1)  # n!/2, and 1 below A3
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
    if isinstance(spec, Cyclic):
        return groups.make_cyclic(spec.n, budget)
    if isinstance(spec, Dihedral):
        return groups.make_generalized_dihedral(groups.make_cyclic(spec.n, budget), budget)
    if isinstance(spec, Dicyclic):
        return groups.make_dicyclic(spec.n, budget)
    if isinstance(spec, Symmetric):
        return groups.make_symmetric(spec.n, budget)
    if isinstance(spec, Alternating):
        return groups.make_alternating(spec.n, budget)
    if isinstance(spec, GeneralizedDihedralOf):
        return groups.make_generalized_dihedral(_build(spec.inner, budget), budget)
    if isinstance(spec, DirectProduct):
        return groups.direct_product(_build(spec.left, budget), _build(spec.right, budget), budget)
    raise TypeError(f"not a GroupSpec: {spec!r}")
