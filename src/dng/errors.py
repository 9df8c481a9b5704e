"""Exception types shared across the package."""

from __future__ import annotations


class DngError(Exception):
    """Base class for all package-specific errors."""


class BudgetError(DngError):
    """A requested group exceeds the configured order budget."""


class NonAbelianError(DngError):
    """An operation requiring an abelian group got a non-abelian one."""


class NotNormalError(DngError):
    """Quotient requested by a subgroup that is not normal."""


class TrivialGroupError(DngError):
    """The avoidance game is undefined for the trivial group."""


class LatticeGuardError(DngError):
    """Subgroup enumeration aborted: the lattice exceeded the size guard."""


class GeneratorCapError(DngError):
    """min_generators found d(G) above its cap."""

    def __init__(self, cap: int):
        super().__init__(f"no generating tuple of size <= {cap} found")
        self.cap = cap


class SpecSyntaxError(DngError):
    """Group-expression parse failure, with byte offset and expected tokens."""

    def __init__(self, offset: int, expected: frozenset[str]):
        self.offset = offset
        self.expected = frozenset(expected)
        shown = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {offset}: expected {shown}")


class SpecValueError(DngError):
    """A well-formed group spec names no group (``Z0``, ``Dic1``), or only the
    trivial group, on which the avoidance game is undefined."""


class OracleBudgetError(DngError):
    """The game has more positions (non-generating subsets) than the budget.

    Raised before any position is valued, with the count in the message.
    """


class SolverConsistencyError(DngError):
    """Theory and computation disagree (implementation bug).

    Raised when the mex calculus produces a type outside the paper's
    four-type spectrum, when the oracle's maximal subgroups own a different
    number of positions than the class sizes of the intersection poset
    predict, or when a nim-number outgrows the oracle's one-byte cells, which
    hold a value below 7 as one set bit.
    """
