"""Source checks: the package makes no BLAS call and reads no environment
variable, none of the three routes imports another, the lattice does not
import numpy, only the closure and the enumeration call the coset join, only
``Group.from_table`` validates a table, the spec module writes each family's
prefix once, and every public definition is read inside the package or
exported.

numpy hands matrix products to a threaded BLAS, whose threads add CPU time
and memory that a single-threaded run does not show in its wall time.  A
value read from the environment would be an option that no test or
benchmark sets, so tuning constants stay constants.  The checklist
classifier, the structure solver and the oracle are three independent routes
to the nim-number, so none may lean on another's code.  The lattice answers
containment with Python ints, so only the group tables and the oracle's
sweep need numpy.  Every other question of what a set generates goes
through ``closure_mask``.  The constructors and the quotient build groups by
construction, so a table is validated at run time only when a caller hands
one to ``Group.from_table``.  The parser, the printer, the order check and the
builder read each family from one table, so a family is one table row.  A
helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

import dng

#: Operators and numpy names that reach BLAS.
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and (
            node.attr in {"dot", "matmul"}
            or node.attr in BLAS_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
        ):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
            found.append(f"line {node.lineno}: import {node.name}")
    return found


#: Names through which Python reads the environment.
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in ENVIRONMENT_NAMES:
            found.append(f"line {node.lineno}: import {node.name}")
    return found


def _package_findings(check) -> dict[str, list[str]]:
    found = {}
    for path in sorted(Path(dng.__file__).parent.glob("*.py")):
        uses = check(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    return found


def test_check_sees_blas_calls():
    src = (
        "import numpy as np\nfrom numpy import dot\na @ b\na @= b\n"
        "np.matmul(a, b)\nnp.inner(a, b)\nx.dot(y)\nspec.inner\n"
    )
    assert len(_blas_uses(ast.parse(src))) == 6


def test_package_makes_no_blas_call():
    assert _package_findings(_blas_uses) == {}


def test_check_sees_environment_reads():
    src = (
        "import os\nfrom os import environ, getenv\nos.environ['X']\n"
        "os.getenv('X')\nos.environb\ngetenv('X')\nenviron.get('X')\nos.path\n"
    )
    assert len(_environment_reads(ast.parse(src))) == 7


def test_package_reads_no_environment_variable():
    assert _package_findings(_environment_reads) == {}


def _imports_of(tree: ast.AST, module: str) -> list[str]:
    """Imports of a module named ``module``, or of names from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(module in m.split(".") for m in modules):
            found.append(f"line {node.lineno}")
    return found


def test_check_sees_oracle_imports():
    src = (
        "from .oracle import mex\nfrom . import oracle\nimport dng.oracle\n"
        "from dng.oracle import brute_nim\nfrom dng import oracle as o\n"
        "from .lattice import frattini\nfrom . import solver\n"
    )
    assert len(_imports_of(ast.parse(src), "oracle")) == 5


def test_solver_imports_nothing_from_the_oracle():
    path = Path(dng.__file__).parent / "solver.py"
    assert _imports_of(ast.parse(path.read_text(), filename=str(path)), "oracle") == []


@pytest.mark.parametrize(
    "route, others",
    [
        ("oracle", ["solver", "classify"]),
        ("classify", ["solver", "oracle"]),
        ("solver", ["classify"]),  # and the oracle, above
    ],
)
def test_routes_import_nothing_from_each_other(route, others):
    path = Path(dng.__file__).parent / f"{route}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert {m: _imports_of(tree, m) for m in others} == {m: [] for m in others}


def test_check_sees_numpy_imports():
    src = (
        "import numpy as np\nfrom numpy import uint8\nimport numpy.linalg\n"
        "from numpy.lib import stride_tricks\nimport numbers\nfrom .groups import np\n"
    )
    assert len(_imports_of(ast.parse(src), "numpy")) == 4


def test_lattice_imports_nothing_from_numpy():
    path = Path(dng.__file__).parent / "lattice.py"
    assert _imports_of(ast.parse(path.read_text(), filename=str(path)), "numpy") == []


def _callers_of(tree: ast.AST, name: str) -> list[str]:
    """The top-level definitions, and each class's members as
    ``Class.member``, that call ``name`` by plain or dotted name; a call
    outside any definition counts as ``<module>``, one in a class body
    outside its members as ``Class.<body>``."""
    units = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            units += [(f"{top.name}.{getattr(s, 'name', '<body>')}", s) for s in top.body]
        else:
            units.append((getattr(top, "name", "<module>"), top))
    return [
        caller
        for caller, unit in units
        for node in ast.walk(unit)
        if isinstance(node, ast.Call)
        and name in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]


def test_check_sees_join_calls():
    src = (
        "join_element(g, m, [], x)\ndef f():\n    groups.join_element(g, m, [], x)\n"
        "    def inner():\n        return join_element(g, m, [], x)\n"
        "def h():\n    return join_element\n"
    )
    assert _callers_of(ast.parse(src), "join_element") == ["<module>", "f", "f"]


def test_only_the_closure_and_the_enumeration_join():
    found = set()
    for path in Path(dng.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.stem}.{c}" for c in _callers_of(tree, "join_element")}
    assert found == {"groups.closure_mask", "lattice._enumerate"}


def test_check_sees_method_calls():
    src = (
        "class G:\n    x = _validate_table(t)\n"
        "    @classmethod\n    def from_table(cls, t):\n        return _validate_table(t)\n"
        "def quotient(g):\n    return G.from_table(t)\n"
    )
    tree = ast.parse(src)
    assert _callers_of(tree, "_validate_table") == ["G.<body>", "G.from_table"]
    assert _callers_of(tree, "from_table") == ["quotient"]


def test_only_from_table_validates_and_nothing_calls_it():
    """Only ``Group.from_table`` runs ``_validate_table``, and no package
    code builds a group through ``from_table``: its tables are groups by
    construction."""
    validators, from_table = set(), set()
    for path in Path(dng.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        validators |= {f"{path.stem}.{c}" for c in _callers_of(tree, "_validate_table")}
        from_table |= {f"{path.stem}.{c}" for c in _callers_of(tree, "from_table")}
    assert validators == {"groups.Group.from_table"}
    assert from_table == set()


#: The grammar prefixes of the atom families.
FAMILY_PREFIXES = {"Z", "D", "Dic", "S", "A"}


def _string_constants(tree: ast.AST, values: set[str]) -> list[str]:
    """The string constants, f-string parts included, that are in ``values``."""
    return sorted(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in values
    )


def test_check_sees_family_prefixes():
    src = 'p._lit("Z")\nf"Z{n}"\nf"{f}Dic"\n"Dih("\n"Z2"\n\'"D"\'\nZ = 1\n'
    assert _string_constants(ast.parse(src), FAMILY_PREFIXES) == ["Dic", "Z", "Z"]


def test_each_family_prefix_is_written_once():
    path = Path(dng.__file__).parent / "groupspec.py"
    found = _string_constants(ast.parse(path.read_text(), filename=str(path)), FAMILY_PREFIXES)
    assert found == sorted(FAMILY_PREFIXES)


def _unread_definitions(trees: list[ast.Module]) -> list[str]:
    """The public top-level functions and classes of these modules whose name
    no code of theirs loads, plainly or as an attribute, outside its own
    definition."""
    defined, loads = [], []  # loads: (the top-level statement, a name it reads)
    for tree in trees:
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                if not top.name.startswith("_"):
                    defined.append(top)
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    loads.append((top, getattr(node, "id", getattr(node, "attr", None))))
    return [d.name for d in defined if all(top is d or n != d.name for top, n in loads)]


def test_check_sees_unread_definitions():
    src = (
        "def used():\n    return 1\n"
        "def recursive():\n    return recursive()\n"
        "class Attribute:\n    pass\n"
        "def _private():\n    return 0\n"
        "def reader(m):\n    return used(), m.Attribute\n"
        "x: Annotated = 1\nclass Annotated:\n    pass\n"
        "from .other import imported\n"
    )
    assert _unread_definitions([ast.parse(src)]) == ["recursive", "reader"]


def test_every_public_definition_is_read_or_exported():
    """A public function or class that nothing in the package reads must be
    API, listed in ``dng.__all__``."""
    trees = [
        ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(dng.__file__).parent.glob("*.py"))
    ]
    assert sorted(set(_unread_definitions(trees)) - set(dng.__all__)) == []
