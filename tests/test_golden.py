"""Golden stdout: the sha256 of what each command below prints.

The digests in ``golden_stdout.json`` were recorded from the CLI before the
solver read the intersection poset keyed by incidence, so every byte of the
structure diagrams, the analysis documents and the survey stays as it was.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dng.catalog import catalog_specs
from dng.cli import main

LADDER = [
    "A5",
    "S5",
    "A4 x A4",
    "Z2 x Z2 x Z2 x Z2 x Z2",
    "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
]
DIAGRAM_SPECS = catalog_specs(48) + [
    "S5",
    "A4 x A4",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
    "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
]
COMMANDS = (
    [["diagram", spec, *flag] for spec in DIAGRAM_SPECS for flag in ([], ["--simplified"])]
    + [["analyze", spec, "--json", "--no-oracle"] for spec in LADDER]
    + [["verify", "--max-order", "48", "--no-oracle"]]
)
GOLDEN = json.loads((Path(__file__).with_name("golden_stdout.json")).read_text())


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_command_has_a_digest():
    assert sorted(GOLDEN) == sorted(map(" ".join, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_golden_digest(argv):
    assert stdout_digest(argv) == GOLDEN[" ".join(argv)]
