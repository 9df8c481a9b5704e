import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dng import cli, lattice, solver
from dng.cli import CSV_COLUMNS, main
from dng.errors import SolverConsistencyError

VERIFY_HEADER = ",".join(CSV_COLUMNS) + "\n"
#: The survey row of S3 without the oracle column.
S3_ROW = "S3,6,3,Fallthrough3,3,,first,2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "S3")
    assert code == 0
    assert "group: S3 (order 6)" in out
    assert "classifier: *3 rule=Fallthrough3 outcome=N-position" in out
    assert "solver: *3" in out
    assert "oracle: *3" in out
    assert "agreement: yes" in out


def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dic2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "dng-analysis-v1"
    assert doc["group"] == {"name": "Dic2", "order": 8}
    assert doc["classifier"]["nim"] == 0
    assert doc["classifier"]["rule"] == "EvenFrattini"
    assert doc["solver"]["nim"] == 0
    assert doc["oracle"]["nim"] == 0
    assert doc["agreement"] is True


def test_analyze_json_deterministic(capsys):
    _, a, _ = run_cli(capsys, "analyze", "Z6 x Z2", "--json")
    _, b, _ = run_cli(capsys, "analyze", "Z6 x Z2", "--json")
    assert a == b


def test_analyze_fast_no_oracle(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z8", "--fast", "--no-oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] is None and doc["oracle"] is None
    assert doc["classifier"]["nim"] == 0


def test_analyze_oracle_budget_skip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "S4", "--budget", "100", "--json")
    assert code == 0  # the two remaining methods still agree
    doc = json.loads(out)
    assert doc["oracle"] == {"skipped": "budget"}


def test_analyze_mod_frattini(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z18 x Z2", "--mod-frattini", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 12
    assert doc["classifier"]["nim"] == 0


def test_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "Z2 x x Z3")
    assert code == 2
    assert out == ""
    assert "offset 5" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("Dih(S3)", "Dih argument S3 is not abelian"),
        ("Z0", "Z0 names no group: needs n >= 1"),
        ("Dic1", "Dic1 names no group: needs n >= 2"),
        ("Z1", "Z1 is the trivial group"),
        ("A2", "A2 is the trivial group"),
        ("S1", "S1 is the trivial group"),
    ],
)
def test_invalid_spec_exit_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_order_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "S5", "--max-order", "100")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "spec", ["S2000", "A2000", "Z2 x S2000", "Dih(S3000)", "S1000000", "S1000"]
)
def test_oversized_spec_exit_3(capsys, spec):
    # the order is evaluated only until it passes the budget, and not printed
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out) == (3, "")
    assert err == f"error: {spec} has an order exceeding budget 720\n"


#: The message for an atom past the limit of 64.
ATOM_LIMIT = (
    "the atom at offset {} is past the limit of 64 atoms, each Dih( and ( counted as one"
)


@pytest.mark.parametrize(
    "spec,offset",
    [
        ("(" * 3000 + "Z2" + ")" * 3000, 64),
        ("Dih(" * 1500 + "Z2" + ")" * 1500, 256),
        (" x ".join(["Z1"] * 1000), 320),
    ],
    ids=["parentheses", "dih", "product"],
)
def test_deep_spec_exit_2(capsys, spec, offset):
    # a nesting past the interpreter's recursion limit fails in the parser
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out, err) == (2, "", f"error: {ATOM_LIMIT.format(offset)}\n")


def test_verify_catalog_deep_spec(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("S3\n" + " x ".join(["Z1"] * 1000) + "\n")
    assert run_cli(capsys, "verify", "--catalog", str(f)) == (
        2, "", f"error: {f}:2: {ATOM_LIMIT.format(320)}\n"
    )


def test_integer_too_long_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "Z" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: the integer at offset 1 has 5000 digits, too many to read\n"


def test_verify_catalog_oversized_specs(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    for spec, code, message in [
        ("S2000", 3, "S2000 has an order exceeding budget 24"),
        ("Z2 x S2000", 3, "Z2 x S2000 has an order exceeding budget 24"),
        ("Dih(S3000)", 3, "Dih(S3000) has an order exceeding budget 24"),
        ("Z" + "9" * 5000, 2, "the integer at offset 1 has 5000 digits, too many to read"),
    ]:
        f.write_text(f"S3\n{spec}\n")
        assert run_cli(capsys, "verify", "--catalog", str(f)) == (
            code, "", f"error: {f}:2: {message}\n"
        ), spec


def test_diagram_structure(capsys):
    code, out, _ = run_cli(capsys, "diagram", "S3")
    assert code == 0
    assert out.startswith("digraph structure {")
    assert "dng-structure-v1" in out
    assert 'pty=1 | even=3 | odd=2' in out


def test_diagram_single_node(capsys):
    code, out, _ = run_cli(capsys, "diagram", "Z3")
    assert code == 0
    assert out.count("label=") == 1
    assert "pty=1 | even=1 | odd=0" in out


def test_diagram_lattice(capsys):
    code, out, _ = run_cli(capsys, "diagram", "A4", "--lattice")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert out.count("[label=") == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "--json", "--no-oracle"],
        ["verify", "--max-order", "24", "--no-oracle"],
    ],
    ids=["analyze", "verify"],
)
def test_only_diagram_lattice_sorts_the_whole_lattice(monkeypatch, capsys, argv):
    """analyze and verify sort the maximal subgroups of each group and no
    longer list: Z2^6 has 2825 subgroups and 63 maximal ones."""
    enumerated, sorts = [], []  # sorts: (the group enumerated, list length)
    enumerate_, sort = lattice._enumerate, lattice._sorted_subgroups
    monkeypatch.setattr(
        lattice, "_enumerate", lambda g: enumerated.append(g) or enumerate_(g)
    )
    monkeypatch.setattr(
        lattice,
        "_sorted_subgroups",
        lambda masks: sorts.append((enumerated[-1], len(masks))) or sort(masks),
    )
    assert run_cli(capsys, *argv)[0] == 0
    assert sorts
    for g, length in sorts:
        assert length <= len(lattice.maximal_subgroups(g)), g.name


@pytest.mark.parametrize(
    "argv, numbers",
    [
        (["analyze", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "--json", "--no-oracle"], False),
        (["analyze", "S3 x S3", "--json"], False),
        (["verify", "--max-order", "24", "--no-oracle"], False),
        (["verify", "--max-order", "24"], False),
        (["diagram", "A4 x A4"], True),
        (["diagram", "A4 x A4", "--simplified"], True),
    ],
    ids=[
        "analyze",
        "analyze-oracle",
        "verify",
        "verify-oracle",
        "diagram",
        "diagram-simplified",
    ],
)
def test_only_diagram_numbers_the_poset(monkeypatch, capsys, argv, numbers):
    """analyze and verify, the oracle's position count and d among them,
    read the poset keyed by incidence; only the structure diagrams number
    it by (order, mask)."""
    calls = []
    numbered = lattice.IntersectionPoset
    monkeypatch.setattr(
        lattice,
        "IntersectionPoset",
        lambda **kw: calls.append(len(kw["members"])) or numbered(**kw),
    )
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == ([98] if numbers else [])  # A4 x A4 has 98 poset members


def test_diagram_simplified_quotient_invariance(capsys):
    _, a, _ = run_cli(capsys, "diagram", "Z18 x Z2", "--simplified")
    _, b, _ = run_cli(capsys, "diagram", "Z6 x Z2", "--simplified")
    assert a == b
    assert "dng-simplified-v1" in a


def test_verify_default(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-order", "24", "--no-oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert "S3,6,3,Fallthrough3,3,,first,2" in lines
    assert "0 disagreements" in err


def test_verify_with_oracle(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-order", "8")
    assert code == 0
    lines = out.splitlines()
    assert "S3,6,3,Fallthrough3,3,3,first,2" in lines
    assert "Z8,8,0,EvenFrattini,0,0,second,1" in lines
    assert "0 disagreements" in err


def test_verify_empty_catalog(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "1")
    assert code == 0
    assert out.splitlines() == [",".join(CSV_COLUMNS)]


def test_verify_custom_catalog(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("# survey\nS3\nZ4\n\nDic2\nZ2 x Z2 x Z2 x Z2\n")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(f))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("S3,")
    assert lines[2].startswith("Z4,")
    assert lines[3].startswith("Dic2,")
    # Z2^4 needs 4 generators, one more than min_generators tries
    assert lines[4].startswith("Z2 x Z2 x Z2 x Z2,") and lines[4].endswith(",>3")


@pytest.mark.parametrize("text", ["S3\nZ4\n", "# survey\nDic2\n", "S3\nZ4 x\n"])
def test_verify_catalog_ignores_a_byte_order_mark(tmp_path, capsys, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    code, out, err = run_cli(capsys, "verify", "--catalog", str(plain))
    assert run_cli(capsys, "verify", "--catalog", str(marked)) == (
        code, out, err.replace(str(plain), str(marked))
    )


def test_verify_catalog_bad_line_number(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("# survey\nS3\n\nZ4 x\nDic2\n")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {f}:4: syntax error at offset 4")


def test_verify_catalog_unbuildable_line_number(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("S3\nDih(S3)\n")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(f), "--no-oracle")
    assert code == 2
    # rows are written as their groups finish
    assert out == VERIFY_HEADER + S3_ROW
    assert err == f"error: {f}:2: Dih argument S3 is not abelian\n"


def test_verify_catalog_checks_every_order_first(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("Dih(S3)\nS5\n")
    code, _, err = run_cli(capsys, "verify", "--catalog", str(f), "--max-order", "100")
    assert code == 3
    assert err.startswith(f"error: {f}:2: S5 has order 120")


def _refuse_listing(max_order):
    raise AssertionError(f"listed the catalog up to order {max_order}")


def test_verify_max_order_over_budget_exit_3(capsys, monkeypatch):
    # refused before the catalog is listed, whose length grows with the order
    monkeypatch.setattr(cli, "catalog_specs", _refuse_listing)
    code, out, err = run_cli(capsys, "verify", "--max-order", "721")
    assert code == 3
    assert out == ""
    assert err == "error: --max-order 721 exceeds budget 720\n"


def test_verify_catalog_indented_comment(tmp_path, capsys):
    f = tmp_path / "specs.txt"
    f.write_text("S3\n  # note\n\tZ4\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(f), "--no-oracle")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == ["S3", "Z4"]


def test_verify_catalog_lattice_guard_line_number(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lattice, "SUBGROUP_GUARD", 10)
    f = tmp_path / "specs.txt"
    f.write_text("S3\nZ2 x Z2 x Z2\n")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(f), "--no-oracle")
    assert code == 3
    assert out == VERIFY_HEADER + S3_ROW
    assert err == f"error: {f}:2: more than 10 subgroups in Z2 x Z2 x Z2\n"


def test_verify_missing_catalog_exit_2(tmp_path, capsys):
    missing = tmp_path / "specs.txt"
    code, out, err = run_cli(capsys, "verify", "--catalog", str(missing))
    assert code == 2
    assert out == ""
    assert err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "S3", "--max-order", "-5"],
        ["analyze", "Z4", "--budget", "-1"],
        ["diagram", "S3", "--max-order", "0"],
        ["verify", "--max-order", "0"],
        ["verify", "--budget", "0"],
        ["analyze", "S3", "--max-order", "abc"],
        ["analyze", "S3", "--budget", "1e3"],
    ],
)
def test_non_positive_bound_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: expected a positive integer" in captured.err


@pytest.mark.parametrize("command", [["analyze", "Z2002"], ["verify"]])
def test_budget_above_cap_exit_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--budget", str(2**1100)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: expected at most 2**64" in captured.err


def test_largest_budget_skips_before_allocating(capsys):
    code, out, _ = run_cli(capsys, "analyze", "S5", "--budget", "18446744073709551616")
    assert code == 0
    assert "oracle: skipped(budget)\n" in out


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "dng.cli", "analyze", "S3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("group: S3 (order 6)\n")


def test_closed_pipe_exits_1_without_a_traceback():
    """A reader that stops after the header (``dng verify | head -1``) ends
    the run at its next row: exit 1 and nothing on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dng.cli", "verify", "--max-order", "720", "--no-oracle"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline().startswith(b"name,order,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [["analyze", "S3"], ["verify", "--no-oracle"]])
def test_failed_cross_check_exit_4(capsys, monkeypatch, argv):
    def inconsistent(g):
        raise SolverConsistencyError("the type triples disagree")

    monkeypatch.setattr(solver, "solve", inconsistent)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    # verify has written its header before the first group fails
    assert out == ("" if argv[0] == "analyze" else VERIFY_HEADER)
    assert err == "error: the type triples disagree\n"


def test_analyze_wide_incidence(capsys):
    # 128 maximal subgroups: the poset walk keys its members by incidences of
    # 128 bits
    code, out, _ = run_cli(capsys, "analyze", "D127", "--no-oracle")
    assert code == 0
    assert "solver: *3 nodes=129 edges=128" in out
    assert "agreement: yes" in out


#: Pieces of group specs: the grammar's tokens, stray digits and whitespace.
SPEC_TOKENS = ["Z", "D", "Dic", "S", "A", "Dih(", "(", ")", "x", " x ",
               "0", "1", "2", "3", "4", "6", "12", " ", "\t", "\u0663"]
BOUND_JUNK = ["", "0", "-1", "abc", "1e3", "2.5", " 7", "\u0663", "0x10"]
FLAGS = {
    "analyze": ["--json", "--fast", "--no-oracle", "--mod-frattini"],
    "diagram": ["--simplified", "--lattice", "--mod-frattini"],
}


def _rarely(draw, common, rare):
    """A draw from ``common``, or one time in eight from ``rare``."""
    return draw(rare if draw(st.sampled_from(range(8))) == 7 else common)


@st.composite
def _spec(draw):
    """Products of up to two atoms with stray whitespace around them, and
    one time in eight token soup, a Dih(...) around them or a stray token
    after them."""
    soup = st.lists(st.sampled_from(SPEC_TOKENS), max_size=8).map("".join)
    atom = st.tuples(
        st.sampled_from(["Z", "D", "Dic", "S", "A"]), st.sampled_from(range(9))
    )
    product = st.lists(atom, min_size=1, max_size=2).map(
        lambda atoms: " x ".join(f"{f}{n}" for f, n in atoms)
    )
    spec = _rarely(draw, product, soup)
    if _rarely(draw, st.just(False), st.just(True)):
        spec = f"Dih({spec})"
    stray = st.sampled_from(["", " ", "\t"])
    return draw(stray) + spec + _rarely(draw, stray, st.sampled_from(SPEC_TOKENS))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    junk = st.sampled_from(BOUND_JUNK)
    argv = [command, draw(_spec()), "--max-order",
            _rarely(draw, st.sampled_from(range(1, 49)).map(str), junk)]
    if command == "analyze":  # the oracle's budget keeps every sweep small
        argv += ["--budget", _rarely(draw, st.integers(1, 10**4).map(str), junk)]
    # a flag of the other command is an argparse error
    flags = _rarely(draw, st.just(FLAGS[command]), st.just(sum(FLAGS.values(), [])))
    return argv + draw(st.lists(st.sampled_from(flags), max_size=3))


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
            assert code == 2, (argv, err.getvalue())
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
