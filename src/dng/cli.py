"""Command-line surface: analyze, diagram, verify."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import oracle as oracle_mod
from . import solver as solver_mod
from .catalog import catalog_specs
from .classify import barnes_first_player_wins, classify
from .errors import (
    BudgetError,
    GeneratorCapError,
    LatticeGuardError,
    NonAbelianError,
    OracleBudgetError,
    SolverConsistencyError,
    SpecSyntaxError,
    SpecValueError,
)
from .groups import ORDER_BUDGET, Group, min_generators, quotient
from .groupspec import GroupSpec, build, check_order, parse_spec, print_spec
from .lattice import largest_odd_normal_in_frattini, lattice_dot

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4

#: Errors in a group spec (exit 2), over a size budget (exit 3) and in a
#: cross-check between or inside the routes (exit 4).
SPEC_ERRORS = (SpecSyntaxError, SpecValueError, NonAbelianError)
BUDGET_ERRORS = (BudgetError, LatticeGuardError)
RUN_ERRORS = SPEC_ERRORS + BUDGET_ERRORS + (SolverConsistencyError,)

BUDGET_HELP = (
    "skip the oracle when the group has more positions (non-generating "
    "subsets) than this; decided before searching; at most 2**64 "
    "(default %(default)s)"
)


def analyze_group(
    g: Group,
    *,
    fast: bool = False,
    no_oracle: bool = False,
    oracle_budget: int = oracle_mod.DEFAULT_BUDGET,
) -> dict:
    """The ``dng-analysis-v1`` document: each route's result on g and whether
    their nim-numbers agree.  A route that did not run is None."""
    classifier = classify(g).to_json_dict()
    solver = oracle = None
    if not fast:
        solver = solver_mod.solve(g)
    if not no_oracle:
        try:
            res = oracle_mod.brute_nim(g, oracle_budget)
            oracle = {"nim": res.nim, "positions": res.memo_size, "effort": res.effort}
        except OracleBudgetError:
            oracle = {"skipped": "budget"}
    nims = {r["nim"] for r in (classifier, solver, oracle) if r and "nim" in r}
    return {
        "format": "dng-analysis-v1",
        "group": {"name": g.name, "order": g.order},
        "classifier": classifier,
        "solver": solver,
        "oracle": oracle,
        "agreement": len(nims) == 1,
    }


def report_text(report: dict) -> str:
    """The text form of a ``dng-analysis-v1`` document."""
    group, c = report["group"], report["classifier"]
    solver, oracle = report["solver"], report["oracle"]
    lines = [
        f"group: {group['name']} (order {group['order']})",
        f"classifier: *{c['nim']} rule={c['rule']} outcome={c['outcome']}",
    ]
    if solver:
        types = " ".join(f"{v}x{k}" for k, v in solver["types"].items())
        lines.append(
            f"solver: *{solver['nim']} nodes={solver['nodes']} "
            f"edges={solver['edges']} types={types}"
        )
    if oracle and "skipped" in oracle:
        lines.append(f"oracle: skipped({oracle['skipped']})")
    elif oracle:
        lines.append(
            f"oracle: *{oracle['nim']} positions={oracle['positions']} "
            f"effort={oracle['effort']}"
        )
    lines.append(f"agreement: {'yes' if report['agreement'] else 'NO'}")
    return "\n".join(lines) + "\n"


def _checked_spec(spec_text: str, budget: int) -> GroupSpec:
    """Parse a spec and check its order, before any group is built."""
    spec = parse_spec(spec_text)
    if check_order(spec, budget) == 1:
        raise SpecValueError(
            f"{print_spec(spec)} is the trivial group, which has no avoidance game"
        )
    return spec


def _build_group(spec_text: str, max_order: int, mod_frattini: bool) -> Group:
    g = build(_checked_spec(spec_text, max_order), budget=max_order)
    if mod_frattini:
        n = largest_odd_normal_in_frattini(g)
        if n.order > 1:
            g = quotient(g, n)
    return g


def _cmd_analyze(args) -> int:
    g = _build_group(args.spec, args.max_order, args.mod_frattini)
    report = analyze_group(
        g,
        fast=args.fast,
        no_oracle=args.no_oracle,
        oracle_budget=args.budget,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(report_text(report), end="")
    return EXIT_OK if report["agreement"] else EXIT_DISAGREE


def _cmd_diagram(args) -> int:
    g = _build_group(args.spec, args.max_order, args.mod_frattini)
    if args.lattice:
        print(lattice_dot(g), end="")
        return EXIT_OK
    d = solver_mod.solve_types(solver_mod.structure_digraph(g))
    if args.simplified:
        print(solver_mod.emit_dot(solver_mod.simplify(d)), end="")
    else:
        print(solver_mod.emit_dot(d), end="")
    return EXIT_OK


CSV_COLUMNS = (
    "name",
    "order",
    "classifier_nim",
    "rule",
    "solver_nim",
    "oracle_nim",
    "barnes_winner",
    "d",
)


def _read_catalog(path: str) -> list[tuple[str, str]]:
    """(``path:line``, spec) for each line that is neither blank nor a '#'
    comment.  A leading UTF-8 byte-order mark, as some editors write one, is
    dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, 1)]
    return [(f"{path}:{n}", ln) for n, ln in lines if ln and not ln.startswith("#")]


def _cmd_verify(args) -> int:
    if args.catalog:
        try:
            entries = _read_catalog(args.catalog)
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            print(f"error: {args.catalog}: {reason}", file=sys.stderr)
            return EXIT_SPEC
        budget = args.max_order
    elif args.max_order > ORDER_BUDGET:  # refused before the catalog is listed
        raise BudgetError(f"--max-order {args.max_order} exceeds budget {ORDER_BUDGET}")
    else:
        entries = [(None, s) for s in catalog_specs(args.max_order)]
        budget = ORDER_BUDGET
    # every spec is checked before the first group is built
    specs = []
    for where, name in entries:
        try:
            specs.append((where, name, _checked_spec(name, budget)))
        except SPEC_ERRORS + BUDGET_ERRORS as exc:
            return _fail(exc, where)
    # each row is written as its group finishes: after an error, stdout
    # holds the header and the rows before the failing group
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    disagreements = 0
    for where, name, spec in specs:
        # one group at a time: its caches are dropped with it
        try:
            g = build(spec, budget)
            report = analyze_group(g, no_oracle=args.no_oracle, oracle_budget=args.budget)
        except RUN_ERRORS as exc:
            return _fail(exc, where)
        if not report["agreement"]:
            disagreements += 1
        try:
            d = str(min_generators(g))
        except GeneratorCapError as exc:
            d = f">{exc.cap}"
        winner = "first" if barnes_first_player_wins(g) else "second"
        c, oracle = report["classifier"], report["oracle"]
        writer.writerow(
            [
                name,
                g.order,
                c["nim"],
                c["rule"],
                report["solver"]["nim"],
                oracle and oracle.get("nim", "skipped"),  # None: an empty cell
                winner,
                d,
            ]
        )
        sys.stdout.flush()  # a pipe gets the row now, not at exit
    print(f"{len(specs)} groups, {disagreements} disagreements", file=sys.stderr)
    return EXIT_DISAGREE if disagreements else EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _budget(text: str) -> int:
    value = _positive_int(text)
    if value > oracle_mod.MAX_BUDGET:
        raise argparse.ArgumentTypeError(
            f"expected at most 2**64 = {oracle_mod.MAX_BUDGET}"
        )
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dng",
        description=(
            "Nim-numbers of the avoidance game on finite groups. "
            "Group specs use a small expression language: Z6, D5 (dihedral "
            "of order 10), Dic2, S4, A5, Dih(Z3 x Z3), Z2 x Z3."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_oracle: bool):
        p.add_argument("--max-order", type=_positive_int, default=ORDER_BUDGET,
                       help="group order budget (default %(default)s)")
        p.add_argument("--mod-frattini", action="store_true",
                       help="first factor out the largest odd normal subgroup "
                            "inside the Frattini subgroup")
        if with_oracle:
            p.add_argument("--budget", type=_budget,
                           default=oracle_mod.DEFAULT_BUDGET, help=BUDGET_HELP)
            p.add_argument("--no-oracle", action="store_true",
                           help="skip the brute-force oracle")

    a = sub.add_parser("analyze", help="classify, solve, and verify one group")
    a.add_argument("spec")
    a.add_argument("--json", action="store_true", help="emit a JSON report")
    a.add_argument("--fast", action="store_true",
                   help="skip the structure solver (the oracle still runs "
                        "unless --no-oracle)")
    common(a, with_oracle=True)
    a.set_defaults(func=_cmd_analyze)

    d = sub.add_parser("diagram", help="emit DOT diagrams on stdout")
    d.add_argument("spec")
    mode = d.add_mutually_exclusive_group()
    mode.add_argument("--simplified", action="store_true",
                      help="simplified structure diagram")
    mode.add_argument("--lattice", action="store_true", help="subgroup lattice")
    common(d, with_oracle=False)
    d.set_defaults(func=_cmd_diagram)

    v = sub.add_parser("verify", help="survey the built-in catalog, emit CSV")
    v.add_argument("--max-order", type=_positive_int, default=24,
                   help="largest catalog group order (default %(default)s)")
    v.add_argument("--catalog", help="file with one group spec per line")
    v.add_argument("--budget", type=_budget, default=oracle_mod.DEFAULT_BUDGET,
                   help=BUDGET_HELP)
    v.add_argument("--no-oracle", action="store_true", help="skip the oracle column")
    v.set_defaults(func=_cmd_verify)
    return ap


def _fail(exc: Exception, where: str | None = None) -> int:
    """Print ``error: [where: ]message`` and return the error's exit code."""
    prefix = f"{where}: " if where else ""
    print(f"error: {prefix}{exc}", file=sys.stderr)
    if isinstance(exc, SPEC_ERRORS):
        return EXIT_SPEC
    return EXIT_BUDGET if isinstance(exc, BUDGET_ERRORS) else EXIT_DISAGREE


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RUN_ERRORS as exc:
        return _fail(exc)


def run() -> None:  # console-script entry point
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so that
        # the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
