"""Workloads, the untimed-output checks and the traced stage pipeline.

A workload is run in *passes*.  An untraced pass drives the public CLI entry
point ``dng.cli.main`` once per group (or once for a ``verify`` survey) and
keeps its stdout.  A traced pass calls the library's public functions in
pipeline order on a freshly built group, wrapping each call in a span, so
every call does only its own stage (later stages find the earlier results in
the group's own cache).

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``dng`` from there; it exits with an error when that tree is missing,
so the benchmark never measures an installed copy by accident.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

if not (SRC / "dng" / "cli.py").is_file():
    raise SystemExit(f"perfbench: no dng source tree under {SRC}")
sys.path.insert(0, str(SRC))

cli = importlib.import_module("dng.cli")
if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: imported dng from {cli.__file__}, not from {SRC}")
catalog = importlib.import_module("dng.catalog")
# ``dng/__init__.py`` rebinds ``dng.classify`` to the function, so modules are
# always fetched by their dotted path
classify_mod = importlib.import_module("dng.classify")
errors = importlib.import_module("dng.errors")
groups = importlib.import_module("dng.groups")
groupspec = importlib.import_module("dng.groupspec")
lattice = importlib.import_module("dng.lattice")
oracle = importlib.import_module("dng.oracle")
solver = importlib.import_module("dng.solver")


@dataclass(frozen=True)
class Workload:
    """``verify`` runs one survey over the catalog up to ``max_order``;
    ``analyze`` runs one CLI call per spec, in an order shuffled by the seed."""

    name: str
    kind: str  # "verify" or "analyze"
    oracle: bool
    max_order: int = 0
    specs: tuple[str, ...] = ()

    def order(self, seed: int) -> list[str]:
        if self.kind == "verify":
            return catalog.catalog_specs(self.max_order)  # the CLI fixes this order
        specs = list(self.specs)
        random.Random(seed).shuffle(specs)
        return specs

    def argv(self, spec: str | None = None) -> list[str]:
        flags = [] if self.oracle else ["--no-oracle"]
        if self.kind == "verify":
            return ["verify", "--max-order", str(self.max_order), *flags]
        return ["analyze", spec, "--json", *flags]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("survey", "verify", oracle=False, max_order=96),
        Workload(
            "ladder",
            "analyze",
            oracle=False,
            specs=(
                "A5",
                "S5",
                "A4 x A4",
                "Z2 x Z2 x Z2 x Z2 x Z2",
                "Dih(Z2 x Z2 x Z2 x Z2 x Z3)",
                "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
            ),
        ),
        Workload("oracle", "analyze", oracle=True, specs=("S3 x S3", "A5", "Z30", "S5")),
        # not a benchmark workload: a tiny input for the harness smoke test
        Workload("smoke", "verify", oracle=True, max_order=12),
    )
}


def expected_path(w: Workload) -> Path:
    return EXPECTED / f"{w.name}.json"


def load_expected(w: Workload) -> dict:
    with open(expected_path(w), encoding="utf-8") as fh:
        return json.load(fh)


def _call_main(argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in-process; return (exit code or None on a crash, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed group; keep measuring the rest
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, out.getvalue()


@dataclass
class UntracedPass:
    start: float  # perf_counter() when the first call began
    wall_s: float
    cpu_s: float
    peak_rss_mb: float  # of the process so far, read when the pass ends
    outputs: dict[str, tuple[int | None, str]]  # spec (or "verify") -> (rc, stdout)


def untraced_pass(w: Workload, seed: int) -> UntracedPass:
    """Closed loop over the workload's CLI calls; only the calls are timed."""
    calls = [(None, w.argv())] if w.kind == "verify" else [(s, w.argv(s)) for s in w.order(seed)]
    outputs = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for spec, argv in calls:
        outputs[spec or "verify"] = _call_main(argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return UntracedPass(wall0, wall, cpu, rss, outputs)


def csv_rows(text: str) -> dict[str, str]:
    """CSV body lines keyed by their first field (the group name)."""
    lines = text.splitlines()[1:]
    return {next(csv.reader([ln]))[0]: ln for ln in lines if ln}


def check_untraced(w: Workload, p: UntracedPass, expected: dict) -> tuple[int, int, list[str]]:
    """Compare a pass with the recorded outputs: (groups attempted, failed, messages)."""
    problems: list[str] = []
    if w.kind == "verify":
        rc, text = p.outputs["verify"]
        want = expected["outputs"]["verify"]
        want_rows = csv_rows(want)
        if rc != 0:
            problems.append(f"verify exited with {rc}")
            return len(want_rows), len(want_rows), problems
        got_rows = csv_rows(text)
        bad = [name for name, row in want_rows.items() if got_rows.get(name) != row]
        bad += [name for name in got_rows if name not in want_rows]
        failed = len(bad)
        if text != want:
            failed = max(failed, 1)
            problems.append(f"{w.name} CSV differs from the recorded bytes; rows {bad[:5]}")
        return len(want_rows), failed, problems
    failed = 0
    for spec, (rc, text) in p.outputs.items():
        if rc != 0 or text != expected["outputs"][spec]:
            failed += 1
            problems.append(f"{spec}: exit {rc}, output matches recorded: "
                            f"{text == expected['outputs'][spec]}")
    return len(p.outputs), failed, problems


@dataclass
class Span:
    group: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; each names the span that caused it."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, group: str, name: str):
        s = Span(group, name, time.perf_counter(), parent=self._open[-1] if self._open else None)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._open.pop()


@dataclass
class GroupResult:
    view: object  # what the untraced output should say about this group
    counters: dict  # exact counts; "oracle" is "verdict", "skip" or None


def traced_group(tr: Tracer, w: Workload, spec: str) -> GroupResult:
    """One group through the pipeline, one span per public call."""
    with tr.span(spec, "group"):
        with tr.span(spec, "groupspec.build"):
            g = groupspec.build(groupspec.parse_spec(spec), budget=groups.ORDER_BUDGET)
        with tr.span(spec, "lattice.all_subgroups"):
            lat = lattice.all_subgroups(g)
        with tr.span(spec, "lattice.maximal_subgroups"):
            maximals = lattice.maximal_subgroups(g)
        with tr.span(spec, "lattice.intersection_subgroups"):
            poset = lattice.intersection_subgroups(g)
        with tr.span(spec, "solver.structure_digraph"):
            d = solver.structure_digraph(g)
        with tr.span(spec, "solver.solve_types"):
            d = solver.solve_types(d)
        with tr.span(spec, "classify.classify"):
            cls = classify_mod.classify(g)
        d_gens = winner = None
        if w.kind == "verify":  # the survey's extra columns, in the CLI's order
            with tr.span(spec, "groups.min_generators"):
                try:
                    d_gens = str(groups.min_generators(g))
                except errors.GeneratorCapError as exc:
                    d_gens = f">{exc.cap}"
            with tr.span(spec, "classify.barnes"):
                winner = "first" if classify_mod.barnes_first_player_wins(g) else "second"
        res = outcome = None
        if w.oracle:
            with tr.span(spec, "oracle.brute_nim"):
                try:
                    res = oracle.brute_nim(g)
                    outcome = "verdict"
                except errors.OracleBudgetError:
                    outcome = "skip"

    solver_nim = d.types[d.source].nim_even
    counters = {
        "subgroups": len(lat),
        "maximals": len(maximals),
        "poset_nodes": len(poset.members),
        "edges": len(d.edges),
        "oracle": outcome,
    }
    if res is not None:
        counters.update(positions=res.memo_size, effort=res.effort)
    if w.kind == "verify":
        oracle_col = "skipped" if outcome == "skip" else (res.nim if res is not None else None)
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow(
            [spec, g.order, cls.nim, cls.rule.value, solver_nim, oracle_col, winner, d_gens]
        )
        return GroupResult(row.getvalue(), counters)
    if outcome == "skip":
        oracle_json = {"skipped": "budget"}
    elif res is not None:
        oracle_json = {"nim": res.nim, "positions": res.memo_size, "effort": res.effort}
    else:
        oracle_json = None
    nims = {cls.nim, solver_nim} | ({res.nim} if res is not None else set())
    view = {
        "format": "dng-analysis-v1",
        "group": {"name": g.name, "order": g.order},
        "classifier": cls.to_json_dict(),
        "solver": {
            "nim": solver_nim,
            "nodes": len(d.nodes),
            "edges": len(d.edges),
            "types": solver.type_multiset(d),
        },
        "oracle": oracle_json,
        "agreement": len(nims) == 1,
    }
    return GroupResult(view, counters)


@dataclass
class TracedPass:
    wall_s: float
    tracer: Tracer
    results: dict[str, GroupResult]


def traced_pass(w: Workload, seed: int) -> TracedPass:
    tr = Tracer()
    results = {}
    wall0 = time.perf_counter()
    for spec in w.order(seed):
        results[spec] = traced_group(tr, w, spec)
    return TracedPass(time.perf_counter() - wall0, tr, results)


def check_traced(
    w: Workload, t: TracedPass, untraced: UntracedPass, expected: dict
) -> tuple[int, int, list[str]]:
    """Cross-check each traced group against the untraced run's output and
    its counters against the recorded ones: (attempted, failed, messages)."""
    if w.kind == "verify":
        seen = csv_rows(untraced.outputs["verify"][1])
    else:
        seen = {}
        for spec, (rc, text) in untraced.outputs.items():
            with contextlib.suppress(json.JSONDecodeError):
                seen[spec] = json.loads(text)
    problems = []
    for spec, r in t.results.items():
        if seen.get(spec) != r.view:
            problems.append(f"{spec}: traced result differs from the untraced output")
        elif r.counters != expected["counters"][spec]:
            problems.append(f"{spec}: counters {r.counters} != recorded "
                            f"{expected['counters'][spec]}")
    return len(t.results), len(problems), problems
