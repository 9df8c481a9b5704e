"""Paired benchmark runs of two commits, summarised into ``BENCH_<sha>.json``.

    python3 tools/bench_pairs.py BASE HEAD

Each commit is exported with ``git archive`` into ``.bench_build/<sha>`` and
compiled there with ``python3 -m compileall -q src perfbench``, with
PYTHONDONTWRITEBYTECODE unset, so that no run pays for bytecode that another
left stale.  For each workload, pair i of ``PAIRS`` runs the unmodified
``perfbench/run.py --workload W --seed i --trace 0`` once on each side, the
base first in even pairs and the head first in odd ones.  Then each side
makes one ``--trace 1`` run per seed of ``TRACED_SEEDS``, alternating the same
way, for the per-layer metrics.  Every run lasts the benchmark's
``run_seconds``.

The output gives, per workload and end-to-end metric, each side's median and
quartiles, the head's wins out of the pairs (ties count for neither side)
and whether the medians differ by more than the base's interquartile range.
For each side's traced runs it gives every layer metric's median and each
stage's median share of its run's summed stage time.  Traced times are raw,
not corrected for the machine's speed, so one run's layer can swing by a
third on unchanged code; a share is read against the other stages of the
same run, which the machine slowed alike.  The run length, the workloads and
the metric directions are read from ``BENCHMARK.json``; the report is
written at the root of the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PAIRS = 10
TRACED_SEEDS = (1, 2, 3)

#: What the traced layers of ``perfbench/harness.py`` time that the CLI does not.
TRACE_NOTES = {
    "lattice.all_subgroups_s": (
        "the harness's traced pipeline calls lattice.all_subgroups, which sorts "
        "the whole lattice; analyze and verify enumerate without that sort"
    ),
    "lattice.intersection_subgroups_s": (
        "the traced pipeline numbers the poset (intersection_subgroups, "
        "structure_digraph, solve_types); analyze and verify solve it keyed by "
        "incidence (solver.solve), so the traced layers cannot show that path"
    ),
    "groups.min_generators_s": (
        "min_generators reads d off the incidence poset, which the traced "
        "pipeline built before this span, so the span times a lookup"
    ),
}


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The detail line and the result line that end a ``run.py`` output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected a detail and a result line, got {stdout!r}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by the inclusive method (one value is all three)."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Paired values of one metric: each side's quartiles, the head's wins,
    and whether the medians differ by more than the base's quartile spread."""
    if len(base) != len(head):
        raise ValueError(f"{len(base)} base values against {len(head)} head values")
    sign = 1 if better == "higher" else -1
    b, h = quartiles(base), quartiles(head)
    gap = h["median"] - b["median"]
    return {
        "better": better,
        "base": b,
        "head": h,
        "change": gap / b["median"],
        "wins": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
        "losses": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
        "pairs": len(base),
        "beyond_base_iqr": abs(gap) > b["q3"] - b["q1"],
    }


def summarise(pairs: list[tuple[dict, dict]], directions: dict[str, str]) -> dict:
    """One workload's pairs of (base, head) result lines: every end-to-end
    metric compared, and whether every run reported correct outputs."""
    names = list(pairs[0][0]["metrics"])
    return {
        "correct": all(b["correct"] and h["correct"] for b, h in pairs),
        "metrics": {
            name: compare(
                [b["metrics"][name]["value"] for b, _ in pairs],
                [h["metrics"][name]["value"] for _, h in pairs],
                directions[name],
            )
            for name in names
        },
    }


def summarise_traced(runs: list[dict], stages: list[str]) -> dict:
    """One side's traced result lines: each layer metric's median over the
    runs, and each stage's median share of its run's summed stage time."""
    values = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    totals = [sum(r["metrics"][s]["value"] for s in stages) for r in runs]
    return {
        "correct": all(r["correct"] for r in runs),
        "median": {name: statistics.median(v) for name, v in values.items()},
        "share": {
            s: statistics.median(v / t if t else 0.0 for v, t in zip(values[s], totals))
            for s in stages
        },
    }


def stages(benchmark: dict) -> list[str]:
    """The per-layer metrics that time one stage each: those in seconds, less
    the trace's own and ``oracle.skip_s``, a part of ``oracle.brute_nim_s``."""
    return [
        m["name"] for m in benchmark["per_layer"]
        if m["unit"] == "s" and not m["name"].startswith("trace.")
        and m["name"] != "oracle.skip_s"
    ]


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from ``BENCHMARK.json``."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(rev: str) -> tuple[str, Path]:
    """The commit's full sha and a fresh, compiled export of its tree."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree, env=env, check=True,
    )
    return sha, tree


def in_turn(seed: int, base: Path, head: Path) -> list[Path]:
    """The two trees in run order: the base first for an even seed."""
    return [base, head] if seed % 2 == 0 else [head, base]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the parent commit")
    ap.add_argument("head", help="the change")
    args = ap.parse_args(argv)

    (base_sha, base_tree), (head_sha, head_tree) = checkout(args.base), checkout(args.head)
    better = directions(benchmark)
    seeds = list(range(1, PAIRS + 1))
    report = {
        "format": "dng-bench-pairs-v1",
        "base": base_sha,
        "head": head_sha,
        "pairs": PAIRS,
        "seconds": seconds,
        "seeds": seeds,
        "traced_seeds": list(TRACED_SEEDS),
        "trace_notes": TRACE_NOTES,
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs, env = [], None
        for seed in seeds:
            result = {}
            for tree in in_turn(seed, base_tree, head_tree):
                detail, result[tree] = run_once(tree, workload, seed, seconds, 0)
                env = detail["env"]
                print(f"{workload} seed {seed} {tree.name[:7]}: "
                      f"wall_s {result[tree]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
            pairs.append((result[base_tree], result[head_tree]))
        summary = summarise(pairs, better)
        summary["env"] = env
        traced = {base_tree: [], head_tree: []}
        for seed in TRACED_SEEDS:
            for tree in in_turn(seed, base_tree, head_tree):
                traced[tree].append(run_once(tree, workload, seed, seconds, 1)[1])
        summary["traced"] = {
            side: summarise_traced(traced[tree], stages(benchmark))
            for side, tree in (("base", base_tree), ("head", head_tree))
        }
        report["workloads"][workload] = summary
    out = ROOT / f"BENCH_{head_sha[:7]}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
