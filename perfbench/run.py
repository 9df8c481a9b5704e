"""Benchmark of the dng CLI: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every metric of every workload

One single-threaded process drives ``dng.cli.main`` in a closed loop: the next
call starts when the previous one returns.  Whole passes over the workload
repeat while the next one should still end within ``--seconds`` (at least one
pass); times are medians over passes.  Untraced runs correct pass times for
the machine's speed while they ran (see ``speed.py``).  Every output is
compared with the seed outputs recorded under ``perfbench/expected``.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed, pass count,
raw times, environment and any problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import speed

#: ``mallopt`` parameter number in glibc's malloc.h.
M_MMAP_THRESHOLD = -3

#: Fresh interpreters timed per run for ``setup_s``, after one that compiles bytecode.
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Span name -> per-layer time metric.
STAGE_METRICS = {
    "groupspec.build": "groupspec.build_s",
    "lattice.all_subgroups": "lattice.all_subgroups_s",
    "lattice.maximal_subgroups": "lattice.maximal_subgroups_s",
    "lattice.intersection_subgroups": "lattice.intersection_subgroups_s",
    "solver.structure_digraph": "solver.structure_digraph_s",
    "solver.solve_types": "solver.solve_types_s",
    "classify.classify": "classify.classify_s",
    "groups.min_generators": "groups.min_generators_s",
    "classify.barnes": "classify.barnes_s",
    "oracle.brute_nim": "oracle.brute_nim_s",
}

PER_LAYER = {
    **{m: "s" for m in STAGE_METRICS.values()},
    "groupspec.groups": "count",
    "lattice.subgroups": "count",
    "lattice.maximals": "count",
    "lattice.poset_nodes": "count",
    "solver.edges": "count",
    "oracle.positions": "count",
    "oracle.effort": "count",
    "oracle.positions_per_s": "1/s",
    "oracle.skips": "count",
    "oracle.skip_s": "s",
    "oracle.verdict_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


#: Run in each fresh interpreter: import ``dng.cli`` under a speed probe and
#: print the correction, corrected minus raw seconds, of the import.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import speed
with speed.SpeedProbe() as probe:
    import dng.cli
t1 = time.perf_counter()
print(probe.corrected(t0, t1)[0] - (t1 - t0))
"""


def measure_setup() -> float:
    """Median wall time from a fresh interpreter to ``import dng.cli`` done,
    the import corrected for the machine's speed (interpreter start and exit
    are counted raw)."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(harness.SRC), str(Path(__file__).parent)]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, cwd=harness.ROOT, check=True, capture_output=True, text=True)
        if rep:
            times.append(time.perf_counter() - t0 + float(child.stdout))
    return statistics.median(times)


def pin_malloc_threshold() -> None:
    """Keep glibc's mmap threshold at its initial default for the whole run.

    glibc raises the threshold after each large free, so in one long-lived
    process a group's peak memory depended on which groups ran before it
    (S5 after S3 x S3: 241 MB; S5 first or alone: 202 MB).  Pinned, each
    group allocates as it would in a fresh ``dng`` process, and
    ``peak_rss_mb`` no longer depends on the seed's group order.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the C library's, if any
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def repeat_for(seconds: float, make_pass):
    """Whole passes while the next one, at the mean pass time so far, should
    end within ``seconds``; always at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(make_pass())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def layer_metrics(t: harness.TracedPass) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    out = dict.fromkeys(STAGE_METRICS.values(), 0.0)
    covered: dict[int, float] = defaultdict(float)
    skip_s = 0.0
    for s in t.tracer.spans:
        if s.name in STAGE_METRICS:
            out[STAGE_METRICS[s.name]] += s.seconds
        if s.parent is not None:
            covered[s.parent] += s.seconds
        if s.name == "oracle.brute_nim" and t.results[s.group].counters["oracle"] == "skip":
            skip_s += s.seconds
    counters = [r.counters for r in t.results.values()]
    verdicts = sum(c["oracle"] == "verdict" for c in counters)
    skips = sum(c["oracle"] == "skip" for c in counters)
    positions = sum(c.get("positions", 0) for c in counters)
    verdict_s = out["oracle.brute_nim_s"] - skip_s
    out.update({
        "groupspec.groups": len(counters),
        "lattice.subgroups": sum(c["subgroups"] for c in counters),
        "lattice.maximals": sum(c["maximals"] for c in counters),
        "lattice.poset_nodes": sum(c["poset_nodes"] for c in counters),
        "solver.edges": sum(c["edges"] for c in counters),
        "oracle.positions": positions,
        "oracle.effort": sum(c.get("effort", 0) for c in counters),
        "oracle.positions_per_s": positions / verdict_s if verdict_s > 0 else 0.0,
        "oracle.skips": skips,
        "oracle.skip_s": skip_s,
        "oracle.verdict_ratio": verdicts / (verdicts + skips) if verdicts + skips else 0.0,
        "trace.unattributed_s": sum(
            s.seconds - covered[i] for i, s in enumerate(t.tracer.spans) if s.name == "group"
        ),
    })
    return out


def environment() -> dict:
    try:  # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(harness.ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    w = harness.WORKLOADS[workload]
    expected = harness.load_expected(w)
    attempted = failed = 0
    problems: list[str] = []

    def tally(result):
        nonlocal attempted, failed
        attempted += result[0]
        failed += result[1]
        problems.extend(result[2])

    pin_malloc_threshold()
    setup_s = measure_setup() if not trace else None
    # the traced run reports raw times, so its overhead is not the probe's
    with contextlib.nullcontext() if trace else speed.SpeedProbe() as probe:
        untraced = repeat_for(seconds, lambda: harness.untraced_pass(w, seed))
    for p in untraced:
        tally(harness.check_untraced(w, p, expected))
    wall_s = statistics.median(p.wall_s for p in untraced)
    raw = {"raw_wall_s": wall_s, "raw_cpu_s": statistics.median(p.cpu_s for p in untraced)}
    if trace:
        traced = repeat_for(seconds, lambda: harness.traced_pass(w, seed))
        for t in traced:
            tally(harness.check_traced(w, t, untraced[0], expected))
        per_pass = [layer_metrics(t) for t in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(t.wall_s for t in traced) - wall_s
        units, passes = PER_LAYER, len(traced)
    else:
        walls, cpus = [], []
        for p in untraced:
            wall, probe_s = probe.corrected(p.start, p.start + p.wall_s)
            walls.append(wall)
            cpus.append((p.cpu_s - probe_s) * wall / (p.wall_s - probe_s))
        raw["speed"] = statistics.median(c / p.wall_s for c, p in zip(walls, untraced))
        raw["probes"] = len(probe.samples)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            # later passes reuse the first one's memory, or add garbage it left
            "peak_rss_mb": untraced[0].peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units, passes = END_TO_END, len(untraced)
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "passes": passes, **raw, "env": environment(), "problems": problems[:20],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def report(seed: int, seconds: float) -> int:
    """Run every benchmark workload, untraced and traced, each in a fresh
    process, and print every metric by name with its unit."""
    ok = True
    for workload in ("survey", "ladder", "oracle"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload:8} trace={trace} exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload:8} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1, help="shuffles group order")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget for repeating whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced pass")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return report(args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
