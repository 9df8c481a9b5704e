"""Record the current code's outputs and counters as the expected ones.

    python3 perfbench/record.py [workload ...]

Run this only on a commit whose outputs are the reference: the benchmark
treats any later difference as a failed group.
"""

from __future__ import annotations

import json
import sys

import harness


def record(w: harness.Workload) -> None:
    untraced = harness.untraced_pass(w, seed=0)
    bad = [spec for spec, (rc, _) in untraced.outputs.items() if rc != 0]
    if bad:
        raise SystemExit(f"{w.name}: nonzero exit for {bad}")
    traced = harness.traced_pass(w, seed=0)
    expected = {
        "outputs": {spec: text for spec, (_, text) in sorted(untraced.outputs.items())},
        "counters": {spec: r.counters for spec, r in sorted(traced.results.items())},
    }
    _, failed, problems = harness.check_traced(w, traced, untraced, expected)
    if failed:
        raise SystemExit("\n".join(problems))
    with open(harness.expected_path(w), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{w.name}: {len(traced.results)} groups recorded")


if __name__ == "__main__":
    for name in sys.argv[1:] or harness.WORKLOADS:
        record(harness.WORKLOADS[name])
