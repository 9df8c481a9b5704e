"""The summarising code of ``tools/bench_pairs.py``, on canned result lines;
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))


def result_line(wall_s, ok_ratio=1.0, correct=True):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}
    return {"correct": correct, "attempted": 6, "failed": 0, "metrics": metrics}


def test_parse_run_reads_the_last_two_lines():
    detail = {"workload": "ladder", "seed": 3, "env": {"python": "3.11.7"}}
    result = result_line(0.0831)
    stdout = "a stray line\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    assert bench_pairs.parse_run(stdout) == (detail, result)


def test_parse_run_refuses_a_short_output():
    with pytest.raises(ValueError, match="detail and a result line"):
        bench_pairs.parse_run('{"correct": true}\n')


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0,
    }
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_directions_come_from_the_benchmark():
    assert DIRECTIONS["wall_s"] == "lower"
    assert DIRECTIONS["ok_ratio"] == "higher"
    assert DIRECTIONS["lattice.poset_nodes"] == "lower"


def test_compare_counts_wins_and_leaves_ties_out():
    base = [0.094, 0.093, 0.095, 0.094, 0.094]
    head = [0.083, 0.084, 0.083, 0.094, 0.096]  # three wins, a tie and a loss
    c = bench_pairs.compare(base, head, "lower")
    assert (c["wins"], c["losses"], c["pairs"]) == (3, 1, 5)
    assert c["base"] == {"q1": 0.094, "median": 0.094, "q3": 0.094}
    assert c["head"]["median"] == 0.084
    assert c["change"] == pytest.approx(-0.010 / 0.094)
    assert c["beyond_base_iqr"]


def test_compare_higher_is_better_and_spread_hides_a_gap():
    c = bench_pairs.compare([1.0, 0.5, 1.0, 0.5], [1.0, 1.0, 1.0, 0.9], "higher")
    assert (c["wins"], c["losses"]) == (2, 0)
    # base quartiles 0.5 and 1.0; the medians 0.75 and 1.0 differ by 0.25
    assert not c["beyond_base_iqr"]


def test_compare_refuses_unpaired_values():
    with pytest.raises(ValueError, match="2 base values against 1"):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower")


def test_summarise_pairs_every_metric():
    pairs = [
        (result_line(0.094), result_line(0.083)),
        (result_line(0.093), result_line(0.084)),
        (result_line(0.095), result_line(0.082, correct=False)),
    ]
    s = bench_pairs.summarise(pairs, DIRECTIONS)
    assert s["correct"] is False
    assert list(s["metrics"]) == ["wall_s", "ok_ratio"]
    assert s["metrics"]["wall_s"]["wins"] == 3
    assert s["metrics"]["wall_s"]["head"]["median"] == 0.083
    ok = s["metrics"]["ok_ratio"]
    assert (ok["wins"], ok["losses"], ok["change"]) == (0, 0, 0.0)
    assert not ok["beyond_base_iqr"]


def traced_line(correct=True, **values):
    return {"correct": correct,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_stages_are_the_timed_layers_less_the_trace_and_the_skip():
    stages = bench_pairs.stages(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert len(stages) == 10
    assert stages[0] == "groupspec.build_s" and "oracle.brute_nim_s" in stages
    assert not {"oracle.skip_s", "trace.overhead_s", "lattice.subgroups"} & set(stages)


def test_summarise_traced_takes_medians_and_shares_of_each_run():
    runs = [
        traced_line(a_s=0.06, b_s=0.02, n=5.0),  # shares 0.75 and 0.25
        traced_line(a_s=0.09, b_s=0.01, n=5.0),  # the box ran slower: 0.9, 0.1
        traced_line(a_s=0.03, b_s=0.03, n=5.0),  # 0.5, 0.5
    ]
    s = bench_pairs.summarise_traced(runs, ["a_s", "b_s"])
    assert s["correct"] is True
    assert s["median"] == {"a_s": 0.06, "b_s": 0.02, "n": 5.0}
    assert s["share"] == {"a_s": pytest.approx(0.75), "b_s": pytest.approx(0.25)}


def test_summarise_traced_reports_a_wrong_run_and_an_idle_one():
    runs = [traced_line(a_s=0.0, b_s=0.0), traced_line(False, a_s=0.02, b_s=0.02)]
    s = bench_pairs.summarise_traced(runs, ["a_s", "b_s"])
    assert s["correct"] is False
    # a run whose stages took no time gives each a share of 0
    assert s["share"] == {"a_s": 0.25, "b_s": 0.25}
    assert s["median"] == {"a_s": 0.01, "b_s": 0.01}
