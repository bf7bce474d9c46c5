"""Tests of the benchmark's own parts.

Run from the root of the repository (about a minute):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import distinct_palindrome_count  # noqa: E402

COUNTS = ("search.nodes", "paltree.trees", "paltree.letters", "cli.stdout_bytes") + tuple(
    f"paltree.{text}.nodes" for text in workloads.TEXTS
)


def _tracer(spans):
    tracer = tracing.Tracer()
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [6, 8]
    total, own = _tracer([
        ("outer", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 6.0, 8.0, 0),
    ]).totals()
    assert own == {"outer": 5.0, "a": 2.0, "b": 1.0, "c": 2.0}
    assert total == {"outer": 10.0, "a": 3.0, "b": 1.0, "c": 2.0}


def test_self_time_clips_children_and_skips_recursive_totals():
    total, own = _tracer([
        ("f", 0.0, 4.0, -1),
        ("f", 1.0, 3.0, 0),  # recursive call
        ("g", 3.5, 5.0, 0),  # runs past its parent's end
    ]).totals()
    assert total["f"] == 4.0
    assert own["f"] == (4.0 - 2.0 - 0.5) + 2.0


def test_span_stack_sets_parents():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("next", -1)
    ]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_oracle_matches_brute_force():
    rng = random.Random(5)
    texts = ["".join(t) for n in range(9) for t in itertools.product("ab", repeat=n)]
    texts += ["".join(rng.choice("abc") for _ in range(rng.randrange(60))) for _ in range(200)]
    for s in texts:
        brute = {
            s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)
            if s[i:j] == s[i:j][::-1]
        }
        assert distinct_palindrome_count(s) == len(brute), s


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_changes_no_output_and_counts_repeat(name):
    workload = workloads.build(name, seed=7)
    expected = workloads.expected_outputs(workload)
    _, plain = workloads.run_pass(workload, random.Random(1))
    counts = []
    for order_seed in (2, 3):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            _, traced = workloads.run_pass(workload, random.Random(order_seed), tracer)
        assert traced == plain
        metrics = workloads.layer_metrics(tracer)
        counts.append({k: metrics[k] for k in COUNTS})
    assert plain == expected
    assert counts[0] == counts[1]
    if name == "deep-returns":
        assert counts[0]["search.nodes"] == 148657


def test_wrappers_are_removed_after_tracing():
    import palindromics.claims
    from palindromics.streams import PrefixStream

    before = (palindromics.claims.PalTree, PrefixStream.prefix_text)
    with tracing.installed(tracing.Tracer()):
        assert palindromics.claims.PalTree is not before[0]
    assert (palindromics.claims.PalTree, PrefixStream.prefix_text) == before


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.NAMES == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in workloads.PER_LAYER
    ]
    tracer = tracing.Tracer()
    names = set(workloads.layer_metrics(tracer)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_tail_note_needs_ten_samples_beyond():
    assert "no percentile" in run.tail_note([1.0] * 10)
    assert run.tail_note([float(i) for i in range(20)]).startswith("p50 ")
    assert run.tail_note([float(i) for i in range(100)]).startswith("p90 ")


def test_missing_source_fails_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", run.ROOT / "no-such-dir" / "__init__.py")
    assert run.main(["--workload", "verify-suite", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
