"""Command-line behaviour: outputs, exit codes, structured records."""

import contextlib
import json
import tracemalloc

import pytest

import palindromics.cli
from palindromics.cli import main

from conftest import all_words, naive_earliest_longest, naive_pal_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pal_word(capsys):
    code, out, _ = run_cli(capsys, "pal", "--word", "aababbaababb")
    assert code == 0
    assert "9 palindromes" in out


def test_pal_word_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "pal", "--word", "aababb", "--format", "json")
    assert code == 0
    pals = naive_pal_set("aababb")
    assert json.loads(out) == {
        "word_length": 6,
        "count": len(pals),
        "longest": naive_earliest_longest("aababb"),
        "per_length": {"0": 1, "1": 2, "2": 2, "3": 2},
        "palindromes": sorted(pals, key=lambda p: (len(p), p)),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["pal", "--word", "aaababaabaaa"],
        ["pal", "--gen", "fib-bc"],
        ["pal", "--gen", "fibonacci", "--horizon", "4000"],
        ["closure", "--gen", "fib-bc", "--k", "2"],
        ["verify", "minpal-t9"],
    ],
    ids=" ".join,
)
def test_json_stdout_is_one_indented_document(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class _CountingSink:
    """Stand-in for stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["pal", "--gen", "fibonacci", "--horizon", "4000", "--format", "json"],
        ["pal", "--gen", "fibonacci", "--cap", "4096", "--format", "json"],
    ],
    ids=" ".join,
)
def test_pal_json_peak_memory_within_twice_the_output(argv):
    # The palindromes themselves are about one copy of the output; the
    # report path may add no second copy (a joined JSON string or text line).
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 5_000_000
    assert peak <= 2 * sink.chars, (peak, sink.chars)


def test_pal_generator_stabilized(capsys):
    code, out, _ = run_cli(capsys, "pal", "--gen", "fib-bc", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 5
    assert record["flag"] == "stable"
    assert record["palindromes"] == ["", "a", "b", "c", "aa"]
    assert record["checked_horizon"] >= 2 * record["stable_horizon"]


def test_pal_generator_fixed_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "pal", "--gen", "paperfolding", "--horizon", "8192",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 29
    assert len(record["longest"]) == 13


def test_gen_prefix(capsys):
    code, out, _ = run_cli(capsys, "gen", "--gen", "pow:abc", "--horizon", "7")
    assert code == 0
    assert out.strip() == "abcabca"


def test_gen_spec_string(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--gen", "image(bc, fib)", "--horizon", "29"
    )
    assert code == 0
    assert out.strip() == "abcaabcabcaabcaabcabcaabcabca"


def test_closure_json(capsys):
    code, out, _ = run_cli(
        capsys, "closure", "--gen", "fib-bc", "--k", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert ["bc", "cb"] in record["witness_missing"]


def test_returns(capsys):
    code, out, _ = run_cli(
        capsys, "returns", "--word", "aabaab", "--anchor", "aab",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["returns"] == ["aabaab"]


def test_returns_anchor_missing(capsys):
    code, out, _ = run_cli(capsys, "returns", "--word", "aaaa", "--anchor", "b")
    assert code == 0
    assert "does not occur" in out


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "rich9")
    assert code == 0
    assert out.startswith("rich9: verified")


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "minpal-t9", "--format", "json")
    assert code == 0
    [record] = json.loads(out)
    assert record["status"] == "verified"


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "nope")
    assert code == 2
    assert "unknown claim" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "list")
    assert code == 0
    assert "rich9:" in out


def test_unknown_preset_exits_2_with_registry(capsys):
    code, _, err = run_cli(capsys, "pal", "--gen", "nonsense")
    assert code == 2
    assert "presets:" in err
    assert "paperfolding" in err


def test_bad_word_letters_exit_2(capsys):
    code, _, err = run_cli(capsys, "pal", "--word", "xyz123")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["pal"])  # neither --word nor --gen
    assert exc.value.code == 2


def test_enumerate_with_filter(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alphabet", "ab", "--n", "12",
        "--filter", "palcount==9",
    )
    assert code == 0
    words = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(words) == 12
    assert "aababbaababb" in words


def test_enumerate_filter_builds_one_report_per_word(capsys, monkeypatch):
    calls = []
    pal_set = palindromics.cli.pal_set

    def counting(w):
        calls.append(w.text)
        return pal_set(w)

    monkeypatch.setattr(palindromics.cli, "pal_set", counting)
    code, out, _ = run_cli(
        capsys, "enumerate", "--alphabet", "ab", "--n", "6",
        "--filter", "palcount>=0,rich,maxpal<=6",
    )
    assert code == 0
    assert len(calls) == 64
    words = [l for l in out.splitlines() if not l.startswith("#")]
    assert words == [
        s for s in all_words("ab", 6)
        if len(naive_pal_set(s)) == 7 and len(naive_earliest_longest(s)) <= 6
    ]


def test_enumerate_filter_clauses(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alphabet", "abc", "--n", "5",
        "--filter", "nonrich,palcount<=5,palcount>=5,contains:ab", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["words"] == [
        s for s in all_words("abc", 5)
        if len(naive_pal_set(s)) == 5 and "ab" in s
    ]


def test_enumerate_alphabet_outside_a_to_h_exit_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--alphabet", "xy", "--n", "2")
    assert code == 2
    assert out == ""
    assert "'x'" in err


def test_enumerate_iso_dedupe(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alphabet", "2", "--n", "2", "--dedupe", "iso"
    )
    assert code == 0
    words = [l for l in out.splitlines() if not l.startswith("#")]
    assert words == ["aa", "ab"]


def test_enumerate_json_is_one_document(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alphabet", "ab", "--n", "3",
        "--filter", "avoids:ab", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "alphabet": "ab", "n": 3, "dedupe": "none", "filter": "avoids:ab",
        "words": ["aaa", "baa", "bba", "bbb"],
    }


def test_enumerate_over_guard_exit_2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--alphabet", "ab", "--n", "40")
    assert code == 2
    assert out == ""
    assert "guard" in err


def test_enumerate_bad_filter_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--alphabet", "ab", "--n", "3",
        "--filter", "sparkly",
    )
    assert code == 2
