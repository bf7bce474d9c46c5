"""Command-line behaviour: outputs, exit codes, structured round trips."""

import json

import pytest

from palindromics import PalReport, StabilizedPalSet
from palindromics.cli import main


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
    report = PalReport.from_record(json.loads(out))
    assert report.count == json.loads(out)["count"]


def test_pal_generator_stabilized(capsys):
    code, out, _ = run_cli(capsys, "pal", "--gen", "fib-bc", "--format", "json")
    assert code == 0
    stab = StabilizedPalSet.from_record(json.loads(out))
    assert stab.count == 5
    assert stab.stable


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
