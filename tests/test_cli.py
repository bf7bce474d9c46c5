"""Command-line behaviour: outputs, exit codes, structured records."""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import palindromics.cli
from palindromics import claims
from palindromics.analysis import PalReport, StabilizedPalSet
from palindromics.claims import ClaimVerdict
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
        ["pal", "--word", "a"],
        ["pal", "--gen", "fibonacci", "--cap", "64"],
        ["closure", "--gen", "paperfolding", "--k", "3", "--horizon", "64"],
        ["returns", "--word", "abaababaab", "--anchor", "aba"],
        ["returns", "--word", "ab", "--anchor", "c"],
        ["gen", "--gen", "fibonacci", "--horizon", "20"],
        ["verify", "all"],
        ["verify", "list"],
        ["enumerate", "--alphabet", "ab", "--n", "4"],
        ["enumerate", "--alphabet", "ab", "--n", "4", "--filter", "palcount>=99"],
        ["enumerate", "--alphabet", "ab", "--n", "0", "--filter", "period==1"],
    ],
    ids=" ".join,
)
def test_json_stdout_is_one_indented_document(capsys, argv):
    # Every command's record, iterators included, is written with the bytes
    # of json.dump(record, sort_keys=True, indent=2); empty lists among them.
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.sampled_from('ab"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'))
    | st.text()
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    # Int and str keys stay in separate dicts: json.dumps cannot sort both.
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=20,
)


def _as_iterators(value, data):
    """value with each list drawn as a list, a tuple or a one-pass iterator."""
    if isinstance(value, dict):
        return {k: _as_iterators(v, data) for k, v in value.items()}
    if isinstance(value, list):
        items = [_as_iterators(v, data) for v in value]
        return data.draw(st.sampled_from((list, tuple, iter)))(items)
    return value


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES, st.data())
def test_json_writer_matches_json_dumps(value, data):
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert "".join(palindromics.cli._JSON.iterencode(value)) == expected
    streamed = _as_iterators(value, data)
    assert "".join(palindromics.cli._JSON.iterencode(streamed)) == expected
    # Any other value is refused with json.dumps's own error.
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        "".join(palindromics.cli._JSON.iterencode([value, {0}]))


class _CountingSink:
    """Stand-in for stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)

    def flush(self):
        pass


_PAL_PREFIXES = [  # (argv, prefix letters)
    (["pal", "--gen", "fibonacci", "--horizon", "4000", "--format", "json"], 4000),
    (["pal", "--gen", "fibonacci", "--cap", "4096", "--format", "json"], 4096),
    (["pal", "--gen", "fibonacci", "--cap", "4096"], 4096),
    (["pal", "--gen", "fibonacci", "--horizon", "32768"], 32768),
]


@pytest.mark.parametrize(
    "argv, letters", _PAL_PREFIXES, ids=[" ".join(a) for a, _ in _PAL_PREFIXES]
)
def test_pal_peak_memory_linear_in_the_prefix(argv, letters):
    # A report holds its palindromic tree, about 110 bytes a letter here, and
    # the palindromes of one length at a time. The listings write 6 MB each,
    # about 1,500 bytes a letter, so holding them whole breaks the bound;
    # holding the 2^15-letter one took about 390 MB, though its text output
    # is only the summary.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1_000 * letters, (peak, sink.chars)


def test_enumerate_json_peak_memory_independent_of_the_word_count():
    # The words stream into the JSON writer; a list of all 65,536 held
    # about 5 MB.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["enumerate", "--alphabet", "ab", "--n", "16", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 1_500_000
    assert peak <= 1_000_000, (peak, sink.chars)


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


def test_revclose_alphabet_key_spells_paperfolding(capsys):
    spec = "revclose(U0=a,inserts=[a],t=revcomp,alphabet=ab)"
    spec_run = run_cli(capsys, "gen", "--gen", spec, "--horizon", "200")
    preset_run = run_cli(capsys, "gen", "--gen", "paperfolding", "--horizon", "200")
    assert spec_run == preset_run
    assert spec_run[0] == 0


@pytest.mark.parametrize("key", ["tt=revcomp", "alphabett=ab", "u0=a"])
def test_revclose_unknown_key_exit_2(capsys, key):
    code, out, err = run_cli(capsys, "gen", "--gen", f"revclose(U0=a,inserts=[a],{key})")
    assert (code, out) == (2, "")
    assert f"revclose got unknown keys ['{key.partition('=')[0]}']" in err


@pytest.mark.parametrize(
    "spec", ["pow(ab", "fix(a->ab,b->a,a", "image(bc, fib", "shift(pow(ab),2"]
)
def test_unclosed_spec_exit_2(capsys, spec):
    code, out, err = run_cli(capsys, "gen", "--gen", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown generator {spec!r}\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("revclose(U0=ab,U0=ba,inserts=[c])", "revclose repeats key 'U0'"),
        ("revclose(U0=ab,inserts=[c],inserts=[d])", "revclose repeats key 'inserts'"),
        ("fix(a->ab,b->a)", "fix takes morphism rules and a seed"),
        ("shift(fib,x)", "shift takes an inner generator and an offset"),
        ("shift(fib,1.5)", "shift takes an inner generator and an offset"),
    ],
)
def test_malformed_spec_exit_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "gen", "--gen", spec)
    assert (code, out) == (2, "")
    first, presets, rest = err.split("\n", 2)
    assert first == f"error: {message}"
    assert presets.startswith("presets: ") and rest == ""


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_refuted_claim_exits_1(capsys, monkeypatch, fmt):
    # A stated palindrome set that fib-bc does not have refutes the claim.
    monkeypatch.setitem(
        claims.STREAM_EXPECTATIONS, "fib-bc", (5, 2, frozenset({"", "bb"}))
    )
    code, out, _ = run_cli(capsys, "verify", "stream-pal-counts", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.startswith("stream-pal-counts: refuted")
        assert "\n  witness: {'fib-bc pal_set': " in out
    else:
        [record] = json.loads(out)
        assert record["status"] == "refuted"
        witness = {"fib-bc pal_set": ["", "a", "aa", "b", "c"], "expected": ["", "bb"]}
        assert witness in record["witnesses"]


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "nope")
    assert code == 2
    assert "unknown claim" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "list")
    assert code == 0
    assert "rich9:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["pal", "--word", "aababb"],
        ["pal", "--gen", "fib-bc"],
        ["pal", "--gen", "fibonacci", "--horizon", "64"],
        ["verify", "minpal-b9"],
    ],
    ids=" ".join,
)
def test_text_output_builds_no_json_record(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("a JSON record was built for text output")

    for cls in (PalReport, StabilizedPalSet, ClaimVerdict):
        monkeypatch.setattr(cls, "to_record", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize(
    "argv, nbytes",
    [
        (("pal", "--gen", "fibonacci", "--cap", "4096"), 10),
        (("pal", "--gen", "fibonacci", "--format", "json"), 10),
        # 2 kB fit in the pipe, so the reader closes before the first write:
        # the whole listing is still buffered when main flushes it.
        (("verify", "list"), 0),
    ],
)
def test_closed_stdout_exits_141_quietly(argv, nbytes):
    # A reader such as `| head -c 10` that closes the pipe early ends the
    # command with 128 + SIGPIPE and no traceback. The child's stdout is
    # block-buffered, as it is for any pipe unless PYTHONUNBUFFERED is set.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(palindromics.cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r, w = os.pipe()
    if not nbytes:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, "-m", "palindromics", *argv],
        stdout=w, stderr=subprocess.PIPE, env=env,
    )
    os.close(w)
    if nbytes:
        with os.fdopen(r, "rb") as out:
            assert len(out.read(nbytes)) == nbytes
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_unknown_preset_exits_2_with_registry(capsys):
    code, _, err = run_cli(capsys, "pal", "--gen", "nonsense")
    assert code == 2
    assert "presets:" in err
    assert "paperfolding" in err


# Every place a word or an alphabet enters from the command line, with the
# letter it must name.
BAD_LETTERS = [
    (["pal", "--word", "xyz"], "letter 'x' is not one of 'abcdefgh'"),
    (["returns", "--word", "abx", "--anchor", "ab"],
     "letter 'x' is not one of 'abcdefgh'"),
    (["returns", "--word", "ab", "--anchor", "z"],
     "letter 'z' is not one of 'abcdefgh'"),
    (["gen", "--gen", "pow:xy"], "letter 'x' is not one of 'abcdefgh'"),
    (["gen", "--gen", "revclose(U0=x,inserts=[a])"],
     "letter 'x' is not one of 'abcdefgh'"),
    (["gen", "--gen", "revclose(U0=a,inserts=[z])"],
     "letter 'z' is not one of 'abcdefgh'"),
    (["gen", "--gen", "revclose(U0=a,inserts=[a],t=revcomp,alphabet=xy)"],
     "letter 'x' is not one of 'abcdefgh'"),
    (["gen", "--gen", "revclose(U0=a,inserts=[a],t=revcomp,alphabet=ac)"],
     "alphabet must be the first letters of a..h, got 'ac'"),
    (["gen", "--gen", "image(a->x,b->b,fib)"],
     "letter 'x' is not one of 'abcdefgh'"),
    (["gen", "--gen", "fix(a->ay,y->a,a)"], "letter 'y' is not one of 'abcdefgh'"),
    (["gen", "--gen", "fix(a->ab,a)"], "morphism a->ab has no rule for 'b'"),
    (["gen", "--gen", "fix(a->abc,b->a,a)"],
     "morphism a->abc,b->a has no rule for 'c'"),
    # Rejected even though the seed never reaches c: a fixed point needs a
    # morphism from its alphabet to itself.
    (["gen", "--gen", "fix(a->aa,b->c,a)"], "morphism a->aa,b->c has no rule for 'c'"),
    (["enumerate", "--alphabet", "ai", "--n", "2"],
     "letter 'i' is not one of 'abcdefgh'"),
    (["enumerate", "--alphabet", "0", "--n", "2"], "alphabet size must be 1..8, got 0"),
    (["enumerate", "--alphabet", "9", "--n", "2"], "alphabet size must be 1..8, got 9"),
    (["enumerate", "--alphabet", "ab", "--n", "2", "--filter", "contains:z"],
     "letter 'z' is not one of 'abcdefgh'"),
    (["enumerate", "--alphabet", "ab", "--n", "2", "--filter", "rich,avoids:zz"],
     "letter 'z' is not one of 'abcdefgh'"),
]


def test_bad_word_letters_exit_2(capsys):
    for argv, message in BAD_LETTERS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


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
        calls.append(w)
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


def test_enumerate_iso_needs_the_leading_letters_exit_2(capsys):
    # Canonical forms are written in a, b, c, ...: over 'bc' no word is one.
    code, out, err = run_cli(
        capsys, "enumerate", "--alphabet", "bc", "--n", "2", "--dedupe", "iso"
    )
    assert (code, out) == (2, "")
    assert "first 2 letters of a..h" in err


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
    # A clause whose number is not an integer, or whose word is empty, is
    # named in the message.
    for clause in ("palcount==x", "period==", "maxpal<=2.5", "contains:", "avoids:"):
        code, out, err = run_cli(
            capsys, "enumerate", "--alphabet", "ab", "--n", "3",
            "--filter", f"rich,{clause}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad filter clause {clause!r}\n"
