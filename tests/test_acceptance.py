"""Acceptance suite: one test per exit criterion, exact counts, zero tolerance.

Each test prints a single PASS line on success (shown with -v/-s); a failure
surfaces through the assert itself. Where the exhaustive scans sharpened a
narrower written expectation (the 9- and 10-palindrome families close under
rotation of the repeated block, and the eleventh-palindrome step for flanked
words needs the flank letter kept), the tests pin the computed truth and the
refinement is asserted explicitly rather than silently absorbed.
"""

from dataclasses import replace

import pytest

from palindromics import (
    PeriodicStream,
    canonical_form,
    complete_first_returns,
    least_period,
    pal_set,
    replay_return_witness,
    resolve_generator,
    reversal_closure_check,
    run_claim,
    run_return_family_claim,
    stabilized_pal_set,
)
from palindromics.claims import (
    CLOSED13_PAL_SET,
    EXCEPTIONAL_PAL_SETS,
    EXCEPTIONAL_WITNESS,
    FIB_ABBAB_PAL_SET,
    MAXPAL5_PAL_SET,
    PERIOD6_PAL_SET,
    RETURN_CLAIMS,
    rotations,
)

from conftest import all_words, naive_pal_set


def passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_paperfolding_29_palindromes():
    stab = stabilized_pal_set(resolve_generator("paperfolding"), cap=16384)
    assert stab.stable
    # The count of 29 includes the empty word: the inventory has 28 non-empty
    # palindromes plus epsilon, with the longest of length 13.
    assert stab.count == 29
    assert "" in stab.pal_set
    assert len([p for p in stab.palindromes if p]) == 28
    assert len(stab.longest) == 13
    assert stab.longest == "baaabbabbaaab"
    passed("01 paperfolding stabilizes at 29 palindromes, longest 13")


def test_criterion_02_fib_bc_five_palindromes_and_open_pair():
    stab = stabilized_pal_set(resolve_generator("fib-bc"), cap=16384)
    assert stab.stable
    assert stab.pal_set == {"", "a", "b", "c", "aa"}
    assert stab.count == 5
    closure = reversal_closure_check(resolve_generator("fib-bc"), k=2)
    assert ("bc", "cb") in closure.witness_missing
    passed("02 fib-bc has exactly {e,a,b,c,aa}; reversal of bc is missing")


def test_criterion_03_quadfold_five_palindromes_closed():
    stab = stabilized_pal_set(resolve_generator("quadfold"), cap=16384)
    assert stab.stable
    assert stab.pal_set == {"", "a", "b", "c", "d"}
    assert stab.count == 5
    closure = reversal_closure_check(resolve_generator("quadfold"), k=6,
                                     horizon=4096)
    assert closure.witness_missing == ()
    assert closure.closed_up_to == 6
    passed("03 quadfold has exactly {e,a,b,c,d} and no missing reversal to k=6")


def test_criterion_04_binary_length9_floor():
    v = run_claim("rich9")
    assert v.status == "verified"
    [row] = v.witnesses
    assert row["min_palindromes"] == 9
    # Direct witness attaining the floor: a period-6 power prefix.
    assert pal_set(PeriodicStream("aababb").prefix_text(9)).count == 9
    passed("04 every binary length-9 word with both letters has >= 9 palindromes")


def test_criterion_05_exactly_nine_characterization():
    v = run_claim("exact9")
    assert v.status == "verified"
    [row] = v.witnesses
    blocks = sorted(rotations("aababb") | rotations("bbabaa"))
    assert row["squares"] == sorted(u * 2 for u in blocks)
    assert len(row["squares"]) == 12
    # The two renaming-or-reversal class members sit inside the rotation
    # closure; the scan shows the remaining ten squares are needed too.
    assert row["class_member_squares"] == ["aababbaababb", "bbabaabbabaa"]
    assert len(row["squares_outside_class_members"]) == 10
    for s in row["squares"]:
        assert pal_set(s).pal_set == PERIOD6_PAL_SET
    for ext in row["extensions"]:
        if ext["period"] != 6:
            assert ext["palindromes"] >= 10
    passed("05 exactly-9 length-12 words = the 12 rotation squares, 9-set each")


def test_criterion_06_exactly_ten_classification_and_extensions():
    v10 = run_claim("exact10")
    assert v10.status == "verified"
    [row] = v10.witnesses
    classes = row["classes"]
    assert len(classes["square"]) == 28
    assert len(classes["flanked"]) == 12
    assert len(classes["tailed"]) == 12
    assert row["exactly_ten_count"] == 52
    v11 = run_claim("extend11")
    assert v11.status == "verified"
    [ext_row] = v11.witnesses
    # The flank letter is essential in the flanked case: dropping it leaves
    # the extension at 10 palindromes in every instance.
    assert ext_row["flankless_words_stopping_at_10"]
    assert all(
        r["palindromes"] == 10
        for r in ext_row["flankless_words_stopping_at_10"]
    )
    passed("06 exactly-10 words partition into square/flanked/tailed; "
           "extensions reach 11")


def test_criterion_07_fib_abbab_eleven_palindromes():
    stab = stabilized_pal_set(resolve_generator("fib-abbab"), cap=16384)
    assert stab.stable
    assert stab.count == 11
    assert stab.pal_set == FIB_ABBAB_PAL_SET
    closure = reversal_closure_check(resolve_generator("fib-abbab"), k=5)
    assert ("abaaa", "aaaba") in closure.witness_missing
    passed("07 fib-abbab has exactly the 11 pinned palindromes; abaaa reversal missing")


def test_criterion_08_fold_pairswap_seventeen():
    stab = stabilized_pal_set(resolve_generator("fold-pairswap"), cap=16384)
    assert stab.stable
    assert stab.count == 17
    passed("08 fold-pairswap stabilizes at exactly 17 palindromes")


def test_criterion_09_longest_palindrome_bounds():
    v = run_claim("maxpal-bounds")
    assert v.status == "verified-up-to-bound"
    [row] = v.witnesses
    # Frozen bound, derived once from the independent level-by-level search
    # (see test_search): no binary word longer than 8 keeps every palindromic
    # factor at length <= 3.
    assert row["bound_length"] == 8
    assert row["longest_word_with_palindromes_le_3"] == "aaababbb"
    assert len(pal_set(PeriodicStream("aabbab").prefix_text(60)).longest) == 4
    stab = stabilized_pal_set(resolve_generator("maxpal5"), cap=16384)
    assert stab.pal_set == MAXPAL5_PAL_SET
    assert stab.count == 15
    assert len(stab.longest) == 5
    assert row["aab_returns"] == ["aababbaab", "aabbabaab"]
    passed("09 palindrome length bounds: L3=8, aabbab peak 4, maxpal5 set of 15")


def test_criterion_10_closed13_terms_and_closure():
    v = run_claim("closed13")
    assert v.status == "verified-up-to-bound"
    stream = resolve_generator("closed13")
    for n in range(2, 9):
        assert pal_set(stream.term(n)).pal_set == CLOSED13_PAL_SET
    closure = reversal_closure_check(resolve_generator("closed13"), k=8,
                                     horizon=4096)
    assert closure.witness_missing == ()
    passed("10 closed13 terms 2..8 all have the 13-set; closure clean to k=8")


def test_criterion_11_nonrich_850_and_exceptional_sets():
    v = run_claim("need-squares")
    assert v.status == "verified"
    [row] = v.witnesses
    assert row["nonrich_count"] == 850
    assert len(EXCEPTIONAL_PAL_SETS) == 4
    assert all(len(s) == 12 for s in EXCEPTIONAL_PAL_SETS)
    witness_set = pal_set(EXCEPTIONAL_WITNESS).pal_set
    assert witness_set == EXCEPTIONAL_PAL_SETS[3]
    assert "aababaa" in witness_set
    passed("11 850 non-rich length-12 words; exceptional sets A-D with witness")


def test_criterion_12_return_families_verified_and_refutable():
    for cid in ("returns-abaaab", "returns-baabaab", "returns-ababa",
                "returns-baaab"):
        v = run_claim(cid)
        assert v.status == "verified-up-to-bound", cid
        assert v.bound["max_len"] == 36
    claim = RETURN_CLAIMS["returns-baaab"]
    weakened = replace(
        claim, constraints=replace(claim.constraints, pal_budget=14)
    )
    refuted = run_return_family_claim(weakened)
    assert refuted.status == "refuted"
    assert refuted.witnesses
    for witness in refuted.witnesses:
        assert replay_return_witness(weakened, witness)
        host = witness["host"]
        returns = complete_first_returns(host, claim.anchor).returns
        assert witness["return"] in returns
    passed("12 four return-family claims verified at L=36; weakening refutes")


def test_criterion_13_minpal_ladder():
    b9 = run_claim("minpal-b9")
    [row9] = b9.witnesses
    assert row9["min_palindromes"] == 9

    b12 = run_claim("minpal-b12")
    [row12] = b12.witnesses
    assert row12["min_palindromes"] == 9
    blocks = sorted(rotations("aababb") | rotations("bbabaa"))
    assert row12["argmin"] == sorted(u * 2 for u in blocks)
    assert "aababbaababb" in row12["argmin"]
    assert "bbabaabbabaa" in row12["argmin"]

    t9 = run_claim("minpal-t9")
    [rowt] = t9.witnesses
    assert rowt["min_palindromes"] == 4
    assert len(rowt["argmin"]) == 6
    canon = canonical_form("abcabcabc")
    for w in rowt["argmin"]:
        assert least_period(w) == 3
        assert canonical_form(w) == canon
    passed("13 minpal ladder: binary 9@9, 9@12 (rotation squares), ternary 4@9")


@pytest.mark.slow
def test_criterion_14_oracle_equivalence_binary_up_to_14():
    for n in range(15):
        for s in all_words("ab", n):
            assert pal_set(s).pal_set == naive_pal_set(s), s
    passed("14 pal_set matches the naive oracle on all binary words to length 14")
