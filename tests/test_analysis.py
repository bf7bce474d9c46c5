"""Reports, richness, first returns, stabilization and closure checks."""

import tracemalloc
from collections import Counter

import pytest

from palindromics import (
    PeriodicStream,
    complete_first_returns,
    pal_set,
    reversal_closure_check,
    resolve_generator,
    stabilized_pal_set,
)
from palindromics.generators import PRESETS

from conftest import (
    all_words,
    naive_complete_first_returns,
    naive_earliest_longest,
    naive_missing_reversals,
    naive_pal_set,
)


class TestPalSet:
    def test_period6_square(self):
        report = pal_set("aababbaababb")
        assert report.pal_set == {
            "", "a", "b", "aa", "bb", "aba", "bab", "abba", "baab",
        }
        assert report.count == 9

    def test_empty_word(self):
        report = pal_set("")
        assert report.count == 1
        assert report.palindromes == ("",)

    def test_exceptional_witness(self):
        report = pal_set("aaababaabaaa")
        assert report.count == 12
        assert report.pal_set == {
            "", "b", "bab", "baab", "a", "aba", "ababa", "abaaba",
            "aa", "aababaa", "aabaa", "aaa",
        }

    def test_counts_consistent(self):
        report = pal_set("abacaba")
        assert report.count == len(report.palindromes)
        assert sum(report.per_length.values()) == report.count
        assert report.per_length[0] == 1
        assert report.richness_defect == len("abacaba") + 1 - report.count

    @pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
    def test_report_order_and_counts_match_oracle(self, alphabet, max_n):
        for n in range(max_n + 1):
            for s in all_words(alphabet, n):
                report = pal_set(s)
                pals = sorted(naive_pal_set(s), key=lambda p: (len(p), p))
                assert report.palindromes == tuple(pals), s
                assert list(report.to_record()["palindromes"]) == pals, s
                assert report.per_length == Counter(map(len, pals)), s

    @pytest.mark.parametrize("spec", sorted(PRESETS) + ["pow:ab", "pow:a"])
    def test_preset_prefixes_match_oracle(self, spec):
        s = resolve_generator(spec).prefix_text(200)
        pals = naive_pal_set(s)
        report = pal_set(s)
        assert report.per_length == Counter(map(len, pals))
        assert report.count == len(pals)
        assert report.longest == naive_earliest_longest(s)

    def test_floor_and_ceiling(self):
        for n in range(9):
            for s in all_words("ab", n):
                report = pal_set(s)
                assert report.count <= n + 1
                if n:
                    assert report.count >= 1 + len(set(s))

    def test_monotone_under_extension(self):
        s = resolve_generator("fib-abbab")
        prev: frozenset = frozenset()
        for n in range(0, 2001, 250):
            current = pal_set(s.prefix_text(n)).pal_set
            assert prev <= current
            prev = current


class TestRichness:
    def test_rich_examples(self):
        assert pal_set("abac").richness_defect == 0
        assert pal_set("").richness_defect == 0
        assert pal_set("aababbaababb").richness_defect > 0


class TestLongestPalindrome:
    def test_tie_broken_by_first_occurrence(self):
        assert pal_set("ab").longest == "a"
        assert pal_set("ba").longest == "b"

    def test_plain(self):
        assert pal_set("aababbaababb").longest == "abba"

    def test_matches_oracle_length(self):
        for s in all_words("ab", 9):
            expected = max(len(p) for p in naive_pal_set(s))
            assert len(pal_set(s).longest) == expected

    @pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
    def test_earliest_longest_matches_oracle(self, alphabet, max_n):
        for n in range(max_n + 1):
            for s in all_words(alphabet, n):
                assert pal_set(s).longest == naive_earliest_longest(s), s


class TestCompleteFirstReturns:
    def test_period6_power(self):
        w = PeriodicStream("aababb").prefix_text(24)
        scan = complete_first_returns(w, "ababb")
        assert scan.returns == ("ababbaababb",)

    def test_square_single_return(self):
        scan = complete_first_returns("aabaab", "aab")
        assert scan.returns == ("aabaab",)

    def test_other_period6_power(self):
        w = PeriodicStream("aabbab").prefix_text(30)
        scan = complete_first_returns(w, "aab")
        assert scan.returns == ("aabbabaab",)

    def test_anchor_not_found(self):
        scan = complete_first_returns("aaaa", "b")
        assert not scan.anchor_found
        assert scan.returns == ()

    def test_empty_anchor_rejected(self):
        with pytest.raises(ValueError):
            complete_first_returns("ab", "")

    def test_against_naive_scan(self):
        anchors = ("a", "ab", "aab", "aba")
        for n in range(1, 11):
            for s in all_words("ab", n):
                for v in anchors:
                    got = set(complete_first_returns(s, v).returns)
                    assert got == naive_complete_first_returns(s, v), (s, v)

    def test_against_naive_scan_long_sample(self):
        # Spot-check longer words (full length-16 space is covered by the
        # consecutive-occurrence argument; sample deterministically here).
        words = [w for i, w in enumerate(all_words("ab", 16)) if i % 977 == 0]
        for s in words:
            for v in ("aab", "abba"):
                got = set(complete_first_returns(s, v).returns)
                assert got == naive_complete_first_returns(s, v), (s, v)


class TestStabilizedPalSet:
    def test_fib_bc(self):
        stab = stabilized_pal_set(resolve_generator("fib-bc"), cap=10000)
        assert stab.stable
        assert stab.pal_set == {"", "a", "b", "c", "aa"}
        assert stab.count == 5

    def test_fib_abbab(self):
        stab = stabilized_pal_set(resolve_generator("fib-abbab"), cap=10000)
        assert stab.count == 11
        assert stab.pal_set == {
            "", "a", "b", "aa", "bb", "aaa", "aba", "bab", "abba",
            "baab", "baaab",
        }

    def test_periodic_three_letters(self):
        stab = stabilized_pal_set(PeriodicStream("abc"), cap=10000)
        assert stab.stable
        assert stab.count == 4

    def test_periodic_block_nine(self):
        stab = stabilized_pal_set(PeriodicStream("aababb"), cap=10000)
        assert stab.stable
        assert stab.count == 9

    def test_unstable_at_cap(self):
        stab = stabilized_pal_set(PeriodicStream("ab"), cap=256)
        assert not stab.stable
        assert stab.flag == "unstable-at-cap"
        assert stab.checked_horizon == 256

    def test_doubling_window_invariant(self):
        stab = stabilized_pal_set(resolve_generator("paperfolding"), cap=16384)
        assert stab.stable
        assert stab.checked_horizon >= 2 * stab.stable_horizon

    def test_preconditions(self):
        with pytest.raises(ValueError):
            stabilized_pal_set(PeriodicStream("ab"), cap=31)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_longest_on_every_preset(self, name):
        # The lexicographically greatest of maximal length, checked against
        # the palindromes the tree lists, sorted here.
        stab = stabilized_pal_set(resolve_generator(name), cap=16384)
        pals = sorted(stab.pal_set, key=lambda p: (len(p), p))
        assert stab.longest == pals[-1]
        assert stab.count == len(pals)

    @pytest.mark.parametrize(
        "name, longest", [("quadfold", "d"), ("paperfolding", "baaabbabbaaab")]
    )
    def test_longest_is_last_in_report_order(self, name, longest):
        # Unlike pal_set, ties go to the lexicographically greatest: quadfold
        # has a, b, c and d, and pal_set of its prefix says "a".
        stab = stabilized_pal_set(resolve_generator(name), cap=16384)
        assert stab.longest == longest
        assert stab.palindromes[-1] == longest
        assert stab.palindromes == tuple(sorted(stab.pal_set, key=lambda p: (len(p), p)))
        assert list(stab.to_record()["palindromes"]) == list(stab.palindromes)


class TestClosureCheck:
    def test_paperfolding_witness(self):
        report = reversal_closure_check(resolve_generator("paperfolding"), k=5)
        assert ("aaaba", "abaaa") in report.witness_missing

    def test_fib_abbab_witness(self):
        report = reversal_closure_check(resolve_generator("fib-abbab"), k=5)
        assert ("abaaa", "aaaba") in report.witness_missing

    def test_constant_word_closed(self):
        report = reversal_closure_check(PeriodicStream("aa"), k=4, horizon=64)
        assert report.witness_missing == ()
        assert report.closed_up_to == 4

    def test_closed_up_to_stops_before_first_witness(self):
        report = reversal_closure_check(resolve_generator("fib-bc"), k=4)
        lengths = {len(u) for u, _ in report.witness_missing}
        assert report.closed_up_to == min(lengths) - 1

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            reversal_closure_check(PeriodicStream("ab"), k=5, horizon=10)

    @pytest.mark.parametrize(
        "name", ["paperfolding", "fib-bc", "fib-abbab", "quadfold"]
    )
    def test_matches_oracle(self, name):
        stream = resolve_generator(name)
        text = stream.prefix_text(256)
        for k in range(1, 7):
            report = reversal_closure_check(stream, k, 256)
            assert list(report.witness_missing) == naive_missing_reversals(text, k)

    @pytest.mark.parametrize(
        "stream",
        [
            resolve_generator("paperfolding"),
            resolve_generator("fib-bc"),
            resolve_generator("fold-pairswap"),
            resolve_generator("quadfold"),
            resolve_generator("pow:ab"),
            PeriodicStream("aa"),
        ],
        ids=["paperfolding", "fib-bc", "fold-pairswap", "quadfold", "pow:ab", "aa"],
    )
    def test_matches_oracle_at_the_window_edge(self, stream):
        # At horizon 4k, the least the check allows, the half window is 2k
        # letters, so the factors that start in its last k - 1 letters are
        # a large share of each length's.
        for k in range(1, 17):
            text = stream.prefix_text(4 * k)
            report = reversal_closure_check(stream, k, 4 * k)
            assert list(report.witness_missing) == naive_missing_reversals(text, k), k
        text = stream.prefix_text(512)
        oracle = naive_missing_reversals(text, 16)
        for k in range(1, 17):
            report = reversal_closure_check(stream, k, 512)
            assert list(report.witness_missing) == [p for p in oracle if len(p[0]) <= k], k

    def test_paperfolding_at_the_cli_k_limit(self):
        report = reversal_closure_check(
            resolve_generator("paperfolding"), k=64, horizon=65536
        )
        assert len(report.witness_missing) == 8179
        assert report.closed_up_to == 4

    def test_peak_memory_holds_one_factor_length(self):
        # All 200 factor lengths of the half window held at once peak at
        # about 7.4 MB. The check holds each window's length-200 factors
        # and its factors of one shorter length at a time: about 0.36 MB.
        stream = resolve_generator("fibonacci")
        stream.prefix_text(1024)
        tracemalloc.start()
        try:
            report = reversal_closure_check(stream, k=200, horizon=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.closed
        assert peak < 1 << 20, peak
