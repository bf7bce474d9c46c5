"""Constraint search engines: pruning soundness, families, enumeration."""

from dataclasses import replace

import pytest

from palindromics import (
    ConstraintSet,
    FamilyTemplate,
    canonical_form,
    deepest_word,
    enumerate_words,
    forbid_other_palindromes,
    scan_complete_returns,
)
from palindromics.claims import RETURN_CLAIMS
from palindromics.search import (
    PalWalk,
    low_palindrome_words,
    palindromes_of_length,
)

from conftest import (
    all_words,
    naive_complete_first_returns,
    naive_pal_set,
    naive_renaming,
)

AB = "ab"


class TestEnumerateWords:
    def test_plain_binary(self):
        got = list(enumerate_words(AB, 2))
        assert got == ["aa", "ab", "ba", "bb"]

    def test_iso_dedupe(self):
        got = list(enumerate_words(AB, 2, dedupe="iso"))
        assert got == ["aa", "ab"]

    def test_count(self):
        assert sum(1 for _ in enumerate_words(AB, 9)) == 512

    def test_iso_covers_everything(self):
        reps = set(enumerate_words(AB, 4, dedupe="iso"))
        for s in all_words("ab", 4):
            assert canonical_form(s) in reps

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            list(enumerate_words("abcdefgh", 10))

    def test_bad_dedupe(self):
        with pytest.raises(ValueError):
            list(enumerate_words(AB, 2, dedupe="classes"))


class TestFamilyTemplate:
    def test_matching(self):
        fam = FamilyTemplate("baaab", "baabab", "baaab", n_min=1)
        assert fam.matches("baaab" + "baabab" + "baaab")
        assert fam.matches("baaab" + "baabab" * 3 + "baaab")
        assert not fam.matches("baaab" + "baaab")  # n = 0 excluded
        assert not fam.matches("baaab" + "baabab"[:-1] + "baaab")

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="block"):
            FamilyTemplate("a", "", "b")

    def test_instance(self):
        fam = FamilyTemplate("ab", "cd", "e", n_min=0)
        assert fam.matches("abcdcde")
        assert fam.matches("ab" + "cd" * 5 + "e")


class TestConstraintSet:
    def test_satisfies_forbidden(self):
        c = ConstraintSet(AB, forbidden_factors=frozenset({"bbb"}))
        assert c.satisfies("ababb")
        assert not c.satisfies("abbba")

    def test_satisfies_budget(self):
        c = ConstraintSet(AB, pal_budget=4)
        assert c.satisfies("aba")      # 4 palindromes with epsilon
        assert not c.satisfies("abab")  # 5

    def test_assumed_palindromes_charge(self):
        base = frozenset({"a", "b", "aa"})
        c = ConstraintSet(AB, pal_budget=5, assumed_palindromes=base)
        # aba brings one palindrome outside the assumed set: 4 + 1 = 5.
        assert c.satisfies("aba")
        # abab brings bab as well: 6 > 5.
        assert not c.satisfies("abab")

    def test_length_cap(self):
        c = ConstraintSet(AB, pal_length_cap=3)
        assert c.satisfies("aabab")
        assert not c.satisfies("abba")

    def test_required(self):
        c = ConstraintSet(AB, required_factors=frozenset({"aab"}))
        assert c.satisfies("baab")
        assert not c.satisfies("abab")
        # Required factors are checked with the others, not instead of them.
        both = ConstraintSet(AB, required_factors=frozenset({"aab"}), pal_budget=4)
        assert not both.satisfies("aabaa")


class TestPalindromesOfLength:
    def test_count(self):
        assert len(palindromes_of_length(AB, 5)) == 8
        assert len(palindromes_of_length(AB, 4)) == 4

    def test_forbid_other(self):
        forb = forbid_other_palindromes(AB, 5, {"baaab"})
        assert "baaab" not in forb
        assert "aabaa" in forb and "ababa" in forb
        assert len(forb) == 7


class TestPruningSoundness:
    @pytest.mark.parametrize(
        "constraints",
        [
            ConstraintSet(AB, forbidden_factors=frozenset({"aaa", "bbb"})),
            ConstraintSet(AB, pal_budget=7),
            ConstraintSet(AB, pal_length_cap=3),
            ConstraintSet(
                AB,
                forbidden_factors=frozenset({"aaaa"}),
                pal_budget=9,
                pal_length_cap=5,
            ),
            # Budgets charged with assumed palindromes. The walk leaves
            # required factors to its consumer, so they are dropped here.
            *(
                replace(RETURN_CLAIMS[cid].constraints, required_factors=frozenset())
                for cid in ("returns-abaaab", "returns-baaab")
            ),
        ],
    )
    def test_pruned_equals_naive_filter(self, constraints):
        # Every prefix-closed predicate here is monotone, so a word passes
        # the incremental search exactly when it passes the whole-word check.
        max_len = 12
        pruned = {w for depth, w in PalWalk(constraints, max_len) if depth}
        naive = set()
        for n in range(1, max_len + 1):
            for s in all_words("ab", n):
                if constraints.satisfies(s):
                    naive.add(s)
        assert pruned == naive


class TestDeepestWord:
    def test_palindrome_cap_3_bound(self):
        scan = deepest_word(ConstraintSet(AB, pal_length_cap=3), hard_cap=64)
        assert scan.exhausted
        assert scan.max_len == 8
        assert scan.witness == "aaababbb"

    def test_matches_naive_level_search(self):
        c = ConstraintSet(AB, pal_length_cap=3)
        level, depth = [""], 0
        while level:
            nxt = [
                w + ch
                for w in level
                for ch in "ab"
                if max(len(p) for p in naive_pal_set(w + ch)) <= 3
            ]
            if not nxt:
                break
            level, depth = nxt, depth + 1
        assert deepest_word(c, hard_cap=64).max_len == depth

    def test_capped_flag(self):
        scan = deepest_word(ConstraintSet(AB, pal_length_cap=64), hard_cap=6)
        assert not scan.exhausted
        assert scan.max_len == 6


class TestReturnScan:
    def test_two_returns_to_aab(self):
        scan = scan_complete_returns(
            ConstraintSet(
                AB,
                forbidden_factors=frozenset({"aaa", "bbb"}),
                pal_length_cap=4,
            ),
            "aab",
            max_len=20,
        )
        assert sorted(scan.returns) == ["aababbaab", "aabbabaab"]

    def test_required_factor_gates_collection(self):
        # Without the required factor nothing may be collected; the same
        # search with the requirement dropped sees the returns.
        base = ConstraintSet(AB, pal_length_cap=4,
                             forbidden_factors=frozenset({"aaa", "bbb"}))
        gated = ConstraintSet(
            AB,
            pal_length_cap=4,
            forbidden_factors=frozenset({"aaa", "bbb"}),
            required_factors=frozenset({"bbabba"}),  # impossible here
        )
        assert scan_complete_returns(gated, "aab", 16).returns == {}
        assert scan_complete_returns(base, "aab", 16).returns

    def test_required_factor_after_return_still_counts(self):
        # The anchor pair appears before the required factor does; the return
        # still counts, with a host that holds the requirement.
        c = ConstraintSet(AB, required_factors=frozenset({"bbbb"}))
        scan = scan_complete_returns(c, "aa", max_len=10)
        assert "aaa" in scan.returns
        assert "bbbb" in scan.returns["aaa"]

    def test_overlapping_anchor_occurrences(self):
        c = ConstraintSet(AB)
        scan = scan_complete_returns(c, "aba", max_len=7)
        assert "ababa" in scan.returns  # overlapping pair of aba occurrences


def _naive_passes(w, forbidden=(), budget=None, cap=None, assumed=()):
    """Whether w meets the prefix-closed constraints, checked whole-word
    with the naive oracles only."""
    if any(f in w for f in forbidden):
        return False
    pals = naive_pal_set(w)
    if cap is not None and max(map(len, pals)) > cap:
        return False
    return budget is None or len(set(assumed) | {""} | pals) <= budget


def _oracle_hosts(alphabet, max_len, forbidden=(), required=(), budget=None,
                  cap=None, assumed=()):
    """Every word of length <= max_len meeting the constraints."""
    for n in range(max_len + 1):
        for w in all_words(alphabet, n):
            if _naive_passes(w, forbidden, budget, cap, assumed) and all(
                r in w for r in required
            ):
                yield w


RETURN_CASES = {
    # name -> (ConstraintSet keyword arguments, anchor, max_len)
    "forbidden": (dict(forbidden_factors=frozenset({"aaa", "bbb"})), "aab", 12),
    "required-after-return": (dict(required_factors=frozenset({"bbbb"})), "aa", 12),
    "required-before-return": (
        dict(required_factors=frozenset({"bbabb"}), pal_length_cap=5), "ab", 12),
    "budget-with-assumed": (
        dict(pal_budget=9, assumed_palindromes=frozenset({"a", "b", "aa", "aba"})),
        "ab", 12),
    "length-cap": (dict(pal_length_cap=4), "aab", 12),
    "everything": (
        dict(forbidden_factors=frozenset({"aaaa"}),
             required_factors=frozenset({"aab", "bb"}),
             pal_budget=11, pal_length_cap=5,
             assumed_palindromes=frozenset({"a", "b", "aa", "bb", "aba"})),
        "aba", 12),
    "ternary": (dict(forbidden_factors=frozenset({"cc"}),
                     required_factors=frozenset({"ca"}), pal_budget=8), "ab", 8),
}


@pytest.mark.parametrize("case", sorted(RETURN_CASES))
def test_return_scan_matches_naive_oracle(case):
    kwargs, anchor, max_len = RETURN_CASES[case]
    alphabet = "abc" if case == "ternary" else "ab"
    scan = scan_complete_returns(
        ConstraintSet(alphabet, **kwargs), anchor, max_len
    )
    hosts = list(_oracle_hosts(
        alphabet, max_len,
        forbidden=kwargs.get("forbidden_factors", ()),
        required=kwargs.get("required_factors", ()),
        budget=kwargs.get("pal_budget"),
        cap=kwargs.get("pal_length_cap"),
        assumed=kwargs.get("assumed_palindromes", ()),
    ))
    expected = set()
    for w in hosts:
        expected |= naive_complete_first_returns(w, anchor)
    assert expected, case  # every case must exercise collection
    assert set(scan.returns) == expected
    host_set = set(hosts)
    for ret, host in scan.returns.items():
        assert host in host_set
        assert ret in naive_complete_first_returns(host, anchor)


@pytest.mark.parametrize("case", sorted(RETURN_CASES))
def test_every_host_is_maximal(case):
    # A host holds every required factor and has no one-letter extension
    # within the bound that passes the constraints.
    kwargs, anchor, max_len = RETURN_CASES[case]
    alphabet = "abc" if case == "ternary" else "ab"
    scan = scan_complete_returns(
        ConstraintSet(alphabet, **kwargs), anchor, max_len
    )
    prefix_closed = dict(
        forbidden=kwargs.get("forbidden_factors", ()),
        budget=kwargs.get("pal_budget"),
        cap=kwargs.get("pal_length_cap"),
        assumed=kwargs.get("assumed_palindromes", ()),
    )
    assert scan.returns, case
    for ret, host in scan.returns.items():
        assert all(r in host for r in kwargs.get("required_factors", ())), ret
        assert len(host) == max_len or not any(
            _naive_passes(host + ch, **prefix_closed) for ch in alphabet
        ), (ret, host)


@pytest.mark.parametrize("case", sorted(RETURN_CASES))
def test_walk_counters_account_for_every_extension(case):
    kwargs, _, max_len = RETURN_CASES[case]
    alphabet = "abc" if case == "ternary" else "ab"
    walk = PalWalk(ConstraintSet(alphabet, **kwargs), max_len)
    visited = [w for _, w in walk]
    st = walk.stats
    # Each node below the bound tries every letter once; each try becomes a
    # node or is pruned for exactly one reason.
    tries = len(alphabet) * (st.nodes - st.leaves)
    pruned = st.pruned_forbidden + st.pruned_cap + st.pruned_budget
    assert st.nodes == len(visited)
    assert st.leaves == sum(1 for w in visited if len(w) == max_len)
    assert st.nodes - 1 + pruned == tries
    assert st.max_depth == max(map(len, visited))
    if "forbidden_factors" not in kwargs:
        assert st.pruned_forbidden == 0
    if "pal_length_cap" not in kwargs:
        assert st.pruned_cap == 0
    if "pal_budget" not in kwargs:
        assert st.pruned_budget == 0


def test_walk_yields_the_tree_of_each_word():
    walk = PalWalk(ConstraintSet("abc", pal_budget=7), 6)
    for _, w in walk:
        assert set(walk.tree.palindromes()) | {""} == naive_pal_set(w)
        assert walk.tree.text == w


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize(
    "alphabet, kwargs, max_len",
    [
        ("ab", {}, 8),
        ("abc", {"pal_budget": 6}, 9),
        ("ab", {"forbidden_factors": frozenset({"aaa", "bb"})}, 10),
    ],
    ids=["plain", "budget", "forbidden"],
)
def test_leaves_carry_their_palindrome_counts(alphabet, kwargs, max_len, canonical):
    constraints = ConstraintSet(alphabet, **kwargs)
    walk = PalWalk(constraints, max_len, canonical=canonical)
    pairs = []
    for w, count in walk.leaves():
        assert walk.tree.text == w  # the tree is still the leaf's own
        assert count == len(naive_pal_set(w)), w
        pairs.append((w, count))
    assert pairs
    full = PalWalk(constraints, max_len, canonical=canonical)
    assert [w for w, _ in pairs] == [w for d, w in full if d == max_len]
    assert walk.stats.leaves == len(pairs)


def test_low_palindrome_words_budget4():
    rows = low_palindrome_words(4, 12, budget=4)
    assert rows == [("abcabcabcabc", 4)]


def test_low_palindrome_words_exhaustive_check():
    # Canonical enumeration with a generous budget agrees with brute force
    # over the two-letter space.
    rows = dict(low_palindrome_words(2, 6, budget=7))
    for s in all_words("ab", 6):
        canon = naive_renaming(s)
        if len(naive_pal_set(s)) <= 7:
            assert rows[canon] == len(naive_pal_set(s))
