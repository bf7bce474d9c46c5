"""Palindromic tree behaviour against the naive enumeration oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palindromics import PalTree, Word, pal_set

from conftest import all_words, naive_pal_set, naive_pals_by_first_end


def test_empty_tree():
    tree = PalTree()
    assert tree.distinct_palindromes == 0
    assert tree.node_count == 2
    assert tree.palindromes() == []


def test_incremental_growth_flags():
    tree = PalTree()
    assert tree.append("a") is True       # a
    assert tree.append("b") is True       # b
    assert tree.append("c") is True       # c
    assert tree.append("a") is False      # longest suffix palindrome is just a
    assert tree.append("b") is False
    assert tree.distinct_palindromes == 3
    assert tree.last_growth == 3


def test_at_most_one_node_per_letter():
    for s in ("aababbaababb", "aaababaabaaa", "abcabcabc"):
        tree = PalTree()
        before = tree.node_count
        for ch in s:
            tree.append(ch)
            assert tree.node_count - before <= 1
            before = tree.node_count


def test_node_count_matches_pal_set():
    for n in range(11):
        for s in all_words("ab", n):
            tree = PalTree(s)
            assert tree.distinct_palindromes == len(naive_pal_set(s)) - 1


@pytest.mark.parametrize(
    "word",
    ["", "a", "ab", "aababbaababb", "aaababaabaaa", "abacaba", "aabbaabb"],
)
def test_pal_strings_match_oracle(word):
    assert set(PalTree(word).palindromes()) | {""} == naive_pal_set(word)


@pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
def test_palindromes_in_first_occurrence_order(alphabet, max_n):
    for n in range(max_n + 1):
        for s in all_words(alphabet, n):
            assert PalTree(s).palindromes() == naive_pals_by_first_end(s), s


def test_oracle_equivalence_ternary():
    for n in range(10):
        for s in all_words("abc", n):
            assert pal_set(s).pal_set == naive_pal_set(s)


def test_extract_after_long_run():
    # Palindrome extraction uses first-occurrence positions, which must
    # survive later growth of the underlying buffer.
    tree = PalTree("abc" * 50)
    assert set(tree.palindromes()) == {"a", "b", "c"}


def _assert_same_as_fresh(tree, text):
    fresh = PalTree(text)
    assert tree.text == text
    assert tree.node_count == fresh.node_count
    assert tree.palindromes() == fresh.palindromes()
    assert tree.last_growth == fresh.last_growth
    assert tree.suffix_node == fresh.suffix_node
    assert set(tree.palindromes()) | {""} == naive_pal_set(text)


@st.composite
def undo_scripts(draw):
    """A base text built by append, then rounds of (pop back to a depth no
    shallower than the base, push a word)."""
    words = st.text(alphabet=draw(st.sampled_from(["ab", "abc"])), max_size=16)
    base = draw(words)
    rounds = draw(
        st.lists(st.tuples(st.integers(0, 32), words), min_size=1, max_size=6)
    )
    return base, rounds


@settings(max_examples=200, deadline=None)
@given(undo_scripts())
def test_pop_restores_the_tree_of_the_prefix(script):
    base, rounds = script
    tree = PalTree(base)
    text = base
    for depth, word in rounds:
        while len(text) > max(depth, len(base)):
            tree.pop()
            text = text[:-1]
            _assert_same_as_fresh(tree, text)
        for ch in word:
            before = naive_pal_set(text)
            text += ch
            new = naive_pal_set(text) - before
            # At most one new palindrome per letter, and push reports its length.
            assert tree.push(ch) == max(map(len, new), default=0)
            _assert_same_as_fresh(tree, text)
