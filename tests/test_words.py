"""Alphabets, letter checks, morphisms and basic combinatorial operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palindromics import (
    Morphism,
    alphabet,
    alphabet_of,
    canonical_form,
    enumerate_words,
    iso_class,
    least_period,
)

from conftest import all_words, naive_least_period, naive_renaming


class TestAlphabet:
    def test_sizes(self):
        assert alphabet("1") == "a"
        assert alphabet("8") == "abcdefgh"
        with pytest.raises(ValueError, match="size must be 1..8"):
            alphabet("0")
        with pytest.raises(ValueError, match="size must be 1..8"):
            alphabet("9")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            alphabet("aba")

    def test_letters_outside_a_to_h_rejected(self):
        with pytest.raises(ValueError, match="not one of"):
            alphabet("xy")
        with pytest.raises(ValueError):
            alphabet("ai")

    def test_order_is_fixed(self):
        # The letters keep the order given, and it is the enumeration order.
        assert alphabet("ba") == "ba"
        assert list(enumerate_words(alphabet("ba"), 1)) == ["b", "a"]


class TestAlphabetOf:
    def test_inference(self):
        assert alphabet_of("aababb") == "ab"
        assert alphabet_of("abc") == "abc"
        assert alphabet_of("c") == "abc"
        assert alphabet_of("") == "a"

    def test_bad_letters(self):
        with pytest.raises(ValueError, match="letter 'x' is not one of 'abcdefgh'"):
            alphabet_of("axb")
        with pytest.raises(ValueError, match="letter 'A'"):
            alphabet_of("abA")


class TestLeastPeriod:
    def test_examples(self):
        assert least_period("aababbaababb") == 6
        assert least_period("aaaa") == 1
        assert least_period("abaab") == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            least_period("")

    def test_bounded_by_length(self):
        assert least_period("abc") == 3

    def test_border_array_matches_brute_force(self):
        for n in range(1, 15):
            for s in all_words("ab", n):
                assert least_period(s) == naive_least_period(s)


class TestCanonicalClass:
    def test_members_of_class(self):
        assert iso_class("aababb", "ab") == {"aababb", "bbabaa"}
        # The class is exactly the words of one canonical form.
        for s in all_words("ab", 6):
            assert iso_class(s, "ab") == {
                t for t in all_words("ab", 6) if canonical_form(t) == canonical_form(s)
            }

    def test_single_letter_class(self):
        assert canonical_form("a") == "a"
        assert iso_class("a", "ab") == {"a", "b"}

    def test_swap_symmetric_pair(self):
        assert canonical_form("abba") == canonical_form("baab")

    def test_renaming_only_is_finer(self):
        # Renaming alone relabels by first occurrence; the canonical form
        # also takes the reversal, so it can merge words renaming keeps apart.
        assert naive_renaming("abb") == "abb"
        assert canonical_form("abb") == "aab"
        for n in range(7):
            for s in all_words("abc", n):
                assert canonical_form(s) == min(
                    naive_renaming(s), naive_renaming(s[::-1])
                )

    def test_same_period_set(self):
        for m in iso_class("aababb", "ab"):
            assert least_period(m) == 6

    @given(
        st.text(alphabet="abcd", min_size=1, max_size=10),
        st.permutations("abcd"),
    )
    @settings(max_examples=300, deadline=None)
    def test_invariance_property(self, text, perm):
        renamed = text.translate(str.maketrans("abcd", "".join(perm)))
        canon = canonical_form(text)
        assert canonical_form(renamed) == canon
        assert canonical_form(text[::-1]) == canon
        # Idempotent: canonicalizing the canonical form changes nothing.
        assert canonical_form(canon) == canon

    def test_membership_test(self):
        assert canonical_form("bbabaa") == canonical_form("aababb")
        assert canonical_form("aabbab") != canonical_form("aababb")
        assert "bbabaa" in iso_class("aababb", "ab")
        assert "aabbab" not in iso_class("aababb", "ab")


class TestMorphism:
    def test_parse_and_apply(self):
        m = Morphism.parse("a->a, b->bc")
        assert m.apply("ab") == "abc"
        assert m.describe() == "a->a,b->bc"

    def test_images_cover_source(self):
        with pytest.raises(ValueError, match="cover exactly the source alphabet 'abc'"):
            Morphism({"a": "ab", "c": "c"})

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism.parse("a->a, b->")

    def test_prolongable(self):
        m = Morphism.parse("a->ab, b->a")
        assert m.is_prolongable("a")
        assert not m.is_prolongable("b")
        assert not Morphism.parse("a->a, b->bc").is_prolongable("a")
