"""Word, alphabet, morphism and basic combinatorial operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palindromics import (
    Alphabet,
    IsoClass,
    Morphism,
    Word,
    alph,
    canonical_class,
    canonical_renaming,
    factors,
    least_period,
    max_run,
    occurrences,
)

from conftest import all_words, naive_least_period, naive_occurrences


class TestAlphabet:
    def test_sizes(self):
        assert Alphabet.of_size(1).symbols == "a"
        assert Alphabet.of_size(8).symbols == "abcdefgh"
        with pytest.raises(ValueError):
            Alphabet.of_size(0)
        with pytest.raises(ValueError):
            Alphabet.of_size(9)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("aba")

    def test_letters_outside_a_to_h_rejected(self):
        with pytest.raises(ValueError, match="not one of"):
            Alphabet("xy")
        with pytest.raises(ValueError):
            Alphabet("ai")

    def test_order_is_fixed(self):
        assert Alphabet("abc").index("c") == 2


class TestWord:
    def test_inference(self):
        assert Word("aababb").alphabet.symbols == "ab"
        assert Word("abc").alphabet.symbols == "abc"
        assert len(Word("")) == 0

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            Word("axb")
        with pytest.raises(ValueError):
            Word("abc", Alphabet("ab"))

    def test_slicing_and_concat(self):
        w = Word("aababb")
        assert w[1:4].text == "aba"
        assert (w + "ba").text == "aababbba"
        assert (w * 2).text == "aababbaababb"

    def test_equality_on_text(self):
        assert Word("ab", Alphabet("abc")) == Word("ab")
        assert len({Word("ab"), Word("ab", Alphabet("abcd"))}) == 1


class TestReverse:
    def test_definition(self):
        assert Word("aababb").reverse().text == "bbabaa"

    def test_empty(self):
        assert Word("").reverse().text == ""

    def test_palindrome_fixed_point(self):
        assert Word("aba").reverse().text == "aba"

    def test_involution(self):
        for s in ("a", "aab", "abcabc"):
            assert Word(s).reverse().reverse() == Word(s)


class TestOccurrences:
    def test_worked_example(self):
        # 0/1 rendered as a/b: the pattern 01 occurs twice in 0110010.
        assert occurrences(Word("abbaaba"), Word("ab")) == 2

    def test_overlapping(self):
        assert occurrences(Word("aaa"), Word("aa")) == 2

    def test_absent(self):
        assert occurrences(Word("abc"), Word("d", Alphabet("abcd"))) == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            occurrences(Word("ab"), Word(""))

    def test_against_sliding_window(self):
        patterns = [v for k in range(1, 5) for v in all_words("ab", k)]
        for n in range(13):
            for u in all_words("ab", n):
                for v in patterns:
                    if len(v) <= n:
                        assert occurrences(u, v) == naive_occurrences(u, v)


class TestLeastPeriod:
    def test_examples(self):
        assert least_period(Word("aababbaababb")) == 6
        assert least_period(Word("aaaa")) == 1
        assert least_period(Word("abaab")) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            least_period(Word(""))

    def test_bounded_by_length(self):
        assert least_period(Word("abc")) == 3

    def test_border_array_matches_brute_force(self):
        for n in range(1, 15):
            for s in all_words("ab", n):
                assert least_period(s) == naive_least_period(s)


class TestMaxRun:
    def test_paperfolding_prefix(self):
        assert max_run(Word("aabaabbaaabba"), "a") == 3

    def test_absent_letter(self):
        assert max_run(Word("bbb"), "a") == 0

    def test_short(self):
        assert max_run(Word("aabaa"), "a") == 2


class TestFactors:
    def test_direct(self):
        assert {w.text for w in factors(Word("aab"), 2)} == {"aa", "ab"}

    def test_empty_factor(self):
        assert factors(Word("abc"), 0) == {Word("")}

    def test_derived_scan(self):
        assert {w.text for w in factors(Word("aababb"), 4)} == {
            "aaba",
            "abab",
            "babb",
        }

    def test_too_long(self):
        assert factors(Word("ab"), 3) == set()


class TestCanonicalClass:
    def test_members_of_class(self):
        got = {w.text for w in canonical_class(Word("aababb")).members()}
        assert got == {"aababb", "bbabaa"}

    def test_single_letter_class(self):
        cls = canonical_class(Word("a", Alphabet("ab")))
        assert cls.canonical.text == "a"
        assert {w.text for w in cls.members()} == {"a", "b"}

    def test_swap_symmetric_pair(self):
        assert (
            canonical_class(Word("abba")).canonical
            == canonical_class(Word("baab")).canonical
        )

    def test_renaming_only_is_finer(self):
        # Renaming alone relabels by first occurrence; reversal is handled
        # only by the full class canonicalization.
        assert canonical_renaming(Word("ba")).text == "ab"
        assert canonical_renaming(Word("aababb")).text == "aababb"
        assert canonical_renaming(Word("bbabaa")).text == "aababb"
        assert canonical_renaming(Word("abb")).text == "abb"
        assert canonical_class(Word("abb")).canonical.text == "aab"

    def test_same_period_set(self):
        for m in canonical_class(Word("aababb")).members():
            assert least_period(m) == 6

    @given(
        st.text(alphabet="abcd", min_size=1, max_size=10),
        st.permutations("abcd"),
    )
    @settings(max_examples=300, deadline=None)
    def test_invariance_property(self, text, perm):
        w = Word(text, Alphabet("abcd"))
        table = str.maketrans("abcd", "".join(perm))
        renamed = Word(text.translate(table), Alphabet("abcd"))
        canon = canonical_class(w).canonical
        assert canonical_class(renamed).canonical == canon
        assert canonical_class(w.reverse()).canonical == canon
        # Idempotent: canonicalizing the canonical form changes nothing.
        assert canonical_class(canon).canonical == canon

    def test_membership_test(self):
        cls = canonical_class(Word("aababb"))
        assert Word("bbabaa") in cls
        assert Word("aabbab") not in cls


class TestMorphism:
    def test_parse_and_apply(self):
        m = Morphism.parse("a->a, b->bc")
        assert m.apply(Word("ab")).text == "abc"
        assert m.describe() == "a->a,b->bc"

    def test_images_cover_source(self):
        with pytest.raises(ValueError):
            Morphism({"a": "ab"}, source=Alphabet("ab"))

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism.parse("a->a, b->")

    def test_prolongable(self):
        m = Morphism.parse("a->ab, b->a")
        assert m.is_prolongable("a")
        assert not m.is_prolongable("b")
        assert not Morphism.parse("a->a, b->bc").is_prolongable("a")


def test_alph_in_alphabet_order():
    assert alph(Word("bab")) == "ab"
    assert alph(Word("cba")) == "abc"
