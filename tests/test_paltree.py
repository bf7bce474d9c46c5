"""Palindromic tree behaviour against the naive enumeration oracle."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palindromics import PalTree, pal_set, paltree, resolve_generator
from palindromics.generators import PRESETS

from conftest import (
    all_words,
    naive_ends_by_length,
    naive_last_growth,
    naive_pal_set,
)


def test_empty_tree():
    tree = PalTree()
    assert tree.distinct_palindromes == 0
    assert tree.node_count == 2
    assert list(tree.palindromes()) == [""]
    assert list(tree.ends_by_length()) == [(0, [0])]


def test_incremental_growth_flags():
    tree = PalTree()
    assert tree.push("a") == 1       # a
    assert tree.push("b") == 1       # b
    assert tree.push("c") == 1       # c
    assert tree.push("a") == 0       # longest suffix palindrome is just a
    assert tree.push("b") == 0
    assert tree.distinct_palindromes == 3
    assert tree.last_growth == 3


def test_at_most_one_node_per_letter():
    for s in ("aababbaababb", "aaababaabaaa", "abcabcabc"):
        tree = PalTree()
        before = tree.node_count
        for ch in s:
            tree.extend(ch)
            assert tree.node_count - before <= 1
            before = tree.node_count


def _state(tree):
    return (
        tree.text,
        list(tree.ends_by_length()),
        tree.node_count,
        tree.suffix_node,
        tree.last_growth,
    )


@pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
def test_extend_chunks_and_pushes_agree(alphabet, max_n):
    for n in range(max_n + 1):
        for s in all_words(alphabet, n):
            built = _state(PalTree(s))
            assert built[1] == naive_ends_by_length(s), s
            assert built[4] == naive_last_growth(s), s
            for k in range(n + 1):
                tree = PalTree(s[:k])
                tree.extend(s[k:])
                assert _state(tree) == built, (s, k)
            pushed = PalTree()
            for ch in s:
                pushed.push(ch)
            assert _state(pushed) == built, s


def _seeded_words(alphabet, count, max_len, seed):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


EIGHT_LETTER_WORDS = [
    "abcdefgh",
    "hgfedcbaabcdefgh",
    "abacabadabacabaeabacabadabacabafabacabadabacabaeabacabadabacabagh",
    "aabbccddeeffgghhggffeeddccbbaa",
] + _seeded_words("abcdefgh", 40, 90, seed=8)


def test_extend_and_push_agree_on_eight_letters():
    # Each letter's child list is made when the letter first comes, and
    # the lists of all letters lengthen together as the nodes reach them.
    for s in EIGHT_LETTER_WORDS:
        built = _state(PalTree(s))
        assert built[1] == naive_ends_by_length(s), s
        assert built[4] == naive_last_growth(s), s
        for k in range(0, len(s) + 1, 7):
            tree = PalTree(s[:k])
            tree.extend(s[k:])
            assert _state(tree) == built, (s, k)
        pushed = PalTree()
        for ch in s:
            pushed.push(ch)
        assert _state(pushed) == built, s
        for k in range(len(s) - 1, -1, -1):
            pushed.pop()
            assert _state(pushed) == _state(PalTree(s[:k])), (s, k)


def _long_texts():
    """(id, text) pairs long enough for extend()'s window table and mirror
    runs: each preset once (aliases skipped) at 2^14 to 2^16 letters, the
    Thue-Morse word, two periodic words whose palindromic suffix is the
    whole prefix, the closed ternary word, seeded random texts over one to
    four letters, one random binary text that fills the window table, and
    a text that repeats 64-letter chunks, one of them after a new
    palindrome, aea, that begins before the chunk and ends in it."""
    specs = [name for name, ref in sorted(PRESETS.items()) if ref not in PRESETS]
    specs += ["fix(a->ab,b->ba,a)", "pow:a", "pow:ab", "revclose(U0=abcaab, inserts=[ac])"]
    for k, spec in enumerate(specs):
        yield spec, resolve_generator(spec).prefix_text(1 << (14 + k % 3))
    rng = random.Random(24)
    for k in range(1, 5):
        yield f"random-{k}", "".join(rng.choice("abcd"[:k]) for _ in range(1 << 14))
    n = 2 * paltree._SEEN * paltree._CHUNK
    yield "random-seen", "".join(rng.choice("ab") for _ in range(n))
    period = "abc" * 64 * 5
    yield "aea-across-a-chunk", period + "abc" * 20 + "bdae" + period


LONG_TEXTS = dict(_long_texts())


def _first_ends(tree):
    """Prefix length -> length of the palindrome first ending there."""
    return {end: n for n, ends in tree.ends_by_length() if n for end in ends}


@pytest.mark.parametrize("name", LONG_TEXTS)
def test_long_texts_agree_built_split_and_pushed(name):
    # One extend() takes the window table and mirror runs where they apply;
    # split extends restart both at each cut, and push() takes neither.
    text = LONG_TEXTS[name]
    rng = random.Random(name)
    whole = PalTree(text)
    cuts = sorted(rng.sample(range(1, len(text)), 8))
    split = PalTree(text[: cuts[0]])
    for a, b in zip(cuts, cuts[1:] + [len(text)]):
        split.extend(text[a:b])
    pushed = PalTree()
    for ch in text:
        pushed.push(ch)
    assert _state(split) == _state(whole)
    assert _state(pushed) == _state(whole)
    if name in ("fibonacci", "fix(a->ab,b->ba,a)"):
        # Some cut splits a mirror run: the letters on both sides of it
        # make palindromes of lengths n and n + 2.
        made = _first_ends(whole)
        assert any(made.get(c, -9) + 2 == made.get(c + 1) for c in cuts)
    # push() reads the suffix links and edges that extend() wrote.
    tail = "".join(rng.choice(sorted(set(text))) for _ in range(300))
    for ch in tail:
        grown = {whole.push(ch), split.push(ch), pushed.push(ch)}
        assert len(grown) == 1, (name, ch)
    assert _state(split) == _state(whole) == _state(pushed)


def test_peak_memory_with_few_palindromes():
    # A tree with few nodes holds one list entry per letter, 8 bytes; the
    # window table of extend() must stay bounded on top of it.
    text = resolve_generator("paperfolding").prefix_text(1 << 18)
    tracemalloc.start()
    try:
        tree = PalTree(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.distinct_palindromes == 28
    assert peak < 9 * len(text), peak / len(text)


def test_peak_memory_per_letter():
    # A dict per node costs about 320 bytes a letter on this rich word,
    # whose every letter creates a node; a dict of edges per letter about
    # 165; a list of children per letter, indexed by node, about 110.
    text = resolve_generator("fibonacci").prefix_text(1 << 16)
    tracemalloc.start()
    try:
        tree = PalTree(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.node_count == len(text) + 2
    assert peak <= 120 * len(text), peak / len(text)


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
    assert set(PalTree(word).palindromes()) == naive_pal_set(word)


@pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
def test_palindromes_in_report_order(alphabet, max_n):
    for n in range(max_n + 1):
        for s in all_words(alphabet, n):
            expected = sorted(naive_pal_set(s), key=lambda p: (len(p), p))
            assert list(PalTree(s).palindromes()) == expected, s


@pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
def test_ends_by_length_matches_oracle(alphabet, max_n):
    for n in range(max_n + 1):
        for s in all_words(alphabet, n):
            assert list(PalTree(s).ends_by_length()) == naive_ends_by_length(s), s


def test_oracle_equivalence_ternary():
    for n in range(10):
        for s in all_words("abc", n):
            assert pal_set(s).pal_set == naive_pal_set(s)


def test_extract_after_long_run():
    # Palindrome extraction uses first-occurrence positions, which must
    # survive later growth of the underlying buffer.
    tree = PalTree("abc" * 50)
    assert set(tree.palindromes()) == {"", "a", "b", "c"}


def _assert_same_as_fresh(tree, text):
    assert tree.text == text
    assert _state(tree) == _state(PalTree(text))
    assert set(tree.palindromes()) == naive_pal_set(text)
    assert tree.last_growth == naive_last_growth(text)


@st.composite
def undo_scripts(draw):
    """A base text built by extend, then rounds of (pop back to a depth no
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_push_pop_on_a_base_grown_by_extend(data):
    """Rounds of: extend the base by a chunk, push a word, pop back to the
    base. Each push and pop is checked against a fresh tree."""
    words = st.text(alphabet=data.draw(st.sampled_from(["ab", "abc"])), max_size=12)
    tree, base = PalTree(), ""
    for _ in range(data.draw(st.integers(1, 4))):
        chunk = data.draw(words)
        tree.extend(chunk)
        base += chunk
        _assert_same_as_fresh(tree, base)
        text = base
        for ch in data.draw(words):
            new = naive_pal_set(text + ch) - naive_pal_set(text)
            text += ch
            assert tree.push(ch) == max(map(len, new), default=0)
            _assert_same_as_fresh(tree, text)
        while len(text) > len(base):
            tree.pop()
            text = text[:-1]
            _assert_same_as_fresh(tree, text)


def test_push_of_a_letter_the_base_never_saw():
    # The base has child lists for a and b only; push makes the list for c,
    # and pop must leave a tree that grows on like a fresh one.
    base = "abaab"
    tree = PalTree(base)
    text = base
    for ch in "cacbc":
        text += ch
        new = naive_pal_set(text) - naive_pal_set(text[:-1])
        assert tree.push(ch) == max(map(len, new), default=0)
        _assert_same_as_fresh(tree, text)
    while text != base:
        tree.pop()
        text = text[:-1]
        _assert_same_as_fresh(tree, text)
    tree.extend("cbcabc")
    _assert_same_as_fresh(tree, base + "cbcabc")
