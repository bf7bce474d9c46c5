"""Palindromic tree behaviour against the naive enumeration oracle."""

import random
import tracemalloc

import pytest

from palindromics import (
    ConstraintSet,
    PalTree,
    pal_set,
    paltree,
    resolve_generator,
)
from palindromics.generators import PRESETS
from palindromics.search import PalWalk

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
    grown = []
    for ch in "abcab":
        before = tree.node_count
        tree.extend(ch)
        grown.append(tree.node_count - before)
    assert grown == [1, 1, 1, 0, 0]  # a, b, c; then a and b come again
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
    """Everything a tree holds: its text, nodes, suffix links, first ends,
    suffix node, and the child list, up to the node count, of each letter
    with a child. A letter of the text has one: its own palindrome is the
    child of the length -1 root."""
    n = tree.node_count
    return (
        tree.text,
        list(tree.ends_by_length()),
        n,
        tree._len,
        tree._link,
        list(tree._first_end),
        tree._suffix,
        tree.last_growth,
        {ch: edges[:n] for ch, edges in tree._to.items() if any(edges[:n])},
    )


@pytest.mark.parametrize("alphabet, max_n", [("ab", 10), ("abc", 7)])
def test_extend_chunks_and_pushes_agree(alphabet, max_n):
    for n in range(max_n + 1):
        for s in all_words(alphabet, n):
            built = _state(PalTree(s))
            assert built[1] == naive_ends_by_length(s), s
            assert built[7] == naive_last_growth(s), s
            for k in range(n + 1):
                tree = PalTree(s[:k])
                tree.extend(s[k:])
                assert _state(tree) == built, (s, k)
            pushed = PalTree()
            for ch in s:
                pushed.extend(ch)
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
        assert built[7] == naive_last_growth(s), s
        for k in range(0, len(s) + 1, 7):
            tree = PalTree(s[:k])
            tree.extend(s[k:])
            assert _state(tree) == built, (s, k)
        pushed = PalTree()
        for ch in s:
            pushed.extend(ch)
        assert _state(pushed) == built, s


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
    # split extends restart both at each cut, and one-letter extends take
    # neither.
    text = LONG_TEXTS[name]
    rng = random.Random(name)
    whole = PalTree(text)
    cuts = sorted(rng.sample(range(1, len(text)), 8))
    split = PalTree(text[: cuts[0]])
    for a, b in zip(cuts, cuts[1:] + [len(text)]):
        split.extend(text[a:b])
    pushed = PalTree()
    for ch in text:
        pushed.extend(ch)
    assert _state(split) == _state(whole)
    assert _state(pushed) == _state(whole)
    if name in ("fibonacci", "fix(a->ab,b->ba,a)"):
        # Some cut splits a mirror run: the letters on both sides of it
        # make palindromes of lengths n and n + 2.
        made = _first_ends(whole)
        assert any(made.get(c, -9) + 2 == made.get(c + 1) for c in cuts)
    # Later letters read the suffix links and edges the three builds wrote.
    tail = "".join(rng.choice(sorted(set(text))) for _ in range(300))
    for ch in tail:
        for tree in (whole, split, pushed):
            tree.extend(ch)
        assert whole.node_count == split.node_count == pushed.node_count, name
    assert _state(split) == _state(whole) == _state(pushed)


def _naive_mirror_run(text, a, b, limit):
    """The greatest r <= limit with text[a + i] == text[b - 1 - i] for
    every i < r, one letter at a time."""
    r = 0
    while r < limit and text[a + r] == text[b - 1 - r]:
        r += 1
    return r


def test_mirror_run_matches_letter_by_letter():
    # u reversed, then u: from the middle m, letter m + i mirrors letter
    # m - 1 - i, so the run goes to its limit unless letter m + k is
    # flipped, which ends it at k. Runs past 2 * _PIECE letters take the
    # longest slice more than once.
    piece = paltree._PIECE
    rng = random.Random(27)
    u = "".join(rng.choice("ab") for _ in range(2 * piece + 300))
    m = len(u)
    text = u[::-1] + u
    for limit in (0, 1, 2, 3, 40, piece, 2 * piece + 1, m):
        assert paltree._mirror_run(text, m, m, limit) == limit
        assert _naive_mirror_run(text, m, m, limit) == limit
    for k in [*range(41), *range(piece - 4, piece + 5),
              *range(2 * piece - 4, 2 * piece + 5)]:
        flip = "b" if text[m + k] == "a" else "a"
        flipped = text[: m + k] + flip + text[m + k + 1 :]
        for limit in (0, 1, 2, k, k + 1, m):
            got = paltree._mirror_run(flipped, m, m, limit)
            assert got == _naive_mirror_run(flipped, m, m, limit), (k, limit)
            assert got == min(k, limit), (k, limit)
    # Seeded texts at random places: binary, and mostly a, whose runs are
    # long.
    for letters in ("ab", "a" * 30 + "b"):
        text = "".join(rng.choice(letters) for _ in range(5000))
        for _ in range(300):
            a = rng.randrange(len(text) + 1)
            b = rng.randrange(a + 1)
            limit = rng.randint(0, min(b, len(text) - a))
            got = paltree._mirror_run(text, a, b, limit)
            assert got == _naive_mirror_run(text, a, b, limit), (a, b, limit)


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


WALKS = {
    # name -> (constraints, max_len, canonical)
    "binary": (ConstraintSet("ab"), 12, False),
    "ternary": (ConstraintSet("abc"), 7, False),
    "forbidden": (
        ConstraintSet("ab", forbidden_factors=frozenset({"aaa", "bab"})),
        14, False),
    "cap": (ConstraintSet("abc", pal_length_cap=3), 9, False),
    "budget": (ConstraintSet("ab", pal_budget=9), 14, False),
    "budget-with-assumed": (
        ConstraintSet("ab", pal_budget=9, assumed_palindromes=frozenset(
            {"a", "b", "aa", "aba", "bab"})),
        14, False),
    "canonical": (ConstraintSet("abcd", pal_budget=6), 10, True),
    "eight-letters": (ConstraintSet("abcdefgh", pal_budget=9), 9, True),
}


@pytest.mark.parametrize("name", WALKS)
def test_walk_tree_is_the_tree_of_each_word(name):
    """The walk writes the tree's lists itself. At every word it yields,
    its tree is PalTree(word) in every list, and keeps the rules extend()
    keeps: each list longer than the node count and 0 past it."""
    constraints, max_len, canonical = WALKS[name]
    walk = PalWalk(constraints, max_len, canonical=canonical)
    tree = walk.tree
    assert sorted(tree._to) == sorted(constraints.alphabet)
    words = 0
    for _, w in walk:
        assert _state(tree) == _state(PalTree(w)), w
        n = tree.node_count
        for edges in tree._to.values():
            assert len(edges) > n and not any(edges[n:]), w
        words += 1
    assert _state(tree) == _state(PalTree())  # back to the empty word
    st = walk.stats
    if name == "binary":
        assert words == 2**13 - 1  # every binary word up to length 12
    elif name == "ternary":
        assert words == (3**8 - 1) // 2  # every ternary word up to length 7
    else:
        # Each constraint rejects letters, so rejected letters are covered.
        assert st.pruned_forbidden + st.pruned_cap + st.pruned_budget, name
        if "budget" in name:
            assert st.pruned_budget
        if name == "cap":
            assert st.pruned_cap
