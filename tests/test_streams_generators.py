"""Generators: golden prefixes, recursion terms, stream algebra, spec parsing."""

import copy
import hashlib
import threading
import tracemalloc
from itertools import accumulate

import pytest

from conftest import (
    naive_fibonacci,
    naive_fixed_point,
    naive_image,
    naive_reversal_closure,
)

from palindromics import (
    FixedPointStream,
    ImageStream,
    Morphism,
    PeriodicStream,
    PrefixStream,
    ReversalClosureStream,
    ShiftedStream,
    UnknownGeneratorError,
    preset_names,
    resolve_generator,
)
from palindromics.generators import PRESETS

GOLDEN_PREFIXES = {
    "fibonacci": "abaababaabaababaababaabaab",
    "fib-bc": "abcaabcabcaabcaabcabcaabcabca",
    "fib-abbab": "aabbabaaabbabaabbabaaabbabaaabbab",
    "paperfolding": "aabaabbaaabbabbaaabaabbbaabbabbaaaba",
    "fold-pairswap": "ababbaababbabaabababbabaabbabaababab",
    "quadfold": "abcdbacdabdcbacdabcdbadcabdcba",
}


@pytest.mark.parametrize("name,expected", sorted(GOLDEN_PREFIXES.items()))
def test_golden_prefixes(name, expected):
    assert resolve_generator(name).prefix_text(len(expected)) == expected


def test_closed13_first_terms():
    stream = resolve_generator("closed13")
    u0 = "abaabbabaaabbaaba"
    assert stream.term(0) == u0
    assert stream.term(1) == u0 + "bbaa" + u0[::-1]
    assert stream.term(2) == (
        "abaabbabaaabbaababbaaabaabbaaababbaaba"
        "aabb"
        "abaabbabaaabbaabaaabbabaabbaaababbaaba"
    )


def test_maxpal5_recursion_shape():
    stream = resolve_generator("maxpal5")
    assert stream.term(0) == "aabb"
    assert stream.term(1) == "aabb" + "ab" + "bbaa"
    assert stream.term(2) == stream.term(1) + "ba" + stream.term(1)[::-1]


def test_maxpal5_second_term_has_fifteen_palindromes():
    from palindromics import pal_set

    report = pal_set(resolve_generator("maxpal5").term(2))
    assert report.count == 15
    assert report.pal_set == {
        "", "a", "b", "aa", "bb", "aaa", "aba", "bab", "bbb",
        "abba", "baab", "aabaa", "abbba", "baaab", "bbabb",
    }


# SHA-256 of each preset's first 65,536 letters, recorded from the hand-built
# streams the presets were before they became generator references.
PRESET_SHA256 = {
    "closed13": "46911a04bc6279db5274d9f3bf05f4730d1c59b6a72e103ba85b0b7f265b1d27",
    "fib": "4af2c196f1e5db0a718cbdab891b45d4990d2bf040d84b0ab63e09a23721dd95",
    "fib-abbab": "9f6b0a8f168e2601fc9d0372af51aedf525c8dbaf4d760613b9c93db37301f4a",
    "fib-bc": "0c1feca59e4e90e73ea44d118fa9864d33c1061da82ec2ed950b5aeb86dfabac",
    "fibonacci": "4af2c196f1e5db0a718cbdab891b45d4990d2bf040d84b0ab63e09a23721dd95",
    "fold": "ca75246a7b44626f458f117061b958987cea928c76e8ce2af6fbc1aeb1877882",
    "fold-pairswap": "dac5ae386ae45429a78be483a86a127d75240be80a25b6df650170dcf7aa9bbb",
    "maxpal5": "7a81de3fdc7b557309a8f8346e93a382ac39c5b35bb0a91db4eaf038f9ecabf4",
    "paperfolding": "ca75246a7b44626f458f117061b958987cea928c76e8ce2af6fbc1aeb1877882",
    "quadfold": "43512ae2282f432794f7f8a46b0e4642fc4f523b3b8d0f7cbcb495af6da06558",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_prefix_is_pinned(name):
    # A preset added without a pin, or a pin left for a removed one, fails.
    assert set(PRESET_SHA256) == set(PRESETS)
    text = resolve_generator(name).prefix_text(1 << 16)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name]


class TestPrefixMonotonicity:
    @pytest.mark.parametrize(
        "name",
        ["fibonacci", "fib-bc", "fib-abbab", "paperfolding", "fold-pairswap",
         "quadfold", "maxpal5", "closed13", "pow:aababb"],
    )
    def test_consecutive_prefixes_nest(self, name):
        stream = resolve_generator(name)
        prev = ""
        for n in range(1, 501):
            cur = stream.prefix_text(n)
            assert len(cur) == n
            assert cur.startswith(prev)
            prev = cur


class TestFixedPoint:
    def test_thue_morse_by_hand_iteration(self):
        m = Morphism.parse("a->ab, b->ba")
        assert FixedPointStream(m, "a").prefix_text(8) == "abbabaab"

    def test_constant(self):
        m = Morphism.parse("a->aa")
        assert FixedPointStream(m, "a").prefix_text(6) == "aaaaaa"

    def test_not_prolongable(self):
        with pytest.raises(ValueError, match="not prolongable"):
            FixedPointStream(Morphism.parse("a->ba, b->a"), "a")

    def test_fixed_point_property(self):
        m = Morphism.parse("a->ab, b->a")
        stream = FixedPointStream(m, "a")
        full = stream.prefix_text(1000)
        for n in range(1, 1001):
            prefix = full[:n]
            assert m.apply(prefix).startswith(prefix)

    def test_agrees_with_fibonacci_recurrence(self):
        expected = naive_fibonacci(500)
        morphic = FixedPointStream(Morphism.parse("a->ab, b->a"), "a")
        assert morphic.prefix_text(500) == expected
        assert resolve_generator("fibonacci").prefix_text(500) == expected


# name -> (images, seed) of fixed points, from fast- to slow-growing.
FIXED_POINTS = {
    "thue-morse": ({"a": "ab", "b": "ba"}, "a"),
    "fibonacci": ({"a": "ab", "b": "a"}, "a"),
    "slow": ({"a": "ab", "b": "b"}, "a"),
    "ternary": ({"a": "abc", "b": "ac", "c": "b"}, "a"),
}
# Growing requests on one stream, with repeats, one-letter steps and a step back.
REQUESTS = (1, 2, 2, 3, 7, 8, 9, 64, 65, 500, 499, 1000, 1001, 2500)


@pytest.mark.parametrize("name", sorted(FIXED_POINTS))
def test_fixed_point_prefixes_match_oracle(name):
    images, seed = FIXED_POINTS[name]
    stream = FixedPointStream(Morphism(images), seed)
    expected = naive_fixed_point(images, seed, max(REQUESTS))
    for n in REQUESTS:
        assert stream.prefix_text(n) == expected[:n], n


@pytest.mark.parametrize("ref", ["fib-abbab", "fib-bc"])
def test_image_prefixes_match_oracle(ref):
    # Both are images of the Fibonacci word, the fixed point of a->ab, b->a.
    stream = resolve_generator(ref)
    fibonacci = naive_fixed_point(FIXED_POINTS["fibonacci"][0], "a", max(REQUESTS))
    expected = naive_image(stream.morphism.images, fibonacci)
    for n in REQUESTS:
        assert stream.prefix_text(n) == expected[:n], n


def _rev(u):
    return u[::-1]


def _revcomp_ab(u):
    return u[::-1].translate(str.maketrans("ab", "ba"))


SLICE_LETTERS = 3000
PAPERFOLDING = naive_reversal_closure("a", ["a"], _revcomp_ab, SLICE_LETTERS + 7)
# spec -> its first 3,000 letters from a conftest oracle: one spec per form
# and transform, and shifts on and off a stretch boundary (paperfolding's
# lie at 1, 3, 7, ..., 2**k - 1, fibonacci's at 2, 3, 5, 8, ...).
SLICE_SPECS = {
    "pow:aababb": ("aababb" * SLICE_LETTERS)[:SLICE_LETTERS],
    "fix(a->ab,b->b,a)": "a" + "b" * (SLICE_LETTERS - 1),
    "fibonacci": naive_fibonacci(SLICE_LETTERS),
    "fib-abbab": naive_image(
        {"a": "a", "b": "abbab"}, naive_fibonacci(SLICE_LETTERS)
    )[:SLICE_LETTERS],
    "revclose(U0=ab, inserts=[c,ba], t=rev)": naive_reversal_closure(
        "ab", ["c", "ba"], _rev, SLICE_LETTERS
    ),
    "paperfolding": PAPERFOLDING[:SLICE_LETTERS],
    "revclose(U0=ab, inserts=[c,ba], t=id)": naive_reversal_closure(
        "ab", ["c", "ba"], lambda u: u, SLICE_LETTERS
    ),
    "shift(fibonacci,8)": naive_fibonacci(SLICE_LETTERS + 8)[8:],
    "shift(fibonacci,6)": naive_fibonacci(SLICE_LETTERS + 6)[6:],
    "shift(paperfolding,7)": PAPERFOLDING[7:],
    "shift(paperfolding,5)": PAPERFOLDING[5 : SLICE_LETTERS + 5],
}
# Ranges inside, across and at the ends of stretches.
SLICE_RANGES = [
    (0, 0), (5, 5), (0, 1), (1, 2), (2, 3), (3, 10), (6, 9), (7, 8),
    (1596, 1598), (2047, 2049), (2583, 2585), (100, 2500), (2999, 3000),
    (0, 3000),
]


def test_prefix_slices_match_oracle():
    for spec, full in SLICE_SPECS.items():
        stream = resolve_generator(spec)
        for i, j in SLICE_RANGES:
            assert stream.prefix_text(j)[i:] == full[i:j], (spec, i, j)


def test_shifted_image_prefixes_match_oracle():
    # The shifted stream reads its image stream from letter 5 on, and the
    # image stream reads the Fibonacci word a range at a time.
    stream = resolve_generator("shift(fib-bc,5)")
    fibonacci = naive_fixed_point(FIXED_POINTS["fibonacci"][0], "a", max(REQUESTS) + 5)
    expected = naive_image({"a": "a", "b": "bc"}, fibonacci)[5:]
    for n in REQUESTS:
        assert stream.prefix_text(n) == expected[:n], n


@pytest.mark.parametrize("ref", ["fib-abbab", "fold-pairswap", "fib-bc"])
def test_image_reads_only_the_inner_letters_it_needs(ref, monkeypatch):
    # A read maps fewer than one piece (4,096) of inner letters past the
    # fewest whose images cover the request. At 2**18 letters those are
    # 103,702, 131,072 and 189,689, and the inner stretches covering them
    # end more than a piece later (fibonacci's at 121,393 and 196,418,
    # paperfolding's at 262,143), so a read that mapped whole inner
    # stretches would fail here.
    stream = resolve_generator(ref)
    n = 2**18
    images = stream.morphism.images
    covered = accumulate(len(images[c]) for c in stream.inner.prefix_text(n))
    needed = next(i for i, total in enumerate(covered, 1) if total >= n)
    mapped = 0
    apply = Morphism.apply

    def counting_apply(self, s):
        nonlocal mapped
        if self is stream.morphism:
            mapped += len(s)
        return apply(self, s)

    monkeypatch.setattr(Morphism, "apply", counting_apply)
    assert len(stream.prefix_text(n)) == n
    assert needed <= mapped < needed + 4096


def _state(obj):
    """What a stream holds, its inner streams and morphisms included, as
    plain values that compare by content."""
    if isinstance(obj, PrefixStream):
        return {key: _state(value) for key, value in vars(obj).items()}
    if isinstance(obj, Morphism):
        return dict(obj.images)
    return copy.deepcopy(obj)


@pytest.mark.parametrize("ref", sorted(PRESETS) + ["pow:ab", "shift(fib-bc,5)"])
def test_reads_leave_the_stream_unchanged(ref):
    stream = resolve_generator(ref)
    before = _state(stream)
    stream.prefix_text(5000)
    assert _state(stream) == before


@pytest.mark.parametrize(
    "ref",
    sorted(PRESETS)
    + ["shift(paperfolding,1000)", "image(pairswap, shift(fib-abbab,7))",
       "fix(a->ab,b->b,a)"],
)
def test_prefix_peak_memory_is_a_few_bytes_a_letter(ref):
    stream = resolve_generator(ref)
    n = 2**18
    tracemalloc.start()
    try:
        stream.prefix_text(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n


class TestImage:
    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            ImageStream(Morphism.parse("a->ab, b->ba"), PeriodicStream("abc"))

    def test_letterwise(self):
        m = Morphism.parse("a->ab, b->ba")
        assert ImageStream(m, PeriodicStream("ab")).prefix_text(8) == "abbaabba"


class TestPaperfolding:
    def test_first_terms(self):
        stream = resolve_generator("paperfolding")
        assert stream.term(1) == "aab"
        assert stream.term(2) == "aabaabb"

    def test_term_lengths(self):
        stream = resolve_generator("paperfolding")
        for n in range(13):
            assert len(stream.term(n)) == 2 ** (n + 1) - 1

    def test_terms_are_prefixes(self):
        stream = resolve_generator("paperfolding")
        for n in range(10):
            assert stream.term(n + 1).startswith(stream.term(n))


class TestPeriodic:
    def test_prefix(self):
        assert PeriodicStream("abc").prefix_text(7) == "abcabca"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PeriodicStream("")


class TestShift:
    def test_periodic_shift(self):
        assert ShiftedStream(PeriodicStream("ab"), 1).prefix_text(4) == "baba"

    def test_zero_shift_is_same_stream(self):
        s = PeriodicStream("ab")
        assert ShiftedStream(s, 0).prefix_text(9) == s.prefix_text(9)

    def test_fibonacci_shift(self):
        s = ShiftedStream(resolve_generator("fibonacci"), 1)
        assert s.prefix_text(5) == "baaba"

    def test_nested_shifts_flatten(self):
        s = resolve_generator("shift(shift(fibonacci,2),3)")
        assert s.prefix_text(10) == resolve_generator("fibonacci").prefix_text(15)[5:]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ShiftedStream(PeriodicStream("ab"), -1)
        with pytest.raises(ValueError, match="non-negative"):
            resolve_generator("shift(fibonacci,-1)")


class TestReversalClosure:
    def test_identity_transform(self):
        s = ReversalClosureStream("ab", ["c"], transform="id")
        assert s.prefix_text(8) == "abcabcab"[:8]

    def test_bad_transform(self):
        with pytest.raises(ValueError):
            ReversalClosureStream("ab", ["c"], transform="mirror")

    def test_closure_by_construction(self):
        # With plain reversal every term is closed under reversal: the factor
        # set of each term contains the reversal of each of its factors.
        from palindromics import reversal_closure_check

        for name in ("quadfold", "maxpal5", "closed13"):
            report = reversal_closure_check(
                resolve_generator(name), k=8, horizon=4096
            )
            assert report.witness_missing == ()

    def test_negative_term_index_rejected(self):
        stream = resolve_generator("closed13")
        stream.prefix_text(1000)
        message = "^term index must be non-negative, got -1$"
        with pytest.raises(ValueError, match=message):
            stream.term(-1)


class TestSpecParsing:
    def test_pow(self):
        assert resolve_generator("pow(aababb)").prefix_text(12) == "aababbaababb"

    def test_image_named(self):
        s = resolve_generator("image(bc, fib)")
        assert s.prefix_text(29) == GOLDEN_PREFIXES["fib-bc"]

    def test_image_inline(self):
        s = resolve_generator("image(a->a,b->abbab, fib)")
        assert s.prefix_text(33) == GOLDEN_PREFIXES["fib-abbab"]

    def test_fix(self):
        s = resolve_generator("fix(a->ab,b->ba, a)")
        assert s.prefix_text(8) == "abbabaab"

    def test_revclose(self):
        s = resolve_generator(
            "revclose(U0=abaabbabaaabbaaba, inserts=[bbaa,aabb], t=rev)"
        )
        assert s.prefix_text(38) == resolve_generator("closed13").prefix_text(38)

    def test_shift_nested(self):
        s = resolve_generator("shift(image(bc, fib), 2)")
        assert s.prefix_text(10) == GOLDEN_PREFIXES["fib-bc"][2:12]

    def test_unknown_preset(self):
        with pytest.raises(UnknownGeneratorError):
            resolve_generator("nonsense")

    def test_unknown_morphism_names_the_known_ones(self):
        with pytest.raises(UnknownGeneratorError) as err:
            resolve_generator("image( nope , fibonacci)")
        assert str(err.value) == (
            "unknown morphism 'nope'; named morphisms: abbab, bc, pairswap"
        )

    def test_unknown_form(self):
        with pytest.raises(UnknownGeneratorError):
            resolve_generator("spiral(ab)")

    def test_preset_listing(self):
        names = preset_names()
        assert "paperfolding" in names
        assert "pow:<word>" in names


def test_concurrent_prefix_requests_consistent():
    stream = resolve_generator("paperfolding")
    results = {}

    def worker(n):
        results[n] = stream.prefix_text(n)

    threads = [threading.Thread(target=worker, args=(n,)) for n in
               (100, 500, 1000, 2000, 3000)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    full = stream.prefix_text(3000)
    for n, text in results.items():
        assert text == full[:n]
