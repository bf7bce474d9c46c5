"""Shared independent oracles: deliberately naive, kept separate from the
library's own algorithms so the two routes never collapse into one."""

import os
from itertools import product

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: more examples than the default 100,
# and a failure prints a blob that @reproduce_failure replays locally.
# Tests that set their own max_examples keep it.
settings.register_profile("ci", print_blob=True, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def naive_pal_set(s: str) -> set[str]:
    """O(n^3) enumerate-all-factors-and-filter palindrome oracle."""
    out = {""}
    for i in range(len(s)):
        for j in range(i + 1, len(s) + 1):
            f = s[i:j]
            if f == f[::-1]:
                out.add(f)
    return out


def naive_broken(w, forbidden=(), cap=None, budget=None, assumed=()):
    """The first constraint w breaks, in the order forbidden factor,
    palindrome length cap, palindrome budget (charged for the assumed
    palindromes, epsilon and those of w), or None; checked whole-word."""
    if any(f in w for f in forbidden):
        return "forbidden"
    pals = naive_pal_set(w)
    if cap is not None and max(map(len, pals)) > cap:
        return "cap"
    if budget is not None and len(set(assumed) | pals) > budget:
        return "budget"
    return None


def naive_earliest_longest(s: str) -> str:
    """The longest palindromic factor, ties to the leftmost start, found by
    trying every factor from the longest length down."""
    for length in range(len(s), 0, -1):
        for i in range(len(s) - length + 1):
            f = s[i : i + length]
            if f == f[::-1]:
                return f
    return ""


def naive_pals_by_first_end(s: str) -> list[str]:
    """Distinct non-empty palindromic factors, ordered by the end position
    of their first occurrence, found by trying every factor."""
    first_end: dict[str, int] = {}
    for end in range(1, len(s) + 1):
        for start in range(end):
            f = s[start:end]
            if f == f[::-1]:
                first_end.setdefault(f, end)
    return sorted(first_end, key=first_end.__getitem__)


def naive_ends_by_length(s: str) -> list[tuple[int, list[int]]]:
    """(n, first ends of the palindromes of length n) for each length n,
    (0, [0]) for the empty word first, each list in order of first end;
    grouped from naive_pals_by_first_end."""
    groups: dict[int, list[int]] = {0: [0]}
    for p in naive_pals_by_first_end(s):
        groups.setdefault(len(p), []).append(s.index(p) + len(p))
    return sorted(groups.items())


def naive_last_growth(s: str) -> int:
    """The prefix length at which the set of distinct palindromic factors
    last grew (0 for a word without one), found by trying every factor in
    order of its end."""
    seen: set[str] = set()
    last = 0
    for end in range(1, len(s) + 1):
        for start in range(end):
            f = s[start:end]
            if f == f[::-1] and f not in seen:
                seen.add(f)
                last = end
    return last


def naive_missing_reversals(text: str, k: int) -> list[tuple[str, str]]:
    """(u, reversal of u) for every factor u of the first half of text, of
    length 1..k, whose reversal matches no window of text; by length, then
    lexicographically."""
    half = text[: len(text) // 2]
    factors = {
        half[i : i + n] for n in range(1, k + 1) for i in range(len(half) - n + 1)
    }
    out = []
    for u in sorted(factors, key=lambda f: (len(f), f)):
        r = u[::-1]
        if not any(text[i : i + len(r)] == r for i in range(len(text) - len(r) + 1)):
            out.append((u, r))
    return out


def naive_occurrences(u: str, v: str) -> int:
    """Sliding-window occurrence counter."""
    return sum(1 for i in range(len(u) - len(v) + 1) if u[i : i + len(v)] == v)


def naive_least_period(s: str) -> int:
    """Try every p in 1..|s| directly against the definition."""
    for p in range(1, len(s) + 1):
        if all(s[i + p] == s[i] for i in range(len(s) - p)):
            return p
    raise AssertionError("unreachable: |s| is always a period")


def naive_renaming(s: str) -> str:
    """Relabel the letters of s a, b, c, ... in order of first occurrence."""
    first_seen: list[str] = []
    for ch in s:
        if ch not in first_seen:
            first_seen.append(ch)
    return "".join("abcdefgh"[first_seen.index(ch)] for ch in s)


def naive_complete_first_returns(w: str, v: str) -> set[str]:
    """Every factor of w that begins and ends with v and holds exactly two
    occurrences of v."""
    out = set()
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            f = w[i:j]
            if (
                f.startswith(v)
                and f.endswith(v)
                and naive_occurrences(f, v) == 2
            ):
                out.add(f)
    return out


def naive_image(images: dict[str, str], s: str) -> str:
    """The letterwise image of s, one letter at a time."""
    out = ""
    for ch in s:
        out += images[ch]
    return out


def naive_fixed_point(images: dict[str, str], seed: str, n: int) -> str:
    """The first n letters of the fixed point of a morphism prolongable at
    seed, by applying the whole morphism to seed until n letters exist."""
    w = seed
    while len(w) < n:
        w = naive_image(images, w)
    return w[:n]


def naive_reversal_closure(u0: str, inserts: list[str], t, n: int) -> str:
    """The first n letters of the limit of U(k+1) = U(k) . x(k) . t(U(k)),
    U(0) = u0, the inserts x(k) taken in turn; t is a function on words.
    Builds whole terms until one has n letters."""
    u, k = u0, 0
    while len(u) < n:
        u = u + inserts[k % len(inserts)] + t(u)
        k += 1
    return u[:n]


def naive_fibonacci(n: int) -> str:
    """The first n letters of the Fibonacci word, by the concatenation
    recurrence f(1) = a, f(2) = ab, f(k+1) = f(k) f(k-1)."""
    prev, cur = "a", "ab"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def all_words(alphabet: str, n: int):
    for tup in product(alphabet, repeat=n):
        yield "".join(tup)
