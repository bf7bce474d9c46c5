"""Shared independent oracles: deliberately naive, kept separate from the
library's own algorithms so the two routes never collapse into one."""

from itertools import product


def naive_pal_set(s: str) -> set[str]:
    """O(n^3) enumerate-all-factors-and-filter palindrome oracle."""
    out = {""}
    for i in range(len(s)):
        for j in range(i + 1, len(s) + 1):
            f = s[i:j]
            if f == f[::-1]:
                out.add(f)
    return out


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


def naive_occurrences(u: str, v: str) -> int:
    """Sliding-window occurrence counter."""
    return sum(1 for i in range(len(u) - len(v) + 1) if u[i : i + len(v)] == v)


def naive_least_period(s: str) -> int:
    """Try every p in 1..|s| directly against the definition."""
    for p in range(1, len(s) + 1):
        if all(s[i + p] == s[i] for i in range(len(s) - p)):
            return p
    raise AssertionError("unreachable: |s| is always a period")


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


def all_words(alphabet: str, n: int):
    for tup in product(alphabet, repeat=n):
        yield "".join(tup)
