"""Palindromic-factor analysis: reports, richness, returns, stabilization, closure."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .paltree import PalTree
from .streams import PrefixStream


@dataclass(frozen=True)
class _TreeListing:
    """The palindromes of a report, kept as the tree that found them.

    Nothing holds the sorted list: tree.palindromes() slices it, "" first,
    one length at a time, so a report costs its tree, not its output, which
    is quadratic in the text on rich words.
    """

    tree: PalTree = field(repr=False, compare=False)

    @property
    def palindromes(self) -> tuple[str, ...]:
        """Every palindrome in report order, built on each read."""
        return tuple(self.tree.palindromes())

    @property
    def pal_set(self) -> frozenset[str]:
        return frozenset(self.tree.palindromes())


@dataclass(frozen=True)
class PalReport(_TreeListing):
    """Distilled palindromic content of one finite word.

    The palindrome list always contains the empty word, is sorted by length
    then lexicographically, and is byte-stable for golden tests; it is read
    from the tree on demand (tree.palindromes(), palindromes), never stored.
    count, per_length and longest are computed when the report is made. The
    richness defect is (|w| + 1) - count and is never negative.
    """

    word_length: int
    count: int
    longest: str
    per_length: dict[int, int]

    @property
    def richness_defect(self) -> int:
        return self.word_length + 1 - self.count

    def to_record(self) -> dict:
        """The JSON record; its palindromes are an iterator in report order."""
        return {
            "word_length": self.word_length,
            "count": self.count,
            "longest": self.longest,
            "per_length": {str(k): v for k, v in sorted(self.per_length.items())},
            "palindromes": self.tree.palindromes(),
        }


def pal_set(s: str) -> PalReport:
    """Exact set of distinct palindromic factors of s, including the empty word.

    Runs in O(|s| * |alphabet|) time through the palindromic tree. The
    counts per length are one count over the node lengths, and the longest
    reported is the earliest to occur among those of maximal length.
    """
    tree = PalTree(s)
    n, ends = tree.longest_ends()
    return PalReport(
        tree=tree,
        word_length=len(s),
        count=tree.distinct_palindromes + 1,
        longest=s[ends[0] - n : ends[0]],
        per_length=tree.length_counts(),
    )


@dataclass(frozen=True)
class CompleteReturns:
    """Complete first returns to an anchor inside one finite word.

    A complete first return to v is a factor that begins and ends with v and
    contains exactly two occurrences of v. anchor_found is False when the
    anchor does not occur at all (the returns tuple is then empty).
    """

    anchor: str
    anchor_found: bool
    returns: tuple[str, ...]


def complete_first_returns(s: str, anchor: str) -> CompleteReturns:
    """All distinct complete first returns to the anchor in s, in order of
    appearance.

    Consecutive occurrence positions of the anchor delimit the returns: the
    span from one occurrence start to the next occurrence end contains
    exactly two occurrences of the anchor by construction.
    """
    if not anchor:
        raise ValueError("anchor must be non-empty")
    positions = []
    i = s.find(anchor)
    while i >= 0:
        positions.append(i)
        i = s.find(anchor, i + 1)
    if not positions:
        return CompleteReturns(anchor=anchor, anchor_found=False, returns=())
    seen: dict[str, None] = {}
    for prev, nxt in zip(positions, positions[1:]):
        seen.setdefault(s[prev : nxt + len(anchor)], None)
    return CompleteReturns(anchor=anchor, anchor_found=True, returns=tuple(seen))


@dataclass(frozen=True)
class StabilizedPalSet(_TreeListing):
    """Palindrome set of a stream under the doubling-window stopping rule.

    The scan keeps extending the prefix until no new palindrome has appeared
    between stable_horizon and checked_horizon >= 2 * stable_horizon, or the
    cap is hit first (stable is then False: "unstable-at-cap"). Whatever the
    flag, the set is exact for the scanned prefix; stability is only a
    conjecture for the infinite word. The tree holds the prefix's
    palindromes, listed on demand as in PalReport; longest is the last in
    report order: the lexicographically greatest of maximal length.
    """

    count: int
    longest: str
    stable_horizon: int
    checked_horizon: int
    stable: bool

    @property
    def flag(self) -> str:
        return "stable" if self.stable else "unstable-at-cap"

    def to_record(self) -> dict:
        """The JSON record; its palindromes are an iterator in report order."""
        return {
            "count": self.count,
            "longest": self.longest,
            "stable_horizon": self.stable_horizon,
            "checked_horizon": self.checked_horizon,
            "flag": self.flag,
            "palindromes": self.tree.palindromes(),
        }


def stabilized_pal_set(s: PrefixStream, cap: int = 16384) -> StabilizedPalSet:
    """Grow a prefix of s until its palindrome set survives a doubling window.

    The scan starts at horizon 16; whenever a new palindrome appears at
    horizon h it continues to at least 2h. Stops once the set is unchanged
    from stable_horizon up to checked_horizon >= 2 * stable_horizon, or at
    the cap. Each round reads its prefix afresh with prefix_text and feeds
    the tree the letters past the last round's. A horizon is more than
    twice the one two rounds before, so the rounds read fewer than four
    times the final horizon's letters: 32,752 for 16,384 on fibonacci.
    """
    start = 16
    if cap < 2 * start:
        raise ValueError(f"cap must be at least {2 * start}")
    tree = PalTree()
    fed = 0
    while True:
        target = min(cap, max(start, 2 * tree.last_growth))
        if fed >= target:
            break
        tree.extend(s.prefix_text(target)[fed:])
        fed = target
    stable_horizon = max(tree.last_growth, 1)
    stable = fed >= max(start, 2 * stable_horizon)
    text = tree.text
    n, ends = tree.longest_ends()
    return StabilizedPalSet(
        tree=tree,
        count=tree.distinct_palindromes + 1,
        longest=max(text[end - n : end] for end in ends),
        stable_horizon=stable_horizon,
        checked_horizon=fed,
        stable=stable,
    )


@dataclass(frozen=True)
class ClosureReport:
    """Window evidence for closure under reversal.

    For every factor u of prefix(horizon/2) of length up to k, the reversal
    of u must be a factor of prefix(horizon); each u whose reversal is not
    is listed with it, by length, then lexicographically. A missing pair
    refutes closure; an empty report supports (but cannot prove) it.
    closed_up_to is the largest length below which no reversal is missing.
    """

    k: int
    horizon: int
    witness_missing: tuple[tuple[str, str], ...]
    closed_up_to: int

    @property
    def closed(self) -> bool:
        return not self.witness_missing


def _factor_sets(text: str, k: int) -> Iterator[set[str]]:
    """The sets of factors of text of lengths 1, 2, ..., k, one at a time.

    text's length-k factors are sliced once; a length-n factor is the
    length-n prefix of one of them, or starts in the last k - 1 letters and
    lies inside them.
    """
    longest = {text[i : i + k] for i in range(len(text) - k + 1)}
    tail = text[len(text) - k + 1 :]
    for n in range(1, k + 1):
        yield {u[:n] for u in longest}.union(
            tail[i : i + n] for i in range(len(tail) - n + 1)
        )


def reversal_closure_check(
    s: PrefixStream, k: int, horizon: int = 4096
) -> ClosureReport:
    """Check the reversal of every short factor of the first half window.

    Each window, the first half and the whole prefix, is sliced into its
    length-k factors once: about 1.5 * horizon slices of k letters. Each
    shorter length's factors are read off those sets, one length at a time,
    at the cost of the sets' sizes, and a reversal is missing when it is
    not among the whole window's factors of its length: a set lookup, not
    a search of the window. Besides the prefix, the check holds the two
    windows' length-k sets and their sets of one length at a time, which
    grow with the word's factor complexity, not with the horizon.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if horizon < 4 * k:
        raise ValueError("horizon must be at least 4k")
    full = s.prefix_text(horizon)
    missing = []
    half_sets = _factor_sets(full[: horizon // 2], k)
    for found, seen in zip(half_sets, _factor_sets(full, k)):
        missing += [(u, u[::-1]) for u in sorted(found) if u[::-1] not in seen]
    return ClosureReport(
        k=k,
        horizon=horizon,
        witness_missing=tuple(missing),
        closed_up_to=len(missing[0][0]) - 1 if missing else k,
    )
