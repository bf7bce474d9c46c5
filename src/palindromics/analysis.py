"""Palindromic-factor analysis: reports, richness, returns, stabilization, closure."""

from __future__ import annotations

from dataclasses import dataclass

from .paltree import PalTree
from .streams import PrefixStream


def _sorted_pals(pals) -> tuple[str, ...]:
    # Canonical report order: by length, then lexicographic; "" (epsilon) first.
    # pals must be distinct; the tree lists each palindrome once.
    return tuple(sorted(pals, key=lambda p: (len(p), p)))


@dataclass(frozen=True)
class PalReport:
    """Distilled palindromic content of one finite word.

    The palindrome list always contains the empty word, is sorted by length
    then lexicographically, and is byte-stable for golden tests. The
    richness defect is (|w| + 1) - count and is never negative.
    """

    word_length: int
    palindromes: tuple[str, ...]
    count: int
    longest: str
    per_length: dict[int, int]
    richness_defect: int

    @property
    def pal_set(self) -> frozenset[str]:
        return frozenset(self.palindromes)

    def to_record(self) -> dict:
        return {
            "word_length": self.word_length,
            "count": self.count,
            "longest": self.longest,
            "per_length": {str(k): v for k, v in sorted(self.per_length.items())},
            "palindromes": list(self.palindromes),
        }


def pal_set(s: str) -> PalReport:
    """Exact set of distinct palindromic factors of s, including the empty word.

    Runs in O(|s| * |alphabet|) time through the palindromic tree. The tree
    lists palindromes in order of first occurrence, so the longest reported
    is the earliest to occur among those of maximal length.
    """
    found = PalTree(s).palindromes()
    pals = _sorted_pals(("", *found))
    per_length: dict[int, int] = {}
    for p in pals:
        per_length[len(p)] = per_length.get(len(p), 0) + 1
    return PalReport(
        word_length=len(s),
        palindromes=pals,
        count=len(pals),
        longest=max(found, key=len, default=""),
        per_length=per_length,
        richness_defect=len(s) + 1 - len(pals),
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
class StabilizedPalSet:
    """Palindrome set of a stream under the doubling-window stopping rule.

    The scan keeps extending the prefix until no new palindrome has appeared
    between stable_horizon and checked_horizon >= 2 * stable_horizon, or the
    cap is hit first (stable is then False: "unstable-at-cap"). Whatever the
    flag, the set is exact for the scanned prefix; stability is only a
    conjecture for the infinite word.
    """

    palindromes: tuple[str, ...]
    count: int
    stable_horizon: int
    checked_horizon: int
    stable: bool

    @property
    def pal_set(self) -> frozenset[str]:
        return frozenset(self.palindromes)

    @property
    def flag(self) -> str:
        return "stable" if self.stable else "unstable-at-cap"

    @property
    def longest(self) -> str:
        return self.palindromes[-1] if self.palindromes else ""

    def to_record(self) -> dict:
        return {
            "count": self.count,
            "longest": self.longest,
            "stable_horizon": self.stable_horizon,
            "checked_horizon": self.checked_horizon,
            "flag": self.flag,
            "palindromes": list(self.palindromes),
        }


def stabilized_pal_set(s: PrefixStream, cap: int = 16384) -> StabilizedPalSet:
    """Grow a prefix of s until its palindrome set survives a doubling window.

    The scan starts at horizon 16; whenever a new palindrome appears at
    horizon h it continues to at least 2h. Stops once the set is unchanged
    from stable_horizon up to checked_horizon >= 2 * stable_horizon, or at
    the cap.
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
    pals = _sorted_pals(("", *tree.palindromes()))
    return StabilizedPalSet(
        palindromes=pals,
        count=len(pals),
        stable_horizon=stable_horizon,
        checked_horizon=fed,
        stable=stable,
    )


@dataclass(frozen=True)
class ClosureReport:
    """Window evidence for closure under reversal.

    Every factor of prefix(horizon/2) of length up to k is searched, reversed,
    in prefix(horizon). A missing pair refutes closure; an empty report
    supports (but cannot prove) it. closed_up_to is the largest length below
    which no reversal is missing.
    """

    k: int
    horizon: int
    witness_missing: tuple[tuple[str, str], ...]
    closed_up_to: int

    @property
    def closed(self) -> bool:
        return not self.witness_missing

    def to_record(self) -> dict:
        return {
            "k": self.k,
            "horizon": self.horizon,
            "witness_missing": [list(pair) for pair in self.witness_missing],
            "closed_up_to": self.closed_up_to,
        }


def reversal_closure_check(
    s: PrefixStream, k: int, horizon: int = 4096
) -> ClosureReport:
    """Search the reversal of every short factor of the first half window.

    The factors are gathered one length at a time, shortest first, so the
    window holds the factors of a single length at once.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if horizon < 4 * k:
        raise ValueError("horizon must be at least 4k")
    full = s.prefix_text(horizon)
    half = full[: horizon // 2]
    missing = []
    for n in range(1, k + 1):
        for u in sorted({half[i : i + n] for i in range(len(half) - n + 1)}):
            if u[::-1] not in full:
                missing.append((u, u[::-1]))
    return ClosureReport(
        k=k,
        horizon=horizon,
        witness_missing=tuple(missing),
        closed_up_to=len(missing[0][0]) - 1 if missing else k,
    )
