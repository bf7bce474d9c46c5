"""Constraint-pruned depth-first word enumeration and parametric word families.

All predicates used for pruning are prefix-closed: a forbidden factor, an
exhausted palindrome budget or an over-long palindrome can never disappear by
appending letters. Required factors are the one non-prefix-closed constraint
and are treated as a condition that must hold by the time evidence is
collected, not as a pruning rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .paltree import PalTree
from .words import Alphabet, Word, _text

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class FamilyTemplate:
    """Words of the shape prefix . block^n . suffix for n >= n_min."""

    prefix: str
    block: str
    suffix: str
    n_min: int = 0

    def __post_init__(self):
        if not self.block:
            raise ValueError("family block must be non-empty")
        if self.n_min < 0:
            raise ValueError("n_min must be non-negative")

    def matches(self, word: str) -> bool:
        fixed = len(self.prefix) + len(self.suffix)
        body = len(word) - fixed
        if body < 0 or body % len(self.block):
            return False
        n = body // len(self.block)
        if n < self.n_min:
            return False
        return word == self.prefix + self.block * n + self.suffix

    def instance(self, n: int) -> str:
        return self.prefix + self.block * n + self.suffix

    def describe(self) -> str:
        return f"{self.prefix}({self.block})^n{self.suffix} for n>={self.n_min}"


def matches_any(word: str, families) -> bool:
    return any(f.matches(word) for f in families)


@dataclass(frozen=True)
class ConstraintSet:
    """Prefix-checkable word constraints for bounded searches.

    forbidden_factors, pal_budget and pal_length_cap prune during the search;
    required_factors is checked on the words evidence is drawn from. The
    assumed_palindromes set models palindromes known to occur elsewhere in
    the (infinite) word under study: the budget is charged for the union of
    the assumed set and the palindromes actually present in the search word.
    """

    alphabet: Alphabet
    forbidden_factors: frozenset[str] = frozenset()
    required_factors: frozenset[str] = frozenset()
    pal_budget: int | None = None
    pal_length_cap: int | None = None
    assumed_palindromes: frozenset[str] = frozenset()

    def assumed_with_epsilon(self) -> frozenset[str]:
        return self.assumed_palindromes | {""}

    def charged_count(self, pals: set[str]) -> int:
        """Distinct palindromes charged to the budget (union with assumed)."""
        return len(self.assumed_with_epsilon() | pals)

    def satisfies(self, word: Word | str, check_required: bool = True) -> bool:
        """Full non-incremental check, used by oracles and witness replay."""
        s = _text(word)
        for f in self.forbidden_factors:
            if f in s:
                return False
        pals = {""}
        longest = 0
        tree = PalTree(s)
        for p in tree.palindromes():
            pals.add(p)
            longest = max(longest, len(p))
        if self.pal_length_cap is not None and longest > self.pal_length_cap:
            return False
        if self.pal_budget is not None and self.charged_count(pals) > self.pal_budget:
            return False
        if check_required:
            for r in self.required_factors:
                if r not in s:
                    return False
        return True


def palindromes_of_length(alphabet: Alphabet, length: int) -> set[str]:
    """Every palindrome of the given length over the alphabet."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return {""}
    half = (length + 1) // 2
    out = set()
    for core in product(alphabet.symbols, repeat=half):
        left = "".join(core)
        mirror = left[::-1]
        out.add(left + (mirror[1:] if length % 2 else mirror))
    return out


def forbid_other_palindromes(
    alphabet: Alphabet, length: int, allowed: set[str] | frozenset[str]
) -> frozenset[str]:
    """Forbidden-factor encoding of 'the only length-L palindromes are these'."""
    return frozenset(palindromes_of_length(alphabet, length) - set(allowed))


@dataclass
class SearchStats:
    """Counters of one constrained walk.

    nodes counts every word visited, the empty root included, and max_depth
    the length of the longest. leaves counts the visited words of length
    max_len, whose branches the length bound cut rather than a constraint (a
    walk with no leaves is exhaustive). Each pruned_* counts the rejected
    one-letter extensions by the first constraint they broke: a forbidden
    factor, the palindrome length cap, or the palindrome budget.
    """

    nodes: int = 0
    max_depth: int = 0
    leaves: int = 0
    pruned_forbidden: int = 0
    pruned_cap: int = 0
    pruned_budget: int = 0


class PalWalk:
    """Lexicographic depth-first walk over the words of length <= max_len
    whose prefixes all pass the prefix-closed constraints; required factors
    are left to the consumer.

    Iterating yields (depth, word) for each visited word in preorder, the
    empty root first. While the consumer holds a word, ``tree`` is the
    palindromic tree of exactly that word: the walk pushes a letter on the
    way down and pops it on the way back, so every prefix is processed once
    for all the words that share it. With canonical=True a letter is tried
    only up to one past the largest letter used so far, which visits one
    member of each renaming class.

    A palindrome is new exactly when the push creates a node, and only then
    are the cap and budget charged. Backtracking voids the eertree's
    amortized bound on the suffix-link climb, so one push may climb the
    whole chain of palindromic suffixes of the word. That chain stays short:
    it has at most depth + 2 nodes and no more than the tree holds, which
    the budget or cap keeps to a dozen or so in the constrained scans; depth
    is at most 48 in the returns claims, 64 in deepest_word and 14 in the
    exhaustive scans.
    """

    def __init__(
        self, constraints: ConstraintSet, max_len: int, canonical: bool = False
    ) -> None:
        self.constraints = constraints
        self.max_len = max_len
        self.canonical = canonical
        self.tree = PalTree()
        self.stats = SearchStats()

    def __iter__(self):
        c = self.constraints
        symbols = c.alphabet.symbols
        k = len(symbols)
        forbidden = c.forbidden_factors
        forbidden_lengths = sorted({len(f) for f in forbidden})
        cap, budget = c.pal_length_cap, c.pal_budget
        assumed = c.assumed_with_epsilon()
        max_len, canonical, stats = self.max_len, self.canonical, self.stats
        push, pop = self.tree.push, self.tree.pop
        # Per depth: the word, its budget charge, letters tried, letters allowed.
        words = [""] * (max_len + 1)
        charged = [len(assumed)] * (max_len + 1)
        tried = [0] * (max_len + 1)
        limit = [1 if canonical else k] * (max_len + 1)

        stats.nodes += 1
        if max_len == 0:
            stats.leaves += 1
        yield 0, ""
        depth = 0
        while True:
            i = tried[depth]
            if depth == max_len or i == limit[depth]:
                if not depth:
                    return
                pop()
                depth -= 1
                continue
            tried[depth] = i + 1
            ch = symbols[i]
            word = words[depth] + ch
            hit = False
            for n in forbidden_lengths:
                if word[-n:] in forbidden:
                    hit = True
                    break
            if hit:
                stats.pruned_forbidden += 1
                continue
            cost = charged[depth]
            grown = push(ch)
            if grown:
                if cap is not None and grown > cap:
                    pop()
                    stats.pruned_cap += 1
                    continue
                if word[-grown:] not in assumed:
                    cost += 1
                if budget is not None and cost > budget:
                    pop()
                    stats.pruned_budget += 1
                    continue
            depth += 1
            words[depth] = word
            charged[depth] = cost
            tried[depth] = 0
            if canonical:
                limit[depth] = min(k, max(limit[depth - 1], i + 2))
            stats.nodes += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            if depth == max_len:
                stats.leaves += 1
            yield depth, word

    def leaves(self):
        """The visited words of length max_len, in lexicographic order."""
        n = self.max_len
        return (w for depth, w in self if depth == n)


@dataclass(frozen=True)
class ReturnScan:
    """Outcome of a bounded complete-first-return enumeration."""

    anchor: str
    max_len: int
    returns: dict[str, str]  # return word -> example host word
    stats: SearchStats = field(compare=False, default_factory=SearchStats)


def scan_complete_returns(
    constraints: ConstraintSet, anchor: str, max_len: int
) -> ReturnScan:
    """Collect every complete first return to the anchor that appears in any
    word of length <= max_len satisfying the constraints.

    A return counts once the host branch has produced all required factors
    (before or after the return inside the window); returns seen earlier on
    the branch are kept pending and flushed at that point. A factor missing
    from a word can only show up in a one-letter extension as its suffix, so
    each step tests the missing factors against the suffix alone.
    """
    walk = PalWalk(constraints, max_len)
    found: dict[str, str] = {}
    # Per depth: required factors still missing, start of the last anchor
    # occurrence (-1 for none), returns waiting for the required factors.
    missing = [tuple(sorted(constraints.required_factors))] * (max_len + 1)
    last = [-1] * (max_len + 1)
    pending: list[tuple[str, ...]] = [()] * (max_len + 1)
    for depth, t in walk:
        if not depth:
            continue
        t_missing = missing[depth - 1]
        if t_missing:
            t_missing = tuple(r for r in t_missing if not t.endswith(r))
        t_last = last[depth - 1]
        t_pending = pending[depth - 1]
        if t.endswith(anchor):
            if t_last >= 0:
                ret = t[t_last:]
                if t_missing:
                    t_pending += (ret,)
                else:
                    found.setdefault(ret, t)
            t_last = depth - len(anchor)
        if t_pending and not t_missing:
            for ret in t_pending:
                found.setdefault(ret, t)
            t_pending = ()
        missing[depth] = t_missing
        last[depth] = t_last
        pending[depth] = t_pending
    return ReturnScan(anchor=anchor, max_len=max_len, returns=found, stats=walk.stats)


def iter_satisfying_words(constraints: ConstraintSet, max_len: int):
    """Yield every non-empty word (length <= max_len) whose prefixes all pass
    the prefix-closed constraints. Required factors are not applied here.
    Lexicographic depth-first order.
    """
    return (w for depth, w in PalWalk(constraints, max_len) if depth)


@dataclass(frozen=True)
class DepthScan:
    """Longest word reachable under prefix-closed constraints."""

    max_len: int
    witness: str
    exhausted: bool
    stats: SearchStats = field(compare=False, default_factory=SearchStats)


def deepest_word(constraints: ConstraintSet, hard_cap: int = 64) -> DepthScan:
    """Exhaustive extension search for the longest word the constraints allow.

    exhausted is False when some branch reached hard_cap, in which case the
    reported maximum is only a lower bound.
    """
    walk = PalWalk(constraints, hard_cap)
    witness = ""
    for depth, w in walk:
        if depth > len(witness):
            witness = w
    return DepthScan(
        max_len=len(witness),
        witness=witness,
        exhausted=not walk.stats.leaves,
        stats=walk.stats,
    )


def enumerate_words(alphabet: Alphabet, n: int, dedupe: str = "none"):
    """All words of length n over the alphabet, in lexicographic order.

    dedupe='iso' keeps one representative per renaming-or-reversal class
    (the lexicographically least member). Guarded against enumerations
    beyond 10**8 raw words; the arguments and the guard are checked before
    the generator is returned, so a bad call raises at once.
    """
    from .words import canonical_class

    if n < 0:
        raise ValueError("word length must be non-negative")
    if dedupe not in ("none", "iso"):
        raise ValueError("dedupe must be 'none' or 'iso'")
    space = len(alphabet) ** n
    if space > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {len(alphabet)}^{n} = {space} words exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )
    words = (Word("".join(t), alphabet) for t in product(alphabet.symbols, repeat=n))
    if dedupe == "iso":
        return (w for w in words if canonical_class(w).canonical.text == w.text)
    return words


def low_palindrome_words(
    max_letters: int, length: int, budget: int
) -> list[tuple[str, int]]:
    """Every canonical word of the given length whose palindrome count
    (epsilon included) stays within the budget.

    Canonical means letters first appear in alphabetical order, so exactly
    one representative per renaming class is produced; palindrome counts are
    renaming-invariant. The budget prunes the search tree, which keeps the
    scan tiny even for alphabet sizes up to 8.
    """
    if not 1 <= max_letters <= 8:
        raise ValueError("max_letters must be 1..8")
    constraints = ConstraintSet(Alphabet.of_size(max_letters), pal_budget=budget)
    walk = PalWalk(constraints, length, canonical=True)
    tree = walk.tree
    return [(w, tree.distinct_palindromes + 1) for w in walk.leaves()]
