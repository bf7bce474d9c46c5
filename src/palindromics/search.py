"""Constraint-pruned depth-first word enumeration and parametric word families.

All predicates used for pruning are prefix-closed: a forbidden factor, an
exhausted palindrome budget or an over-long palindrome can never disappear by
appending letters. Required factors are the one non-prefix-closed constraint
and are checked only on the words evidence is read from: the return scan
reads complete first returns off the walk's maximal words, those the walk
does not extend, with the same complete_first_returns that replays a
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

from .analysis import complete_first_returns, pal_set
from .paltree import PalTree
from .words import SYMBOLS, canonical_form

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

    alphabet: str
    forbidden_factors: frozenset[str] = frozenset()
    required_factors: frozenset[str] = frozenset()
    pal_budget: int | None = None
    pal_length_cap: int | None = None
    assumed_palindromes: frozenset[str] = frozenset()

    def assumed_with_epsilon(self) -> frozenset[str]:
        return self.assumed_palindromes | {""}

    def satisfies(self, s: str) -> bool:
        """Full non-incremental check of every constraint, required factors
        included; used by oracles and witness replay."""
        if any(f in s for f in self.forbidden_factors):
            return False
        if not all(r in s for r in self.required_factors):
            return False
        report = pal_set(s)
        cap, budget = self.pal_length_cap, self.pal_budget
        if cap is not None and len(report.longest) > cap:
            return False
        charged = self.assumed_with_epsilon() | report.pal_set
        return budget is None or len(charged) <= budget


def palindromes_of_length(alphabet: str, length: int) -> set[str]:
    """Every palindrome of the given length over the alphabet."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return {""}
    half = (length + 1) // 2
    out = set()
    for core in product(alphabet, repeat=half):
        left = "".join(core)
        mirror = left[::-1]
        out.add(left + (mirror[1:] if length % 2 else mirror))
    return out


def forbid_other_palindromes(
    alphabet: str, length: int, allowed: set[str] | frozenset[str]
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
    palindromic tree of exactly that word: the walk adds a letter with
    PalTree.push on the way down and takes it back with PalTree.pop on the
    way back, so every prefix is processed once for all the words that
    share it. With canonical=True a letter is tried only up to one past the
    largest letter used so far, which visits one member of each renaming
    class.

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
        symbols = c.alphabet
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
        """(word, palindrome count with epsilon) for each visited word of
        length max_len, in lexicographic order. While the consumer holds a
        pair, ``tree`` is still that word's tree, so the palindromes behind
        the count can be read off it; stats.leaves counts the pairs."""
        n, tree = self.max_len, self.tree
        return ((w, tree.distinct_palindromes + 1) for d, w in self if d == n)


@dataclass(frozen=True)
class ReturnScan:
    """Outcome of a bounded complete-first-return enumeration."""

    returns: dict[str, str]  # return word -> example host word
    stats: SearchStats = field(compare=False, default_factory=SearchStats)


def scan_complete_returns(
    constraints: ConstraintSet, anchor: str, max_len: int
) -> ReturnScan:
    """Collect every complete first return to the anchor that appears in any
    word of length <= max_len satisfying the constraints.

    Returns are read only at the walk's maximal words: a visited word is
    maximal when the next word the walk yields is not deeper, or when the
    walk ends. A maximal word that holds every required factor gives each
    of its complete_first_returns, with itself as host; the first host
    wins. The set equals the one over all visited words: every visited
    word extends to a maximal one, a required factor stays in every
    extension, and appending letters only adds anchor occurrences after
    the last, so a word's returns are also those of its extensions. A host
    is therefore the first maximal word that holds the return and every
    required factor.
    """
    walk = PalWalk(constraints, max_len)
    required = constraints.required_factors
    found: dict[str, str] = {}
    prev_depth, prev = -1, ""
    for depth, word in chain(walk, [(-1, "")]):
        if depth <= prev_depth and all(r in prev for r in required):
            for ret in complete_first_returns(prev, anchor).returns:
                found.setdefault(ret, prev)
        prev_depth, prev = depth, word
    return ReturnScan(returns=found, stats=walk.stats)


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


def enumerate_words(alphabet: str, n: int, dedupe: str = "none"):
    """All words of length n over the alphabet, in lexicographic order.

    dedupe='iso' keeps one representative per renaming-or-reversal class
    (the canonical form, which is written in the letters a, b, c, ..., so
    the alphabet must hold the first k letters of a..h in some order).
    Guarded against enumerations beyond 10**8 raw words; the arguments and
    the guard are checked before the generator is returned, so a bad call
    raises at once.
    """
    if n < 0:
        raise ValueError("word length must be non-negative")
    if dedupe not in ("none", "iso"):
        raise ValueError("dedupe must be 'none' or 'iso'")
    if dedupe == "iso" and set(alphabet) != set(SYMBOLS[: len(alphabet)]):
        raise ValueError(
            f"dedupe='iso' needs the first {len(alphabet)} letters of a..h as "
            f"the alphabet, got {alphabet!r}"
        )
    space = len(alphabet) ** n
    if space > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {len(alphabet)}^{n} = {space} words exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )
    words = ("".join(t) for t in product(alphabet, repeat=n))
    if dedupe == "iso":
        return (w for w in words if canonical_form(w) == w)
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
    constraints = ConstraintSet(SYMBOLS[:max_letters], pal_budget=budget)
    return list(PalWalk(constraints, length, canonical=True).leaves())
