"""Constraint-pruned depth-first word enumeration and parametric word families.

All predicates used for pruning are prefix-closed: a forbidden factor, an
exhausted palindrome budget or an over-long palindrome can never disappear by
appending letters. Required factors are the one non-prefix-closed constraint
and are checked only on the words evidence is read from: the return scan
reads complete first returns off the walk's maximal words, those the walk
does not extend, with the same complete_first_returns that replays a
witness.

Every scan here is a PalWalk, whose own loop runs the undoable eertree step
and its undo on a PalTree's lists, and steps a forbidden-factor automaton.
A letter the constraints reject costs one table lookup or one suffix-link
climb, and writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .analysis import complete_first_returns, pal_set
from .paltree import PalTree
from .words import SYMBOLS, canonical_form

ENUMERATION_GUARD = 10**8
DEPTH_CAP = 64  # longest word deepest_word visits


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
    Refused: a repeated letter (each word walked once per copy), an empty
    forbidden factor (no word passes, not even ε) and a negative length cap
    (ε's longest palindrome, of length 0, already breaks it).
    """

    alphabet: str
    forbidden_factors: frozenset[str] = frozenset()
    required_factors: frozenset[str] = frozenset()
    pal_budget: int | None = None
    pal_length_cap: int | None = None
    assumed_palindromes: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        if "" in self.forbidden_factors:
            raise ValueError("forbidden factors must be non-empty")
        if self.pal_length_cap is not None and self.pal_length_cap < 0:
            raise ValueError("pal_length_cap must be non-negative")

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
        charged = self.assumed_palindromes | report.pal_set
        return budget is None or len(charged) <= budget


def forbid_other_palindromes(
    alphabet: str, length: int, allowed: set[str] | frozenset[str]
) -> frozenset[str]:
    """Forbidden-factor encoding of 'the only length-L palindromes are these':
    the words of length L over the alphabet that equal their reversal,
    minus the allowed ones."""
    words = enumerate_words(alphabet, length)
    return frozenset(w for w in words if w == w[::-1]) - set(allowed)


@dataclass
class SearchStats:
    """Counters of one constrained walk.

    nodes counts every word visited, the empty root included, and max_depth
    the length of the longest. leaves counts the visited words of length
    max_len, whose branches the length bound cut rather than a constraint (a
    walk with no leaves is exhaustive). Each of the first three pruned_*
    counts the rejected one-letter extensions by the first constraint they
    broke: a forbidden factor, the palindrome length cap, or the palindrome
    budget. pruned_seen counts the visited words whose consumer refused
    their subtree (PalWalk's hook); their letters are not tried, so they
    count in no other pruned_*. In scan_complete_returns these are the
    repeats of a state with no host below it and the words below a skimmed
    repeat past its first host. A walk whose consumer never refuses reads 0.
    """

    nodes: int = 0
    max_depth: int = 0
    leaves: int = 0
    pruned_forbidden: int = 0
    pruned_cap: int = 0
    pruned_budget: int = 0
    pruned_seen: int = 0


def _factor_automaton(
    alphabet: str, forbidden: frozenset[str]
) -> list[list[int]]:
    """Transition table of a matching automaton for the forbidden factors
    (Aho & Corasick, CACM 1975), built naively: the sets are tiny.

    A state is the longest suffix of the word that is a proper prefix of
    some forbidden factor; state 0 is the empty word. table[q][i] is the
    state after letter alphabet[i], or -1 when the word then ends in a
    forbidden factor. Any factor ending at the new letter is a suffix of
    q + letter, because q is the longest suffix that can still grow into
    one; so is the next state.
    """
    prefixes = sorted(
        {""} | {f[:n] for f in forbidden for n in range(len(f))},
        key=lambda p: (len(p), p),
    )
    index = {p: q for q, p in enumerate(prefixes)}
    table = []
    for p in prefixes:
        row = []
        for ch in alphabet:
            t = p + ch
            if any(t.endswith(f) for f in forbidden):
                row.append(-1)
            else:
                row.append(next(index[t[n:]] for n in range(len(t) + 1)
                                if t[n:] in index))
        table.append(row)
    return table


class PalWalk:
    """Lexicographic depth-first walk over the words of length <= max_len
    whose prefixes all pass the prefix-closed constraints; required factors
    are left to the consumer. The walk is empty when the empty word itself
    breaks the budget, that is when the assumed palindromes and ε alone
    exceed it.

    Iterating yields (depth, word) for each visited word in preorder, the
    empty root first. While the consumer holds a word, ``tree`` is the
    palindromic tree of exactly that word: the walk runs the undoable
    eertree step (Rubinchik & Shur, arXiv:1506.04862) on the tree's lists,
    adding a letter on the way down and restoring the tree from per-depth
    records on the way back, so every prefix is processed once for all the
    words that share it. With canonical=True a letter is tried only up to
    one past the largest letter used so far, which visits one member of
    each renaming class.

    A consumer refuses the subtree of the word it holds by resuming the
    iterator with ``send(True)`` in place of ``next``: the walk then tries
    none of that word's letters and counts it in stats.pruned_seen. The
    value is read by the walk's yield, so a consumer that only iterates
    costs one test of None a word.

    Forbidden factors are decided first, by one lookup in the table of
    _factor_automaton from the automaton state kept per depth. A palindrome
    is new exactly when the letter would create a node, and only then are
    the cap and budget charged, after the suffix-link climb and before
    anything is written: a rejected letter costs that lookup or climb and
    leaves the tree as it was. The word is built only for a letter that the
    walk accepts, or that makes a palindrome to look up in the assumed set.
    Backtracking voids the eertree's amortized bound on the climb, so one
    letter may climb the whole chain of palindromic suffixes of the word:
    at most depth + 2 nodes, which the budget or cap keeps to a dozen or so
    in the constrained scans. The tree holds at most max_len + 2 nodes, so
    each letter's child list is made once, here, longer than that.
    """

    def __init__(
        self, constraints: ConstraintSet, max_len: int, canonical: bool = False
    ) -> None:
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        self.constraints = constraints
        self.max_len = max_len
        self.canonical = canonical
        self.tree = tree = PalTree()
        tree._cap = size = max(tree._cap, max_len + 3)
        for ch in constraints.alphabet:
            tree._to[ch] = [0] * size
        self.stats = SearchStats()

    def __iter__(self):
        c = self.constraints
        symbols = c.alphabet
        k = len(symbols)
        automaton = _factor_automaton(symbols, c.forbidden_factors)
        cap, budget = c.pal_length_cap, c.pal_budget
        assumed = c.assumed_palindromes
        max_len, canonical, stats = self.max_len, self.canonical, self.stats
        tree = self.tree
        s, lens, links, first_end, to = (
            tree._s, tree._len, tree._link, tree._first_end, tree._to
        )
        # Per depth: the word, its budget charge, its automaton state,
        # letters tried, letters allowed, its longest palindromic suffix,
        # and the node its last letter gave a child (-1 for none).
        words = [""] * (max_len + 1)
        charged = [len(assumed | {""})] * (max_len + 1)
        state = [0] * (max_len + 1)
        tried = [0] * (max_len + 1)
        limit = [1 if canonical else k] * (max_len + 1)
        suffix = [1] * (max_len + 1)
        parent = [-1] * (max_len + 1)

        if budget is not None and charged[0] > budget:
            return
        stats.nodes += 1
        if max_len == 0:
            stats.leaves += 1
        depth = 0
        if (yield 0, ""):
            stats.pruned_seen += 1
            tried[0] = limit[0]
        while True:
            i = tried[depth]
            if depth == max_len or i == limit[depth]:
                if not depth:
                    tree._suffix = 1
                    return
                ch = s.pop()
                v = parent[depth]
                if v >= 0:
                    to[ch][v] = 0
                    del lens[-1], links[-1], first_end[-1]
                depth -= 1
                continue
            tried[depth] = i + 1
            q = automaton[state[depth]][i]
            if q < 0:
                stats.pruned_forbidden += 1
                continue
            ch = symbols[i]
            # ch would be letter depth, s[depth + 1]. It extends the
            # palindromic suffix v when the letter before v's occurrence,
            # s[depth - len(v)], is ch; node 0, of length -1, takes any
            # letter, so the climbs stop there without reading s.
            v = suffix[depth]
            while v and s[depth - lens[v]] != ch:
                v = links[v]
            edges = to[ch]
            nxt = edges[v]
            cost = charged[depth]
            if nxt:
                v = -1
                word = words[depth] + ch
            else:
                n = lens[v] + 2
                if cap is not None and n > cap:
                    stats.pruned_cap += 1
                    continue
                word = words[depth] + ch
                if word[-n:] not in assumed:
                    cost += 1
                if budget is not None and cost > budget:
                    stats.pruned_budget += 1
                    continue
                if n == 1:
                    link = 1
                else:
                    w = links[v]
                    while w and s[depth - lens[w]] != ch:
                        w = links[w]
                    link = edges[w]
                nxt = edges[v] = len(lens)
                lens.append(n)
                links.append(link)
                first_end.append(depth + 1)
            s.append(ch)
            depth += 1
            words[depth] = word
            charged[depth] = cost
            state[depth] = q
            tried[depth] = 0
            tree._suffix = suffix[depth] = nxt
            parent[depth] = v
            if canonical:
                limit[depth] = min(k, max(limit[depth - 1], i + 2))
            stats.nodes += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            if depth == max_len:
                stats.leaves += 1
            if (yield depth, word):
                stats.pruned_seen += 1
                tried[depth] = limit[depth]

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

    returns: dict[str, str]  # return word -> its first host
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

    Most subtrees repeat, or truncate, one explored before, and are not
    walked again. Under a budget or a cap, each visited word w past the
    root whose last complete anchor occurrence starts in its window, or
    that has none, gets a key: its charged set Q (its palindromes, the
    assumed ones and ε) as a bitmask, the bitmask of the required factors
    it holds, and its window, its last L letters. L - 1 bounds the
    palindromic suffixes of every word below w: M + 2r under a budget,
    where M is the longest palindrome in Q and r the budget less w's charge
    |Q|; c under a cap c; the smaller under both. L is also never less than
    the longest forbidden factor, required factor or anchor, less one
    letter.

    The key fixes the tails below the word, up to their length. Let u be a
    palindromic suffix of a word wx the walk visits below w, of length
    l > M. Its centred factors of lengths l, l - 2, ... down to M + 1 are
    distinct palindromes of wx outside Q, each a node made in x and
    charged once, so (l - M) / 2 <= r: a longest palindromic suffix grows
    by at most 2 a letter, and each such step past M costs budget. A climb
    reads the letter before a palindromic suffix, so it never reads further
    back than L letters: the window and x. A letter's fate is then fixed by
    the key. The window and x give its climb, hence the palindrome u it
    ends on, and the forbidden factors ending at it. Q and the nodes made
    in x give the charge, and u is charged exactly when it is in neither. A
    u that is a node in one of two words with one key and not in the other
    is in Q, so assumed: making it costs nothing, and it is no longer than
    the cap, since a word holds it. By induction on x, two words with one
    key have the tails below them of every length both have room for, and
    the mask and the window tell which tails complete the required
    factors. So the subtree of a word with a key met before at its depth
    or shallower is a truncation of the subtree the walk explored then.

    The table maps each key to (depth, hosted) for the shallowest word with
    that key whose subtree the walk has left, hosted when a host was read
    below it. A later word w with that key at that depth or deeper gives
    no new return that ends past w. Such a return starts at w's last
    complete anchor occurrence or later, so in the window; the window and
    the same tail end a word of the explored subtree, and so lie in one of
    its hosts, whose returns are all found already. What w can give is its
    own returns: every host below w holds them, and the first brings them.
    If the record has no host, w has none either, since a host below w
    would give one in the explored subtree, and w is refused. Otherwise
    the walk goes on below w, the table refusing and skimming inside as
    anywhere, until it reads w's first host, just where the plain walk
    reads it; then it refuses every word deeper than w until it leaves w.
    """
    if not anchor:
        raise ValueError("anchor must be non-empty")
    c = constraints
    cap, budget, assumed = c.pal_length_cap, c.pal_budget, c.assumed_palindromes
    required = sorted(c.required_factors)
    flags = [(1 << i, r) for i, r in enumerate(required)]
    keyed = cap is not None or budget is not None
    floor = max(map(len, [anchor, *c.forbidden_factors, *required])) - 1

    def width(longest: int, charge: int) -> int:
        reach = cap if budget is None else longest + 2 * (budget - charge)
        if cap is not None and cap < reach:
            reach = cap
        return max(reach + 1, floor)

    walk = PalWalk(constraints, max_len)
    lens, first_end = walk.tree._len, walk.tree._first_end
    # Per node count of the tree: the charged set Q as bits, its longest
    # palindrome and the window length.
    pal_bits = {p: 1 << i for i, p in enumerate(sorted(assumed | {""}))}
    size = max_len + 3
    sets = [(1 << len(pal_bits)) - 1] * size
    longest = [max(map(len, assumed), default=0)] * size
    widths = [width(longest[0], len(pal_bits)) if keyed else 0] * size

    found: dict[str, str] = {}
    # key -> (depth, hosted) of the shallowest word with that key whose
    # subtree the walk has left, hosted when a host was read below it.
    seen: dict[tuple, tuple[int, bool]] = {}
    pending: list[tuple] = []  # keyed words not yet left: (depth, key, hosts before)
    hosts = 0
    skim = cut = -1  # the depth of the word skimmed and of the word cut
    steps = iter(walk)
    refuse = None
    prev_depth, prev = -1, ""
    while True:
        try:
            depth, word = steps.send(refuse)
        except StopIteration:
            depth, word = -1, ""
        if depth <= prev_depth:
            if not refuse and all(r in prev for r in required):
                for ret in complete_first_returns(prev, anchor).returns:
                    found.setdefault(ret, prev)
                hosts += 1
                if skim >= 0:
                    skim, cut = -1, skim
            # Only deeper words were left while a word was pending, so its
            # record is the shallowest.
            while pending and pending[-1][0] >= depth:
                d, key, before = pending.pop()
                seen[key] = (d, hosts > before)
            if skim >= depth:
                skim = -1
            if cut >= depth:
                cut = -1
            refuse = None
        if depth < 0:
            break
        if cut >= 0:
            refuse = True
        elif keyed and depth:
            n = len(lens)
            if first_end[-1] == depth:  # the last letter made a node
                pal = word[-lens[-1]:]
                grown = sets[n - 1] | pal_bits.setdefault(pal, 1 << len(pal_bits))
                sets[n] = grown
                longest[n] = max(longest[n - 1], len(pal))
                widths[n] = width(longest[n], grown.bit_count())
            last, w = word.rfind(anchor), widths[n]
            if last < 0 or last >= depth - w:
                mask = 0
                for flag, r in flags:
                    if r in word:
                        mask |= flag
                key = (sets[n], mask, word[-w:])
                record = seen.get(key)
                if record is None or record[0] > depth:
                    pending.append((depth, key, hosts))
                elif not record[1]:
                    refuse = True
                elif skim < 0:
                    skim = depth
        prev_depth, prev = depth, word
    return ReturnScan(returns=found, stats=walk.stats)


@dataclass(frozen=True)
class DepthScan:
    """Longest word reachable under prefix-closed constraints."""

    max_len: int
    witness: str
    exhausted: bool
    stats: SearchStats = field(compare=False, default_factory=SearchStats)


def deepest_word(constraints: ConstraintSet) -> DepthScan:
    """Exhaustive extension search for the longest word the constraints allow.

    exhausted is False when some branch reached DEPTH_CAP letters, in which
    case the reported maximum is only a lower bound. A set that no word
    satisfies, not even the empty one, has no longest word: ValueError.
    """
    walk = PalWalk(constraints, DEPTH_CAP)
    witness = ""
    for depth, w in walk:
        if depth > len(witness):
            witness = w
    if not walk.stats.nodes:
        raise ValueError("no word satisfies the constraints, not even the empty word")
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
