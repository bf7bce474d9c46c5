"""Built-in verifiers, one per computational claim the library reproduces.

A claim is a set of named checks with stated values, each a pair (found,
expected), and ``_verdict`` is the one comparator: when every check holds,
the verdict keeps the claim's status and its one witness; otherwise it is
'refuted', with one witness ``{name: found, "expected": expected}`` per
failed check. First-return claims refute with ``{"return", "host"}``
witnesses instead, which ``replay_return_witness`` re-checks.

The registry ``CLAIMS`` maps each claim id to its one-line summary and a
zero-argument verifier. One-off verifiers register themselves with the
``@claim(id, summary)`` decorator; the three minimum-count scans and the four
first-return checks are rows of data (``MINPAL_EXPECTATIONS`` and
``RETURN_CLAIMS``) registered by a loop over those rows. ``run_claim`` times
every verifier once and records the time as ``stats["elapsed_s"]``.

Exhaustive scans over finite spaces yield 'verified'; anything whose true
statement quantifies over infinite words is honestly downgraded to
'verified-up-to-bound' with the bound recorded in the verdict.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from .analysis import (
    complete_first_returns,
    pal_set,
    reversal_closure_check,
    stabilized_pal_set,
)
from .generators import resolve_generator
from .paltree import PalTree  # unused here; perfbench/tracing.py wraps claims.PalTree
from .search import (
    ConstraintSet,
    FamilyTemplate,
    PalWalk,
    deepest_word,
    enumerate_words,  # unused here; perfbench/tracing.py wraps claims.enumerate_words
    forbid_other_palindromes,
    matches_any,
    scan_complete_returns,
)
from .words import iso_class, least_period

VERIFIED = "verified"
REFUTED = "refuted"
VERIFIED_UP_TO_BOUND = "verified-up-to-bound"

AB = "ab"
ABC = "abc"

# Palindrome set of the square of the period-6 block aababb (epsilon included).
PERIOD6_PAL_SET = frozenset(
    {"", "a", "b", "aa", "bb", "aba", "bab", "abba", "baab"}
)

# Palindrome set of the Fibonacci image under b->abbab.
FIB_ABBAB_PAL_SET = frozenset(
    {"", "a", "b", "aa", "bb", "aaa", "aba", "bab", "abba", "baab", "baaab"}
)

# Palindrome set of the maxpal5 reversal-closure word (longest length 5).
MAXPAL5_PAL_SET = frozenset(
    {
        "", "a", "b", "aa", "bb", "aaa", "aba", "bab", "bbb",
        "abba", "baab", "aabaa", "abbba", "baaab", "bbabb",
    }
)

# Palindrome set of the closed13 reversal-closure word.
CLOSED13_PAL_SET = frozenset(
    {
        "", "a", "aa", "aaa", "aabaa", "aabbaa", "aba", "abba",
        "b", "baaab", "baab", "bab", "bb",
    }
)

# The four palindrome sets a non-rich binary length-12 word can have while
# missing aa or bb. The first two miss aa, the last two miss bb; each has
# exactly 12 elements.
EXCEPTIONAL_PAL_SETS = (
    frozenset(
        {"", "a", "aba", "abba", "abbba", "b", "bab", "babbab",
         "babbbab", "bb", "bbabb", "bbb"}
    ),
    frozenset(
        {"", "a", "aba", "abba", "b", "bab", "babab", "babbab",
         "bb", "bbababb", "bbabb", "bbb"}
    ),
    frozenset(
        {"", "b", "bab", "baab", "baaab", "a", "aba", "abaaba",
         "abaaaba", "aa", "aabaa", "aaa"}
    ),
    frozenset(
        {"", "b", "bab", "baab", "a", "aba", "ababa", "abaaba",
         "aa", "aababaa", "aabaa", "aaa"}
    ),
)

# The witness word whose palindrome set is the exceptional set containing
# aababaa (the fourth one above).
EXCEPTIONAL_WITNESS = "aaababaabaaa"


@dataclass
class ClaimVerdict:
    """Outcome of one verifier run.

    A verdict that holds carries one witness, the claim's evidence; a refuted
    one carries a witness per failed check (see ``_verdict``) or per
    offending first return. Witness lists and bounds are deterministic
    across runs; stats (timing, node counts) are informational and excluded
    from equality.
    """

    claim_id: str
    status: str
    bound: dict
    witnesses: list
    stats: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if self.status not in (VERIFIED, REFUTED, VERIFIED_UP_TO_BOUND):
            raise ValueError(f"bad verdict status {self.status!r}")
        if self.status == REFUTED and not self.witnesses:
            raise ValueError("refuted verdicts must carry at least one witness")

    @property
    def ok(self) -> bool:
        return self.status != REFUTED

    def to_record(self) -> dict:
        return asdict(self)


# claim id -> (summary, zero-argument verifier)
CLAIMS: dict[str, tuple[str, Callable[[], ClaimVerdict]]] = {}


def claim(claim_id: str, summary: str):
    """Register the decorated zero-argument verifier under claim_id."""

    def register(verify):
        CLAIMS[claim_id] = (summary, verify)
        return verify

    return register


def _verdict(
    claim_id: str, checks: dict[str, tuple], bound: dict, witness: dict,
    stats: dict | None = None, holds: str = VERIFIED, *,
    refuted_with: dict | None = None,
) -> ClaimVerdict:
    """The verdict on a claim stated as named checks, name -> (found, expected).

    When every found == expected, the status is holds with the one witness.
    Otherwise it is refuted, with one witness per failed check, ``{name:
    found, "expected": expected}`` plus the items of refuted_with, and sets
    written as sorted lists so that every witness stays JSON-writable.
    """
    failed = [
        {name: _plain(found), "expected": _plain(expected), **(refuted_with or {})}
        for name, (found, expected) in checks.items()
        if found != expected
    ]
    if failed:
        return ClaimVerdict(claim_id, REFUTED, bound, failed, stats or {})
    return ClaimVerdict(claim_id, holds, bound, [witness], stats or {})


def _plain(value):
    """value with every set, sets of sets included, as a sorted list."""
    if isinstance(value, (set, frozenset)):
        return sorted(map(_plain, value))
    return value


def scan_min_palindromes(
    alphabet: str, n: int, word_filter=None
) -> tuple[int, list[str], int]:
    """Minimum palindrome count over the length-n words passing the filter,
    with all argmin words and the number of words scanned.
    """
    best = n + 2
    argmin: list[str] = []
    scanned = 0
    for s, c in PalWalk(ConstraintSet(alphabet), n).leaves():
        if word_filter is not None and not word_filter(s):
            continue
        scanned += 1
        if c < best:
            best, argmin = c, [s]
        elif c == best:
            argmin.append(s)
    return best, argmin, scanned


def minpal_scan(
    claim_id: str, alphabet: str, n: int, expected: int
) -> ClaimVerdict:
    """Minimum palindrome count over all length-n words; the witnesses are
    the argmin words. When the minimum differs from expected, the verdict is
    refuted and its witness still lists the argmin words.
    """
    best, argmin, scanned = scan_min_palindromes(alphabet, n)
    argmin = sorted(argmin)
    return _verdict(
        claim_id,
        {"min_palindromes": (best, expected)},
        bound={"alphabet": alphabet, "length": n, "class": "all"},
        witness={"min_palindromes": best, "argmin": argmin},
        stats={"scanned": scanned},
        refuted_with={"argmin": argmin},
    )


@claim("rich9",
       "every binary word of length 9 using both letters contains at least 9 "
       "palindromes")
def verify_rich9() -> ClaimVerdict:
    best, argmin, scanned = scan_min_palindromes(
        AB, 9, word_filter=lambda w: len(set(w)) == 2
    )
    sample = sorted(argmin)[:8]
    return _verdict(
        "rich9",
        {"min_palindromes": (best, 9)},
        bound={"alphabet": "ab", "length": 9, "letters_present": 2},
        witness={"min_palindromes": best, "argmin_count": len(argmin),
                 "argmin_sample": sample},
        stats={"scanned": scanned},
        refuted_with={"argmin_sample": sample},
    )


@claim("min4",
       "length-12 words over up to 4 letters contain at least 4 palindromes; "
       "exactly 4 only for renamings of the period-3 three-letter power")
def verify_min4() -> ClaimVerdict:
    """Length-12 words over up to four letters all have >= 4 palindromes, and
    the ones with exactly 4 are the renamings of the period-3 pattern
    (abc)(abc)(abc)(abc). Canonical (first-occurrence ordered) representatives
    stand in for all renamings, which is sound because palindrome counts are
    renaming-invariant.
    """
    from .search import low_palindrome_words

    rows = low_palindrome_words(4, 12, budget=4)
    exact4 = sorted(w for w, c in rows if c == 4)
    binary_floor, _, _ = scan_min_palindromes(AB, 12)
    return _verdict(
        "min4",
        {
            # The rows come in lexicographic order: these are the first eight.
            "fewer_than_four": ([w for w, c in rows if c < 4][:8], []),
            "exactly_four": (exact4, ["abcabcabcabc"]),
            # Cross-check: the binary floor at this length is far above 4.
            "binary_floor_at_12": (binary_floor, 9),
        },
        bound={"length": 12, "max_letters": 4},
        witness={"exactly_four": exact4, "binary_floor_at_12": binary_floor},
        stats={"canonical_words_within_budget": len(rows)},
        holds=VERIFIED_UP_TO_BOUND,
    )


def rotations(u: str) -> set[str]:
    return {u[i:] + u[:i] for i in range(len(u))}


def _conjugates_of_class(word: str) -> list[str]:
    """All rotations of all members of the renaming-or-reversal class."""
    out: set[str] = set()
    for m in iso_class(word, AB):
        out |= rotations(m)
    return sorted(out)


@claim("exact9",
       "binary length-12 words with exactly 9 palindromes are the 12 squares "
       "of rotations of aababb and its reversal, each with the fixed 9-set; "
       "breaking period 6 adds a 10th")
def verify_exact9() -> ClaimVerdict:
    """The binary length-12 words with exactly 9 palindromes are exactly the
    squares of the 12 rotations of aababb and its reversal, each with the
    fixed 9-element palindrome set, and any 13th letter that breaks period 6
    forces at least 10 palindromes.

    The narrower description using only the two renaming-or-reversal class
    members misses 10 of the 12 squares; the scan pins the rotation-closed
    class and records the extra squares as witnesses of that refinement.
    """
    blocks = _conjugates_of_class("aababb")
    expected_squares = sorted(u * 2 for u in blocks)
    class_squares = sorted(w * 2 for w in iso_class("aababb", AB))
    walk = PalWalk(ConstraintSet(AB), 12)
    low = [(w, c) for w, c in walk.leaves() if c <= 9]
    extension_rows = [
        {"word": s, "period": least_period(s), "palindromes": pal_set(s).count}
        for s in (u * 2 + letter for u in blocks for letter in "ab")
    ]
    return _verdict(
        "exact9",
        {
            "below_floor": ([w for w, c in low if c < 9][:8], []),
            "exactly_nine": (sorted(w for w, c in low if c == 9), expected_squares),
            "squares_with_other_pal_sets": (
                [s for s in expected_squares if pal_set(s).pal_set != PERIOD6_PAL_SET],
                [],
            ),
            "period_breaks_below_10": (
                [r["word"] for r in extension_rows
                 if r["period"] != 6 and r["palindromes"] < 10],
                [],
            ),
        },
        bound={"alphabet": "ab", "length": 12},
        witness={
            "squares": expected_squares,
            "class_member_squares": class_squares,
            "squares_outside_class_members": sorted(
                set(expected_squares) - set(class_squares)
            ),
            "extensions": extension_rows,
        },
        stats={"scanned": walk.stats.leaves},
    )


def ten_palindrome_classes() -> dict[str, list[str]]:
    """The three definitional families of binary length-14 words with exactly
    10 palindromes: squares of the 28 rotations of the 7-letter class (the
    classes of aaababb and aababbb coincide), and the two ways of extending a
    period-6 square, flanked (one period-breaking letter in front, one
    period-preserving behind) or tailed (one preserving, then one breaking).

    As with the 9-palindrome squares, the families must be closed under
    rotation of the repeated block to cover everything the scan finds.
    """
    sq = sorted(u * 2 for u in _conjugates_of_class("aaababb"))
    flanked = set()
    tailed = set()
    for u in _conjugates_of_class("aababb"):
        w2 = u * 2
        for a in "ab":
            for b in "ab":
                if least_period(a + w2) != 6 and least_period(w2 + b) == 6:
                    flanked.add(a + w2 + b)
                if least_period(w2 + a) == 6 and least_period(w2 + a + b) != 6:
                    tailed.add(w2 + a + b)
    return {"square": sq, "flanked": sorted(flanked), "tailed": sorted(tailed)}


@claim("exact10",
       "binary length-14 words with exactly 10 palindromes partition into the "
       "rotation-closed square, flanked and tailed families, all with longest "
       "palindrome at most 6")
def verify_exact10() -> ClaimVerdict:
    """Every binary length-14 word with exactly 10 palindromes falls in
    exactly one of the three rotation-closed families, and the longest
    palindrome in any of them has length at most 6.

    The two 7-letter square descriptions generate the same family because
    aababbb is a renaming of the reversal of aaababb; the scan checks that
    coincidence too.
    """
    classes = ten_palindrome_classes()
    walk = PalWalk(ConstraintSet(AB), 14)
    exact10 = {w: max(map(len, walk.tree.palindromes()))
               for w, c in walk.leaves() if c == 10}
    sq, flanked, tailed = (
        set(classes[f]) for f in ("square", "flanked", "tailed")
    )
    return _verdict(
        "exact10",
        {
            "exactly_ten": (set(exact10), sq | flanked | tailed),
            "in_two_families": (
                (sq & flanked) | (sq & tailed) | (flanked & tailed), set()
            ),
            "seven_letter_class_squares": (
                {w * 2 for w in iso_class("aaababb", AB)},
                {w * 2 for w in iso_class("aababbb", AB)},
            ),
            "palindrome_longer_than_6": (
                sorted(w for w, n in exact10.items() if n > 6), []
            ),
        },
        bound={"alphabet": "ab", "length": 14},
        witness={"classes": classes, "exactly_ten_count": len(exact10)},
        stats={"scanned": walk.stats.leaves},
    )


@claim("extend11",
       "single-letter extensions of the 10-palindrome families reach exactly 11 "
       "palindromes unless the stated period is preserved")
def verify_extend11() -> ClaimVerdict:
    """Single-letter extensions of the 10-palindrome families contain exactly
    11 palindromes unless the letter preserves the stated period.

    Squares: a letter breaking period 7 gives exactly 11 palindromes, a
    letter preserving it keeps exactly 10. Flanked words alpha w^2 beta: when
    gamma breaks period 6 of w^2 beta gamma, the full word alpha w^2 beta
    gamma has exactly 11 palindromes; the flank letter is essential, since
    w^2 beta gamma alone stops at 10 (those shortfalls are recorded as
    witnesses of the needed reading). Tailed words reach exactly 11 for every
    gamma.
    """
    classes = ten_palindrome_classes()
    expected = {}  # extension -> stated palindrome count
    flankless_rows = []
    for s in classes["square"]:
        for g in "ab":
            expected[s + g] = 10 if least_period(s + g) == 7 else 11
    for s in classes["flanked"]:
        # A flanked word is flank letter, period-6 square, tail letter.
        w2b = s[1:]
        for g in "ab":
            if least_period(w2b + g) != 6:
                expected[s + g] = 11
                flankless_rows.append(
                    {"word": w2b + g, "palindromes": pal_set(w2b + g).count}
                )
    for s in classes["tailed"]:
        for g in "ab":
            expected[s + g] = 11
    found = {t: pal_set(t).count for t in expected}
    wrong = {t: c for t, c in found.items() if c != expected[t]}
    return _verdict(
        "extend11",
        {"palindromes": (wrong, {t: expected[t] for t in wrong})},
        bound={"alphabet": "ab", "families": sorted(classes)},
        witness={
            "extensions_checked": len(expected),
            "flankless_words_stopping_at_10": flankless_rows,
        },
    )


@claim("need-squares",
       "850 non-rich binary words of length 12; palindrome sets missing aa or bb "
       "are exactly the four exceptional 12-element sets")
def verify_need_squares() -> ClaimVerdict:
    """There are 850 non-rich binary words of length 12, and among their
    palindrome sets the only ones missing aa or bb are the four exceptional
    12-element sets (witnessed by aaababaabaaa hitting the fourth).
    """
    nonrich = 0
    exceptional: dict[frozenset, str] = {}
    walk = PalWalk(ConstraintSet(AB), 12)
    for w, c in walk.leaves():
        if c < 13:
            nonrich += 1
            pals = frozenset(walk.tree.palindromes()) | {""}
            if "aa" not in pals or "bb" not in pals:
                exceptional.setdefault(pals, w)
    return _verdict(
        "need-squares",
        {
            "nonrich_count": (nonrich, 850),
            "exceptional_sets": (set(exceptional), set(EXCEPTIONAL_PAL_SETS)),
            "exceptional_set_sizes": ({len(s) for s in exceptional}, {12}),
            "witness_pal_set": (
                pal_set(EXCEPTIONAL_WITNESS).pal_set, EXCEPTIONAL_PAL_SETS[3]
            ),
        },
        bound={"alphabet": "ab", "length": 12},
        witness={
            "nonrich_count": nonrich,
            "exceptional_sets": [
                sorted(s, key=lambda p: (len(p), p)) for s in EXCEPTIONAL_PAL_SETS
            ],
            "witness_words": sorted(exceptional.values()),
        },
        stats={"scanned": walk.stats.leaves},
    )


@claim("maxpal-bounds",
       "longest-palindrome bounds: palindromes of length at most 3 only for a "
       "finite tree of words; aabbab power peaks at 4; maxpal5 recursion at 5 "
       "with a 15-element set; only two first returns to aab in the capped regime")
def verify_maxpal_bounds() -> ClaimVerdict:
    """Bounds on the longest palindromic factor of binary words: the words
    whose palindromes all have length <= 3 form a finite tree (the exhaustive
    extension search terminates); (aabbab) repeated has longest palindrome 4;
    the maxpal5 recursion stabilizes on the fixed 15-element set with longest
    length 5; and under the no-aaa/no-bbb, max-length-4 regime the only
    complete first returns to aab are aababbaab and aabbabaab.
    """
    cap3 = ConstraintSet(AB, pal_length_cap=3)
    depth = deepest_word(cap3, hard_cap=64)
    power = pal_set(resolve_generator("pow:aabbab").prefix_text(600))
    stab = stabilized_pal_set(resolve_generator("maxpal5"), cap=16384)
    returns_scan = scan_complete_returns(
        ConstraintSet(
            AB, forbidden_factors=frozenset({"aaa", "bbb"}), pal_length_cap=4
        ),
        "aab",
        max_len=20,
    )
    aab_returns = sorted(returns_scan.returns)
    return _verdict(
        "maxpal-bounds",
        {
            "length_cap_3_search_exhausted": (depth.exhausted, True),
            "aabbab_power_longest": (len(power.longest), 4),
            "maxpal5_flag": (stab.flag, "stable"),
            "maxpal5_pal_set": (stab.pal_set, MAXPAL5_PAL_SET),
            "maxpal5_longest": (len(stab.longest), 5),
            "aab_returns": (aab_returns, ["aababbaab", "aabbabaab"]),
        },
        bound={"extension_hard_cap": 64, "power_prefix": 600,
               "stabilizer_cap": 16384, "returns_window": 20},
        witness={
            "longest_word_with_palindromes_le_3": depth.witness,
            "bound_length": depth.max_len,
            "aab_returns": aab_returns,
        },
        stats={"extension": asdict(depth.stats),
               "returns": asdict(returns_scan.stats)},
        holds=VERIFIED_UP_TO_BOUND,
    )


@claim("closed13",
       "the closed13 recursion keeps exactly 13 palindromes from the second term "
       "on and shows no missing reversal up to factor length 8")
def verify_closed13() -> ClaimVerdict:
    """Every recursion term of the closed13 word from the second on has
    exactly the fixed 13-element palindrome set, and the stream shows no
    missing reversal for factors up to length 8 within a 4096 horizon.
    """
    stream = resolve_generator("closed13")
    other_terms = [
        n for n in range(2, 9) if pal_set(stream.term(n)).pal_set != CLOSED13_PAL_SET
    ]
    closure = reversal_closure_check(stream, k=8, horizon=4096)
    return _verdict(
        "closed13",
        {
            "terms_with_other_pal_sets": (other_terms, []),
            "missing_reversals": (closure.witness_missing, ()),
        },
        bound={"terms": "2..8", "closure_k": 8, "closure_horizon": 4096},
        witness={
            "pal_set": sorted(CLOSED13_PAL_SET, key=lambda p: (len(p), p)),
            "closed_up_to": closure.closed_up_to,
        },
        holds=VERIFIED_UP_TO_BOUND,
    )


# --- first-return family claims -------------------------------------------

@dataclass(frozen=True)
class ReturnFamilyClaim:
    """A bounded check that every complete first return to an anchor, inside
    any word satisfying the constraints, belongs to one of the families."""

    claim_id: str
    summary: str
    constraints: ConstraintSet
    anchor: str
    families: tuple[FamilyTemplate, ...]
    max_len: int = 36


RETURN_CLAIMS = {
    c.claim_id: c
    for c in (
        # Context: aabaa and aaabaab present, aaaa excluded; the twelve
        # palindromes below are forced, so the budget of 12 admits nothing new.
        ReturnFamilyClaim(
            "returns-abaaab",
            "bounded check of the complete-first-return family for abaaab under "
            "the twelve forced palindromes",
            ConstraintSet(
                AB,
                forbidden_factors=frozenset({"aaaa"}),
                required_factors=frozenset({"aaabaab"}),
                pal_budget=12,
                assumed_palindromes=PERIOD6_PAL_SET | {"aabaa", "aaa", "baaab"},
            ),
            "abaaab",
            (FamilyTemplate("abaaab", "babaab", "babaaab", n_min=0),),
        ),
        # Context: baabaab present (hence aabaa); eleven forced palindromes,
        # budget 12 leaves room for one more.
        ReturnFamilyClaim(
            "returns-baabaab",
            "bounded check of the two complete-first-return families for baabaab",
            ConstraintSet(
                AB,
                required_factors=frozenset({"baabaab"}),
                pal_budget=12,
                assumed_palindromes=PERIOD6_PAL_SET | {"aabaa", "baabaab"},
            ),
            "baabaab",
            (
                FamilyTemplate("baabaab", "babaab", "aab", n_min=1),
                FamilyTemplate("baabaab", "abbaab", "aab", n_min=1),
            ),
        ),
        # Context: babab and abababb present (hence ababa); eleven forced
        # palindromes.
        ReturnFamilyClaim(
            "returns-ababa",
            "bounded check of the two complete-first-return families for ababa",
            ConstraintSet(
                AB,
                required_factors=frozenset({"abababb"}),
                pal_budget=12,
                assumed_palindromes=PERIOD6_PAL_SET | {"babab", "ababa"},
            ),
            "ababa",
            (
                FamilyTemplate("ababa", "bbaaba", "ba", n_min=0),
                FamilyTemplate("ababa", "abbaba", "ba", n_min=0),
            ),
        ),
        # Context: baaab is the only length-5 palindrome, aaaa and bbb
        # excluded, abaaabb present; eleven forced palindromes.
        ReturnFamilyClaim(
            "returns-baaab",
            "bounded check of the four first-return types for baaab when it is "
            "the only length-5 palindrome",
            ConstraintSet(
                AB,
                forbidden_factors=frozenset({"aaaa", "bbb"})
                | forbid_other_palindromes(AB, 5, {"baaab"}),
                required_factors=frozenset({"abaaabb"}),
                pal_budget=12,
                assumed_palindromes=PERIOD6_PAL_SET | {"aaa", "baaab"},
            ),
            "baaab",
            (
                FamilyTemplate("baaab", "baabab", "baaab", n_min=1),
                FamilyTemplate("baaab", "babaab", "baaab", n_min=1),
                FamilyTemplate("baaab", "abbaab", "abbaaab", n_min=0),
                FamilyTemplate("baaab", "babaab", "babaaab", n_min=0),
            ),
        ),
    )
}


def run_return_family_claim(claim: ReturnFamilyClaim) -> ClaimVerdict:
    """Verified up to max_len, or refuted with {"return", "host"} witnesses."""
    scan = scan_complete_returns(claim.constraints, claim.anchor, claim.max_len)
    offenders, matched = [], []
    for r in sorted(scan.returns):
        (matched if matches_any(r, claim.families) else offenders).append(r)
    return ClaimVerdict(
        claim.claim_id,
        REFUTED if offenders else VERIFIED_UP_TO_BOUND,
        {"max_len": claim.max_len, "anchor": claim.anchor},
        [{"return": r, "host": scan.returns[r]} for r in offenders[:8]] or [{
            "families": [f.describe() for f in claim.families],
            "returns_seen": matched,
        }],
        {**asdict(scan.stats), "returns_found": len(scan.returns)},
    )


def replay_return_witness(claim: ReturnFamilyClaim, witness: dict) -> bool:
    """Re-check a refutation witness: the host must satisfy every constraint,
    its required factors included, the return must be a complete first
    return to the anchor inside it, and the return must sit outside every
    family. True means the violation reproduces.
    """
    host, ret = witness["host"], witness["return"]
    if not claim.constraints.satisfies(host):
        return False
    scan = complete_first_returns(host, claim.anchor)
    if ret not in scan.returns:
        return False
    return not matches_any(ret, claim.families)


# --- stream-level claims ----------------------------------------------------

STREAM_EXPECTATIONS = {
    # preset -> (stabilized count, longest palindrome length, exact set or None)
    "fib-bc": (5, 2, frozenset({"", "a", "b", "c", "aa"})),
    "fib-abbab": (11, 5, FIB_ABBAB_PAL_SET),
    "quadfold": (5, 1, frozenset({"", "a", "b", "c", "d"})),
    "maxpal5": (15, 5, MAXPAL5_PAL_SET),
    "closed13": (13, 6, CLOSED13_PAL_SET),
    "paperfolding": (29, 13, None),
    "fold-pairswap": (17, 12, None),
}


@claim("stream-pal-counts",
       "stabilized palindrome inventories of the named streams match their "
       "expected counts, longest lengths and pinned sets")
def verify_stream_pal_counts() -> ClaimVerdict:
    """The named streams stabilize on their expected palindrome inventories:
    counts, longest lengths, and (where the full set is pinned) exact sets.
    """
    checks = {}
    rows = []
    for name, (count, longest_len, exact) in sorted(STREAM_EXPECTATIONS.items()):
        stab = stabilized_pal_set(resolve_generator(name), cap=16384)
        rows.append({"stream": name, "count": stab.count, "longest": stab.longest,
                     "stable_horizon": stab.stable_horizon,
                     "checked_horizon": stab.checked_horizon})
        checks[f"{name} flag"] = (stab.flag, "stable")
        checks[f"{name} count"] = (stab.count, count)
        checks[f"{name} longest"] = (len(stab.longest), longest_len)
        if exact is not None:
            checks[f"{name} pal_set"] = (stab.pal_set, exact)
    return _verdict(
        "stream-pal-counts",
        checks,
        bound={"stabilizer_cap": 16384},
        witness={"streams": rows},
        holds=VERIFIED_UP_TO_BOUND,
    )


CLOSURE_EXPECTATIONS = {
    # preset -> (k, (factor, its reversal) that must be missing, or None for a
    # window that must be closed); 4096 window
    "paperfolding": (5, ("aaaba", "abaaa")),
    "fib-bc": (2, ("bc", "cb")),
    "fib-abbab": (5, ("abaaa", "aaaba")),
    "quadfold": (6, None),
    "maxpal5": (8, None),
    "closed13": (8, None),
}


@claim("closure-checks",
       "window reversal-closure checks: recursions closed, images and "
       "paperfolding each missing a known reversal")
def verify_closure_checks() -> ClaimVerdict:
    """Reversal-closure window checks: the reversal-closure recursions show
    no missing reversal, while the paperfolding word and the two Fibonacci
    images each miss a specific short factor's reversal.
    """
    checks = {}
    rows = []
    for name, (k, pair) in sorted(CLOSURE_EXPECTATIONS.items()):
        report = reversal_closure_check(resolve_generator(name), k=k)
        missing = report.witness_missing
        rows.append({"stream": name, "k": k, "missing": len(missing),
                     "closed_up_to": report.closed_up_to})
        if pair is None:
            checks[f"{name} missing"] = (missing[:4], ())
        else:
            checks[f"{name} misses {pair[1]}, the reversal of {pair[0]}"] = (
                pair in missing, True
            )
    return _verdict(
        "closure-checks",
        checks,
        bound={"horizon": 4096},
        witness={"streams": rows},
        holds=VERIFIED_UP_TO_BOUND,
    )


# --- registry ---------------------------------------------------------------


MINPAL_EXPECTATIONS = {
    # claim id -> (summary, alphabet, word length, least palindrome count stated)
    "minpal-b9": (
        "minimum palindrome count over binary length-9 words is 9",
        AB, 9, 9,
    ),
    "minpal-b12": (
        "minimum palindrome count over binary length-12 words is 9, attained "
        "only by the 12 squares of rotations of aababb and its reversal",
        AB, 12, 9,
    ),
    "minpal-t9": (
        "minimum palindrome count over ternary length-9 words is 4, attained by "
        "period-3 powers",
        ABC, 9, 4,
    ),
}

# The rows are looked up when the claim runs, so an edited row takes effect.
for _cid, _row in MINPAL_EXPECTATIONS.items():
    claim(_cid, _row[0])(
        lambda cid=_cid: minpal_scan(cid, *MINPAL_EXPECTATIONS[cid][1:])
    )
for _cid, _row in RETURN_CLAIMS.items():
    claim(_cid, _row.summary)(
        lambda cid=_cid: run_return_family_claim(RETURN_CLAIMS[cid])
    )


def manifest() -> list[dict]:
    """Machine-readable list of built-in claims."""
    return [
        {"claim_id": cid, "summary": CLAIMS[cid][0]} for cid in sorted(CLAIMS)
    ]


def run_claim(claim_id: str) -> ClaimVerdict:
    """Run one registered claim, recording its wall time in stats."""
    try:
        verify = CLAIMS[claim_id][1]
    except KeyError:
        raise KeyError(
            f"unknown claim {claim_id!r}; known claims: {', '.join(sorted(CLAIMS))}"
        ) from None
    t0 = time.perf_counter()
    verdict = verify()
    verdict.stats["elapsed_s"] = round(time.perf_counter() - t0, 6)
    return verdict


def run_all() -> list[ClaimVerdict]:
    """Run every built-in claim serially, in claim-id order."""
    return [run_claim(cid) for cid in sorted(CLAIMS)]
