"""Constructions of the infinite words the library ships with.

Four generic mechanisms (periodic powers, morphic fixed points, morphic
images, reversal-closure recursions), a one-line textual spec form that
builds any of them, and a registry of named presets. ``PRESETS`` maps each
preset name to the spec string it stands for, so a named word is written
once, in the grammar a user types; an alias such as fib is a preset whose
reference is another preset's name.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

from .streams import PrefixStream, ShiftedStream
from .words import Morphism, alphabet_of


class UnknownGeneratorError(ValueError):
    """Raised when a generator reference resolves to nothing."""


class PeriodicStream(PrefixStream):
    """u repeated forever."""

    def __init__(self, u: str) -> None:
        if not u:
            raise ValueError("periodic block must be non-empty")
        super().__init__(alphabet_of(u))
        self.block = u

    def _stretches(self, n: int) -> Iterator[str]:
        yield self.block * (n // len(self.block) + 1)


# Letters in one piece of a read: an image stream maps at most this many
# inner letters in one Morphism.apply, and a fixed point joins short
# stretches until they hold this many. Few enough that a read maps fewer
# than this many it does not need, and enough that a read holds few pieces.
_PIECE = 4096


class FixedPointStream(PrefixStream):
    """The unique fixed point of a morphism prolongable at a seed letter.

    Its stretches read off x = image(x): the first is image(seed), the
    second the image of the first less its first letter, seed, and each
    later one the image of the one before. A read maps only as many letters
    of the previous stretch as it still misses; they suffice, as no image
    is empty. So prefix_text(n) takes time linear in n even for a->ab,
    b->b, which adds one letter a stretch; such short stretches are joined
    and yielded in pieces of _PIECE letters, so a read holds a few bytes a
    letter. A fixed point needs a morphism from its alphabet to itself: an
    image letter with no rule is a ValueError, reached or not.
    """

    def __init__(self, morphism: Morphism, seed: str) -> None:
        if not morphism.is_prolongable(seed):
            raise ValueError(
                f"morphism {morphism.describe()} is not prolongable at {seed!r}"
            )
        extra = ", ".join(map(repr, morphism.target[len(morphism.source) :]))
        if extra:  # image letters with no rule
            raise ValueError(f"morphism {morphism.describe()} has no rule for {extra}")
        super().__init__(morphism.target)
        self.morphism = morphism
        self.seed = seed

    def _stretches(self, n: int) -> Iterator[str]:
        apply = self.morphism.apply
        stretch = apply(self.seed)
        yield stretch
        n -= len(stretch)  # from here on, the letters still missing
        stretch = stretch[1:]  # its first letter, seed, is mapped already
        pieces, start = [], n
        while n > 0:
            stretch = apply(stretch[:n])
            pieces.append(stretch)
            n -= len(stretch)
            if start - n >= _PIECE or n <= 0:
                yield "".join(pieces)  # one long stretch is yielded uncopied
                pieces, start = [], n


class ImageStream(PrefixStream):
    """Letterwise image of another stream under a morphism.

    The inner stretches are mapped in pieces of at most _PIECE letters, up
    to the piece that brings the image to the n letters asked for. n inner
    letters always suffice, because no image is empty.
    """

    def __init__(self, morphism: Morphism, inner: PrefixStream) -> None:
        if set(inner.alphabet) - set(morphism.source):
            raise ValueError(
                f"morphism source {morphism.source!r} does not cover "
                f"stream alphabet {inner.alphabet!r}"
            )
        super().__init__(morphism.target)
        self.morphism = morphism
        self.inner = inner

    def _stretches(self, n: int) -> Iterator[str]:
        apply = self.morphism.apply
        for stretch in self.inner._stretches(n):
            for start in range(0, len(stretch), _PIECE):
                image = apply(stretch[start : start + _PIECE])
                yield image
                n -= len(image)
                if n <= 0:
                    return


TRANSFORMS = ("rev", "revcomp", "id")


class ReversalClosureStream(PrefixStream):
    """Limit of the recursion U(k+1) = U(k) . insert(k) . t(U(k)).

    Inserts cycle through a fixed schedule; t is plain reversal, reversal
    followed by the exchange of letters that reverses the alphabet's order
    (a<->b on two letters), or the identity. With t = rev, every term is
    closed under reversal by construction. Each term is a prefix of the
    next, so the limit is well defined: its stretches are u0, the initial
    term, then each insert(k) . t(U(k)) in turn.

    The alphabet is the a..h prefix covering u0 and the inserts, or the
    given alphabet, itself an a..h prefix, when that is longer; it matters
    only to revcomp.
    """

    def __init__(
        self, u0: str, inserts: list[str], transform: str = "rev", alphabet: str = ""
    ) -> None:
        if not u0:
            raise ValueError("the initial term must be non-empty")
        if not inserts:
            raise ValueError("insert schedule must have at least one entry")
        if transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
        covered = alphabet_of(u0 + "".join(inserts))
        if alphabet and alphabet_of(alphabet) != alphabet:
            raise ValueError(
                f"alphabet must be the first letters of a..h, got {alphabet!r}"
            )
        if len(alphabet) <= len(covered):
            alphabet = covered
        super().__init__(alphabet)
        self.inserts = list(inserts)
        self.transform = transform
        self.u0 = u0
        self._exchange = str.maketrans(alphabet, alphabet[::-1])

    def _apply_transform(self, s: str) -> str:
        if self.transform == "rev":
            return s[::-1]
        if self.transform == "revcomp":
            return s[::-1].translate(self._exchange)
        return s

    def term(self, k: int) -> str:
        """The k-th term of the recursion (term(0) is the initial word)."""
        if k < 0:
            raise ValueError(f"term index must be non-negative, got {k}")
        return "".join(islice(self._stretches(math.inf), k + 1))

    def _stretches(self, n: float) -> Iterator[str]:
        term = self.u0
        yield term
        k = 0
        while len(term) < n:
            stretch = self.inserts[k % len(self.inserts)] + self._apply_transform(term)
            yield stretch
            term += stretch
            k += 1


# Named morphisms usable in generator spec strings.
MORPHISMS: dict[str, str] = {
    "bc": "a->a,b->bc",
    "abbab": "a->a,b->abbab",
    "pairswap": "a->ab,b->ba",
}


# preset name -> the generator reference it stands for
PRESETS: dict[str, str] = {
    # binary Fibonacci word, the fixed point of a->ab, b->a
    "fibonacci": "fix(a->ab,b->a,a)",
    "fib": "fibonacci",
    # images of the Fibonacci word: five and eleven palindromes
    "fib-bc": "image(bc, fibonacci)",
    "fib-abbab": "image(abbab, fibonacci)",
    # regular paperfolding word, P(n+1) = P(n) . a . hat(P(n)), where hat
    # reverses and exchanges a with b; the n-th term has length 2**(n+1) - 1
    "paperfolding": "revclose(U0=a, inserts=[a], t=revcomp, alphabet=ab)",
    "fold": "paperfolding",
    # image of the paperfolding word under a->ab, b->ba; seventeen palindromes
    "fold-pairswap": "image(pairswap, paperfolding)",
    # four-letter reversal-closure word; five palindromes
    "quadfold": "revclose(U0=ab, inserts=[cd])",
    # binary reversal-closure word whose longest palindrome has length 5
    "maxpal5": "revclose(U0=aabb, inserts=[ab,ba])",
    # binary reversal-closure word with thirteen palindromes
    "closed13": "revclose(U0=abaabbabaaabbaaba, inserts=[bbaa,aabb])",
}


def preset_names() -> list[str]:
    return sorted(PRESETS) + ["pow:<word>"]


def _split_args(body: str) -> list[str]:
    """Split on top-level commas, respecting () and [] nesting."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i].strip())
            start = i + 1
    parts.append(body[start:].strip())
    return [p for p in parts if p]


def _parse_call(text: str) -> tuple[str, list[str]] | None:
    if not text.endswith(")"):
        return None
    head, sep, rest = text.partition("(")
    if not sep:
        return None
    return head.strip(), _split_args(rest[:-1])


def _morphism_from_token(token: str) -> Morphism:
    """Inline rules 'a->ab,b->a', or the name of one of MORPHISMS."""
    if "->" in token:
        return Morphism.parse(token)
    name = token.strip()
    if name not in MORPHISMS:
        raise UnknownGeneratorError(
            f"unknown morphism {name!r}; named morphisms: {', '.join(sorted(MORPHISMS))}"
        )
    return Morphism.parse(MORPHISMS[name])


REVCLOSE_KEYS = frozenset({"U0", "inserts", "t", "alphabet"})


def resolve_generator(ref: str) -> PrefixStream:
    """Resolve a generator reference to a fresh stream.

    A reference is tried as, in order: a preset name (see preset_names()),
    resolved as the reference PRESETS gives it; pow:WORD, the shorthand for
    pow(WORD); or a call
    pow(WORD) | fix(RULES, SEED) | image(MORPHISM, INNER) | shift(INNER, K)
    | revclose(U0=WORD, inserts=[W1,W2,...], t=rev|revcomp|id, alphabet=LETTERS).
    MORPHISM is a named morphism or inline rules 'a->ab,b->a'; INNER is
    itself a reference, resolved by this same function. In revclose, t
    defaults to rev and alphabet to the letters of U0 and the inserts; any
    other key, or a key given twice, is an error, and so is a fix whose
    last argument is a rule rather than a seed. Anything else, an unclosed
    call included, raises UnknownGeneratorError; a fix whose images hold a
    letter with no rule, as in fix(a->ab,a), raises ValueError.
    """
    ref = ref.strip()
    if ref in PRESETS:
        return resolve_generator(PRESETS[ref])
    if ref.startswith("pow:"):
        return PeriodicStream(ref[4:])
    call = _parse_call(ref)
    if call is None:
        raise UnknownGeneratorError(f"unknown generator {ref!r}")
    head, args = call
    if head == "pow":
        if len(args) != 1:
            raise UnknownGeneratorError("pow takes exactly one word argument")
        return PeriodicStream(args[0])
    if head == "fix":
        if len(args) < 2 or "->" in args[-1]:
            raise UnknownGeneratorError("fix takes morphism rules and a seed")
        seed = args[-1]
        return FixedPointStream(_morphism_from_token(",".join(args[:-1])), seed)
    if head == "image":
        if len(args) < 2:
            raise UnknownGeneratorError("image takes a morphism and an inner generator")
        inner = resolve_generator(args[-1])
        return ImageStream(_morphism_from_token(",".join(args[:-1])), inner)
    if head == "shift":
        try:
            inner, offset = args
            k = int(offset)
        except ValueError:  # not two arguments, or an offset that is no integer
            raise UnknownGeneratorError(
                "shift takes an inner generator and an offset"
            ) from None
        return ShiftedStream(resolve_generator(inner), k)
    if head == "revclose":
        kwargs: dict[str, str] = {}
        for arg in args:
            key, sep, value = arg.partition("=")
            if not sep:
                raise UnknownGeneratorError(f"revclose expects key=value, got {arg!r}")
            key = key.strip()
            if key in kwargs:
                raise UnknownGeneratorError(f"revclose repeats key {key!r}")
            kwargs[key] = value.strip()
        unknown = set(kwargs) - REVCLOSE_KEYS
        if unknown:
            raise UnknownGeneratorError(
                f"revclose got unknown keys {sorted(unknown)}; "
                f"keys: {', '.join(sorted(REVCLOSE_KEYS))}"
            )
        missing = {"U0", "inserts"} - set(kwargs)
        if missing:
            raise UnknownGeneratorError(f"revclose missing {sorted(missing)}")
        inserts_body = kwargs["inserts"]
        if not (inserts_body.startswith("[") and inserts_body.endswith("]")):
            raise UnknownGeneratorError("revclose inserts must look like [w1,w2]")
        inserts = [w.strip() for w in inserts_body[1:-1].split(",") if w.strip()]
        return ReversalClosureStream(
            kwargs["U0"], inserts, kwargs.get("t", "rev"), kwargs.get("alphabet", "")
        )
    raise UnknownGeneratorError(
        f"unknown generator form {head!r}; forms: pow, fix, image, shift, revclose"
    )
