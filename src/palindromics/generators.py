"""Constructions of the infinite words the library ships with.

Four generic mechanisms (periodic powers, morphic fixed points, morphic
images, reversal-closure recursions), a one-line textual spec form that
builds any of them, and a registry of named presets. ``PRESETS`` maps each
preset name to the spec string it stands for, so a named word is written
once, in the grammar a user types; an alias such as fib is a preset whose
reference is another preset's name.
"""

from __future__ import annotations

from .streams import PrefixStream, shift
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

    def _grow(self, n: int) -> None:
        reps = n // len(self.block) + 1
        self._text = self.block * reps


class FixedPointStream(PrefixStream):
    """The unique fixed point of a morphism prolongable at a seed letter.

    Materializes by self-reading. The text T is always the image of its
    first k letters (T = image(seed) and k = 1 at the start), so the image
    of the unexpanded rest T[k:] is the next stretch of the fixed point.
    Each round expands that rest with one Morphism.apply, or its first n - |T|
    letters, which suffice because no image is empty. A round adds at least
    as many letters as it reads, so prefix_text(n) takes time linear in n,
    even for a slowly growing morphism such as a->ab, b->b, which adds one
    letter a round. The text holds at most m * n letters, m being the
    longest image length. A fixed point needs a morphism from its alphabet
    to itself: an image letter with no rule is a ValueError, reached or not.
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
        self._text = morphism.images[seed]
        self._next = 1  # the text is the image of its first _next letters

    def _grow(self, n: int) -> None:
        apply = self.morphism.apply
        parts = [self._text]
        total = len(self._text)
        rest = self._text[self._next :]
        while total < n:
            # Taking fewer than all of rest reaches n, so ends the loop.
            take = rest[: n - total]
            self._next += len(take)
            rest = apply(take)
            parts.append(rest)
            total += len(rest)
        self._text = "".join(parts)


class ImageStream(PrefixStream):
    """Letterwise image of another stream under a morphism.

    A round maps ceil(r / m) inner letters, r letters being missing and m
    the longest image, so growing to n letters leaves fewer than n + m.
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
        self._consumed = 0

    def _grow(self, n: int) -> None:
        apply = self.morphism.apply
        parts = [self._text]
        total = len(self._text)
        longest = max(map(len, self.morphism.images.values()))
        while total < n:
            # No image is empty, so each round adds at least one letter.
            take = (n - total + longest - 1) // longest
            chunk = self.inner.read(self._consumed, self._consumed + take)
            self._consumed += len(chunk)
            chunk = apply(chunk)
            parts.append(chunk)
            total += len(chunk)
        self._text = "".join(parts)


TRANSFORMS = ("rev", "revcomp", "id")


class ReversalClosureStream(PrefixStream):
    """Limit of the recursion U(k+1) = U(k) . insert(k) . t(U(k)).

    Inserts cycle through a fixed schedule; t is plain reversal, reversal
    followed by the exchange of letters that reverses the alphabet's order
    (a<->b on two letters), or the identity. With t = rev, every term is
    closed under reversal by construction. Each term is a prefix of the
    next, so the limit is well defined.

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
        self._exchange = str.maketrans(alphabet, alphabet[::-1])
        self._terms = [u0]

    def _apply_transform(self, s: str) -> str:
        if self.transform == "rev":
            return s[::-1]
        if self.transform == "revcomp":
            return s[::-1].translate(self._exchange)
        return s

    def term(self, k: int) -> str:
        """The k-th term of the recursion (term(0) is the initial word)."""
        while len(self._terms) <= k:
            i = len(self._terms) - 1
            u = self._terms[-1]
            self._terms.append(u + self.inserts[i % len(self.inserts)] + self._apply_transform(u))
        return self._terms[k]

    def _grow(self, n: int) -> None:
        k = len(self._terms) - 1
        while len(self._terms[-1]) < n:
            k += 1
            self.term(k)
        self._text = self._terms[-1]


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
        return shift(resolve_generator(inner), k)
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
