"""Words as plain ``str`` over the letters a..h, and the helpers shared on them.

Symbols are abstract positions 0..7 rendered as the ASCII letters a..h. A
word or an alphabet is a ``str``; an alphabet lists distinct letters, and its
order is the enumeration order. Text from outside the program passes one
letter check where it enters: ``alphabet`` for an alphabet, ``alphabet_of``
for a word. Everything past that check takes the letters as given.
"""

from __future__ import annotations

from itertools import permutations

SYMBOLS = "abcdefgh"
MAX_ALPHABET = len(SYMBOLS)


def alphabet(symbols: str) -> str:
    """Check an alphabet given by its letters ('ab') or by its size ('2').

    A size k stands for the first k letters of a..h. Letters must be one to
    eight distinct letters of a..h; their order is kept, and it drives
    enumeration order.
    """
    if symbols.isdigit():
        k = int(symbols)
        if not 1 <= k <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be 1..{MAX_ALPHABET}, got {k}")
        return SYMBOLS[:k]
    if not 1 <= len(symbols) <= MAX_ALPHABET:
        raise ValueError(
            f"alphabet must have 1..{MAX_ALPHABET} symbols, got {len(symbols)}"
        )
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"duplicate symbols in alphabet {symbols!r}")
    alphabet_of(symbols)  # raises on a letter outside a..h
    return symbols


def alphabet_of(text: str) -> str:
    """The contiguous a..h prefix that covers every letter of text ('a' for
    the empty word); raises ValueError on the first letter outside a..h."""
    size = 1
    for ch in text:
        i = SYMBOLS.find(ch)
        if i < 0:
            raise ValueError(f"letter {ch!r} is not one of {SYMBOLS!r}")
        if i + 1 > size:
            size = i + 1
    return SYMBOLS[:size]


def least_period(s: str) -> int:
    """Smallest p such that s[i + p] == s[i] wherever both sides exist.

    Computed from the border (failure-function) array: the least period is
    the length minus the longest proper border. Always between 1 and |s|.
    """
    n = len(s)
    if n == 0:
        raise ValueError("the empty word has no period")
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and s[k] != s[i]:
            k = border[k - 1]
        if s[k] == s[i]:
            k += 1
        border[i] = k
    return n - border[n - 1]


def _renaming(s: str) -> str:
    # Letters relabelled a, b, c, ... in order of first occurrence.
    table: dict[str, str] = {}
    for ch in s:
        if ch not in table:
            table[ch] = SYMBOLS[len(table)]
    return s.translate(str.maketrans(table))


def canonical_form(s: str) -> str:
    """Representative of the words equal to s, or to its reversal, up to
    letter renaming: the least of the first-occurrence renamings of s and of
    its reversal. Two words are in one class exactly when their canonical
    forms coincide, and all members of a class share one period set.
    """
    return min(_renaming(s), _renaming(s[::-1]))


def iso_class(s: str, alphabet: str) -> set[str]:
    """Every renaming into the alphabet of s and of its reversal."""
    out: set[str] = set()
    for base in (s, s[::-1]):
        used = sorted(set(base))
        for image in permutations(alphabet, len(used)):
            out.add(base.translate(str.maketrans(dict(zip(used, image)))))
    return out


class Morphism:
    """A letterwise substitution map.

    The source alphabet is the a..h prefix covering the letters with an
    image, and every one of its letters must have a non-empty image; the
    target alphabet is the a..h prefix covering the images.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, images: dict[str, str]) -> None:
        if not images:
            raise ValueError("a morphism needs at least one image")
        source = alphabet_of("".join(images))
        if set(images) != set(source):
            raise ValueError(
                f"images must cover exactly the source alphabet {source!r}"
            )
        self.target = alphabet_of("".join(images.values()))
        for sym, img in images.items():
            if not img:
                raise ValueError(f"image of {sym!r} must be non-empty")
        self.source = source
        self.images = dict(images)

    @classmethod
    def parse(cls, text: str) -> Morphism:
        """Parse the config form 'a->a, b->bc' (comma-separated rules)."""
        images: dict[str, str] = {}
        for rule in text.split(","):
            rule = rule.strip()
            if not rule:
                continue
            lhs, sep, rhs = rule.partition("->")
            if not sep:
                raise ValueError(f"bad morphism rule {rule!r}; expected 'x->image'")
            lhs, rhs = lhs.strip(), rhs.strip()
            if len(lhs) != 1:
                raise ValueError(f"rule left side must be a single letter, got {lhs!r}")
            if lhs in images:
                raise ValueError(f"duplicate rule for {lhs!r}")
            images[lhs] = rhs
        return cls(images)

    def apply(self, s: str) -> str:
        """The image of s, letter by letter: the one image step that the
        fixed-point and image streams take on each chunk they expand."""
        return "".join(map(self.images.__getitem__, s))

    def is_prolongable(self, seed: str) -> bool:
        """True when image(seed) starts with seed and has length at least 2,
        which is what iterating from seed needs to converge to a fixed point.
        """
        if seed not in self.images:
            return False
        img = self.images[seed]
        return len(img) >= 2 and img.startswith(seed)

    def describe(self) -> str:
        return ",".join(f"{s}->{self.images[s]}" for s in self.source)

    def __repr__(self) -> str:
        return f"Morphism({self.describe()!r})"
