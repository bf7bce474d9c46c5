"""Finite words over small ordered alphabets, with the basic combinatorial toolkit.

Symbols are abstract positions 0..7 rendered as the ASCII letters a..h; all
parsing and printing goes through that rendering, and Alphabet rejects any
other letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

SYMBOLS = "abcdefgh"
MAX_ALPHABET = len(SYMBOLS)


class Alphabet:
    """An ordered set of one to eight distinct letters from a..h.

    The order is total and fixed: it drives renaming canonicalization and
    enumeration order. The cap keeps every transition table and renaming
    scan desk-scale.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: str) -> None:
        symbols = "".join(symbols)
        if not 1 <= len(symbols) <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet must have 1..{MAX_ALPHABET} symbols, got {len(symbols)}"
            )
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in alphabet {symbols!r}")
        for ch in symbols:
            if ch not in SYMBOLS:
                raise ValueError(f"letter {ch!r} is not one of {SYMBOLS!r}")
        self.symbols = symbols

    @classmethod
    def of_size(cls, k: int) -> Alphabet:
        """The first k letters of a..h."""
        if not 1 <= k <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be 1..{MAX_ALPHABET}, got {k}")
        return cls(SYMBOLS[:k])

    def index(self, symbol: str) -> int:
        i = self.symbols.find(symbol)
        if i < 0:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols!r}")
        return i

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, str) and symbol in self.symbols

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({self.symbols!r})"


def _infer_alphabet(text: str) -> Alphabet:
    # Contiguous a..h prefix covering the highest letter present.
    size = 1
    for ch in text:
        i = SYMBOLS.find(ch)
        if i < 0:
            raise ValueError(f"letter {ch!r} is not one of {SYMBOLS!r}")
        if i + 1 > size:
            size = i + 1
    return Alphabet.of_size(size)


class Word:
    """An immutable finite word. The empty word has length 0.

    Equality and hashing compare the rendered text only; the alphabet is
    carried metadata used by renaming and enumeration operations.
    """

    __slots__ = ("text", "alphabet")

    def __init__(self, text: str = "", alphabet: Alphabet | None = None) -> None:
        if alphabet is None:
            alphabet = _infer_alphabet(text)
        else:
            for ch in text:
                if ch not in alphabet.symbols:
                    raise ValueError(
                        f"letter {ch!r} is not in alphabet {alphabet.symbols!r}"
                    )
        self.text = text
        self.alphabet = alphabet

    def reverse(self) -> Word:
        return Word(self.text[::-1], self.alphabet)

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self):
        return iter(self.text)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.text[item], self.alphabet)
        return self.text[item]

    def __contains__(self, other) -> bool:
        return _text(other) in self.text

    def __add__(self, other) -> Word:
        alpha = _join_alphabets(self.alphabet, _alphabet_of(other, self.alphabet))
        return Word(self.text + _text(other), alpha)

    def __mul__(self, n: int) -> Word:
        return Word(self.text * n, self.alphabet)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.text == other.text
        return NotImplemented

    def __lt__(self, other: Word) -> bool:
        return self.text < other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def _text(w) -> str:
    return w.text if isinstance(w, Word) else str(w)


def _alphabet_of(w, default: Alphabet) -> Alphabet:
    return w.alphabet if isinstance(w, Word) else _infer_alphabet(str(w))


def _join_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    # One symbol set must extend the other; keep the larger.
    if b.symbols.startswith(a.symbols):
        return b
    if a.symbols.startswith(b.symbols):
        return a
    raise ValueError(f"incompatible alphabets {a.symbols!r} and {b.symbols!r}")


def occurrences(u: Word | str, v: Word | str) -> int:
    """Number of (possibly overlapping) start positions of v in u."""
    ut, vt = _text(u), _text(v)
    if not vt:
        raise ValueError("pattern must be non-empty")
    count = 0
    i = ut.find(vt)
    while i >= 0:
        count += 1
        i = ut.find(vt, i + 1)
    return count


def least_period(u: Word | str) -> int:
    """Smallest p such that u[i + p] == u[i] wherever both sides exist.

    Computed from the border (failure-function) array: the least period is
    the length minus the longest proper border. Always between 1 and |u|.
    """
    s = _text(u)
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


def max_run(w: Word | str, x: str) -> int:
    """Largest k such that x**k is a factor of w (0 if x is absent)."""
    if len(x) != 1:
        raise ValueError("run letter must be a single symbol")
    if isinstance(w, Word) and x not in w.alphabet:
        raise ValueError(f"letter {x!r} not in alphabet {w.alphabet.symbols!r}")
    best = run = 0
    for ch in _text(w):
        run = run + 1 if ch == x else 0
        if run > best:
            best = run
    return best


def factors(w: Word | str, n: int) -> set[Word]:
    """All distinct length-n factors of w; empty set when n exceeds |w|."""
    if n < 0:
        raise ValueError("factor length must be non-negative")
    s = _text(w)
    alpha = _alphabet_of(w, None)
    if n > len(s):
        return set()
    return {Word(s[i : i + n], alpha) for i in range(len(s) - n + 1)}


def factor_strings(s: str, max_len: int) -> set[str]:
    """Distinct non-empty factors of s up to length max_len, as raw strings."""
    out: set[str] = set()
    n = len(s)
    for length in range(1, min(max_len, n) + 1):
        for i in range(n - length + 1):
            out.add(s[i : i + length])
    return out


def alph(w: Word | str) -> str:
    """The letters occurring in w, in alphabet order."""
    s = _text(w)
    return "".join(ch for ch in SYMBOLS if ch in s)


def canonical_renaming(w: Word) -> Word:
    """Lexicographically least renaming of w (letters relabelled a, b, c, ...
    in order of first occurrence). Captures equivalence up to renaming only,
    without reversal.
    """
    mapping: dict[str, str] = {}
    out = []
    for ch in w.text:
        if ch not in mapping:
            mapping[ch] = SYMBOLS[len(mapping)]
        out.append(mapping[ch])
    return Word("".join(out), w.alphabet)


@dataclass(frozen=True)
class IsoClass:
    """Words equal to a fixed word, or to its reversal, up to letter renaming.

    The canonical representative is the lexicographically least word among
    all renamings of the word and of its reversal; two words are in the same
    class exactly when their canonical forms coincide. All members share the
    same period set.
    """

    canonical: Word

    def __contains__(self, w: Word) -> bool:
        return canonical_class(w).canonical == self.canonical

    def members(self, alphabet: Alphabet | None = None) -> set[Word]:
        """Every renaming of the representative and of its reversal."""
        alphabet = alphabet or self.canonical.alphabet
        out: set[Word] = set()
        for base in (self.canonical.text, self.canonical.text[::-1]):
            used = sorted(set(base), key=alphabet.index)
            for image in permutations(alphabet.symbols, len(used)):
                table = str.maketrans(dict(zip(used, image)))
                out.add(Word(base.translate(table), alphabet))
        return out


def canonical_class(w: Word) -> IsoClass:
    """The renaming-or-reversal equivalence class of w."""
    fwd = canonical_renaming(w).text
    bwd = canonical_renaming(w.reverse()).text
    return IsoClass(Word(min(fwd, bwd), w.alphabet))


class Morphism:
    """A letterwise substitution map between alphabets.

    Every source symbol must have a non-empty image over the target alphabet.
    """

    __slots__ = ("source", "target", "images")

    def __init__(
        self,
        images: dict[str, Word | str],
        source: Alphabet | None = None,
        target: Alphabet | None = None,
    ) -> None:
        if not images:
            raise ValueError("a morphism needs at least one image")
        if source is None:
            source = _infer_alphabet("".join(images))
        if set(images) != set(source.symbols):
            raise ValueError(
                f"images must cover exactly the source alphabet {source.symbols!r}"
            )
        if target is None:
            target = _infer_alphabet("".join(_text(v) for v in images.values()))
        fixed: dict[str, Word] = {}
        for sym, img in images.items():
            img_w = Word(_text(img), target)
            if len(img_w) == 0:
                raise ValueError(f"image of {sym!r} must be non-empty")
            fixed[sym] = img_w
        self.source = source
        self.target = target
        self.images = fixed

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

    def image(self, symbol: str) -> Word:
        return self.images[symbol]

    def apply(self, w: Word | str) -> Word:
        parts = [self.images[ch].text for ch in _text(w)]
        return Word("".join(parts), self.target)

    __call__ = apply

    def is_prolongable(self, seed: str) -> bool:
        """True when image(seed) starts with seed and has length at least 2,
        which is what iterating from seed needs to converge to a fixed point.
        """
        if seed not in self.images:
            return False
        img = self.images[seed].text
        return len(img) >= 2 and img.startswith(seed)

    def describe(self) -> str:
        return ",".join(f"{s}->{self.images[s].text}" for s in self.source.symbols)

    def __repr__(self) -> str:
        return f"Morphism({self.describe()!r})"
