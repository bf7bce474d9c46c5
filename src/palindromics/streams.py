"""Lazy prefix streams: prefixes of a fixed infinite word. A stream holds
the word's definition, not its letters, and its one reader, prefix_text,
changes no state."""

from __future__ import annotations

from collections.abc import Iterator


class PrefixStream:
    """Base class for lazy producers of prefixes of one infinite word.

    A kind defines its word by _stretches(n), which yields successive
    non-empty stretches of the word from letter 0, at least n letters in
    all and few more, and then stops. prefix_text(n), the one reader, joins
    the first n letters afresh from _stretches(n). A stream built on
    another reads the inner _stretches as far as it needs.
    """

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet

    def _stretches(self, n: int) -> Iterator[str]:
        raise NotImplementedError

    def prefix_text(self, n: int) -> str:
        """The first n letters of the word, for n >= 0."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        return "".join(self._stretches(n))[:n]


class ShiftedStream(PrefixStream):
    """The stream whose i-th letter is the (i+k)-th letter of another stream."""

    def __init__(self, inner: PrefixStream, k: int) -> None:
        if k < 0:
            raise ValueError("shift offset must be non-negative")
        super().__init__(inner.alphabet)
        self.inner = inner
        self.k = k

    def _stretches(self, n: int) -> Iterator[str]:
        skip = self.k
        for stretch in self.inner._stretches(n + self.k):
            if skip < len(stretch):
                yield stretch[skip:]
            skip = max(skip - len(stretch), 0)
