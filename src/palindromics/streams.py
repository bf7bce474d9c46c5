"""Lazy prefix streams: prefixes of a fixed infinite word. A stream holds
the word's definition, not its letters, and a read changes no state."""

from __future__ import annotations

from collections.abc import Iterator


class PrefixStream:
    """Base class for lazy producers of prefixes of one infinite word.

    A kind defines its word by _stretches(n), which yields successive
    non-empty stretches of the word from letter 0, at least n letters in
    all and few more, and then stops. prefix_text(n) joins the first n
    letters afresh from _stretches(n), and read(i, j) slices letters i to
    j - 1 off prefix_text(j), so every read passes through prefix_text. A
    stream built on another reads the inner _stretches as far as it needs.
    """

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet

    def _stretches(self, n: int) -> Iterator[str]:
        raise NotImplementedError

    def read(self, i: int, j: int) -> str:
        """Letters i to j - 1 of the word, for 0 <= i <= j."""
        if not 0 <= i <= j:
            raise ValueError(f"letter range must have 0 <= i <= j, got [{i}, {j})")
        return self.prefix_text(j)[i:]

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


def shift(s: PrefixStream, k: int) -> PrefixStream:
    """Drop the first k letters of s; shift(s, 0) is s itself."""
    if k < 0:
        raise ValueError("shift offset must be non-negative")
    if k == 0:
        return s
    if isinstance(s, ShiftedStream):
        return ShiftedStream(s.inner, s.k + k)
    return ShiftedStream(s, k)
