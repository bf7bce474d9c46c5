"""Lazy prefix streams: ever-longer prefixes of a fixed infinite word."""

from __future__ import annotations

import threading


class PrefixStream:
    """Base class for lazy producers of prefixes of one infinite word.

    read(i, j) returns letters i to j - 1 and prefix_text(n) the first n;
    successive requests agree because materialization only ever appends.
    Materialization is serialized behind a lock, so concurrent requests on
    a shared stream are safe and consistent. A stream built on another
    reads the inner letters it has not used yet with read(), so a round
    copies only those letters, not the inner prefix from letter 0.
    """

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet
        self._text = ""
        self._lock = threading.Lock()

    def _grow(self, n: int) -> None:
        """Extend self._text to length >= n. Implementations append only."""
        raise NotImplementedError

    def read(self, i: int, j: int) -> str:
        """Letters i to j - 1 of the word, for 0 <= i <= j."""
        if not 0 <= i <= j:
            raise ValueError(f"letter range must have 0 <= i <= j, got [{i}, {j})")
        with self._lock:
            if len(self._text) < j:
                before = self._text
                self._grow(j)
                if not self._text.startswith(before) or len(self._text) < j:
                    raise RuntimeError(
                        f"{type(self).__name__} violated append-only materialization"
                    )
            return self._text[i:j]

    def prefix_text(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        return self.read(0, n)


class ShiftedStream(PrefixStream):
    """The stream whose i-th letter is the (i+k)-th letter of another stream."""

    def __init__(self, inner: PrefixStream, k: int) -> None:
        if k < 0:
            raise ValueError("shift offset must be non-negative")
        super().__init__(inner.alphabet)
        self.inner = inner
        self.k = k

    def _grow(self, n: int) -> None:
        self._text += self.inner.read(len(self._text) + self.k, n + self.k)


def shift(s: PrefixStream, k: int) -> PrefixStream:
    """Drop the first k letters of s; shift(s, 0) is s itself."""
    if k < 0:
        raise ValueError("shift offset must be non-negative")
    if k == 0:
        return s
    if isinstance(s, ShiftedStream):
        return ShiftedStream(s.inner, s.k + k)
    return ShiftedStream(s, k)
