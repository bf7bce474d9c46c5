"""Lazy prefix streams: ever-longer prefixes of a fixed infinite word."""

from __future__ import annotations

import threading


class PrefixStream:
    """Base class for lazy producers of prefixes of one infinite word.

    prefix_text(n) returns exactly the first n letters; successive requests
    are prefixes of one another because materialization only ever appends.
    Materialization is serialized behind a lock, so concurrent prefix
    requests on a shared stream are safe and consistent.
    """

    def __init__(self, alphabet: str) -> None:
        self.alphabet = alphabet
        self._text = ""
        self._lock = threading.Lock()

    def _grow(self, n: int) -> None:
        """Extend self._text to length >= n. Implementations append only."""
        raise NotImplementedError

    def prefix_text(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        with self._lock:
            if len(self._text) < n:
                before = self._text
                self._grow(n)
                if not self._text.startswith(before) or len(self._text) < n:
                    raise RuntimeError(
                        f"{type(self).__name__} violated append-only materialization"
                    )
            return self._text[:n]


class ShiftedStream(PrefixStream):
    """The stream whose i-th letter is the (i+k)-th letter of another stream."""

    def __init__(self, inner: PrefixStream, k: int) -> None:
        if k < 0:
            raise ValueError("shift offset must be non-negative")
        super().__init__(inner.alphabet)
        self.inner = inner
        self.k = k

    def _grow(self, n: int) -> None:
        self._text = self.inner.prefix_text(n + self.k)[self.k :]


def shift(s: PrefixStream, k: int) -> PrefixStream:
    """Drop the first k letters of s; shift(s, 0) is s itself."""
    if k < 0:
        raise ValueError("shift offset must be non-negative")
    if k == 0:
        return s
    if isinstance(s, ShiftedStream):
        return ShiftedStream(s.inner, s.k + k)
    return ShiftedStream(s, k)
