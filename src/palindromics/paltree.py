"""Incremental palindromic tree (eertree) over an append-only letter sequence.

The structure keeps one node per distinct non-empty palindromic factor of the
processed prefix. Appending a letter creates at most one node, so the node
count (minus the two sentinel roots) always equals the number of distinct
non-empty palindromic factors seen so far. Suffix links point to the longest
proper palindromic suffix of each node's palindrome, which is always strictly
shorter.

Besides the plain append, push() and pop() let a depth-first search grow and
shrink the text letter by letter (the undoable eertree of Rubinchik & Shur,
"EERTREE", arXiv:1506.04862). Only push() records undo state, so texts built
with append() or extend() pay nothing for it.

A node is created at the first position where its palindrome ends, and at
most one node per position, so creation order is the order of first
occurrence: among palindromes of one length, the earlier-created one also
starts earlier. palindromes() lists them in that order.
"""

from __future__ import annotations


class PalTree:
    """Eertree over characters, built strictly left to right.

    Node 0 is the length -1 root, node 1 the length 0 (empty) root. Each
    real node stores its palindrome length, suffix link, per-letter
    transitions and the end position of its first occurrence.
    """

    __slots__ = (
        "_s",
        "_len",
        "_link",
        "_trans",
        "_first_end",
        "_suffix",
        "_last_growth",
        "_undo",
    )

    def __init__(self, text: str = "") -> None:
        self._s: list[str] = []
        self._len = [-1, 0]
        self._link = [0, 0]
        self._trans: list[dict[str, int]] = [{}, {}]
        self._first_end = [-1, -1]
        self._suffix = 1  # longest palindromic suffix of the processed prefix
        self._last_growth = 0
        self._undo: list[tuple[int, int]] = []  # (suffix, last_growth) per push
        self.extend(text)

    def _climb(self, v: int, pos: int) -> int:
        # Find the first suffix-link ancestor whose palindrome extends by s[pos].
        s, lens, links = self._s, self._len, self._link
        ch = s[pos]
        while True:
            j = pos - lens[v] - 1
            if j >= 0 and s[j] == ch:
                return v
            v = links[v]

    def append(self, ch: str) -> bool:
        """Process one letter; True when a new palindrome node was created."""
        self._s.append(ch)
        pos = len(self._s) - 1
        cur = self._climb(self._suffix, pos)
        nxt = self._trans[cur].get(ch)
        if nxt is not None:
            self._suffix = nxt
            return False
        new_len = self._len[cur] + 2
        if new_len == 1:
            link = 1
        else:
            link = self._trans[self._climb(self._link[cur], pos)][ch]
        self._len.append(new_len)
        self._link.append(link)
        self._trans.append({})
        self._first_end.append(pos)
        nxt = len(self._len) - 1
        self._trans[cur][ch] = nxt
        self._suffix = nxt
        self._last_growth = pos + 1
        return True

    def extend(self, text: str) -> None:
        for ch in text:
            self.append(ch)

    def push(self, ch: str) -> int:
        """Append one letter so that pop() can take it back.

        Returns the length of the palindrome the letter created (it is then
        the longest palindromic suffix), or 0 when no node was created.
        Pushes and pops nest like a stack; an append() in between is not
        undoable and must not be followed by a pop() of an earlier push.
        """
        self._undo.append((self._suffix, self._last_growth))
        if self.append(ch):
            return self._len[-1]
        return 0

    def pop(self) -> None:
        """Undo the latest push(), restoring the tree it started from."""
        suffix, self._last_growth = self._undo.pop()
        s = self._s
        pos = len(s) - 1
        if self._first_end[self._suffix] == pos:
            # The push created the newest node; drop it and the edge into
            # it from the node it extends, found by repeating the push's climb.
            del self._trans[self._climb(suffix, pos)][s[pos]]
            self._len.pop()
            self._link.pop()
            self._trans.pop()
            self._first_end.pop()
        s.pop()
        self._suffix = suffix

    @property
    def text(self) -> str:
        return "".join(self._s)

    @property
    def node_count(self) -> int:
        """All nodes including the two roots."""
        return len(self._len)

    @property
    def distinct_palindromes(self) -> int:
        """Number of distinct non-empty palindromic factors processed."""
        return len(self._len) - 2

    @property
    def suffix_node(self) -> int:
        """Node of the longest palindromic suffix (1, the empty root, at start)."""
        return self._suffix

    @property
    def last_growth(self) -> int:
        """Prefix length at which the palindrome set last grew (0 if never)."""
        return self._last_growth

    def palindromes(self) -> list[str]:
        """The distinct non-empty palindromic factors, in creation order.

        Each one is sliced at its first occurrence from one joined copy of
        the text, so the call costs about the total length it returns.
        """
        text = "".join(self._s)
        return [
            text[end - n + 1 : end + 1]
            for n, end in zip(self._len[2:], self._first_end[2:])
        ]
