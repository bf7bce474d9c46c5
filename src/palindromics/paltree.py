"""Incremental palindromic tree (eertree) over a text that changes at its end.

The structure keeps one node per distinct non-empty palindromic factor of the
processed prefix. Appending a letter creates at most one node, so the node
count (minus the two sentinel roots) always equals the number of distinct
non-empty palindromic factors seen so far. Suffix links point to the longest
proper palindromic suffix of each node's palindrome, which is always strictly
shorter.

Letters enter through extend(text). The one other writer of the tree's
lists is search.PalWalk, which runs the undoable step of Rubinchik & Shur
("EERTREE", arXiv:1506.04862) on them, adding a letter on the way down and
taking it back on the way up. It keeps extend()'s rules: one child list per
letter, each longer than the node count and 0 past it.

extend() takes each letter by one of three paths:
- The letter loop: one step per letter, the tree's lists bound to locals
  and both suffix-link climbs written inline. It reads the text _CHUNK
  letters at a time while the window table below is on, _PIECE after.
- Repeated windows. A chunk's window is the _BACK letters before it, then
  the chunk. While no palindrome is longer than _BACK - 2 letters, a chunk
  whose window came before in the same call, around a chunk that made no
  node, makes no node and ends on the node stored for that window; it is
  not read. Each letter's longest palindromic suffix is c.x.c for x a
  palindromic suffix one letter earlier, so at most two letters longer
  than the one before. The one before the chunk is at most _BACK - 2
  long, so the one at the chunk's first letter lies inside the window and
  is the same palindrome as at the stored occurrence. There it was an
  existing node, at most _BACK - 2 long, and the argument repeats letter
  by letter. The table holds at most _SEEN windows, and extend() stops
  looking them up once it is full: on a text whose windows do not repeat,
  such as random text, only the first _SEEN chunks pay for it.
- Mirror runs. A node just made has no child. While the next letter equals
  the one before the new palindrome's occurrence, it mirrors that letter
  across the palindrome's centre, so each letter makes the child of the
  node before, two letters longer and ending one letter later, with no
  climb to find it. Slice comparisons find the run's length: each slice
  is twice as long as the last after a match, up to _PIECE letters, and
  half as long after a mismatch, so a run of r letters takes O(log r)
  comparisons, plus one per _PIECE letters of a long run. The lengths
  and first ends go in with one extend() each, and each node's suffix
  link is climbed as in the letter loop. A run starts only when two
  letters mirror, so one-letter runs, common in random text, stay in the
  letter loop. A run whose mirror letters would fall before this call's
  text stops there.
On a 2^20-letter prefix, the paperfolding word, fib-abbab and closed13
(12 to 30 nodes) are nearly all repeated windows, and the Fibonacci and
Thue-Morse words, where almost every letter makes a node, nearly all mirror
runs. Random binary text takes nearly all the letter loop, and a^n, whose
palindromic suffix is the whole prefix, all of it.

Edges are stored as one list per letter, indexed by node: _to[ch][v] is
the child of v by ch, and 0 means no child. 0 can stand for "none" because
node 0, the length -1 root, is never a child. All the lists have one
length, kept above the node count: a letter's list is made, all 0, the
first time the letter comes, and when the nodes reach that length every
list grows by a quarter. Appending a 0 to every list per node instead
made 13-letter trees a sixth slower to build. The first ends sit in an
array("q"), 8 bytes a node with no int object; lengths and suffix links,
read on every letter, stay lists, as reading an array makes a new int
object on each access. On the Fibonacci word, where every letter creates
a node, a tree takes about 110 bytes per node under tracemalloc, against
165 with a dict of edges per letter and 322 with a dict per node. The
lists cost 8k to 10k bytes a node for k letters, whatever the node's
children, so at k = 8 they outgrow a dict entry per edge (about 48
bytes); the long rich texts here use 2 to 4 letters. A tree with few
nodes costs the 8 bytes a letter of its text list: a 2^18-letter
paperfolding tree peaks at 8.01 bytes a letter. The window table, at most
_SEEN windows of _BACK + _CHUNK letters (about 0.25 MB), lives only while
extend() runs.

A node is created at the first position where its palindrome ends, and at
most one node per position, so creation order is the order of first
occurrence: among palindromes of one length, the earlier-created one also
starts earlier. ends_by_length() keeps that order within each length, from
the empty root's (0, [0]) up, and palindromes() is report order: "" first,
then by length, then lexicographic. last_growth is the newest first end.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from itertools import groupby


_ROOT_ENDS = array("q", [0, 0])  # copied per tree, faster than building it
_CHUNK = 64  # letters the letter loop takes at a time
_BACK = 64  # letters before a chunk in its window
_SEEN = 1024  # windows held before extend() stops looking them up
_PIECE = 1024  # longest slice of the text that extend() makes


def _mirror_run(text: str, a: int, b: int, limit: int) -> int:
    """The greatest r <= limit with text[a:a + r] == text[b - r:b][::-1],
    found by slice comparisons whose length doubles, up to _PIECE letters,
    after a match and halves after a mismatch."""
    r, step = 0, 1
    while r < limit:
        step = min(step, limit - r)
        if text[a + r : a + r + step] == text[b - r - step : b - r][::-1]:
            r += step
            step = min(2 * step, _PIECE)
        elif step == 1:
            break
        else:
            step >>= 1
    return r


class PalTree:
    """Eertree over characters, built strictly left to right.

    Node 0 is the length -1 root, node 1 the length 0 (empty) root. Each
    real node stores its palindrome length, suffix link and the prefix
    length at its first occurrence (its first end; 0 for the roots);
    ``_to[ch][v]`` is the child of v by ch, or 0 for none; a list per letter.
    """

    __slots__ = (
        "_s",
        "_len",
        "_link",
        "_to",
        "_cap",
        "_first_end",
        "_suffix",
    )

    def __init__(self, text: str = "") -> None:
        # Letter i of the text is _s[i + 1]. The "" in front matches no
        # letter, so a suffix-link climb stops at the length -1 root at the
        # latest without a bounds check.
        self._s: list[str] = [""]
        self._len = [-1, 0]
        self._link = [0, 0]
        self._to: dict[str, list[int]] = {}
        self._cap = 16  # length of every list in _to, more than node_count
        self._first_end = _ROOT_ENDS[:]
        self._suffix = 1  # longest palindromic suffix of the processed prefix
        self.extend(text)

    def extend(self, text: str) -> None:
        """Process the letters of text in order.

        Each letter takes one of three paths, and all three give the tree
        the letter loop alone gives (the module docstring says why):
        - the letter loop, _CHUNK letters at a time;
        - while no palindrome is longer than _BACK - 2 letters, a chunk
          whose window came before in this call, around a chunk that made
          no node, ends on that chunk's node without being read;
        - after a new node, a mirror run: each letter makes the next node,
          two letters longer, and only its suffix link is climbed.
        The window table holds at most _SEEN windows and is dropped once
        full. A tree costs the 8 bytes a letter of its text list plus
        about 110 bytes a node under tracemalloc.
        """
        s, lens, links, first_end, to = (
            self._s, self._len, self._link, self._first_end, self._to
        )
        cap = self._cap
        start = len(s) - 1
        stop = start + len(text)
        s.extend(text)
        v = self._suffix
        # window -> the node a chunk after it ends on; None once off.
        seen = {} if len(text) > _BACK else None
        made = 0  # nodes from made on are not yet checked against _BACK
        p = 0  # text[p] is the next letter, letter start + p
        while p < len(text):
            if seen is not None and len(lens) > made:
                if max(lens[made:]) > _BACK - 2:
                    seen = None
            made = len(lens)
            q = p + (_CHUNK if seen is not None else _PIECE)
            window = None
            if seen is not None and p >= _BACK:
                window = text[p - _BACK : q]
                nxt = seen.get(window)
                if nxt is not None:
                    v = nxt
                    p = q
                    continue
            # ch is letter i, s[i + 1]. It extends the palindromic suffix v
            # when the letter before v's occurrence, s[i - len(v)], is ch.
            for i, ch in enumerate(text[p:q], start + p):
                while s[i - lens[v]] != ch:
                    v = links[v]
                edges = to.get(ch)
                if edges is None:
                    edges = to[ch] = [0] * cap
                nxt = edges[v]
                if not nxt:
                    n = lens[v] + 2
                    if n == 1:
                        link = 1
                    else:
                        w = links[v]
                        while s[i - lens[w]] != ch:
                            w = links[w]
                        link = edges[w]
                    nxt = edges[v] = len(lens)
                    lens.append(n)
                    links.append(link)
                    first_end.append(i + 1)
                    if nxt + 1 == cap:
                        cap = self._widen()
                    # Letters i + 1 and i + 2 mirror letters i - n and
                    # i - n - 1 across the new palindrome. All four inside
                    # text and each pair equal: a run of two or more starts.
                    if (
                        i - n > start
                        and i + 2 < stop
                        and s[i + 2] == s[i + 1 - n]
                        and s[i + 3] == s[i - n]
                    ):
                        break
                v = nxt
            else:
                if window is not None and len(lens) == made:
                    seen[window] = v
                    if len(seen) == _SEEN:
                        seen = None
                p = q
                continue
            # Node nxt, n letters long, ended at letter i and has no child.
            # While letter i + k equals letter i - n + 1 - k, letter i + k
            # makes the child of the node before, n + 2k long and first
            # ending at letter i + k; only its suffix link needs a climb.
            v = nxt
            j = i + 1 - start
            run = _mirror_run(text, j, j - n, min(stop - i - 1, j - n))
            while len(lens) + run >= cap:
                cap = self._widen()
            lens.extend(range(n + 2, n + 2 * run + 1, 2))
            first_end.extend(range(i + 2, i + run + 2))
            for i in range(i + 1, i + run + 1):
                ch = s[i + 1]
                edges = to[ch]
                w = links[v]
                while s[i - lens[w]] != ch:
                    w = links[w]
                # The new node is len(links). edges[v] is written first, then
                # v; len() makes a 28-byte int where v + 1 makes a 32-byte one.
                edges[v] = v = len(links)
                links.append(edges[w])
            p = j + run
        self._suffix = v

    def _widen(self) -> int:
        """Lengthen every child list by a quarter, plus 8, and return the
        new length. A step this large outgrows list's own over-allocation,
        so the lists carry no slack beyond their length."""
        more = [0] * ((self._cap >> 2) + 8)
        for table in self._to.values():
            table += more
        self._cap += len(more)
        return self._cap

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
    def last_growth(self) -> int:
        """Prefix length at which the palindrome set last grew: the first end
        of the newest node, or the roots' 0 when there is no palindrome."""
        return self._first_end[-1]

    def palindromes(self) -> Iterator[str]:
        """Every distinct palindromic factor, "" first, in report order: by
        length, then lexicographic, sliced and sorted one length at a time."""
        text = "".join(self._s)
        for n, ends in self.ends_by_length():
            yield from sorted([text[end - n : end] for end in ends])

    def ends_by_length(self) -> Iterator[tuple[int, list[int]]]:
        """(n, first ends of the palindromes of length n) for each length n
        present, from the empty root's (0, [0]) up; each list is in creation
        order, and text[end - n : end] is its palindrome. Only the node
        order, sorted by length, is held whole."""
        lens, first_end = self._len, self._first_end
        order = sorted(range(1, len(lens)), key=lens.__getitem__)
        for n, nodes in groupby(order, key=lens.__getitem__):
            yield n, [first_end[v] for v in nodes]

    def length_counts(self) -> dict[int, int]:
        """n -> number of palindromes of length n, for each length present,
        "" included: one count over the node lengths, in no set order."""
        return dict(Counter(self._len[1:]))

    def longest_ends(self) -> tuple[int, list[int]]:
        """(n, first ends of the palindromes of maximal length n) in creation
        order, so the first is the earliest to occur; (0, [0]) for no
        palindrome. Each scan of the lengths (max, count, index) runs in C."""
        lens = self._len
        n = max(lens)
        v, ends = 0, []
        for _ in range(lens.count(n)):
            v = lens.index(n, v + 1)
            ends.append(self._first_end[v])
        return n, ends
