"""Incremental palindromic tree (eertree) over a text that changes at its end.

The structure keeps one node per distinct non-empty palindromic factor of the
processed prefix. Appending a letter creates at most one node, so the node
count (minus the two sentinel roots) always equals the number of distinct
non-empty palindromic factors seen so far. Suffix links point to the longest
proper palindromic suffix of each node's palindrome, which is always strictly
shorter.

Letters enter in two ways. extend(text) is the bulk path for long texts (the
stabilizer, `pal --gen`, long prefixes of the named words): one loop with the
tree's lists bound to locals and both suffix-link climbs written inline.
push(ch) and pop() let a depth-first search grow and shrink the text letter
by letter (the undoable eertree of Rubinchik & Shur, "EERTREE",
arXiv:1506.04862). push() writes out the same step for one letter and also
records the suffix it started from and the node it gave a child, so pop()
clears that edge without climbing again; extend() pays nothing for undo.
A push() routed through extend() made depth-48 returns scans a fifth slower.

Edges are stored as one list per letter, indexed by node: _to[ch][v] is
the child of v by ch, and 0 means no child. 0 can stand for "none" because
node 0, the length -1 root, is never a child. All the lists have one
length, kept above the node count: a letter's list is made, all 0, the
first time the letter comes, and when the nodes reach that length every
list grows by a quarter. pop() clears the edge and leaves the lengths.
Appending a 0 to every list per node instead made 13-letter trees a sixth
slower to build and push()/pop() a fifth slower. The first ends sit in an
array("q"), 8 bytes a node with no int object; lengths and suffix links,
read on every letter, stay lists, as reading an array makes a new int
object on each access. On the Fibonacci word, where every letter creates
a node, a tree takes about 110 bytes per node under tracemalloc, against
165 with a dict of edges per letter and 322 with a dict per node. The
lists cost 8k to 10k bytes a node for k letters, whatever the node's
children, so at k = 8 they outgrow a dict entry per edge (about 48
bytes); the long rich texts here use 2 to 4 letters.

A node is created at the first position where its palindrome ends, and at
most one node per position, so creation order is the order of first
occurrence: among palindromes of one length, the earlier-created one also
starts earlier. ends_by_length() keeps that order within each length, from
the empty root's (0, [0]) up, and palindromes() is report order: "" first,
then by length, then lexicographic. last_growth is the first end of the
newest node, so push() and pop() need not track it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import groupby


_ROOT_ENDS = array("q", [0, 0])  # copied per tree, faster than building it


class PalTree:
    """Eertree over characters, built strictly left to right.

    Node 0 is the length -1 root, node 1 the length 0 (empty) root. Each
    real node stores its palindrome length, suffix link and the prefix
    length at its first occurrence (its first end; 0 for the roots);
    ``_to[ch][v]`` is the child of v by ch, or 0 for none, in one list per
    letter seen; ``_undo`` holds one (suffix, parent) record per push().
    """

    __slots__ = (
        "_s",
        "_len",
        "_link",
        "_to",
        "_cap",
        "_first_end",
        "_suffix",
        "_undo",
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
        # parent is the node a push gave a child, or -1 if it created none.
        self._undo: list[tuple[int, int]] = []
        self.extend(text)

    def extend(self, text: str) -> None:
        """Process the letters of text in order; pop() cannot undo them."""
        s, lens, links, first_end, to = (
            self._s, self._len, self._link, self._first_end, self._to
        )
        cap = self._cap
        start = len(s) - 1
        s.extend(text)
        v = self._suffix
        # ch is letter i, s[i + 1]. It extends the palindromic suffix v when
        # the letter before v's occurrence, s[i - len(v)], is ch too.
        for i, ch in enumerate(text, start):
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
            v = nxt
        self._suffix = v

    def push(self, ch: str) -> int:
        """Append one letter so that pop() can take it back.

        Returns the length of the palindrome the letter created (it is then
        the longest palindromic suffix), or 0 when no node was created.
        Pushes and pops nest like a stack; an extend() in between is not
        undoable and must not be followed by a pop() of an earlier push.
        """
        s, lens, links, to = self._s, self._len, self._link, self._to
        i = len(s) - 1
        s.append(ch)
        suffix = v = self._suffix
        while s[i - lens[v]] != ch:
            v = links[v]
        edges = to.get(ch)
        if edges is None:
            edges = to[ch] = [0] * self._cap
        nxt = edges[v]
        if nxt:
            self._undo.append((suffix, -1))
            self._suffix = nxt
            return 0
        n = lens[v] + 2
        if n == 1:
            link = 1
        else:
            w = links[v]
            while s[i - lens[w]] != ch:
                w = links[w]
            link = edges[w]
        self._undo.append((suffix, v))
        self._suffix = edges[v] = len(lens)
        lens.append(n)
        links.append(link)
        self._first_end.append(i + 1)
        if len(lens) == self._cap:
            self._widen()
        return n

    def _widen(self) -> int:
        """Lengthen every child list by a quarter, plus 8, and return the
        new length. A step this large outgrows list's own over-allocation,
        so the lists carry no slack beyond their length."""
        more = [0] * ((self._cap >> 2) + 8)
        for table in self._to.values():
            table += more
        self._cap += len(more)
        return self._cap

    def pop(self) -> None:
        """Undo the latest push(), restoring the tree it started from."""
        self._suffix, parent = self._undo.pop()
        ch = self._s.pop()
        if parent >= 0:
            self._to[ch][parent] = 0
            self._len.pop()
            self._link.pop()
            self._first_end.pop()

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
