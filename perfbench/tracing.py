"""Spans and counters recorded around calls into the palindromics modules.

The wrappers live here, in the benchmark, and replace a public function only
in the namespace of the module that calls it (for example
``palindromics.claims.PalTree``), so the library itself is never edited.
Each wrapper covers one whole call. Spans stay in memory as
``[name, start, end, parent]`` and are aggregated or written out after a pass.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with a parent stack for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:  # a generator closed out of order
            self._stack.remove(idx)

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def totals(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span. A span nested in one of the same
        name (a recursive call) adds to self time only, so totals do not
        count it twice.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        total: Counter = Counter()
        own: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[name] += (end - start) - covered
        return total, own


def _plain(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _paltree(tracer: Tracer, fn):
    def wrapper(text: str = ""):
        idx = tracer.begin("paltree")
        try:
            return fn(text)
        finally:
            tracer.end(idx)
            tracer.counts["paltree.trees"] += 1
            tracer.counts["paltree.letters"] += len(text)

    return wrapper


def _returns_scan(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin("search.scan_complete_returns")
        try:
            scan = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.counts["search.nodes"] += scan.stats.nodes
        tracer.counts["search.returns"] += len(scan.returns)
        return scan

    return wrapper


def _enumeration(tracer: Tracer, fn):
    # The span runs from the first word to exhaustion, so it covers the
    # caller's loop body too; PalTree builds inside it are child spans.
    def wrapper(*args, **kwargs):
        idx = tracer.begin("search.enumerate_words")
        words = 0
        try:
            for w in fn(*args, **kwargs):
                words += 1
                yield w
        finally:
            tracer.end(idx)
            tracer.counts["search.enumerate_words.words"] += words

    return wrapper


def _report(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            report = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.counts["analysis.report_chars"] += sum(map(len, report.palindromes))
        return report

    return wrapper


# (module, attribute, wrapper factory); each entry names the module that
# performs the lookup, not the module that defines the function.
_TARGETS = [
    ("palindromics.claims", "PalTree", _paltree),
    ("palindromics.search", "PalTree", _paltree),
    ("palindromics.analysis", "PalTree", _paltree),
    ("palindromics.claims", "scan_complete_returns", _returns_scan),
    ("palindromics.claims", "enumerate_words", _enumeration),
    ("palindromics.search", "low_palindrome_words",
     lambda t, fn: _plain(t, "search.low_palindrome_words", fn)),
    ("palindromics.claims", "deepest_word",
     lambda t, fn: _plain(t, "search.deepest_word", fn)),
    ("palindromics.claims", "reversal_closure_check",
     lambda t, fn: _plain(t, "analysis.reversal_closure_check", fn)),
    ("palindromics.cli", "reversal_closure_check",
     lambda t, fn: _plain(t, "analysis.reversal_closure_check", fn)),
    ("palindromics.claims", "pal_set",
     lambda t, fn: _report(t, "analysis.pal_set", fn)),
    ("palindromics.cli", "pal_set",
     lambda t, fn: _report(t, "analysis.pal_set", fn)),
    ("palindromics.claims", "stabilized_pal_set",
     lambda t, fn: _report(t, "analysis.stabilized_pal_set", fn)),
    ("palindromics.cli", "stabilized_pal_set",
     lambda t, fn: _report(t, "analysis.stabilized_pal_set", fn)),
]


@contextmanager
def installed(tracer: Tracer):
    """Route the calls listed in _TARGETS and PrefixStream.prefix_text
    through spans of the tracer; restore the originals on exit."""
    from palindromics.streams import PrefixStream

    saved = []
    for mod_name, attr, factory in _TARGETS:
        mod = importlib.import_module(mod_name)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, factory(tracer, getattr(mod, attr)))
    prefix_text = PrefixStream.prefix_text
    traced_prefix = _plain(tracer, "streams.prefix_text", prefix_text)

    def counted_prefix(self, n):
        tracer.counts["streams.prefix_text.calls"] += 1
        return traced_prefix(self, n)

    PrefixStream.prefix_text = counted_prefix
    try:
        yield tracer
    finally:
        PrefixStream.prefix_text = prefix_text
        for mod, attr, original in saved:
            setattr(mod, attr, original)
