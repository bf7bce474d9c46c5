"""The four benchmark workloads: their inputs, one pass, and the output check.

Every operation returns a small JSON-able summary of its output. The summary
is compared after the timed pass with ``record.json`` (outputs recorded from
the library) or, for the seeded random text, with the independent oracle in
``oracle.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import random
import sys
import traceback
from pathlib import Path

from oracle import distinct_palindrome_count
from tracing import Tracer, clock

from palindromics import PalTree, cli, claims
from palindromics.generators import resolve_generator

WORKLOADS = ("verify-suite", "deep-returns", "long-words", "pal-report")
RECORD = Path(__file__).with_name("record.json")

CLAIM_IDS = tuple(sorted(claims.CLAIMS))
RETURN_IDS = tuple(sorted(claims.RETURN_CLAIMS))
DEEP_MAX_LEN = 48

LONG_LETTERS = 1 << 20
GENERATORS = {  # metric name -> generator reference
    "fibonacci": "fibonacci",
    "paperfolding": "paperfolding",
    "thue-morse": "fix(a->ab,b->ba, a)",
    "fib-abbab": "fib-abbab",
    "closed13": "closed13",
}
TEXTS = tuple(GENERATORS) + ("random",)

REPORT_COMMANDS = {
    "pal-fibonacci": ["pal", "--gen", "fibonacci", "--format", "json"],
    "pal-fibonacci-16000": [
        "pal", "--gen", "fibonacci", "--horizon", "16000", "--format", "json",
    ],
    "closure-paperfolding": [
        "closure", "--gen", "paperfolding", "--k", "12", "--horizon", "65536",
        "--format", "json",
    ],
}


def _normalized(record) -> object:
    return json.loads(json.dumps(record, sort_keys=True))


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Sink:
    """Stand-in for stdout that keeps only a byte count and a digest."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.bytes = 0
        self.hash = hashlib.sha256()

    def write(self, s: str) -> int:
        with _span(self.tracer, "bench.sink"):
            for i in range(0, len(s), 1 << 20):
                chunk = s[i : i + (1 << 20)].encode()
                self.bytes += len(chunk)
                self.hash.update(chunk)
        return len(s)

    def flush(self) -> None:
        pass


def _verify_op(cid: str):
    def op(tracer):
        with _span(tracer, f"claims.{cid}"):
            verdict = claims.run_claim(cid)
        record = verdict.to_record()
        del record["stats"]
        return _normalized(record)

    return op


def _deep_op(cid: str):
    claim = dataclasses.replace(claims.RETURN_CLAIMS[cid], max_len=DEEP_MAX_LEN)

    def op(tracer):
        with _span(tracer, f"claims.{cid}"):
            verdict = claims.run_return_family_claim(claim)
        seen = verdict.witnesses[0].get("returns_seen") if verdict.witnesses else None
        return {"status": verdict.status, "returns_seen": seen}

    return op


def _tree_summary(tracer, name: str, text: str) -> dict:
    with _span(tracer, f"paltree.{name}"):
        tree = PalTree(text)
        distinct = tree.distinct_palindromes
    if tracer is not None:
        tracer.counts["paltree.trees"] += 1
        tracer.counts["paltree.letters"] += len(text)
        tracer.counts[f"paltree.{name}.nodes"] += tree.node_count
    return {"length": len(text), "distinct": distinct, "nodes": tree.node_count}


def _stream_op(name: str, ref: str):
    def op(tracer):
        with _span(tracer, f"streams.{name}"):
            text = resolve_generator(ref).prefix_text(LONG_LETTERS)
        out = _tree_summary(tracer, name, text)
        out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        return out

    return op


def _random_op(text: str):
    return lambda tracer: _tree_summary(tracer, "random", text)


def _report_op(argv: list[str]):
    def op(tracer):
        sink = Sink(tracer)
        with _span(tracer, "cli.main"), contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += sink.bytes
        return {"rc": rc, "bytes": sink.bytes, "sha256": sink.hash.hexdigest()}

    return op


def random_text(seed: int, n: int = LONG_LETTERS) -> str:
    """Seeded uniform binary text over {a, b}."""
    bits = random.Random(seed).getrandbits(n)
    return format(bits, f"0{n}b").translate(str.maketrans("01", "ab"))


@dataclasses.dataclass
class Workload:
    name: str
    seed: int
    ops: dict  # key -> callable(tracer | None) -> output summary
    random_text: str | None = None


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; the seed fixes the random text."""
    if name == "verify-suite":
        return Workload(name, seed, {cid: _verify_op(cid) for cid in CLAIM_IDS})
    if name == "deep-returns":
        return Workload(name, seed, {cid: _deep_op(cid) for cid in RETURN_IDS})
    if name == "long-words":
        ops = {n: _stream_op(n, ref) for n, ref in GENERATORS.items()}
        text = random_text(seed)
        ops["random"] = _random_op(text)
        return Workload(name, seed, ops, random_text=text)
    if name == "pal-report":
        return Workload(name, seed, {k: _report_op(v) for k, v in REPORT_COMMANDS.items()})
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def run_pass(workload: Workload, rng: random.Random, tracer: Tracer | None = None):
    """Run every operation once, in an order drawn from rng.

    Returns the wall time of the pass and the output of each operation, or
    None for an operation that raised.
    """
    order = list(workload.ops)
    rng.shuffle(order)
    gc.collect()
    outputs = {}
    start = clock()
    for key in order:
        try:
            outputs[key] = workload.ops[key](tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs[key] = None
    return clock() - start, outputs


def _per_layer_specs() -> list[tuple[str, str, str]]:
    specs = [(f"claims.{cid}.s", "s", "lower") for cid in CLAIM_IDS]
    specs += [
        ("claims.self_s", "s", "lower"),
        ("search.scan_complete_returns.s", "s", "lower"),
        ("search.nodes", "count", "lower"),
        ("search.nodes_per_s", "1/s", "higher"),
        ("search.returns_per_node", "ratio", "higher"),
        ("search.enumerate_words.s", "s", "lower"),
        ("search.enumerate_words.words", "count", "lower"),
        ("search.low_palindrome_words.s", "s", "lower"),
        ("search.deepest_word.s", "s", "lower"),
        ("paltree.trees", "count", "lower"),
        ("paltree.letters", "count", "lower"),
        ("paltree.s", "s", "lower"),
        ("paltree.letters_per_s", "1/s", "higher"),
        ("paltree.letters_per_tree", "ratio", "lower"),
    ]
    for text in TEXTS:
        specs.append((f"paltree.{text}.letters_per_s", "1/s", "higher"))
        specs.append((f"paltree.{text}.nodes", "count", "lower"))
    specs += [(f"streams.{gen}.letters_per_s", "1/s", "higher") for gen in GENERATORS]
    specs += [
        ("streams.prefix_text.calls", "count", "lower"),
        ("streams.prefix_text.s", "s", "lower"),
        ("analysis.stabilized_pal_set.s", "s", "lower"),
        ("analysis.pal_set.s", "s", "lower"),
        ("analysis.reversal_closure_check.s", "s", "lower"),
        ("analysis.report_chars", "count", "lower"),
        ("cli.main.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


PER_LAYER = _per_layer_specs()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s).

    A layer the workload does not reach reads 0.
    """
    total, own = tracer.totals()
    counts = tracer.counts
    m = {f"claims.{cid}.s": total[f"claims.{cid}"] for cid in CLAIM_IDS}
    m["claims.self_s"] = sum(v for k, v in own.items() if k.startswith("claims."))
    scan_s = total["search.scan_complete_returns"]
    m["search.scan_complete_returns.s"] = scan_s
    m["search.nodes"] = counts["search.nodes"]
    m["search.nodes_per_s"] = _ratio(counts["search.nodes"], scan_s)
    m["search.returns_per_node"] = _ratio(counts["search.returns"], counts["search.nodes"])
    m["search.enumerate_words.s"] = total["search.enumerate_words"]
    m["search.enumerate_words.words"] = counts["search.enumerate_words.words"]
    m["search.low_palindrome_words.s"] = total["search.low_palindrome_words"]
    m["search.deepest_word.s"] = total["search.deepest_word"]
    paltree_s = sum(v for k, v in total.items() if k.split(".")[0] == "paltree")
    m["paltree.trees"] = counts["paltree.trees"]
    m["paltree.letters"] = counts["paltree.letters"]
    m["paltree.s"] = paltree_s
    m["paltree.letters_per_s"] = _ratio(counts["paltree.letters"], paltree_s)
    m["paltree.letters_per_tree"] = _ratio(counts["paltree.letters"], counts["paltree.trees"])
    for text in TEXTS:
        m[f"paltree.{text}.letters_per_s"] = _ratio(LONG_LETTERS, total[f"paltree.{text}"])
        m[f"paltree.{text}.nodes"] = counts[f"paltree.{text}.nodes"]
    for gen in GENERATORS:
        m[f"streams.{gen}.letters_per_s"] = _ratio(LONG_LETTERS, total[f"streams.{gen}"])
    m["streams.prefix_text.calls"] = counts["streams.prefix_text.calls"]
    m["streams.prefix_text.s"] = total["streams.prefix_text"]
    for name in ("stabilized_pal_set", "pal_set", "reversal_closure_check"):
        m[f"analysis.{name}.s"] = total[f"analysis.{name}"]
    m["analysis.report_chars"] = counts["analysis.report_chars"]
    m["cli.main.s"] = total["cli.main"]
    m["cli.self_s"] = own["cli.main"]
    m["cli.stdout_bytes"] = counts["cli.stdout_bytes"]
    return m


_SIZE = {  # span name -> (counter giving its size, unit of that size)
    "paltree": ("paltree.letters", "letters"),
    "search.scan_complete_returns": ("search.nodes", "nodes"),
    "search.enumerate_words": ("search.enumerate_words.words", "words"),
    "cli.main": ("cli.stdout_bytes", "bytes"),
}


def layer_rows(tracer: Tracer, peak_rss_mb: float) -> list[dict]:
    """One row per span name of a traced pass: layer, case, size, seconds,
    rate and the workload process's peak RSS."""
    total, _ = tracer.totals()
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    rows = []
    for name in sorted(total):
        layer, _, case = name.partition(".")
        if name in _SIZE:
            counter, unit = _SIZE[name]
            size = tracer.counts[counter]
        elif layer in ("paltree", "streams") and case in TEXTS:
            size, unit = LONG_LETTERS, "letters"
        else:
            size, unit = calls[name], "calls"
        rows.append({
            "layer": layer,
            "case": case or "all",
            "size": size,
            "size_unit": unit,
            "seconds": total[name],
            "rate": _ratio(size, total[name]),
            "peak_rss_mb": peak_rss_mb,
        })
    return rows


def expected_outputs(workload: Workload) -> dict:
    """What each operation must return: the record, plus the oracle's count
    for the random text."""
    expected = dict(json.loads(RECORD.read_text())[workload.name])
    if workload.random_text is not None:
        distinct = distinct_palindrome_count(workload.random_text)
        expected["random"] = {
            "length": len(workload.random_text),
            "distinct": distinct,
            "nodes": distinct + 2,
        }
    return expected
