"""Command-line surface: analyze words and streams, run verifiers, export corpora.

Every command honours --format text|json, and stdout is written only by
_emit: a command hands it a zero-argument callable that builds the JSON
record and the text lines, and _emit calls or iterates only the one asked
for. JSON is laid out by json's own encoder. A listing of palindromes or
words in a record is a _Words: its letters are checked once to be in a..h,
before any output, so its words need no escaping and are written as
themselves, in the layout the encoder gives the list, while they are
consumed. Output leaves in writes of at least _BLOCK characters, only the
last shorter; a write holds less than _BLOCK characters plus one word, so
no listing is held whole. Errors go to stderr. Exit codes: 0
success/verified, 1 refuted claim, 2 usage error, 141 (128 + SIGPIPE) when
the reader closed stdout early, as in ``| head``; that exit prints nothing
to stderr.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict
from functools import partial
from itertools import chain

from .analysis import (
    complete_first_returns,
    pal_set,
    reversal_closure_check,
    stabilized_pal_set,
)
from .claims import CLAIMS, manifest, run_all, run_claim
from .generators import UnknownGeneratorError, preset_names, resolve_generator
from .search import enumerate_words
from .words import SYMBOLS, alphabet, alphabet_of, least_period


# Most letters pal, gen and closure read from a generator. pal's tree takes
# about 110 bytes a letter on a rich word, so 2^22 letters is about 0.5 GB,
# and a stream that never stabilizes, such as pow:ab, grows its tree to the
# cap; gen and closure hold a few copies of the prefix.
_MAX_LETTERS = 1 << 22

# Longest factors closure checks. The limit bounds the output, not the
# search: the report lists every missing reversal, about k^2 of them on a
# word that misses many (paperfolding at horizon 4096: 8,179 pairs and
# 2.2 MB at k = 64, 131,443 and 68 MB at k = 256, 1,114,995 and 1.48 GB at
# k = 1024).
_MAX_CLOSURE_K = 64

# Least characters in one stdout write; only the last write is shorter.
_BLOCK = 1 << 16


def _check_letters(*flags: tuple[str, int | None]) -> None:
    """Refuse a letter count over _MAX_LETTERS, before any stream is built."""
    for flag, letters in flags:
        if letters is not None and letters > _MAX_LETTERS:
            raise ValueError(f"{flag} {letters} is over the limit of "
                             f"{_MAX_LETTERS} letters")


class _Words:
    """A listing for _emit: an iterator of words over a..h, which it writes
    to JSON as themselves.

    letters holds every letter the words use: the text they are slices of,
    or their alphabet. It is checked here, once, before any output, so no
    word needs json's per-character escaping.
    """

    def __init__(self, words: Iterable[str], letters: str) -> None:
        if letters.strip(SYMBOLS):  # a letter outside a..h is left
            alphabet_of(letters)  # raises, naming the first one
        self.words = iter(words)


class _Blocks:
    """_emit's writer: pieces are held until they reach _BLOCK characters,
    then go to stdout as one write, so a block holds at most _BLOCK - 1
    characters plus its last piece; close() writes what is left."""

    def __init__(self) -> None:
        self.pieces: list[str] = []
        self.size = 0

    def write(self, piece: str) -> None:
        self.pieces.append(piece)
        self.size += len(piece)
        if self.size >= _BLOCK:
            self.close()

    def close(self) -> None:
        if self.pieces:
            block = "".join(self.pieces)
            self.pieces.clear()
            self.size = 0
            sys.stdout.write(block)


def _emit(
    fmt: str, record: Callable[[], object], lines: Iterable[str | Iterable[str]]
) -> None:
    """Print record() as indented JSON, or print lines: the only stdout writer.

    record is called only for JSON, and lines is iterated only for text, so
    neither format builds what the other prints. The JSON is the text of
    json.dumps(record(), sort_keys=True, indent=2), laid out by json's own
    encoder. A listing (_Words, its letters checked once) reaches the
    encoder as the placeholder [""], or [] when it is empty. The chunk that
    opens the placeholder, "[" with the newline and indent and then "",
    gives the layout, and the words are written in it as themselves, as
    they are consumed: no listing is held whole or escaped. Any other value
    json cannot write, a bare iterator too, raises json's TypeError. A line
    is a str, or an iterable of parts written one by one, separated by
    spaces, without joining them. Encoder chunks, words, lines and parts
    all go through one _Blocks, so stdout sees writes of at least _BLOCK
    characters, never a whole listing; what precedes an error is written.
    """
    out = _Blocks()
    write = out.write
    try:
        if fmt == "json":
            opened: list[Iterator[str]] = []

            def default(value: object) -> list:
                if not isinstance(value, _Words):
                    return json.JSONEncoder.default(encoder, value)  # raises TypeError
                first = next(value.words, None)
                if first is None:
                    return []
                opened.append(chain((first,), value.words))
                return [""]

            encoder = json.JSONEncoder(sort_keys=True, indent=2, default=default)
            for chunk in encoder.iterencode(record()):
                if opened:
                    # default has just met a listing, and chunk opens its placeholder.
                    head = chunk[:-1]
                    between = '"' + encoder.item_separator + chunk[1:-1]
                    for word in opened.pop():
                        write(head)
                        write(word)
                        head = between
                    chunk = '"'
                write(chunk)
            write("\n")
            return
        for line in lines:
            if isinstance(line, str):
                write(line)
            else:
                sep = ""
                for part in line:
                    write(sep)
                    write(part)
                    sep = " "
            write("\n")
    finally:
        out.close()


_COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def _clause_int(clause: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad filter clause {clause!r}") from None


def _parse_filter(expr: str | None):
    """Filter expressions: comma-separated clauses, all of which must hold.

    Clauses: rich | nonrich | palcount==N | palcount<=N | palcount>=N
    | contains:<word> | avoids:<word> | period==N | maxpal<=N, where a
    word is non-empty and over a..h. period==N never matches the empty word.

    Clauses on the word run first; the clauses on its palindromes then share
    one pal_set report, built only for words that passed the others.
    """
    if not expr:
        return lambda w: True
    on_word, on_report = [], []
    for raw in expr.split(","):
        clause = raw.strip()
        if not clause:
            continue
        if clause == "rich":
            on_report.append(lambda r: r.richness_defect == 0)
        elif clause == "nonrich":
            on_report.append(lambda r: r.richness_defect > 0)
        elif clause.startswith("palcount"):
            compare = _COMPARE.get(clause[len("palcount") : len("palcount") + 2])
            if compare is None:
                raise ValueError(f"bad palcount clause {clause!r}")
            n = _clause_int(clause, clause[len("palcount") + 2 :])
            on_report.append(lambda r, c=compare, n=n: c(r.count, n))
        elif clause.startswith(("contains:", "avoids:")):
            kind, _, needle = clause.partition(":")
            if not needle:
                raise ValueError(f"bad filter clause {clause!r}")
            alphabet_of(needle)  # raises on a letter outside a..h
            on_word.append(lambda w, s=needle, c=kind == "contains": (s in w) == c)
        elif clause.startswith("period=="):
            n = _clause_int(clause, clause.split("==", 1)[1])
            on_word.append(lambda w, n=n: w != "" and least_period(w) == n)
        elif clause.startswith("maxpal<="):
            n = _clause_int(clause, clause.split("<=", 1)[1])
            on_report.append(lambda r, n=n: len(r.longest) <= n)
        else:
            raise ValueError(f"unknown filter clause {clause!r}")

    def pred(w) -> bool:
        if not all(c(w) for c in on_word):
            return False
        if not on_report:
            return True
        report = pal_set(w)
        return all(c(report) for c in on_report)

    return pred


def _listing(report, *head: str) -> Iterator[str | Iterator[str]]:
    """Text lines of a report that lists its palindromes.

    The palindrome line is an iterator of parts that slices the palindromes
    from report.tree as _emit writes them, "" as ~, so JSON output never
    starts it and text output holds one length of palindromes at a time.
    """
    yield from head
    yield chain(("palindromes:",), (p or "~" for p in report.tree.palindromes()))


def _report_record(report) -> dict:
    """report's JSON record, its palindromes a listing of slices of its text."""
    record = report.to_record()
    record["palindromes"] = _Words(record["palindromes"], report.tree.text)
    return record


def _cmd_pal(args) -> int:
    _check_letters(("--cap", args.cap), ("--horizon", args.horizon))
    if args.word is not None:
        if args.horizon is not None:
            raise ValueError("--horizon needs --gen; a --word is read whole")
        alphabet_of(args.word)  # raises on a letter outside a..h
        report = pal_set(args.word)
        lines = _listing(
            report,
            f"word length {report.word_length}: {report.count} palindromes, "
            f"longest {report.longest!r} (length {len(report.longest)})",
        )
    elif args.horizon is not None:
        report = pal_set(resolve_generator(args.gen).prefix_text(args.horizon))
        lines = [
            f"{args.gen} prefix {args.horizon}: {report.count} palindromes, "
            f"longest {report.longest!r} (length {len(report.longest)})",
        ]
    else:
        report = stabilized_pal_set(resolve_generator(args.gen), cap=args.cap)
        lines = _listing(
            report,
            f"{args.gen}: {report.count} palindromes ({report.flag}), "
            f"longest {report.longest!r} (length {len(report.longest)})",
            f"stable at horizon {report.stable_horizon}, "
            f"checked to {report.checked_horizon}",
        )
    _emit(args.format, partial(_report_record, report), lines)
    return 0


def _cmd_closure(args) -> int:
    _check_letters(("--horizon", args.horizon))
    if args.k > _MAX_CLOSURE_K:
        raise ValueError(f"--k {args.k} is over the limit of {_MAX_CLOSURE_K}")
    stream = resolve_generator(args.gen)
    report = reversal_closure_check(stream, k=args.k, horizon=args.horizon)
    lines = [
        f"{args.gen}: closure window k={report.k} horizon={report.horizon}: "
        + ("no missing reversals" if report.closed else
           f"{len(report.witness_missing)} missing"),
        f"closed up to factor length {report.closed_up_to}",
    ]
    lines += [f"  factor {u!r} missing reversal {r!r}"
              for u, r in report.witness_missing[:20]]
    _emit(args.format, partial(asdict, report), lines)
    return 0


def _cmd_returns(args) -> int:
    alphabet_of(args.word)
    alphabet_of(args.anchor)
    scan = complete_first_returns(args.word, args.anchor)
    if not scan.anchor_found:
        lines = [f"anchor {scan.anchor!r} does not occur"]
    else:
        lines = [f"{len(scan.returns)} complete first return(s) to {scan.anchor!r}:"]
        lines += [f"  {r}" for r in scan.returns]
    _emit(args.format, partial(asdict, scan), lines)
    return 0


def _cmd_gen(args) -> int:
    _check_letters(("--horizon", args.horizon))
    prefix = resolve_generator(args.gen).prefix_text(args.horizon)
    _emit(args.format, partial(dict, generator=args.gen, prefix=prefix), [prefix])
    return 0


def _cmd_verify(args) -> int:
    if args.claim == "list":
        lines = (f"{e['claim_id']}: {e['summary']}" for e in manifest())
        _emit(args.format, manifest, lines)
        return 0
    if args.claim == "all":
        verdicts = run_all()
    elif args.claim in CLAIMS:
        verdicts = [run_claim(args.claim)]
    else:
        print(f"unknown claim {args.claim!r}; known claims:", file=sys.stderr)
        for entry in manifest():
            print(f"  {entry['claim_id']}", file=sys.stderr)
        return 2
    lines = []
    for v in verdicts:
        lines.append(f"{v.claim_id}: {v.status}  bound={v.bound}")
        if v.status == "refuted":
            lines += [f"  witness: {w}" for w in v.witnesses[:5]]
    _emit(args.format, lambda: [v.to_record() for v in verdicts], lines)
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_enumerate(args) -> int:
    symbols = alphabet(args.alphabet)
    pred = _parse_filter(args.filter)
    words = filter(pred, enumerate_words(symbols, args.n, dedupe=args.dedupe))

    def lines() -> Iterator[str]:  # streamed: the text never holds the word list
        comment = f"# words over {symbols!r}, length {args.n}"
        if args.filter:
            comment += f", filter {args.filter!r}"
        yield comment
        shown = 0
        for shown, text in enumerate(words, 1):
            yield text
        yield f"# {shown} word(s)"

    record = partial(dict, alphabet=symbols, n=args.n, dedupe=args.dedupe,
                     filter=args.filter, words=_Words(words, symbols))
    _emit(args.format, record, lines())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palindromics",
        description="Palindromic factors of finite words and lazy infinite words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output as human text or structured JSON",
        )

    p_pal = sub.add_parser("pal", help="palindrome report for a word or stream")
    src = p_pal.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="finite word (letters a..h)")
    src.add_argument("--gen", help="generator preset or spec string")
    p_pal.add_argument("--horizon", type=int, default=None,
                       help="fixed prefix length (otherwise stabilize)")
    p_pal.add_argument("--cap", type=int, default=16384,
                       help="stabilizer cap horizon")
    add_format(p_pal)
    p_pal.set_defaults(func=_cmd_pal)

    p_clo = sub.add_parser("closure", help="reversal-closure window check")
    p_clo.add_argument("--gen", required=True)
    p_clo.add_argument("--k", type=int, default=5, help="max factor length")
    p_clo.add_argument("--horizon", type=int, default=4096)
    add_format(p_clo)
    p_clo.set_defaults(func=_cmd_closure)

    p_ret = sub.add_parser("returns", help="complete first returns in a word")
    p_ret.add_argument("--word", required=True)
    p_ret.add_argument("--anchor", required=True)
    add_format(p_ret)
    p_ret.set_defaults(func=_cmd_returns)

    p_gen = sub.add_parser("gen", help="print a prefix of a generator")
    p_gen.add_argument("--gen", required=True)
    p_gen.add_argument("--horizon", type=int, default=64)
    add_format(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", help="run built-in claim verifiers")
    p_ver.add_argument("claim", help="claim id, 'all', or 'list'")
    add_format(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="export words of a given length")
    p_enum.add_argument("--alphabet", required=True,
                        help="letters (e.g. ab) or size (e.g. 2)")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--dedupe", choices=("none", "iso"), default="none")
    p_enum.add_argument("--filter", default=None,
                        help="e.g. 'palcount==9' or 'nonrich,avoids:bbb'")
    add_format(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UnknownGeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"presets: {', '.join(preset_names())}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
