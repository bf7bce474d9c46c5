"""Command-line surface: analyze words and streams, run verifiers, export corpora.

Exit codes: 0 success/verified, 1 refuted claim, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from collections.abc import Iterable, Iterator

from .analysis import (
    complete_first_returns,
    pal_set,
    reversal_closure_check,
    stabilized_pal_set,
)
from .claims import CLAIMS, manifest, run_all, run_claim
from .generators import UnknownGeneratorError, preset_names, resolve_generator
from .search import enumerate_words
from .words import Alphabet, Word, least_period


def _emit(record: object, fmt: str, text_lines: Iterable[str]) -> None:
    """Print record as indented JSON, or print text_lines.

    The JSON is written chunk by chunk, never held as one string, and
    text_lines is only iterated for text, so a generator builds no line
    that JSON output would not print.
    """
    if fmt == "json":
        json.dump(record, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _parse_alphabet(value: str) -> Alphabet:
    if value.isdigit():
        return Alphabet.of_size(int(value))
    return Alphabet(value)


_COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def _parse_filter(expr: str | None):
    """Filter expressions: comma-separated clauses, all of which must hold.

    Clauses: rich | nonrich | palcount==N | palcount<=N | palcount>=N
    | contains:<word> | avoids:<word> | period==N | maxpal<=N

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
            n = int(clause[len("palcount") + 2 :])
            on_report.append(lambda r, c=compare, n=n: c(r.count, n))
        elif clause.startswith("contains:"):
            needle = clause.split(":", 1)[1]
            on_word.append(lambda w, s=needle: s in w.text)
        elif clause.startswith("avoids:"):
            needle = clause.split(":", 1)[1]
            on_word.append(lambda w, s=needle: s not in w.text)
        elif clause.startswith("period=="):
            n = int(clause.split("==", 1)[1])
            on_word.append(lambda w, n=n: least_period(w) == n)
        elif clause.startswith("maxpal<="):
            n = int(clause.split("<=", 1)[1])
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


def _listing(palindromes, *head: str) -> Iterator[str]:
    """Text lines of a report that lists its palindromes.

    The palindrome line is built only when iterated, so JSON output never
    builds it, and by one join, so it adds one copy of their text, not two.
    """
    yield from head
    yield " ".join(["palindromes:", *(p or "~" for p in palindromes)])


def _cmd_pal(args) -> int:
    if args.word is not None:
        report = pal_set(Word(args.word))
        lines = _listing(
            report.palindromes,
            f"word length {report.word_length}: {report.count} palindromes, "
            f"longest {report.longest!r} (length {len(report.longest)})",
        )
        _emit(report.to_record(), args.format, lines)
        return 0
    stream = resolve_generator(args.gen)
    if args.horizon is not None:
        report = pal_set(stream.prefix(args.horizon))
        _emit(
            report.to_record(),
            args.format,
            [
                f"{args.gen} prefix {args.horizon}: {report.count} palindromes, "
                f"longest {report.longest!r} (length {len(report.longest)})",
            ],
        )
        return 0
    stab = stabilized_pal_set(stream, cap=args.cap)
    lines = _listing(
        stab.palindromes,
        f"{args.gen}: {stab.count} palindromes ({stab.flag}), "
        f"longest {stab.longest!r} (length {len(stab.longest)})",
        f"stable at horizon {stab.stable_horizon}, checked to {stab.checked_horizon}",
    )
    _emit(stab.to_record(), args.format, lines)
    return 0


def _cmd_closure(args) -> int:
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
    _emit(report.to_record(), args.format, lines)
    return 0


def _cmd_returns(args) -> int:
    scan = complete_first_returns(Word(args.word), Word(args.anchor))
    record = {
        "anchor": scan.anchor,
        "anchor_found": scan.anchor_found,
        "returns": list(scan.returns),
    }
    lines = []
    if not scan.anchor_found:
        lines.append(f"anchor {scan.anchor!r} does not occur")
    else:
        lines.append(
            f"{len(scan.returns)} complete first return(s) to {scan.anchor!r}:"
        )
        lines += [f"  {r}" for r in scan.returns]
    _emit(record, args.format, lines)
    return 0


def _cmd_gen(args) -> int:
    stream = resolve_generator(args.gen)
    prefix = stream.prefix_text(args.horizon)
    _emit({"generator": args.gen, "prefix": prefix}, args.format, [prefix])
    return 0


def _cmd_verify(args) -> int:
    if args.claim == "all":
        verdicts = run_all()
    elif args.claim == "list":
        for entry in manifest():
            print(f"{entry['claim_id']}: {entry['summary']}")
        return 0
    else:
        if args.claim not in CLAIMS:
            print(f"unknown claim {args.claim!r}; known claims:", file=sys.stderr)
            for entry in manifest():
                print(f"  {entry['claim_id']}", file=sys.stderr)
            return 2
        verdicts = [run_claim(args.claim)]
    lines = []
    for v in verdicts:
        lines.append(f"{v.claim_id}: {v.status}  bound={v.bound}")
        if v.status == "refuted":
            lines += [f"  witness: {w}" for w in v.witnesses[:5]]
    _emit([v.to_record() for v in verdicts], args.format, lines)
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_enumerate(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    pred = _parse_filter(args.filter)
    words = (
        w.text
        for w in enumerate_words(alphabet, args.n, dedupe=args.dedupe)
        if pred(w)
    )
    if args.format == "json":
        record = {"alphabet": alphabet.symbols, "n": args.n, "dedupe": args.dedupe,
                  "filter": args.filter, "words": list(words)}
        _emit(record, args.format, [])
        return 0
    comment = f"# words over {alphabet.symbols!r}, length {args.n}"
    if args.filter:
        comment += f", filter {args.filter!r}"
    print(comment)
    shown = 0
    for text in words:  # streamed: the text mode never holds the word list
        print(text)
        shown += 1
    print(f"# {shown} word(s)")
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
        return args.func(args)
    except UnknownGeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"presets: {', '.join(preset_names())}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
