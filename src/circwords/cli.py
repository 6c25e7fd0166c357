"""Command-line interface: counting, reports, sweeps, rank checks, DOT export.

Words enter and leave as digit strings.  Exit codes: 0 when every
requested check passes, 1 when a verified property is violated (a
counterexample word is printed), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import warnings
from random import Random
from typing import Sequence

from . import debruijn, invariants, span, words
from .errors import CircwordsError, SizeLimitError
from .words import (
    count_occurrences,
    enumerate_words,
    parse_circular,
    parse_word,
    random_word,
    word_string,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_SEED = 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing reads it without changing it, so one process can run many
    commands, a usage error among them, through one parser.
    """
    parser = argparse.ArgumentParser(
        prog="circwords",
        description="Occurrence combinatorics of circular words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count occurrences of a factor in a circular word")
    p.add_argument("word", help="circular word as a digit string")
    p.add_argument("factor", help="factor as a digit string")

    p = sub.add_parser("report", help="occurrence differences and winding numbers")
    p.add_argument("word", help="binary circular word as a digit string")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="sweep words, checking the invariant and flow law")
    p.add_argument("--max-len", type=int, required=True, metavar="N",
                   help="check all binary words of length 1..N")
    p.add_argument("--random", type=int, default=0, metavar="M",
                   help="also check M seeded random words (default 0)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for the random words (default {DEFAULT_SEED})")
    p.add_argument("--rand-len", type=int, default=64, metavar="L",
                   help="length of the random words (default 64)")

    p = sub.add_parser("rank", help="exact rank of the occurrence functionals")
    p.add_argument("--d", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--l", type=int, default=4, help="factor length (default 4)")
    p.add_argument("--max-len", type=int, default=None, metavar="N",
                   help="sample the necklaces up to length N (default: the "
                        "d^l - d^(l-1) + 1 certificate words, up to length 2l-1)")
    p.add_argument("--cks", action="store_true",
                   help="also verify the nonzero-first-and-last-letter basis")
    p.add_argument("--spanning-set", action="store_true",
                   help="also verify the {0^l} + {1V} spanning set (binary only)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dot", help="DOT text of a De Bruijn graph or the square graph")
    p.add_argument("--d", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--n", type=int, default=3, help="vertex word length (default 3)")
    p.add_argument("--word", default=None, metavar="W",
                   help="highlight the closed path of this word")
    p.add_argument("--highlight", default=None, metavar="EDGES",
                   help="comma-separated edge labels to highlight")
    p.add_argument("--square", action="store_true",
                   help="emit the four-vertex square graph instead")

    return parser


def cmd_count(args: argparse.Namespace) -> int:
    word, factor = args.word, args.factor
    # max digit of either text + 1, by one C-level search per digit and text
    d = max(2, 1 + max((a for a in range(10) if str(a) in word or str(a) in factor), default=0))
    if not word:
        parse_word(factor)  # a factor that is no digit string is refused before the empty word
    print(count_occurrences(parse_circular(word, d), factor))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    w = parse_circular(args.word, 2)
    report = invariants.grandsart_report(w)
    record = report.to_dict()
    if args.format == "json":
        print(json.dumps(record))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(
            [str(v).lower() if isinstance(v, bool) else v for v in record.values()]
        )
        print(buf.getvalue(), end="")
    else:
        for key, value in record.items():
            print(f"{key} {str(value).lower() if isinstance(value, bool) else value}")
    return EXIT_OK if report.consistent else EXIT_VIOLATION


def _check_word(w) -> str | None:
    """One word's violations, as a short reason, or None when clean."""
    if not invariants.grandsart_report(w).consistent:
        return "inconsistent occurrence differences"
    if not debruijn.verify_kirchhoff(w, 3).ok:
        return "nonzero flow residual at n=3"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    words.check_length(args.max_len, "--max-len")
    if args.random < 0:
        raise CircwordsError(f"--random must be >= 0, got {args.random}")
    words.check_length(args.rand_len, "--rand-len")
    limit = words.DEFAULT_SIZE_LIMIT
    words.check_size(2, args.max_len, f"words of length {args.max_len}")
    if args.rand_len > limit:
        raise SizeLimitError(
            f"--rand-len {args.rand_len} letters exceed the cap of {limit}"
        )
    if args.random > limit:
        raise SizeLimitError(f"--random {args.random} words exceed the cap of {limit}")
    rng = Random(args.seed)
    swept = (w for n in range(1, args.max_len + 1) for w in enumerate_words(2, n))
    drawn = (random_word(rng, args.rand_len) for _ in range(args.random))
    checked = 0
    violations = 0
    first = None
    for w in itertools.chain(swept, drawn):
        reason = _check_word(w)
        checked += 1
        if reason is not None:
            violations += 1
            if first is None:
                first = (w, reason)
    if first is not None:
        print(f"counterexample {first[0]}: {first[1]}")
    print(f"{checked} words checked, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_rank(args: argparse.Namespace) -> int:
    if args.spanning_set:
        words._require_binary(args.d, "the 1V spanning set")  # before sampling
    report = span.span_dimension(args.d, args.l, args.max_len)
    results = {"rank_matches": report.rank == report.predicted}
    if args.cks:
        results["cks_basis"] = span._cks_basis_holds(report)
    if args.spanning_set:
        results["spanning_set"] = span._spanning_set_holds(report)
    ok = all(results.values())
    if args.format == "json":
        payload = report.to_dict()
        payload.update({k: v for k, v in results.items() if k != "rank_matches"})
        print(json.dumps(payload))
    else:
        print(f"d {report.d}")
        print(f"l {report.l}")
        print(f"max_len {report.lengths[-1]}")
        print(f"rank {report.rank}")
        print(f"predicted {report.predicted}")
        print(f"relations {report.relations}")
        print(f"saturated {str(report.saturated).lower()}")
        for key in ("cks_basis", "spanning_set"):
            if key in results:
                print(f"{key} {'ok' if results[key] else 'FAILED'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_dot(args: argparse.Namespace) -> int:
    marked = set(args.highlight.split(",")) - {""} if args.highlight else set()
    if args.square:
        print(invariants.square_graph_dot(highlight=marked), end="")
        return EXIT_OK
    g = debruijn.build_graph(args.d, args.n)
    if args.word is not None:
        w = parse_circular(args.word, args.d)
        marked |= set(map(word_string, w.factors(g.n + 1)))
    print(debruijn.export_dot(g, highlight=sorted(marked)), end="")
    return EXIT_OK


_HANDLERS = {
    "count": cmd_count,
    "report": cmd_report,
    "verify": cmd_verify,
    "rank": cmd_rank,
    "dot": cmd_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    The warnings the command raises go to stderr after it returns, one
    `warning: <message>` line each, so stderr names no source file; on
    a usage error only the `error:` line is printed.
    """
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _HANDLERS[args.command](args)
        except CircwordsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
