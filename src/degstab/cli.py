"""Command-line front end.

Batch-oriented and deterministic: identical inputs and flags produce
byte-identical stdout (timings go to stderr). Exit codes: 0 success or
pass, 1 verification violation, failed certification or stdout closed
before the output was written, 2 usage error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codecs
from .classify import classify
from .errors import DegstabError, ResourceBudgetError
from .gallery import TAGS, gallery_graph
from .graphs import Graph, balanced_blow_up, odd_girth
from .hom import chromatic_number, has_homomorphism
from .verify import (
    CorpusSpec,
    brute_min_edits_to_k_partite,
    check_haggkvist,
    check_hom_odd_girth,
    check_locally_bipartite_claims,
    check_properties,
)
from .witness import certify, witness_base

# Each verify suite: its check, called with the corpus and the integer
# PARAM of "SUITE:PARAM", and PARAM's default (None where it is required).
_SUITES = {
    "odd-girth": (check_hom_odd_girth, 3),
    "haggkvist": (check_haggkvist, 2),
    "properties": (lambda corpus, r: check_properties(r), None),
    "local-bip": (lambda corpus, a: check_locally_bipartite_claims(a, corpus), None),
}


def _detect_format(path: str, override: str | None) -> str:
    # The short names are the file suffixes.
    fmt = codecs.SHORT_NAMES.get(override or Path(path).suffix.lower()[1:])
    if fmt is None:
        raise DegstabError(
            f"cannot infer format from {path!r}; use --format {'|'.join(codecs.SHORT_NAMES)}"
        )
    return fmt


def _load_graph(path: str, override: str | None) -> Graph:
    fmt = _detect_format(path, override)
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DegstabError(f"cannot read {path}: {e}") from None
    return codecs.decode(text, fmt)


def _emit_graph(g: Graph, fmt: str, out: str | None) -> None:
    text = codecs.encode(g, fmt)
    # The line break is written on its own: appending it would copy the text.
    end = "" if text.endswith("\n") else "\n"
    if out is None:
        sys.stdout.write(text)
        sys.stdout.write(end)
    else:
        try:
            with Path(out).open("w") as f:
                f.write(text)
                f.write(end)
        except OSError as e:
            raise DegstabError(f"cannot write {out}: {e}") from None


def _add_input(parser: argparse.ArgumentParser, name: str = "file") -> None:
    parser.add_argument(name)
    parser.add_argument("--format", choices=sorted(codecs.SHORT_NAMES), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degstab",
        description="Exact minimum-degree stability thresholds and their witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery", help="print a named gallery graph")
    p.add_argument("id", metavar="ID", help=f"one of {', '.join(TAGS)} or F1..F12")
    p.add_argument("--format", choices=sorted(codecs.SHORT_NAMES), default="g6")
    p.add_argument("--out", default=None)

    p = sub.add_parser("hom", help="search for a homomorphism pattern -> target")
    p.add_argument("pattern")
    p.add_argument("target")
    p.add_argument("--format", choices=sorted(codecs.SHORT_NAMES), default=None)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    _add_input(p)

    p = sub.add_parser("oddgirth", help="length of the shortest odd cycle")
    _add_input(p)

    p = sub.add_parser("delta", help="classify the stability threshold")
    _add_input(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witness", help="build an extremal witness graph")
    _add_input(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--out-format", choices=sorted(codecs.SHORT_NAMES), default="g6")

    p = sub.add_parser("certify", help="check the witness family certifies the threshold")
    _add_input(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run a verification suite over a corpus")
    p.add_argument(
        "suite",
        metavar="SUITE[:PARAM]",
        help="odd-girth[:G_MAX] | haggkvist[:G] | properties:R | local-bip:A;"
        " G_MAX is 3 and G is 2 by default",
    )
    p.add_argument("--corpus", default=None, help="default exhaustive:5; properties takes none")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="brute-force oracles")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser("edits", help="minimum edits to k-partite")
    _add_input(q)
    q.add_argument("--k", type=int, required=True)

    return parser


def _cmd_gallery(args) -> int:
    g = gallery_graph(args.id)
    _emit_graph(g, codecs.SHORT_NAMES[args.format], args.out)
    return 0


def _cmd_hom(args) -> int:
    pattern = _load_graph(args.pattern, args.format)
    target = _load_graph(args.target, args.format)
    witness = has_homomorphism(pattern, target)
    if witness is None:
        print("NONE")
    else:
        print(" ".join(map(str, witness.mapping)))
    return 0


def _cmd_chromatic(args) -> int:
    print(chromatic_number(_load_graph(args.file, args.format)))
    return 0


def _cmd_oddgirth(args) -> int:
    value = odd_girth(_load_graph(args.file, args.format))
    print("NONE" if value is None else value)
    return 0


def _cmd_delta(args) -> int:
    result = classify(_load_graph(args.file, args.format))
    if args.json:
        print(result.dumps())
    else:
        print(result.describe())
        count = len(result.certificate)
        noun = "witness" if count == 1 else "witnesses"
        print(
            f"certificate: {count} passing {noun}, "
            f"{result.nodes_expanded} nodes expanded"
        )
    return 0


def _cmd_witness(args) -> int:
    h = _load_graph(args.file, args.format)
    result = classify(h)
    seed, _ = witness_base(result)
    member = balanced_blow_up(seed, args.n)
    _emit_graph(member, codecs.SHORT_NAMES[args.out_format], args.out)
    return 0


def _cmd_certify(args) -> int:
    h = _load_graph(args.file, args.format)
    result = classify(h)
    report = certify(h, result, args.n)
    print(f"threshold: {result.describe()}")
    print(f"witness: order {report.witness.order}, seed order {report.seed_order}")
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    suite, colon, param = args.suite.partition(":")
    if suite not in _SUITES:
        raise DegstabError(f"unknown suite {args.suite!r}")
    check, default = _SUITES[suite]
    if suite == "properties" and args.corpus is not None:
        raise DegstabError(f"suite {args.suite!r} reads no corpus; drop --corpus")
    try:
        level = int(param) if colon or default is None else default
    except ValueError:
        raise DegstabError(f"suite {args.suite!r} needs an integer parameter") from None
    corpus = CorpusSpec.parse("exhaustive:5" if args.corpus is None else args.corpus)
    report = check(corpus, level)
    if args.json:
        print(report.dumps())
    else:
        print(f"suite {report.suite}: checked {report.checked}")
        for v in report.violations:
            print(f"VIOLATION [{v.index}] {codecs.encode(v.graph, 'graph6')}: {v.detail}")
        print("PASS" if report.passed else f"FAIL ({len(report.violations)} violations)")
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    # argparse admits "edits" alone.
    g = _load_graph(args.file, args.format)
    print(brute_min_edits_to_k_partite(g, args.k))
    return 0


_COMMANDS = {
    "gallery": _cmd_gallery,
    "hom": _cmd_hom,
    "chromatic": _cmd_chromatic,
    "oddgirth": _cmd_oddgirth,
    "delta": _cmd_delta,
    "witness": _cmd_witness,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = _COMMANDS[args.command](args)
        # Flushed here, so that a closed stdout is caught below and not
        # reported at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: what is left in the buffer goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DegstabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
