"""Command line interface: enumerate, lambda, verify, export.

Every command writes deterministic bytes for a given command line.  The
default size cap is n <= 7; ``--force`` lifts it (with a warning on stderr)
up to the library's own enumeration limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .elements import MAX_N, format_vector, enumerate_type_a, enumerate_type_b
from .gk import gk_partition, max_chain_union
from .io import (
    dumps_document,
    dumps_report,
    elements_document,
    poset_document,
    poset_to_dot,
)
from .lattices import POSET_MAX_N, tamari_poset
from .theorems import CLAIMS, REFUTED, shifted_level_map, verify_claims

DEFAULT_CAP = 7


def _add_common(sub: argparse.ArgumentParser, with_type: bool = True) -> None:
    if with_type:
        sub.add_argument("--type", choices=("a", "b"), required=True,
                         help="which Tamari family")
    sub.add_argument("--n", required=True, help="tuple length n (or N..M for verify)")
    sub.add_argument("--force", action="store_true",
                     help=f"allow n beyond the default cap of {DEFAULT_CAP}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Tamari lattices: enumeration, chain partitions, claim checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="list, count or export the elements")
    _add_common(p_enum)
    p_enum.add_argument("--format", choices=("list", "json", "count"), default="list")
    p_enum.add_argument("--hasse", action="store_true",
                        help="include cover edges in JSON output")

    p_lambda = subs.add_parser("lambda", help="chain-partition parts and chain unions")
    _add_common(p_lambda)
    p_lambda.add_argument("--k", type=int, default=None,
                          help="report the maximum union of k chains instead")

    p_verify = subs.add_parser("verify", help="machine-check the claims registry")
    p_verify.add_argument("--claim", choices=(*CLAIMS, "all"), required=True)
    _add_common(p_verify, with_type=False)

    p_export = subs.add_parser("export", help="write the Hasse diagram (DOT or JSON)")
    _add_common(p_export)
    p_export.add_argument("--format", choices=("dot", "json"), required=True)
    p_export.add_argument("--layout", choices=("lowest", "shifted"), default=None,
                          help="level layout for DOT ranks / JSON levels")
    p_export.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def _parse_n(parser: argparse.ArgumentParser, text: str, force: bool,
             allow_range: bool = False, needs_poset: bool = False) -> list[int]:
    try:
        if allow_range and ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            ns = list(range(lo, hi + 1))
        else:
            ns = [int(text)]
    except ValueError:
        parser.error(f"bad n value {text!r}")
    for n in ns:
        if n < 1:
            parser.error("n must be at least 1")
        if needs_poset and n > POSET_MAX_N:
            parser.error(
                f"n={n} exceeds the poset cap {POSET_MAX_N}; this command "
                "builds the poset and --force does not lift that cap"
            )
        if n > MAX_N:
            parser.error(f"n={n} exceeds the hard cap {MAX_N}")
        if n > DEFAULT_CAP:
            if not force:
                parser.error(
                    f"n={n} exceeds the default cap {DEFAULT_CAP}; pass --force to override"
                )
            print(
                f"warning: n={n} exceeds the default cap {DEFAULT_CAP}; "
                "expect large output",
                file=sys.stderr,
            )
    return ns


def _cmd_enumerate(args, parser) -> int:
    if args.hasse and args.format != "json":
        parser.error("--hasse needs --format json")
    (n,) = _parse_n(parser, args.n, args.force, needs_poset=args.hasse)
    elements = enumerate_type_b(n) if args.type == "b" else enumerate_type_a(n)
    if args.format == "count":
        print(len(elements))
        return 0
    if args.format == "list":
        sys.stdout.write("".join([format_vector(v) + "\n" for v in elements]))
        return 0
    kind = f"tamari_{args.type}"
    if args.hasse:
        doc = poset_document(tamari_poset(args.type, n), kind=kind, n=n)
    else:
        doc = elements_document(elements, kind=kind, n=n)
    sys.stdout.write(dumps_document(doc))
    return 0


def _cmd_lambda(args, parser) -> int:
    (n,) = _parse_n(parser, args.n, args.force, needs_poset=True)
    p = tamari_poset(args.type, n)
    if args.k is None:
        print(json.dumps(list(gk_partition(p).parts)))
        return 0
    if args.k < 1:
        parser.error("--k must be at least 1")
    family = max_chain_union(p, args.k)
    print(family.total)
    for i, chain in enumerate(family.chains, start=1):
        body = ",".join(format_vector(p.labels[e]) for e in chain)
        print(f"chain {i} ({len(chain)} elements): {body}")
    return 0


def _cmd_verify(args, parser) -> int:
    ns = _parse_n(parser, args.n, args.force, allow_range=True, needs_poset=True)
    try:
        reports = verify_claims(args.claim, ns)
    except ValueError as exc:  # claims need n >= 2
        parser.error(str(exc))
    for report in reports:
        sys.stdout.write(dumps_report(report))
    return 1 if any(r.status == REFUTED for r in reports) else 0


def _cmd_export(args, parser) -> int:
    (n,) = _parse_n(parser, args.n, args.force, needs_poset=True)
    p = tamari_poset(args.type, n)
    levels = None
    if args.layout == "lowest":
        levels = p.level_map("lowest")
    elif args.layout == "shifted":
        levels = shifted_level_map(p)
    if args.format == "dot":
        text = poset_to_dot(p, name=f"tamari_{args.type}_{n}",
                            levels=levels or p.level_map("lowest"))
    else:
        doc = poset_document(p, kind=f"tamari_{args.type}", n=n, levels=levels)
        text = dumps_document(doc)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate":
        return _cmd_enumerate(args, parser)
    if args.command == "lambda":
        return _cmd_lambda(args, parser)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    return _cmd_export(args, parser)


if __name__ == "__main__":
    sys.exit(main())
