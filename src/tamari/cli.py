"""Command line interface: enumerate, lambda, verify, export.

Every command writes deterministic bytes for a given command line, and
checks all of its arguments before it does any work.  ``--n`` and ``--k``
take ASCII digits only, by one grammar: ``N``, or ``N..M`` for verify's
``--n``.  ``lambda``, ``verify`` and ``export`` build the poset and stop at
its cap, n <= 7.  ``enumerate`` has a default cap of n <= 7, which
``--force`` lifts (with a warning on stderr) up to the library's own
enumeration limit; it writes the element listing straight from the
enumeration walk (``element_listing``) and never builds a vector.
``lambda --k`` stops at the family's element count, known from n alone.

When the reader of stdout goes away (``tamari ... | head``), a command
stops quietly with exit status 141 (128 + SIGPIPE, what a shell reports for
a writer the signal ended).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .elements import MAX_N, element_listing, format_vector
from .gk import gk_partition, max_chain_union
from .io import (
    dumps_document,
    dumps_report,
    elements_document,
    poset_document,
    poset_to_dot,
)
from .lattices import POSET_MAX_N, family_name, family_size, tamari_poset
from .theorems import CLAIMS, REFUTED, shifted_level_map, verify_claims

DEFAULT_CAP = 7
# the text of --n and --k: N, or N..M where a range is allowed
_INT_TEXT = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")
# exit status when stdout's reader has gone away
EXIT_BROKEN_PIPE = 141


def _add_common(sub: argparse.ArgumentParser, with_type: bool = True) -> None:
    if with_type:
        sub.add_argument("--type", choices=("a", "b"), required=True,
                         help="which Tamari family")
    sub.add_argument("--n", required=True, help="tuple length n (or N..M for verify)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Tamari lattices: enumeration, chain partitions, claim checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser(
        "enumerate",
        help="list or count the elements, or write them as a JSON document without covers",
    )
    _add_common(p_enum)
    p_enum.add_argument("--format", choices=("list", "json", "count"), default="list")
    p_enum.add_argument("--force", action="store_true",
                        help=f"allow n beyond the default cap of {DEFAULT_CAP}, up to {MAX_N}")

    p_lambda = subs.add_parser("lambda", help="chain-partition parts and chain unions")
    _add_common(p_lambda)
    p_lambda.add_argument("--k", default=None,
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


def _parse_int(parser: argparse.ArgumentParser, name: str, text: str, allow_range: bool = False,
               least: int = 1, cap: int | None = POSET_MAX_N) -> range:
    """The values of the option ``--{name}``, checked to lie in ``least..cap``.

    The text is ASCII digits, ``N``, or ``N..M`` where a range is allowed;
    nothing else ``int()`` would take (signs, spaces, underscores, other
    scripts' digits) is a value.  Only a range's ends are checked, so its
    width costs nothing.  The cap defaults to the poset cap, since lambda,
    verify and export all build the poset; enumerate passes the library's
    enumeration limit, and ``--k`` passes none: lambda checks it against
    the element count instead.
    """
    bad = f"bad {name} value {text!r}"
    match = _INT_TEXT.fullmatch(text)
    if match is None or (match[2] is not None and not allow_range):
        parser.error(bad)
    try:
        lo, hi = int(match[1]), int(match[2] or match[1])
    except ValueError:  # more digits than int() converts
        parser.error(bad)
    if lo > hi:
        parser.error(bad)
    if lo < least:
        parser.error(f"{name} must be at least {least}")
    if cap is not None and hi > cap:  # name the least value above the cap
        parser.error(f"{name}={max(lo, cap + 1)} exceeds the "
                     f"{'poset' if cap == POSET_MAX_N else 'hard'} cap {cap}")
    return range(lo, hi + 1)


def _cmd_enumerate(args, parser) -> int:
    (n,) = _parse_int(parser, "n", args.n, cap=MAX_N)
    if n > DEFAULT_CAP:
        if not args.force:
            parser.error(f"n={n} exceeds the default cap {DEFAULT_CAP}; pass --force to override")
        print(f"warning: n={n} exceeds the default cap {DEFAULT_CAP}; expect large output",
              file=sys.stderr)
    listing = element_listing(args.type, n)
    if args.format == "count":
        print(listing.count("\n"))
    elif args.format == "list":
        sys.stdout.write(listing)
    else:
        doc = elements_document(listing.splitlines(), kind=f"tamari_{args.type}", n=n)
        sys.stdout.write(dumps_document(doc))
    return 0


def _cmd_lambda(args, parser) -> int:
    (n,) = _parse_int(parser, "n", args.n)
    if args.k is not None:
        (k,) = _parse_int(parser, "k", args.k, cap=None)
        size = family_size(args.type, n)
        if k > size:  # more chains than elements would only print empty ones
            parser.error(f"k={k} exceeds the {size} elements of {family_name(args.type, n)}")
    p = tamari_poset(args.type, n)
    if args.k is None:
        print(json.dumps(list(gk_partition(p).parts)))
        return 0
    family = max_chain_union(p, k)
    print(family.total)
    for i, chain in enumerate(family.chains, start=1):
        body = ",".join(format_vector(p.labels[e]) for e in chain)
        print(f"chain {i} ({len(chain)} elements):" + (f" {body}" if chain else ""))
    return 0


def _cmd_verify(args, parser) -> int:
    # every claim needs n >= 2
    reports = verify_claims(args.claim, _parse_int(parser, "n", args.n, allow_range=True, least=2))
    for report in reports:
        sys.stdout.write(dumps_report(report))
    return 1 if any(r.status == REFUTED for r in reports) else 0


def _cmd_export(args, parser) -> int:
    (n,) = _parse_int(parser, "n", args.n)
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


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "lambda": _cmd_lambda,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # Point the stdout descriptor at devnull, so the interpreter's final
        # flush of what is still buffered does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError):  # no descriptor behind stdout
            pass
        finally:
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
