"""Command-line front end.

Subcommands::

    eval     evaluate expressions to floats, one line each
    expand   expand expressions to canonical combination text, one line each
    verify   run one catalogue identity (or all) over a parameter grid
    list     show the identity catalogue

Every input is an expression, so an index is written ``(2,3)``, a dual
``dual(e)`` and one Ohno sum ``ohno(m, e)``.  ``eval`` and ``expand`` take
``--expr`` once or more: every expression is expanded before any is
evaluated, and one line is printed per expression, in argument order, with
one configuration for the whole call.  ``eval`` and ``verify`` run without
a cache unless ``--cache PATH`` names a file, which is loaded once before the
call and saved once after it when the call stored a row (a cache miss) or no
file is at the path, so a file that answers every term stays as it was;
``on`` and ``off``, the spellings of the in-memory cache and of none that
earlier versions took, are refused.  An expression that starts with ``-`` is
passed as ``--expr=TEXT``: ``--expr -(2)`` reads ``-(2)`` as a flag.  In a
call with two or more, an error names its ``--expr``, counting from 1.

Exit codes: 0 on success (and verification pass), 1 on verification
failure, 2 on usage or input errors, including an index or dual deeper than
the depth limit ``ohno.zeta.MAX_DEPTH`` (``PrecisionError``), a cache or
report file that cannot be read or written (``OSError``) and an expansion
or a grid range too large for memory (``MemoryError``).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from typing import Callable, Optional

from ohno.expr import GRAMMAR, ExprError, expand_text
from ohno.indices import _int_text, combination_to_text
from ohno.verify import list_identities, report_to_file, verify
from ohno.zeta import DEFAULT_CONFIG, EvalConfig, PrecisionError, ZetaCache, eval_combination

__all__ = ["main"]

_GRID_PARAMS = ("s", "t", "l", "m", "p", "q")

GRAMMAR_HELP = GRAMMAR + f"""
ranges:
  grid flags ({" ".join("--" + name for name in _GRID_PARAMS)}) accept a value (3), an inclusive
  range (2..4), or a comma-separated list (2,4,6).
"""


def _int_value(text: str) -> int:
    """An integer flag value, spelt as an integer of the expression grammar."""
    try:
        return _int_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_values(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo_text, dots, hi_text = part.partition("..")
        lo, hi = _int_value(lo_text), _int_value(hi_text if dots else lo_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {part.strip()!r}")
        out.extend(range(lo, hi + 1))
    return out


@cache  # built once per process: parsing keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohno",
        description="Index algebra, shifted-sum families, high-precision evaluation, "
        "and identity verification.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    add_parser = partial(parser.add_subparsers(dest="command", required=True).add_parser, allow_abbrev=False)

    def with_grammar(name: str, summary: str) -> argparse.ArgumentParser:
        """A subcommand whose help ends with the expression grammar."""
        return add_parser(name, help=summary, epilog=GRAMMAR_HELP, formatter_class=parser.formatter_class)

    def add_eval_flags(p: argparse.ArgumentParser) -> None:
        tol = DEFAULT_CONFIG.tol
        p.add_argument("--tol", type=float, default=tol, help=f"absolute accuracy target (default {tol})")
        p.add_argument("--cache", help="cache file, loaded before and saved after a call that adds a row "
                       "or finds no file there (default: no cache)")

    expr_help = "; repeatable; write --expr=TEXT for one that starts with '-'"
    p_eval = with_grammar("eval", "evaluate expressions to floats, one line each")
    p_eval.add_argument("--expr", action="append", required=True, help="expression to evaluate" + expr_help)
    add_eval_flags(p_eval)

    p_expand = with_grammar("expand", "expand expressions to canonical combination text, one line each")
    p_expand.add_argument("--expr", action="append", required=True, help="expression to expand" + expr_help)

    p_verify = add_parser("verify", help="verify a catalogue identity over a grid")
    p_verify.add_argument("--name", required=True, help="identity name, or 'all'")
    for name in _GRID_PARAMS:
        p_verify.add_argument(f"--{name}", type=_range_values, default=None, help=f"grid values for {name}")
    p_verify.add_argument("--weight", type=_int_value, default=None, help="weight bound for index-family grids")
    p_verify.add_argument("--out", help="report path: CSV (evaluated points) if it ends in .csv, else JSON")
    add_eval_flags(p_verify)

    add_parser("list", help="show the identity catalogue")
    return parser


def _load_cache(path: str) -> ZetaCache:
    """The cache of ``--cache PATH``, checking the path before loading it."""
    if path in ("on", "off"):  # spellings of earlier versions, not file names
        raise ValueError(f"--cache takes a file path, not {path!r}: leave the flag out for no cache, "
                         f"or write ./{path} for a file of that name")
    _check_directory(path)
    return ZetaCache(path)


def _check_directory(path: str) -> None:
    """Refuse, before any work, a path to write that is empty, ends in a
    separator, is a directory or lies in a missing directory."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise OSError(f"{path!r} does not name a file to write")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no such directory {directory!r} for {path!r}")


def _each(step: Callable, items: list) -> list:
    """``step`` of each item, one per ``--expr`` in order; in a call with two
    or more, an error names its ``--expr``, counting from 1, and keeps its type."""
    results = []
    for n, item in enumerate(items, 1):
        try:
            results.append(step(item))
        except (ValueError, PrecisionError) as exc:
            if len(items) > 1:
                exc.args = (f"--expr {n}: {exc}",)
            raise
    return results


def _cmd_eval(args: argparse.Namespace) -> int:
    combs = _each(expand_text, args.expr)  # an input error stops the call before any evaluation
    print("\n".join(str(value) for value in _each(lambda comb: eval_combination(comb, args.cfg), combs)))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    print("\n".join(combination_to_text(comb) for comb in _each(expand_text, args.expr)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    grid: dict[str, object] = {name: getattr(args, name) for name in _GRID_PARAMS if getattr(args, name) is not None}
    if args.weight is not None:
        grid["weight"] = args.weight

    if args.name == "all":
        if grid:
            raise ValueError("grid flags apply to a single identity, not --name all")
        if args.out is not None:
            raise ValueError("--out requires a single identity name")
        all_passed = True
        for spec in list_identities():
            report = verify(spec.name, cfg=args.cfg)
            print(report.summary())
            all_passed = all_passed and report.passed
        return 0 if all_passed else 1

    if args.out is not None:
        _check_directory(args.out)
    report = verify(args.name, cfg=args.cfg, **grid)
    print(report.summary())
    if args.out is not None:
        report_to_file(report, args.out)
    return 0 if report.passed else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in list_identities():
        params = ", ".join(spec.params)
        print(f"{spec.name:20s} [{spec.kind}] ({params}): {spec.statement}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "list": _cmd_list,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # a grid range can outgrow memory as it is parsed
        cache = None
        if "cache" in args:  # a command that evaluates: build its request once
            if args.cache is not None:
                cache = _load_cache(args.cache)
            args.cfg = EvalConfig(tol=args.tol, cache=cache)
        code = _COMMANDS[args.command](args)
        if cache is not None and (cache.stats.misses or not os.path.exists(args.cache)):  # a miss stores a row
            cache.save(args.cache)
        return code
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        return 2
    except (ValueError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # raised without a message
        print("error: out of memory; the input expands or evaluates to too many terms", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
