"""Command-line front end.

Subcommands::

    eval     evaluate an expression to a float
    expand   expand an expression to canonical combination text
    ohno     numeric Ohno sums of an expression for orders 0..M
    verify   run one catalogue identity (or all) over a parameter grid
    list     show the identity catalogue

Every input is an expression, so an index is written ``(2,3)``, a dual
``dual(e)`` and one Ohno sum ``ohno(m, e)``.

Exit codes: 0 on success (and verification pass), 1 on verification
failure, 2 on usage or input errors, including a series cap too short for
the tolerance (``PrecisionError``), a cache or report file that cannot be
read or written (``OSError``) and an expansion too large for memory
(``MemoryError``).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from typing import Optional

from ohno.expr import GRAMMAR, ExprError, expand_text
from ohno.indices import combination_to_text
from ohno.sums import ohno_sum_symbolic
from ohno.verify import list_identities, report_to_file, verify
from ohno.zeta import DEFAULT_CONFIG, EvalConfig, PrecisionError, ZetaCache, eval_combination

__all__ = ["main"]

_GRID_PARAMS = ("s", "t", "l", "m", "p", "q")

GRAMMAR_HELP = GRAMMAR + f"""
ranges:
  grid flags ({" ".join("--" + name for name in _GRID_PARAMS)}) accept a value (3), an inclusive
  range (2..4), or a comma-separated list (2,4,6).

cache:
  --cache on     in-memory cache for this invocation (default)
  --cache off    no caching
  --cache PATH   file-backed cache, loaded before and saved after
  The OHNO_CACHE environment variable, when set, forces a file-backed
  cache at that path (overriding --cache on and --cache PATH).
"""


def _range_values(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"malformed range {part!r}; use a..b") from None
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"malformed integer {part!r}") from None
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
        tol, cap = DEFAULT_CONFIG.tol, DEFAULT_CONFIG.max_terms
        p.add_argument("--tol", type=float, default=tol, help=f"absolute accuracy target (default {tol})")
        p.add_argument("--terms-cap", type=int, default=cap, help=f"series length cap (default {cap})")
        p.add_argument("--cache", default="on", help="on, off, or a file path (default on)")

    p_eval = with_grammar("eval", "evaluate an expression to a float")
    p_eval.add_argument("--expr", required=True, help="expression to evaluate")
    add_eval_flags(p_eval)

    p_expand = with_grammar("expand", "expand an expression to canonical combination text")
    p_expand.add_argument("--expr", required=True, help="expression to expand")

    p_ohno = with_grammar("ohno", "numeric Ohno sums of an expression for orders 0..M")
    p_ohno.add_argument("--expr", required=True, help="expression whose Ohno sums to evaluate")
    p_ohno.add_argument("--M", type=int, required=True, help="print the sums of orders 0..M")
    add_eval_flags(p_ohno)

    p_verify = add_parser("verify", help="verify a catalogue identity over a grid")
    p_verify.add_argument("--name", required=True, help="identity name, or 'all'")
    for name in _GRID_PARAMS:
        p_verify.add_argument(f"--{name}", type=_range_values, default=None, help=f"grid values for {name}")
    p_verify.add_argument("--weight", type=int, default=None, help="weight bound for index-family grids")
    p_verify.add_argument("--out", default=None, help="write the report to this path")
    p_verify.add_argument("--format", choices=("json", "csv"), help="report format with --out (default json)")
    add_eval_flags(p_verify)

    add_parser("list", help="show the identity catalogue")
    return parser


def _resolve_cache(cache_arg: str) -> tuple[Optional[ZetaCache], Optional[str]]:
    """Map --cache and OHNO_CACHE to (cache, path-to-save-or-None), checking a path before loading it."""
    if cache_arg == "off":
        return None, None
    path = os.environ.get("OHNO_CACHE") or (None if cache_arg == "on" else cache_arg)
    if path is None:
        return ZetaCache(), None
    _check_directory(path)
    return ZetaCache(path), path


def _check_directory(path: str) -> None:
    """Refuse, before any work, a path to write that is empty, ends in a
    separator, is a directory or lies in a missing directory."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise OSError(f"{path!r} does not name a file to write")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no such directory {directory!r} for {path!r}")


def _cmd_eval(args: argparse.Namespace) -> int:
    print(eval_combination(expand_text(args.expr), args.cfg))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    print(combination_to_text(expand_text(args.expr)))
    return 0


def _cmd_ohno(args: argparse.Namespace) -> int:
    comb = expand_text(args.expr)
    if args.M < 0:
        raise ValueError("--M must be nonnegative")
    values = [eval_combination(ohno_sum_symbolic(comb, m), args.cfg) for m in range(args.M + 1)]
    print("\n".join(f"{order}: {value}" for order, value in enumerate(values)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.format is not None and args.out is None:
        raise ValueError("--format requires --out")
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
        report_to_file(report, args.out, args.format or "json")
    return 0 if report.passed else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in list_identities():
        params = ", ".join(spec.params)
        print(f"{spec.name:20s} [{spec.kind}] ({params}): {spec.statement}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "ohno": _cmd_ohno,
    "verify": _cmd_verify,
    "list": _cmd_list,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        save_path = None
        if "cache" in args:  # a command that evaluates: build its request once
            cache, save_path = _resolve_cache(args.cache)
            args.cfg = EvalConfig(tol=args.tol, max_terms=args.terms_cap, cache=cache)
        code = _COMMANDS[args.command](args)
        if save_path is not None:
            cache.save(save_path)
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
