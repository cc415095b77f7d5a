"""Command-line front end.

Subcommands::

    eval     evaluate an index or expression to a float
    expand   expand an expression to canonical combination text
    dual     dualise an index or expression
    ohno     shifted-sum families: symbolic, numeric, or a series prefix
    verify   run one catalogue identity (or all) over a parameter grid
    list     show the identity catalogue

Exit codes: 0 on success (and verification pass), 1 on verification
failure, 2 on usage or input errors, including a series cap too short for
the tolerance (``PrecisionError``) and a cache or report file that cannot be
read or written (``OSError``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from ohno.expr import GRAMMAR, ExprError, expand_text
from ohno.indices import Index, IndexCombination, combination_to_text, dual_linear
from ohno.sums import ohno_sum_symbolic
from ohno.verify import list_identities, report_to_file, verify
from ohno.zeta import DEFAULT_CONFIG, EvalConfig, PrecisionError, ZetaCache, eval_combination

__all__ = ["main"]

GRAMMAR_HELP = GRAMMAR + """
ranges:
  grid flags (--s --t --l --m --p --q) accept a value (3), an inclusive
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohno",
        description="Index algebra, shifted-sum families, high-precision evaluation, "
        "and identity verification.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_grammar(name: str, summary: str) -> argparse.ArgumentParser:
        """A subcommand whose help ends with the expression grammar."""
        return sub.add_parser(name, help=summary, epilog=GRAMMAR_HELP, formatter_class=parser.formatter_class)

    def add_eval_flags(p: argparse.ArgumentParser) -> None:
        tol, cap = DEFAULT_CONFIG.tol, DEFAULT_CONFIG.max_terms
        p.add_argument("--tol", type=float, default=tol, help=f"absolute accuracy target (default {tol})")
        p.add_argument("--terms-cap", type=int, default=cap, help=f"series length cap (default {cap})")
        p.add_argument("--cache", default="on", help="on, off, or a file path (default on)")

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--index", help="an index, e.g. '1,2' or '(1,2)'")
        p.add_argument("--expr", help="an expression in the grammar below --help")

    p_eval = with_grammar("eval", "evaluate an index or expression to a float")
    add_input_flags(p_eval)
    add_eval_flags(p_eval)

    p_expand = with_grammar("expand", "expand an expression to canonical combination text")
    p_expand.add_argument("--expr", required=True, help="expression to expand")

    p_dual = sub.add_parser("dual", help="dualise an index or expression")
    add_input_flags(p_dual)

    p_ohno = with_grammar("ohno", "shifted-sum families of an index or expression")
    add_input_flags(p_ohno)
    p_ohno.add_argument("--m", type=int, default=None, help="shift order")
    p_ohno.add_argument("--M", type=int, default=None, help="series mode: numeric sums for orders 0..M")
    p_ohno.add_argument("--eval", action="store_true", help="with --m, print the numeric sum instead")
    add_eval_flags(p_ohno)

    p_verify = sub.add_parser("verify", help="verify a catalogue identity over a grid")
    p_verify.add_argument("--name", required=True, help="identity name, or 'all'")
    for flag in ("--s", "--t", "--l", "--m", "--p", "--q"):
        p_verify.add_argument(flag, type=_range_values, default=None, help=f"grid values for {flag[2:]}")
    p_verify.add_argument("--weight", type=int, default=None, help="weight bound for index-family grids")
    p_verify.add_argument("--out", default=None, help="write the report to this path")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    add_eval_flags(p_verify)

    sub.add_parser("list", help="show the identity catalogue")
    return parser


def _resolve_cache(cache_arg: str) -> tuple[Optional[ZetaCache], Optional[str]]:
    """Map the --cache flag and OHNO_CACHE to (cache, path-to-save-or-None)."""
    if cache_arg == "off":
        return None, None
    env_path = os.environ.get("OHNO_CACHE")
    if env_path:
        return ZetaCache(env_path), env_path
    if cache_arg == "on":
        return ZetaCache(), None
    return ZetaCache(cache_arg), cache_arg


def _combination_from(args: argparse.Namespace) -> IndexCombination:
    has_index = getattr(args, "index", None) is not None
    has_expr = getattr(args, "expr", None) is not None
    if has_index == has_expr:
        raise ValueError("provide exactly one of --index and --expr")
    if has_index:
        return IndexCombination.from_index(Index.from_text(args.index))
    return expand_text(args.expr)


def _cmd_eval(args: argparse.Namespace) -> int:
    print(eval_combination(_combination_from(args), args.cfg))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    print(combination_to_text(expand_text(args.expr)))
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    comb = _combination_from(args)
    print(combination_to_text(dual_linear(comb)))
    return 0


def _cmd_ohno(args: argparse.Namespace) -> int:
    comb = _combination_from(args)
    if args.M is not None:
        if args.M < 0:
            raise ValueError("--M must be nonnegative")
        values = [eval_combination(ohno_sum_symbolic(comb, m), args.cfg) for m in range(args.M + 1)]
        print("\n".join(f"{order}: {value}" for order, value in enumerate(values)))
    elif args.m is not None:
        family = ohno_sum_symbolic(comb, args.m)
        print(eval_combination(family, args.cfg) if args.eval else combination_to_text(family))
    else:
        raise ValueError("provide --m (one order) or --M (series prefix)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    grid: dict[str, object] = {}
    for name in ("s", "t", "l", "m", "p", "q"):
        values = getattr(args, name)
        if values is not None:
            grid[name] = values
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

    report = verify(args.name, cfg=args.cfg, **grid)
    print(report.summary())
    if args.out is not None:
        report_to_file(report, args.out, args.format)
    return 0 if report.passed else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in list_identities():
        params = ", ".join(spec.params)
        print(f"{spec.name:20s} [{spec.kind}] ({params}): {spec.statement}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "dual": _cmd_dual,
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


if __name__ == "__main__":
    sys.exit(main())
