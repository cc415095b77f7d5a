"""End-to-end tests of the command-line front end."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ohno.cli as cli
import ohno.zeta as zeta
from ohno.indices import Index
from ohno.verify import VerificationReport, list_identities
from ohno.zeta import ZetaCache


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def invoke(*argv, env=None):
        if env:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ---------------------------------------------------------------------------
# eval / expand
# ---------------------------------------------------------------------------


def test_eval_index(run):
    code, out, err = run("eval", "--expr", "(2)")
    assert code == 0
    assert float(out) == pytest.approx(math.pi**2 / 6, abs=1e-11)


def test_eval_expression(run):
    code, out, _ = run("eval", "--expr", "(2)#(3) - (2,3) - (3,2)")
    assert code == 0
    assert float(out) == 0.0


def test_eval_honors_tolerance_flag(run):
    code, out, _ = run("eval", "--expr", "(3)", "--tol", "1e-9")
    assert code == 0
    assert float(out) == pytest.approx(1.2020569031595943, abs=1e-9)


def test_expand(run):
    code, out, _ = run("expand", "--expr", "ohno(1,(2,2))")
    assert code == 0
    assert out.strip() == "(2,3) + (3,2)"


def test_expand_zero(run):
    code, out, _ = run("expand", "--expr", "(2) - (2)")
    assert code == 0
    assert out.strip() == "0"


def test_dual_index(run):
    code, out, _ = run("expand", "--expr", "dual((3))")
    assert code == 0
    assert out.strip() == "(1,2)"


def test_dual_expression(run):
    code, out, _ = run("expand", "--expr", "dual(2*(3) + (2,3))")
    assert code == 0
    assert out.strip() == "2*(1,2) + (1,2,2)"


def test_ohno_symbolic(run):
    code, out, _ = run("expand", "--expr", "ohno(2, (3))")
    assert code == 0
    assert out.strip() == "(5)"


def test_ohno_numeric(run):
    code, out, _ = run("eval", "--expr", "ohno(1, (3))")
    assert code == 0
    assert float(out) == pytest.approx(math.pi**4 / 90, abs=1e-11)


def _exprs(texts):
    """The arguments that pass each of ``texts`` as one ``--expr``."""
    return [arg for text in texts for arg in ("--expr", text)]


_OHNO_SERIES = {
    "(3)": ["1.2020569031595942", "1.0823232337111381", "1.03692775514337", "1.0173430619844492"],
    "(2,3) # (2)": ["0.130297878908359", "0.20593494913401186", "0.24471370331559456", "0.2641259893686523"],
    "(1,2,3)": ["0.032309028991669875", "0.04919165864867417", "0.057382774967454815", "0.0613565902867152"],
}


def test_ohno_series(run):
    """The Ohno sums of orders 0..3 in one call, as the removed ``ohno --M 3``
    printed them.  Those of ``(3)`` are zeta(3), ..., zeta(6), each the double
    nearest the exact value."""
    for text, values in _OHNO_SERIES.items():
        code, out, err = run("eval", *_exprs(f"ohno({m}, {text})" for m in range(4)))
        assert (code, err) == (0, "")
        assert out.splitlines() == values


def _table_texts():
    """Ohno-relation rows ``ohno(m, A # B) - ohno(m, dual(A # B))``, as a table lists them."""
    rows = itertools.product(["(2)", "(3)", "(1,2)", "(2,2)"], ["(2)", "(1,3)"], range(3))
    return [f"ohno({m}, {a} # {b}) - ohno({m}, dual({a} # {b}))" for a, b, m in itertools.islice(rows, 20)]


@pytest.mark.parametrize("cache", ["path", "off"])
def test_batch_prints_what_single_calls_print(run, tmp_path, cache):
    """One call with every ``--expr`` prints, and saves, what one call per
    expression prints and saves on the same ``--cache PATH`` (or without a cache)."""
    batch_path, single_path = tmp_path / "batch.tsv", tmp_path / "single.tsv"
    batch_flag, single_flag = ("--cache", str(batch_path)), ("--cache", str(single_path))
    if cache == "off":  # no flag, no cache
        batch_flag = single_flag = ()
    texts = _table_texts()
    singles = [run("eval", "--expr", text, "--tol", "1e-12", *single_flag) for text in texts]
    code, out, err = run("eval", *_exprs(texts), "--tol", "1e-12", *batch_flag)
    assert (code, err) == (0, "")
    assert {single[0] for single in singles} == {0}
    assert out == "".join(single[1] for single in singles)
    assert len(out.splitlines()) == len(texts) == 20
    if cache == "path":
        assert batch_path.read_bytes() == single_path.read_bytes()
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "last, evaluated", [("(2", False), ("(1,1)", True)], ids=["syntax-error", "evaluation-error"]
)
def test_error_in_the_last_expression_prints_and_saves_nothing(run, tmp_path, monkeypatch, last, evaluated):
    """An expression that fails to expand stops the call before anything is
    evaluated; one that fails to evaluate, before anything is printed or saved."""
    path = tmp_path / "cache.tsv"
    assert run("eval", "--expr", "(2)", "--cache", str(path))[0] == 0
    before = path.read_bytes()
    if not evaluated:
        monkeypatch.setattr(cli, "eval_combination", lambda *a: pytest.fail("evaluated before all expanded"))
    code, out, err = run("eval", "--expr", "(2,3)", "--expr", "(3)", "--expr", last, "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "command, bad, message, grammar",
    [
        ("expand", "dual((1))", "dual is defined for admissible indices only, got (1) (line 1, column 1)", True),
        ("eval", "(1)", "cannot evaluate non-admissible index (1)", False),
    ],
    ids=["expansion-error", "evaluation-error"],
)
def test_error_in_a_batch_names_its_expr(run, tmp_path, command, bad, message, grammar):
    """In a call with two or more ``--expr``, an error names the failing one,
    counting from 1; the grammar follows an expression error as before, and
    the call still prints and saves nothing."""
    path = tmp_path / "cache.tsv"
    cache = ("--cache", str(path)) if command == "eval" else ()
    code, out, err = run(command, "--expr", "(2)", "--expr", bad, "--expr", "(3)", *cache)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --expr 2: {message}\n")
    assert ("expression grammar" in err) == grammar
    assert not path.exists()


def test_expand_prints_one_line_per_expression(run):
    code, out, err = run("expand", "--expr", "(2)#(3)", "--expr", "dual((3))")
    assert (code, out, err) == (0, "(2,3) + (3,2)\n(1,2)\n", "")


@pytest.mark.parametrize("command", ["eval", "expand"])
def test_expression_that_starts_with_a_minus_is_passed_with_an_equals_sign(run, capsys, command):
    """``--expr -(2)`` reads ``-(2)`` as a flag and exits 2; ``--expr=-(2)`` takes it."""
    with pytest.raises(SystemExit) as excinfo:
        run(command, "--expr", "-(2)")
    assert excinfo.value.code == 2
    assert "argument --expr: expected one argument" in capsys.readouterr().err
    assert run(command, "--expr=-(2)") == run(command, "--expr", "(2) - 2*(2)")
    assert run("expand", "--expr=-(2)") == (0, "-(2)\n", "")


def test_expand_deep_index(run):
    code, out, err = run("expand", "--expr", "ohno(1, rep(2, 1200))")
    assert (code, err) == (0, "")
    assert out.count(" + ") == 1199


# ---------------------------------------------------------------------------
# verify and list
# ---------------------------------------------------------------------------


def test_verify_pass(run):
    code, out, _ = run("verify", "--name", "duality", "--weight", "4")
    assert code == 0
    assert out.startswith("duality: PASS")


def test_verify_with_ranges(run):
    code, out, _ = run("verify", "--name", "hmos", "--s", "2..3", "--t", "2", "--m", "0,1")
    assert code == 0
    assert "hmos: PASS (4 evaluated" in out


def test_verify_failure_exit_code(run, monkeypatch):
    failing = VerificationReport(
        identity="duality",
        kind="numeric",
        grid={},
        tol=1e-12,
        passed=False,
        max_residual=1.0,
        points=(),
        elapsed_ms=0.0,
    )
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
    code, out, _ = run("verify", "--name", "duality")
    assert code == 1
    assert "FAIL" in out


def test_verify_writes_json_report(run, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run("verify", "--name", "duality", "--weight", "4", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["identity"] == "duality"
    assert data["pass"] is True
    assert len(data["points"]) == 7


def test_verify_writes_csv_report(run, tmp_path):
    path = tmp_path / "report.csv"
    code, _, _ = run(
        "verify", "--name", "hast_symmetry", "--s", "2", "--t", "1", "--l", "0,1",
        "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("identity,params,residual")
    assert len(lines) == 3


@pytest.mark.parametrize("failing", [None, "hmos"], ids=["all-pass", "one-fails"])
def test_verify_all_prints_every_summary(run, monkeypatch, failing):
    real_verify = cli.verify

    def verify(name, **kwargs):
        report = real_verify(name, **kwargs)
        return dataclasses.replace(report, passed=False) if name == failing else report

    monkeypatch.setattr(cli, "verify", verify)
    code, out, err = run("verify", "--name", "all")
    assert (code, err) == (0 if failing is None else 1, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [spec.name for spec in list_identities()]
    statuses = [line.split()[1] for line in lines]
    assert statuses == ["FAIL" if spec.name == failing else "PASS" for spec in list_identities()]


def test_verify_all_rejects_grid_flags(run):
    code, _, err = run("verify", "--name", "all", "--s", "2")
    assert code == 2
    assert "single identity" in err


def test_verify_all_rejects_out(run, tmp_path):
    code, _, err = run("verify", "--name", "all", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "--out" in err


def test_verify_unknown_name(run):
    code, _, err = run("verify", "--name", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_list(run):
    code, out, _ = run("list")
    lines = out.strip().splitlines()
    assert len(lines) == 18
    assert lines[0].startswith("duality")
    assert "[numeric]" in lines[0]
    assert any("[exact-symbolic]" in ln for ln in lines)


# ---------------------------------------------------------------------------
# usage errors exit 2
# ---------------------------------------------------------------------------


def test_bad_expression_shows_grammar(run):
    code, _, err = run("eval", "--expr", "(2")
    assert code == 2
    assert "line 1, column 3" in err
    assert "expression grammar" in err


def test_missing_input_rejected(run, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("eval")
    assert excinfo.value.code == 2
    assert "--expr" in capsys.readouterr().err


def test_flag_prefixes_are_not_flags(run, capsys):
    """Only the documented spellings are flags: ``--n`` is not ``--name``."""
    with pytest.raises(SystemExit) as excinfo:
        run("verify", "--name", "stuffle_single", "--n", "3")
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --n 3" in captured.err
    assert captured.out == ""
    with pytest.raises(SystemExit) as excinfo:
        run("eval", "--ex", "(2,3)")
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_non_admissible_eval(run):
    code, _, err = run("eval", "--expr", "(1,1)")
    assert code == 2
    assert "non-admissible" in err


def test_malformed_range(run):
    with pytest.raises(SystemExit) as excinfo:
        run("verify", "--name", "hmos", "--s", "3..2")
    assert excinfo.value.code == 2


_TOO_LARGE = "integer too large (limit 999999999999999999)"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--s", "1_0"], "malformed integer '1_0'"),
        (["--s", " +2"], "malformed integer ' +2'"),
        (["--s", "1_0..1_0"], "malformed integer '1_0'"),
        (["--weight", "1_0"], "malformed integer '1_0'"),
        (["--weight", "9" * 5000], _TOO_LARGE),
        (["--s", "2.." + "9" * 5000], _TOO_LARGE),
    ],
    ids=["grid-underscore", "grid-plus", "range-underscore", "weight-underscore", "weight-5000-digits",
         "range-5000-digits"],
)
def test_integer_flags_are_spelt_as_in_expressions(run, capsys, flags, message):
    """Grid and weight integers follow the integer rule of index text: ``1_0``
    and ``+2``, which ``int`` reads as 10 and 2, are usage errors, and so is
    an integer of 10**18 or more, judged from its digits, so the error is one
    short line whatever the interpreter's limit on converting digits."""
    rest = ["--name", "duality"] if flags[0] == "--weight" else ["--name", "main", "--t", "2", "--l", "0", "--m", "0"]
    with pytest.raises(SystemExit) as excinfo:
        run("verify", *rest, *flags)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert line == f"ohno verify: error: argument {flags[0]}: {message}"


@pytest.mark.parametrize(
    "text, values", [("2..4", [2, 3, 4]), ("2,4,6", [2, 4, 6]), ("3", [3]), (" 2 .. 3 , 5", [2, 3, 5])]
)
def test_grid_flags_parse_values_ranges_and_lists(text, values):
    args = cli._build_parser().parse_args(["verify", "--name", "main", "--s", text, "--weight", " 12 "])
    assert (args.s, args.weight) == (values, 12)


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_help_shows_grammar(run, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "expression grammar" in out
    assert "{eval,expand,verify,list}" in out


def test_cli_surface_is_pinned():
    """Every subcommand and flag the parser accepts; an added knob shows up here."""
    parser = cli._build_parser()
    (subcommands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: [flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")]
        for name, sub in subcommands.choices.items()
    }
    evaluation = ["--tol", "--cache"]
    assert [flag for action in parser._actions for flag in action.option_strings] == ["-h", "--help"]
    assert surface == {
        "eval": ["--expr", *evaluation],
        "expand": ["--expr"],
        "verify": ["--name", "--s", "--t", "--l", "--m", "--p", "--q", "--weight", "--out", *evaluation],
        "list": [],
    }


@pytest.mark.parametrize(
    "text, message",
    [
        ("rep(2, 3000)", "error: index (2,...,2) of depth 3000 and weight 6000 or its dual is deeper than the "
         "depth limit 72\n"),
        ("rep(1, 3000)", "error: cannot evaluate non-admissible index (1,...,1) of depth 3000 and weight 3000\n"),
    ],
    ids=["precision", "non-admissible"],
)
def test_errors_name_a_deep_index_briefly(run, text, message):
    code, out, err = run("eval", "--expr", text)
    assert (code, out, err) == (2, "", message)
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "text, message",
    [
        ("dual(rep(1, 3000))", "dual is defined for admissible indices only"),
        ("ohno(1, rep(1, 3000))", "shifted sums need an admissible index"),
    ],
    ids=["dual", "ohno"],
)
def test_grammar_errors_name_a_deep_index_briefly(run, text, message):
    code, out, err = run("expand", "--expr", text)
    line, help_text = err.split("\n", 1)
    assert (code, out) == (2, "")
    assert line == f"error: {message}, got (1,...,1) of depth 3000 and weight 3000 (line 1, column 1)"
    assert len(line.encode()) < 200
    assert help_text == cli.GRAMMAR_HELP + "\n"


def _run_capped(*argv):
    """Run the CLI in a child whose address space is capped at 128 MB; the cap
    acts on that child alone."""
    cap = 128 * 2**20
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "ohno.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def _assert_out_of_memory(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


def test_expansion_beyond_memory_is_an_input_error():
    """The C(302, 3) shift vectors of length 300 cannot be built under the cap."""
    _assert_out_of_memory(_run_capped("expand", "--expr", "ohno(3, rep(2, 300))"))


def test_grid_range_beyond_memory_is_an_input_error():
    """A grid range is expanded as its flag is parsed, before any bound, so
    one that outgrows the cap runs out of memory inside the parser."""
    _assert_out_of_memory(_run_capped("verify", "--name", "main", "--s", "1..100000000000"))


@pytest.mark.parametrize("weight", ["145", "9" * 18], ids=["just-above", "largest-flag"])
def test_weight_above_twice_the_depth_limit_is_refused_before_enumerating(weight):
    """A weight above 144 is refused at once, whatever its size: enumerating
    the 2^(W-1) - 1 indices of weight <= W first would never end, and an index
    of weight above twice the depth limit 72, or its dual, is too deep."""
    proc = _run_capped("verify", "--name", "duality", "--weight", weight)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: weight must be at most 144 (indices above twice the depth limit cannot be evaluated), got {weight}\n"
    )


# ---------------------------------------------------------------------------
# cache plumbing
# ---------------------------------------------------------------------------

_EVAL_ARGS = ("eval", "--expr", "(2,3) + 2*(3)", "--expr", "(2,1,2)")
_VERIFY_ARGS = ("verify", "--name", "duality", "--weight", "5")


def test_cache_file_created_and_reused(run, tmp_path):
    path = tmp_path / "cache.tsv"
    code, first, _ = run("eval", "--expr", "(3)", "--cache", str(path))
    assert code == 0
    assert path.exists()
    assert len(ZetaCache(str(path))) == 1
    code, second, _ = run("eval", "--expr", "(3)", "--cache", str(path))
    assert code == 0
    assert first == second


def _file_state(path):
    stat = os.stat(path)
    return path.read_bytes(), stat.st_ino, stat.st_mtime_ns


@pytest.mark.parametrize("command", [_EVAL_ARGS, _VERIFY_ARGS], ids=["eval", "verify"])
def test_cache_file_that_answers_every_term_is_left_as_written(run, tmp_path, command):
    """A valid, unsorted, hand-written file that answers every term of a call
    keeps its bytes, inode and modification time; a call that stores a row
    rewrites it sorted."""
    path = tmp_path / "cache.tsv"
    first = run(*command, "--cache", str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(reversed(lines)))
    before = _file_state(path)
    assert run(*command, "--cache", str(path)) == first
    assert _file_state(path) == before
    assert os.listdir(tmp_path) == ["cache.tsv"]
    assert run("eval", "--expr", "(7)", "--cache", str(path))[0] == 0
    assert path.read_text() == "".join(sorted([*lines, f"7\t{zeta.eval_zeta(Index((7,))).hex()}\n"]))


def test_call_that_stores_no_row_creates_a_missing_file(run, tmp_path):
    path = tmp_path / "new.tsv"
    assert run("eval", "--expr", "0", "--cache", str(path)) == (0, "0.0\n", "")
    assert path.read_bytes() == b""


def test_cache_file_removed_during_a_call_is_written_again(run, tmp_path, monkeypatch):
    """A call that stores no row still writes the file when it is gone by the save."""
    path = tmp_path / "cache.tsv"
    first = run("eval", "--expr", "(2,3)", "--cache", str(path))
    text = path.read_text()
    evaluate = cli.eval_combination
    monkeypatch.setattr(cli, "eval_combination", lambda *args: path.unlink() or evaluate(*args))
    assert run("eval", "--expr", "(2,3)", "--cache", str(path)) == first
    assert path.read_text() == text


def test_repeated_calls_in_one_process_take_the_cache_file_from_the_memo(run, tmp_path, monkeypatch):
    """A script that calls ``cli.main`` once per item loads the file the previous
    call wrote without parsing it again."""
    path = tmp_path / "cache.tsv"
    monkeypatch.setattr(zeta, "_LAST_FILE", ("", {}))
    first = run("eval", "--expr", "(2,3) + (3,2)", "--cache", str(path))
    memo = zeta._LAST_FILE
    assert memo[0] == path.read_text()
    assert run("eval", "--expr", "(2,3) + (3,2)", "--cache", str(path)) == first
    assert zeta._LAST_FILE is memo  # a parse would have replaced it


@pytest.mark.parametrize(
    "flag, written", [((), []), (("--cache", "flag.tsv"), ["flag.tsv"])], ids=["default", "path"]
)
def test_cache_variable_is_ignored(run, tmp_path, monkeypatch, flag, written):
    """``OHNO_CACHE`` names no cache file: only ``--cache PATH`` writes one."""
    monkeypatch.chdir(tmp_path)
    code, _, _ = run("eval", "--expr", "(4)", *flag, env={"OHNO_CACHE": str(tmp_path / "env.tsv")})
    assert code == 0
    assert [path.name for path in tmp_path.iterdir()] == written


@pytest.mark.parametrize("command", [_EVAL_ARGS, _VERIFY_ARGS], ids=["eval", "verify"])
@pytest.mark.parametrize("spelling", ["on", "off"])
def test_earlier_cache_spellings_are_refused(run, tmp_path, monkeypatch, command, spelling):
    """``--cache on`` and ``--cache off`` name no file: one error line, exit 2,
    and no file of that name in the working directory; ``./on`` names one."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(*command, "--cache", spelling)
    assert (code, out) == (2, "")
    assert err == (f"error: --cache takes a file path, not {spelling!r}: leave the flag out for no cache, "
                   f"or write ./{spelling} for a file of that name\n")
    assert list(tmp_path.iterdir()) == []
    assert run(*command, "--cache", f"./{spelling}")[0] == 0
    assert [path.name for path in tmp_path.iterdir()] == [spelling]


@pytest.mark.parametrize("command", [_EVAL_ARGS, _VERIFY_ARGS], ids=["eval", "verify"])
def test_no_cache_prints_what_a_cache_file_prints(run, tmp_path, monkeypatch, command):
    """Without ``--cache``, ``eval`` and ``verify`` write no file and print what
    ``--cache PATH`` prints, on a new file and on the file it wrote."""
    monkeypatch.chdir(tmp_path)
    plain = run(*command)
    assert plain[0] == 0 and list(tmp_path.iterdir()) == []
    for _ in range(2):
        assert run(*command, "--cache", "cache.tsv") == plain


@pytest.mark.parametrize(
    "command", [("eval", "--expr", "(2)"), ("verify", "--name", "duality", "--weight", "3")]
)
def test_cache_file_with_nan_value_is_a_usage_error(run, tmp_path, command):
    path = tmp_path / "nan.tsv"
    path.write_text("2\tnan\n")
    code, out, err = run(*command, "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "malformed cache line" in err


def test_cache_row_spelt_unlike_an_expression_is_a_usage_error(run, tmp_path):
    """``int`` alone reads ``1_0,2`` as (10,2), which would answer
    ``--expr "(10,2)"`` with the file's 0.5."""
    path = tmp_path / "underscores.tsv"
    path.write_text("1_0,2\t0x1.0p-1\n")
    code, out, err = run("eval", "--expr", "(10,2)", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "malformed cache line" in err


def test_cache_file_of_the_bucketed_form_is_a_usage_error(run, tmp_path):
    """A file of the older ``index<TAB>bucket<TAB>hex`` form, valid there, is
    refused before anything is evaluated, and left as it was."""
    path = tmp_path / "old.tsv"
    path.write_text("2\t12\t0x1.a51a6625307d3p+0\n2,3\t15\t0x1.d4a7cd2e6a4fbp-3\n")
    before = path.read_bytes()
    code, out, err = run("eval", "--expr", "(2,3)", "--cache", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed cache line '2\\t12\\t0x1.a51a6625307d3p+0'\n"
    assert path.read_bytes() == before


def test_cached_value_is_the_uncached_value_at_every_tol(run, tmp_path):
    """A value stored at ``--tol 1e-8`` and read back at ``--tol 1e-15`` from
    the same file prints what a call without ``--cache`` prints, at either tolerance."""
    path = str(tmp_path / "cache.tsv")
    plain = run("eval", "--expr", "(2,3)")
    assert plain[0] == 0
    for tol in ("1e-8", "1e-15"):
        assert run("eval", "--expr", "(2,3)", "--tol", tol, "--cache", path) == plain
        assert run("eval", "--expr", "(2,3)", "--tol", tol) == plain
    assert len(Path(path).read_text().splitlines()) == 1


def test_cache_file_with_a_non_ascii_byte_is_an_input_error(run, tmp_path):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"2\t0x1.a51a6625307d3p+0\n3\t0x1.33ba004f00621p+0 \xe9\n")
    code, out, err = run("eval", "--expr", "(2)", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "can't decode byte 0xe9" in err


def test_verify_populates_cache_file(run, tmp_path):
    path = tmp_path / "verify-cache.tsv"
    code, _, _ = run("verify", "--name", "duality", "--weight", "4", "--cache", str(path))
    assert code == 0
    assert len(ZetaCache(str(path))) == 7


# ---------------------------------------------------------------------------
# an index deeper than the depth limit exits 2
# ---------------------------------------------------------------------------


def test_short_terms_cap_is_an_input_error(run, tmp_path):
    """``(74)`` is shallow, but its dual has depth 73: refused, with no output
    and no cache file, as every input error."""
    path = tmp_path / "cache.tsv"
    code, out, err = run("eval", "--expr", "(2,3)", "--expr", "(74)", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: --expr 2: index (74) or its dual is deeper than the depth limit 72\n"
    assert not path.exists()


def test_mass_beyond_double_range_is_an_input_error(run, tmp_path):
    path = tmp_path / "cache.tsv"
    text = "1000000*(" * 52 + "(2)" + ")" * 52
    code, out, err = run("eval", "--expr", text, "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: the coefficient mass of the combination is beyond the double range\n"
    assert not path.exists()


@pytest.mark.parametrize("scale, body", [("150", "(2)"), ("80", "(2) + (3)")], ids=["term", "partial-sum"])
def test_value_beyond_double_range_is_an_input_error(run, scale, body):
    text = f"{scale}*(" + "1000000*(" * 51 + body + ")" * 52
    code, out, err = run("eval", "--expr", text)
    assert code == 2
    assert out == ""
    assert err == "error: the value of the combination is beyond the double range\n"


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_unusable_tolerance_is_an_input_error(run, tol):
    code, out, err = run("eval", "--expr", "(2,3)", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol must be a positive finite number")


def test_short_terms_cap_not_answered_by_cache_file(run, tmp_path):
    """A hand-written row for a depth-73 index does not answer it: the depth
    is checked before the cache is read, and the file stays as written."""
    deep = "(" + "1," * 72 + "2)"
    path = tmp_path / "cache.tsv"
    path.write_text(f"{deep[1:-1]}\t0x1.0000000000000p+0\n3\t0x1.33ba004f00621p+0\n")
    saved = path.read_text()
    assert run("eval", "--expr", "(3)", "--cache", str(path)) == (0, "1.2020569031595942\n", "")
    code, out, err = run("eval", "--expr", deep, "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: index (1,...,2) of depth 73 and weight 74 or its dual is deeper than the depth limit 72\n"
    assert path.read_text() == saved


# ---------------------------------------------------------------------------
# a cache or report file that cannot be read or written exits 2
# ---------------------------------------------------------------------------


def test_cache_path_that_is_a_directory_is_an_input_error(run, tmp_path):
    code, out, err = run("eval", "--expr", "(2,3)", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_cache_file_in_a_missing_directory_is_an_input_error(run, tmp_path):
    path = tmp_path / "missing" / "cache.tsv"
    code, out, err = run("eval", "--expr", "(2,3)", "--cache", str(path))
    assert code == 2
    assert out == ""  # refused before anything is evaluated
    assert err.startswith("error: ")
    assert not path.parent.exists()


def test_report_in_a_missing_directory_is_an_input_error(run, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run("verify", "--name", "duality", "--weight", "3", "--out", str(path))
    assert code == 2
    assert out == ""  # refused before anything is verified
    assert err.startswith("error: ")
    assert not path.parent.exists()


_EVAL = ("eval", "--expr", "(2,3)")
_VERIFY = ("verify", "--name", "duality", "--weight", "3")


@pytest.mark.parametrize(
    "argv",
    [
        _EVAL + ("--cache", ""),
        _EVAL + ("--cache", "{dir}/missing/"),
        _VERIFY + ("--out", ""),
        _VERIFY + ("--out", "{dir}/missing/"),
        _VERIFY + ("--out", "{dir}"),
        _EVAL + ("--cache", "{dir}"),
    ],
    ids=["cache-empty", "cache-separator", "out-empty", "out-separator", "out-directory", "cache-directory"],
)
def test_path_that_names_no_file_is_an_input_error(run, tmp_path, argv):
    """An empty path, a trailing separator or an existing directory names no
    file to write, and is refused before anything is evaluated, and before a
    cache path is loaded."""
    fill = {"dir": str(tmp_path).rstrip(os.sep)}
    code, out, err = run(*(arg.format(**fill) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "does not name a file to write" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the README's examples print what they show
# ---------------------------------------------------------------------------

_README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced(lang):
    """The lines of each fenced ``lang`` block of the README, in order."""
    blocks, block = [], None
    for line in _README.read_text().splitlines():
        if block is None:
            block = [] if line == "```" + lang else None
        elif line == "```":
            blocks.append(block)
            block = None
        else:
            block.append(line)
    return blocks


def test_readme_examples_print_what_they_show(run):
    """Each ``$ ohno`` example that shows output prints it through ``cli.main``,
    and each line of the Library tour (the first Python block) prints the
    ``# `` lines right under it, and nothing where none are shown."""
    actual, shown = {}, {}
    for block in _fenced("sh"):
        for i, line in enumerate(block):
            output = list(itertools.takewhile(lambda out: out and not out.startswith("$ "), block[i + 1 :]))
            if line.startswith("$ ohno ") and output:
                actual[line] = run(*shlex.split(line[len("$ ohno ") :], comments=True))[:2]
                shown[line] = (0, "".join(out + "\n" for out in output))
    assert len(actual) == 10
    tour, namespace = _fenced("python")[0], {}
    for i, line in enumerate(tour):
        if line and not line.startswith("#"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(line, "README.md", "single"), namespace)
            actual[line] = out.getvalue()
            shown[line] = "".join(
                out[2:] + "\n" for out in itertools.takewhile(lambda out: out.startswith("# "), tour[i + 1 :])
            )
    assert actual == shown
