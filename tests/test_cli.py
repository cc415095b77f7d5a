"""End-to-end tests of the command-line front end."""

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ohno.cli as cli
import ohno.zeta as zeta
from ohno.verify import VerificationReport, list_identities
from ohno.zeta import ZetaCache


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    monkeypatch.delenv("OHNO_CACHE", raising=False)

    def invoke(*argv, env=None):
        if env:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ---------------------------------------------------------------------------
# eval / expand / ohno
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


def test_ohno_series(run):
    code, out, _ = run("ohno", "--expr", "(2)", "--M", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["0", "1", "2"]
    assert float(lines[0].split(":")[1]) == pytest.approx(math.pi**2 / 6, abs=1e-11)


def test_ohno_requires_an_order(run, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("ohno", "--expr", "(3)")
    assert excinfo.value.code == 2
    assert "--M" in capsys.readouterr().err


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
        "--out", str(path), "--format", "csv",
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


@pytest.mark.parametrize("name", [["duality", "--weight", "3"], ["all"]], ids=["single", "all"])
def test_verify_format_requires_out(run, monkeypatch, name):
    monkeypatch.setattr(cli, "verify", lambda *a, **k: pytest.fail("verified before the flags were checked"))
    code, out, err = run("verify", "--name", *name, "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: --format requires --out\n"


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
    assert "{eval,expand,ohno,verify,list}" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("rep(2, 3000)", "error: series cap of 256 terms is below what a depth-3000 factor needs to meet the "
         "error budget (index (2,...,2) of depth 3000 and weight 6000, precision 71 bits)\n"),
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


def test_expansion_beyond_memory_is_an_input_error():
    """Run in a child whose address space is capped at 128 MB, where the
    C(302, 3) shift vectors of length 300 cannot be built."""
    cap = 128 * 2**20
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "ohno.cli", "expand", "--expr", "ohno(3, rep(2, 300))"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# cache plumbing
# ---------------------------------------------------------------------------


def test_cache_file_created_and_reused(run, tmp_path):
    path = tmp_path / "cache.tsv"
    code, first, _ = run("eval", "--expr", "(3)", "--cache", str(path))
    assert code == 0
    assert path.exists()
    assert len(ZetaCache(str(path))) == 1
    code, second, _ = run("eval", "--expr", "(3)", "--cache", str(path))
    assert code == 0
    assert first == second


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


def test_cache_env_overrides_flag_path(run, tmp_path):
    env_path = tmp_path / "env.tsv"
    flag_path = tmp_path / "flag.tsv"
    code, _, _ = run(
        "eval", "--expr", "(4)", "--cache", str(flag_path),
        env={"OHNO_CACHE": str(env_path)},
    )
    assert code == 0
    assert env_path.exists()
    assert not flag_path.exists()


def test_cache_env_overrides_on(run, tmp_path):
    env_path = tmp_path / "env.tsv"
    code, _, _ = run("eval", "--expr", "(4)", "--cache", "on", env={"OHNO_CACHE": str(env_path)})
    assert code == 0
    assert env_path.exists()


def test_cache_off_stays_off(run, tmp_path):
    never = tmp_path / "never.tsv"
    code, _, _ = run("eval", "--expr", "(4)", "--cache", "off", env={"OHNO_CACHE": str(never)})
    assert code == 0
    assert not never.exists()


@pytest.mark.parametrize(
    "command", [("eval", "--expr", "(2)"), ("verify", "--name", "duality", "--weight", "3")]
)
def test_cache_file_with_nan_value_is_a_usage_error(run, tmp_path, command):
    path = tmp_path / "nan.tsv"
    path.write_text("2\t99\tnan\n")
    code, out, err = run(*command, "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "malformed cache line" in err


def test_cache_file_with_a_non_ascii_byte_is_an_input_error(run, tmp_path):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"2\t12\t0x1.a51a6625307d3p+0\n3\t12\t0x1.33ba004f00621p+0 \xe9\n")
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
# a series cap too short for the tolerance exits 2
# ---------------------------------------------------------------------------


def test_short_terms_cap_is_an_input_error(run, tmp_path):
    path = tmp_path / "cache.tsv"
    code, out, err = run("eval", "--expr", "(2,3)", "--terms-cap", "8", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: series cap of 8 terms")
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
    path = tmp_path / "cache.tsv"
    code, _, _ = run("eval", "--expr", "(2,3)", "--cache", str(path))
    assert code == 0
    saved = path.read_text()
    code, out, err = run("eval", "--expr", "(2,3)", "--terms-cap", "8", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "series cap of 8 terms" in err
    assert path.read_text() == saved


# ---------------------------------------------------------------------------
# a cache or report file that cannot be read or written exits 2
# ---------------------------------------------------------------------------


def test_cache_path_that_is_a_directory_is_an_input_error(run, tmp_path):
    code, out, err = run("eval", "--expr", "(2,3)", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_cache_file_in_a_missing_directory_is_an_input_error(run, tmp_path, via_env):
    path = tmp_path / "missing" / "cache.tsv"
    if via_env:
        code, out, err = run("eval", "--expr", "(2,3)", env={"OHNO_CACHE": str(path)})
    else:
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
    "argv, env_path",
    [
        (_EVAL + ("--cache", ""), None),
        (_EVAL + ("--cache", "{dir}/missing/"), None),
        (_EVAL, "{dir}/missing/"),
        (_VERIFY + ("--out", ""), None),
        (_VERIFY + ("--out", "{dir}/missing/"), None),
        (_VERIFY + ("--out", "{dir}"), None),
        (_EVAL + ("--cache", "{dir}"), None),
        (_EVAL, "{dir}"),
    ],
    ids=[
        "cache-empty", "cache-separator", "env-separator", "out-empty", "out-separator", "out-directory",
        "cache-directory", "env-directory",
    ],
)
def test_path_that_names_no_file_is_an_input_error(run, tmp_path, argv, env_path):
    """An empty path, a trailing separator or an existing directory names no
    file to write, and is refused before anything is evaluated, and before a
    cache path is loaded."""
    fill = {"dir": str(tmp_path).rstrip(os.sep)}
    env = None if env_path is None else {"OHNO_CACHE": env_path.format(**fill)}
    code, out, err = run(*(arg.format(**fill) for arg in argv), env=env)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "does not name a file to write" in err
    assert list(tmp_path.iterdir()) == []
