"""End-to-end tests of the command-line front end."""

import json
import math

import pytest

import ohno.cli as cli
from ohno.verify import VerificationReport
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
# eval / expand / dual / ohno
# ---------------------------------------------------------------------------


def test_eval_index(run):
    code, out, err = run("eval", "--index", "(2)")
    assert code == 0
    assert float(out) == pytest.approx(math.pi**2 / 6, abs=1e-11)


def test_eval_expression(run):
    code, out, _ = run("eval", "--expr", "(2)#(3) - (2,3) - (3,2)")
    assert code == 0
    assert float(out) == 0.0


def test_eval_honors_tolerance_flag(run):
    code, out, _ = run("eval", "--index", "(3)", "--tol", "1e-9")
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
    code, out, _ = run("dual", "--index", "(3)")
    assert code == 0
    assert out.strip() == "(1,2)"


def test_dual_expression(run):
    code, out, _ = run("dual", "--expr", "2*(3) + (2,3)")
    assert code == 0
    assert out.strip() == "2*(1,2) + (1,2,2)"


def test_ohno_symbolic(run):
    code, out, _ = run("ohno", "--index", "(3)", "--m", "2")
    assert code == 0
    assert out.strip() == "(5)"


def test_ohno_numeric(run):
    code, out, _ = run("ohno", "--index", "(3)", "--m", "1", "--eval")
    assert code == 0
    assert float(out) == pytest.approx(math.pi**4 / 90, abs=1e-11)


def test_ohno_series(run):
    code, out, _ = run("ohno", "--index", "(2)", "--M", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["0", "1", "2"]
    assert float(lines[0].split(":")[1]) == pytest.approx(math.pi**2 / 6, abs=1e-11)


def test_ohno_requires_an_order(run):
    code, _, err = run("ohno", "--index", "(3)")
    assert code == 2
    assert "error" in err


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


def test_both_inputs_rejected(run):
    code, _, err = run("eval", "--index", "(2)", "--expr", "(3)")
    assert code == 2
    assert "exactly one" in err


def test_missing_input_rejected(run):
    code, _, err = run("eval")
    assert code == 2
    assert "exactly one" in err


def test_non_admissible_eval(run):
    code, _, err = run("eval", "--index", "(1,1)")
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
    assert "expression grammar" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# cache plumbing
# ---------------------------------------------------------------------------


def test_cache_file_created_and_reused(run, tmp_path):
    path = tmp_path / "cache.tsv"
    code, first, _ = run("eval", "--index", "(3)", "--cache", str(path))
    assert code == 0
    assert path.exists()
    assert len(ZetaCache(str(path))) == 1
    code, second, _ = run("eval", "--index", "(3)", "--cache", str(path))
    assert code == 0
    assert first == second


def test_cache_env_overrides_flag_path(run, tmp_path):
    env_path = tmp_path / "env.tsv"
    flag_path = tmp_path / "flag.tsv"
    code, _, _ = run(
        "eval", "--index", "(4)", "--cache", str(flag_path),
        env={"OHNO_CACHE": str(env_path)},
    )
    assert code == 0
    assert env_path.exists()
    assert not flag_path.exists()


def test_cache_env_overrides_on(run, tmp_path):
    env_path = tmp_path / "env.tsv"
    code, _, _ = run("eval", "--index", "(4)", "--cache", "on", env={"OHNO_CACHE": str(env_path)})
    assert code == 0
    assert env_path.exists()


def test_cache_off_stays_off(run, tmp_path):
    never = tmp_path / "never.tsv"
    code, _, _ = run("eval", "--index", "(4)", "--cache", "off", env={"OHNO_CACHE": str(never)})
    assert code == 0
    assert not never.exists()


@pytest.mark.parametrize(
    "command", [("eval", "--index", "2"), ("verify", "--name", "duality", "--weight", "3")]
)
def test_cache_file_with_nan_value_is_a_usage_error(run, tmp_path, command):
    path = tmp_path / "nan.tsv"
    path.write_text("2\t99\tnan\n")
    code, out, err = run(*command, "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "malformed cache line" in err


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
    code, out, err = run("eval", "--index", "2,3", "--terms-cap", "8", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: series cap of 8 terms")
    assert not path.exists()


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_unusable_tolerance_is_an_input_error(run, tol):
    code, out, err = run("eval", "--index", "2,3", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol must be a positive finite number")


def test_short_terms_cap_not_answered_by_cache_file(run, tmp_path):
    path = tmp_path / "cache.tsv"
    code, _, _ = run("eval", "--index", "2,3", "--cache", str(path))
    assert code == 0
    saved = path.read_text()
    code, out, err = run("eval", "--index", "2,3", "--terms-cap", "8", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert "series cap of 8 terms" in err
    assert path.read_text() == saved


# ---------------------------------------------------------------------------
# a cache or report file that cannot be read or written exits 2
# ---------------------------------------------------------------------------


def test_cache_path_that_is_a_directory_is_an_input_error(run, tmp_path):
    code, out, err = run("eval", "--index", "2,3", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_cache_file_in_a_missing_directory_is_an_input_error(run, tmp_path, via_env):
    path = tmp_path / "missing" / "cache.tsv"
    if via_env:
        code, _, err = run("eval", "--index", "2,3", env={"OHNO_CACHE": str(path)})
    else:
        code, _, err = run("eval", "--index", "2,3", "--cache", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert not path.parent.exists()


def test_report_in_a_missing_directory_is_an_input_error(run, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run("verify", "--name", "duality", "--weight", "3", "--out", str(path))
    assert code == 2
    assert out.startswith("duality: PASS")
    assert err.startswith("error: ")
    assert not path.parent.exists()
