"""Command-line interface tests (exit codes, file output, config files)."""

import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from twrelay.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_command(capsys):
    code, out, err = run(
        capsys, "rate", "--gamma1-db", "0", "--gamma0", "zero,frac:0.1"
    )
    assert code == 0 and err == ""
    assert "DF[g0=0]" in out and "0.666666667" in out
    assert "DF[g0=0.1*g1]" in out and "0.698690816" in out
    assert "JDF" in out and "0.884228217" in out
    assert "upper bound" in out
    assert "lambda* = 0.5" in out


def test_rate_scheme_subset(capsys):
    code, out, _ = run(capsys, "rate", "--gamma1-db", "0", "--schemes", "AF")
    assert code == 0
    assert "AF" in out and "DNF" not in out


def test_sweep_to_stdout(capsys):
    code, out, err = run(capsys, "sweep", "--gamma1-db", "0:2:1")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "gamma1_db,gamma2_db,gamma0_db,DF,AF,JDF,DNF"
    assert len(lines) == 4


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    code, _, _ = run(capsys, "sweep", "--gamma1-db", "0:5:1", "--out", str(target))
    assert code == 0
    first = target.read_bytes()
    code, _, _ = run(capsys, "sweep", "--gamma1-db", "0:5:1", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == first


def test_sweep_plot_format(tmp_path, capsys):
    target = tmp_path / "fig"
    code, out, _ = run(
        capsys, "sweep", "--gamma1-db", "0:3:1", "--gamma0", "zero,frac:0.1",
        "--format", "plot", "--out", str(target),
    )
    assert code == 0
    csv_file = tmp_path / "fig.csv"
    plot_file = tmp_path / "fig.gp"
    assert csv_file.exists() and plot_file.exists()
    script = plot_file.read_text()
    assert "'fig.csv'" in script
    assert script.count("with lines") == 5


def test_sweep_plot_needs_out(capsys):
    code, _, err = run(capsys, "sweep", "--gamma1-db", "0:3:1", "--format", "plot")
    assert code == 1
    assert "--out" in err


def test_out_dir_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TWRELAY_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "sweep", "--gamma1-db", "0:1:1", "--out", "sub.csv")
    assert code == 0
    assert (tmp_path / "sub.csv").exists()


def test_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# comparison curves\n"
        "gamma1_db = 0:2:1\n"
        "gamma2 = quad\n"
        "schemes = JDF,DNF\n"
    )
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma1_db,gamma2_db,gamma0_db,JDF,DNF"
    # quadratic rule: the JDF column equals the DNF bound
    for line in lines[1:]:
        cells = line.split(",")
        assert math.isclose(float(cells[3]), float(cells[4]), rel_tol=1e-9)


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gamma1_db=0:2:1\nschemes=JDF,DNF\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--schemes", "DNF")
    assert code == 0
    assert out.split("\n")[0] == "gamma1_db,gamma2_db,gamma0_db,DNF"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gamma1_db=0:2:1\nbogus=1\n")
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "sweep", "--format", "pdf", "--gamma1-db", "0:1:1")
    assert code == 1 and "pdf" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "sweep")
    assert code == 1 and "gamma1-db" in err


def test_bad_configuration_exits_one(capsys):
    code, _, err = run(
        capsys, "sweep", "--gamma1-db", "0:10:1", "--gamma0", "db:5"
    )
    assert code == 1
    assert "gamma1" in err


def test_io_error_exits_three(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "--gamma1-db", "0:1:1", "--out", str(missing))
    assert code == 3
    assert "i/o error" in err


def test_verification_failure_exits_two(capsys):
    # a zero tolerance trips on the oracle's last-ulp disagreement
    code, _, err = run(capsys, "verify", "--samples", "5", "--tol", "0")
    assert code == 2
    assert "verification failed" in err


def test_verify_passes_at_documented_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "10", "--seed", "1")
    assert code == 0
    assert "ok" in out


def test_simulate_df(capsys):
    code, out, _ = run(
        capsys, "simulate", "--scheme", "df", "--gamma1-db", "0",
        "--gamma0", "frac:0.1", "--n-symbols", "10000",
    )
    assert code == 0
    assert "decode check: ok" in out
    assert "realized rate" in out
    assert "D_B" in out


def test_simulate_jdf_explicit_lambda(capsys):
    code, out, _ = run(
        capsys, "simulate", "--scheme", "jdf", "--gamma1-db", "0",
        "--gamma2", "db:4.771212547196624", "--lam", "1.0",
        "--n-symbols", "100000",
    )
    assert code == 0
    assert "decode check: ok" in out


def test_simulate_degenerate_block_exits_one(capsys):
    code, _, err = run(
        capsys, "simulate", "--scheme", "df", "--gamma1-db", "0", "--n-symbols", "1"
    )
    assert code == 1
    assert "empty" in err


def test_negative_range_as_separate_token(capsys):
    for command, option, value, extra in (
        ("sweep", "--gamma1-db", "-10:0:1", ()),
        ("verify", "--gamma1-db-range", "-60:60", ("--samples", "3")),
    ):
        code, joined, _ = run(capsys, command, f"{option}={value}", *extra)
        assert code == 0
        code, separate, err = run(capsys, command, option, value, *extra)
        assert code == 0 and err == ""
        assert separate == joined


def test_jdf_at_very_low_snr(capsys):
    code, out, err = run(capsys, "rate", "--gamma1-db", "-160")
    assert code == 0 and err == ""
    assert "lambda* = 0.5" in out
    code, _, err = run(capsys, "simulate", "--scheme", "jdf", "--gamma1-db", "-160")
    assert code == 1
    assert "empty packet" in err and "Traceback" not in err


@pytest.mark.parametrize("db", ["4000", "-3200"])
def test_extreme_snr_exits_one(capsys, db):
    # 10**400 overflows; at -3200 dB the DF optimum's denominator underflows
    code, out, err = run(capsys, "rate", "--gamma1-db", db)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_rate_prints_nothing_before_an_error(capsys):
    # DF and AF evaluate at -1620 dB, the JDF balance point underflows
    code, out, err = run(capsys, "rate", "--gamma1-db", "-1620")
    assert code == 1 and out == ""
    assert "underflows" in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _main_in_capped_child(argv):
    """``main(argv)`` in a child whose address space is capped at 1 GiB, so
    that memory allocated anyway ends in MemoryError instead of exhausting
    the machine; returns the finished process, its stdout the seconds taken."""
    script = (
        "import sys, time\n"
        "from twrelay.cli import main\n"
        "t = time.perf_counter()\n"
        f"code = main({list(argv)!r})\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        preexec_fn=_limit_address_space, timeout=60,
    )


def test_oversized_sweep_grid_exits_one_at_once():
    # 3*10**10 points
    proc = _main_in_capped_child(["sweep", "--gamma1-db=0:30:1e-9"])
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "points" in proc.stderr
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("argv", [
    # 10**12 symbols; then 10**7 symbols that carry about 5*10**8 bits a packet
    ["simulate", "--scheme", "df", "--gamma1-db", "10", "--n-symbols", "1000000000000"],
    ["simulate", "--scheme", "jdf", "--gamma1-db", "300", "--n-symbols", "10000000"],
])
def test_oversized_simulation_exits_one_before_allocating(argv):
    proc = _main_in_capped_child(argv)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "100000000" in proc.stderr
    assert float(proc.stdout) < 1.0


def test_af_rate_where_gamma1_gamma2_overflows(capsys):
    code, out, err = run(capsys, "rate", "--gamma1-db", "1550", "--schemes", "AF")
    assert code == 0 and err == ""
    rate = float(out.split("rate =")[1].split()[0])
    assert math.isfinite(rate) and rate > 0.0


def test_rate_where_gamma1_plus_gamma2_overflows(capsys):
    # 2*g1 and g1 + g2 overflow; C->A came out 0 and C(g1 + g2) raised
    code, out, err = run(capsys, "rate", "--gamma1-db", "3080")
    assert code == 0 and err == ""
    assert "AF               rate = 1021.56889   (A->C 1021.56889, C->A 1021.56889)" in out


@pytest.mark.parametrize("argv", [
    ["rate", "--gamma1-db", "0", "--schemes", "DF,DF"],
    ["rate", "--gamma1-db", "0", "--gamma0", "zero,zero"],
    ["rate", "--gamma1-db", "0", "--gamma0", "zero,db:-inf"],
    ["sweep", "--gamma1-db", "0:2:1", "--schemes", "DF,df"],
    ["sweep", "--gamma1-db", "0:2:1", "--gamma0", "zero,zero"],
    ["sweep", "--gamma1-db", "0:2:1", "--gamma0", "zero,db:-inf"],
])
def test_duplicate_columns_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: duplicate") and err.count("\n") == 1


@pytest.mark.parametrize("argument", [
    "--samples=-1", "--samples=0", "--tol=nan", "--tol=-1", "--tol=inf",
    "--gamma1-db-range=30:-10", "--gamma1-db-range=0:10:1", "--gamma1-db-range=nan:0",
])
def test_verify_rejects_bad_arguments(capsys, argument):
    code, out, err = run(capsys, "verify", argument)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert argument.split("=")[1] in err  # the message names the bad value


def _readme_examples():
    """(command, expected output lines) of each ``$ twrelay`` example in
    README.md; an output that ends in ``...`` is a prefix of the real one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for example in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, *lines = example.strip("\n").split("\n")
            examples.append(pytest.param(command, lines, id=command.split()[1]))
    return examples


@pytest.mark.parametrize("command, lines", _readme_examples())
def test_readme_example_output(capsys, command, lines):
    program, *argv = shlex.split(command)
    assert program == "twrelay"
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if lines[-1] == "...":
        lines = lines[:-1]
        out = "".join(out.splitlines(keepends=True)[: len(lines)])
    assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("argv", [
    ["rate", "--gamma1-db", "1550", "--schemes", "JDF"],
    ["verify", "--samples", "20", "--gamma1-db-range", "1500:1600"],
])
def test_snrs_near_the_float_limit_exit_cleanly(capsys, argv):
    # the JDF regime test squared gamma1 and overflowed here
    code, out, err = run(capsys, *argv)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()
