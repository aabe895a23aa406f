"""Command-line interface tests (exit codes, file output, config files)."""

import io
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twrelay
from twrelay import oracle, schemes
from twrelay.channel import db_to_linear, make_config
from twrelay.cli import main
from twrelay.sweep import VERIFY_TOLERANCE


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
    # the file holds exactly what the same sweep prints
    code, out, _ = run(capsys, "sweep", "--gamma1-db", "0:5:1")
    assert code == 0 and first == out.encode()


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


@pytest.mark.parametrize("fmt", ["csv", "plot"])
def test_sweep_rejects_an_empty_out(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sweep", "--gamma1-db", "0:1:1", "--format", fmt, "--out", "")
    assert code == 1 and out == ""
    assert err == "error: --out must name a file, got ''\n"
    assert not any(tmp_path.iterdir())


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


def test_verification_failure_exits_two(capsys, monkeypatch):
    # the DF rule df_max_rate applies, 1e-5 high: ten times the tolerance
    real = schemes._df_max

    def corrupted(c0, c1, c2):
        rate, theta = real(c0, c1, c2)
        return rate * (1.0 + 1e-5), theta

    monkeypatch.setattr(schemes, "_df_max", corrupted)
    code, out, err = run(capsys, "verify", "--samples", "5")
    assert code == 2 and out == ""
    assert err.startswith("verification failed: DF closed form") and err.count("\n") == 1
    assert re.search(r" at gamma0=\S+, gamma1=\S+, gamma2=\S+ \(relative deviation 1e-05, "
                     r"tolerance 1e-06\)$", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "0"],
    ["verify", "--grid-points", "301"],
    ["sweep", "--gamma1-db", "0:2:1", "--grid-points", "301"],
])
def test_removed_verification_options_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("scheme, flag, owner", [("jdf", "--theta", "df"), ("df", "--lam", "jdf")])
def test_simulate_rejects_the_other_schemes_parameter(capsys, scheme, flag, owner):
    argv = ["simulate", "--scheme", scheme, "--gamma1-db", "0", flag, "0.3"]
    assert run(capsys, *argv) == (1, "", f"error: {flag} applies only to --scheme {owner}\n")


def test_simulate_rejects_a_negative_seed(capsys):
    argv = ["simulate", "--scheme", "df", "--gamma1-db", "0", "--seed=-1"]
    assert run(capsys, *argv) == (1, "", "error: --seed must be non-negative, got -1\n")


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
        # exponent form
        ("rate", "--gamma1-db", "-1e1", ()),
        ("sweep", "--gamma1-db", "-1e1:0:5", ()),
        ("verify", "--gamma1-db-range", "-1e1:-5", ("--samples", "3")),
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


@pytest.mark.parametrize("db", ["4000", "-3300"])
def test_extreme_snr_exits_one(capsys, db):
    # 10**400 overflows; 10**-330 underflows to an SNR of 0
    code, out, err = run(capsys, "rate", "--gamma1-db", db)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_rate_prints_nothing_before_an_error(capsys, monkeypatch):
    # DF and AF evaluate, then JDF fails
    def fails(config):
        raise ValueError("JDF forced failure")

    monkeypatch.setattr(schemes, "jdf_max_rate", fails)
    code, out, err = run(capsys, "rate", "--gamma1-db", "0")
    assert code == 1 and out == ""
    assert err == "error: JDF forced failure\n"


@pytest.mark.parametrize("db, rate", [
    ("-1610", "1.44269504e-161"), ("-1620", "1.44269504e-162"), ("-3200", "1.44267169e-320"),
])
def test_jdf_where_its_products_are_subnormal_matches_its_oracle(capsys, db, rate):
    # C1*2*C12 is subnormal below about -1545 dB and g1*g2 below about
    # -1540 dB: JDF read 1.44689438e-161 at -1610 dB, and from -1620 dB on
    # its balance point raised "underflows"; for equal links the rate is C1
    code, out, err = run(capsys, "rate", f"--gamma1-db={db}", "--schemes", "JDF")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"JDF              rate = {rate} lambda* = 0.5  [crossing]"
    g = db_to_linear(float(db))
    oracle_rate = oracle.grid_max_jdf_lambda(make_config(0.0, g, g)).best_rate
    assert abs(float(rate) - oracle_rate) <= VERIFY_TOLERANCE * oracle_rate


def test_sweep_verify_where_oracle_durations_overflow_warns_nothing(capsys):
    # C1 is subnormal and C2 = C(1000): on most of the oracle's theta grid
    # the broadcast duration overflows to inf (rate 0); the suite turns
    # numpy's overflow warning into an error
    code, out, err = run(capsys, "sweep", "--gamma1-db=-3100:-3090:5", "--gamma2", "db:30",
                         "--schemes", "DF", "--verify")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "-3100,30,-inf,1.44269504e-310,1.44269504e-310,0"


def test_jdf_sweep_where_its_product_is_subnormal_verifies(capsys):
    # exited 2 with relative deviation 0.00877
    code, out, err = run(capsys, "sweep", "--gamma1-db=-1615:-1605:5", "--schemes", "JDF",
                         "--verify")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


def test_df_below_minus_1600_db_matches_its_oracle(capsys):
    # C1*(C1+C2) is subnormal there; DF read 1.1466819e-162 and --verify exited 2
    code, out, err = run(capsys, "rate", "--gamma1-db", "-1620", "--gamma2", "ratio:2.5",
                         "--schemes", "DF")
    assert code == 0 and err == ""
    assert "DF               rate = 1.20224587e-162" in out
    code, out, err = run(capsys, "sweep", "--gamma1-db=-1620:-1610:5", "--gamma2", "ratio:2.5",
                         "--verify")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _child(script, **kwargs):
    """``script`` in a fresh interpreter that imports this checkout's
    twrelay; returns the finished process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
        **kwargs,
    )


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
    return _child(script, preexec_fn=_limit_address_space)


@pytest.mark.parametrize("argv, code", [
    (["rate", "--gamma1-db", "10", "--gamma0", "zero,frac:0.1"], 0),
    (["sweep", "--gamma1-db=-10:20:1", "--gamma2", "quad", "--gamma0", "zero,frac:0.1"], 0),
    (["sweep", "--help"], 0),
    (["rate", "--gamma1-db", "x"], 1),
])
def test_rate_and_sweep_leave_numpy_unimported(argv, code):
    # numpy's import is most of a cold start; only verify and simulate need it
    proc = _child(
        "import sys\n"
        "from twrelay.cli import main\n"
        f"code = main({argv!r})\n"
        "print('numpy imported:', 'numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    assert proc.stdout.endswith("numpy imported: False\n")


def test_simulate_and_verify_import_numpy_when_they_run():
    simulate = ["simulate", "--scheme", "df", "--gamma1-db", "0", "--n-symbols", "1000"]
    proc = _child(
        "import sys\n"
        "from twrelay.cli import main\n"
        f"codes = [main({simulate!r}), main(['verify', '--samples', '3'])]\n"
        "print('numpy' in sys.modules, 'twrelay.protocol' in sys.modules)\n"
        "from twrelay import protocol\n"
        "relay = protocol._relay_broadcast\n"
        "def corrupted(*args):\n"
        "    at_a, at_c = (bits.copy() for bits in relay(*args))\n"
        "    at_c[-1] ^= 1\n"
        "    return at_a, at_c\n"
        "protocol._relay_broadcast = corrupted\n"
        f"codes.append(main({simulate!r}))\n"
        "print(codes)\n"
    )
    assert proc.returncode == 0
    assert "decode check: ok\n" in proc.stdout and "\nok\n" in proc.stdout
    assert proc.stdout.endswith("\nTrue True\n[0, 0, 2]\n")
    # the simulator's ProtocolError is caught although cli never imports it at module level
    assert proc.stderr == "simulation failed: decode mismatch in DF exchange\n"


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


def test_oversized_packets_exit_one_before_allocating(capsys):
    # 2*10**7 symbols fit the block cap, but each packet would hold about
    # 1.04*10**8 bits, 13 MB packed; the simulator (and numpy) load before
    # tracing starts
    from twrelay import protocol

    tracemalloc.start()
    try:
        code, out, err = run(capsys, "simulate", "--scheme", "df", "--gamma1-db", "30",
                             "--gamma2", "ratio:2", "--n-symbols", "20000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("error: source packets of 104430153 and 104430153 bits exceed the "
                   f"{protocol.MAX_BLOCK_SIZE}-bit limit; use a shorter block\n")
    assert peak < 1_000_000


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
    "--samples=-1", "--samples=0", "--seed=-1",
    "--gamma1-db-range=30:-10", "--gamma1-db-range=0:10:1", "--gamma1-db-range=nan:0",
])
def test_verify_rejects_bad_arguments(capsys, argument):
    code, out, err = run(capsys, "verify", argument)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert argument.split("=")[1] in err  # the message names the bad value


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(command, expected output lines) of each ``$ twrelay`` example in
    README.md; an output that ends in ``...`` is a prefix of the real one."""
    text = _README.read_text(encoding="utf-8")
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


def test_readme_library_snippet():
    # README's python block runs and gives the values its comments state
    text = _README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert "rate=0.8, parameter=1/3" in block and "# 1.0 (saturated" in block
    namespace = {}
    exec(block, namespace)
    best = namespace["best"]
    assert math.isclose(best.rate, 0.8, rel_tol=1e-15)
    assert math.isclose(best.parameter, 1.0 / 3.0, rel_tol=1e-15)
    assert namespace["jdf_max_rate"](namespace["cfg"]).rate == 1.0


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from twrelay import *", namespace)  # a stale __all__ entry raises here
    assert set(twrelay.__all__) <= namespace.keys()


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


@pytest.mark.parametrize("gamma1_db, gamma2, directions", [
    # A on the stronger link: make_config swaps the terminals, and A->C has
    # SNR gA*gC/(gA + 2*gC + 1) with gA = 10, gC = 10**0.5
    ("10", "db:5", "(A->C 1.4984119, C->A 1.2071222)"),
    ("5", "db:10", "(A->C 1.2071222, C->A 1.4984119)"),
])
def test_rate_af_directions_follow_the_terminals_as_given(capsys, gamma1_db, gamma2, directions):
    code, out, err = run(capsys, "rate", "--gamma1-db", gamma1_db, "--gamma2", gamma2,
                         "--schemes", "AF")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"AF               rate = 1.35276705   {directions}"


def test_verify_draws_gamma2_inside_the_float_range(capsys):
    # gamma2 = gamma1 * 10^(U(0, 10)/10) overflowed above about 3072.5 dB
    code, out, err = run(capsys, "verify", "--samples", "20", "--gamma1-db-range", "3075:3082.5")
    assert code == 0 and err == "" and out.endswith("\nok\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--gamma1-db-range", "0:1:2:3"],
     "expected LO:HI in dB with finite LO <= HI, got '0:1:2:3'"),
    (["rate", "--gamma1-db", "0", "--gamma0", ","], "at least one gamma0 rule is required"),
    (["sweep", "--gamma1-db", "0:2:1", "--gamma0", " ,"], "at least one gamma0 rule is required"),
])
def test_empty_list_and_long_interval_messages(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


_PINNED_GRID = ("gamma1_db=0:2:1", ["--gamma1-db", "0:2:1"])


@pytest.mark.parametrize("entries, flags", [
    (["verify=yes"], ["--verify"]),
    (["verify=no"], []),
    (["format=csv"], ["--format", "csv"]),
    (["verify=yes", "gamma0=zero,frac:0.1"], ["--verify", "--gamma0", "zero,frac:0.1"]),
    (["out=curves.csv"], ["--out", "curves.csv"]),
    (["gamma1_db=-3:-1:1"], ["--gamma1-db", "-3:-1:1"]),
])
def test_config_entries_act_like_their_flags(tmp_path, capsys, monkeypatch, entries, flags):
    monkeypatch.setenv("TWRELAY_OUT_DIR", str(tmp_path))
    entry, flag = _PINNED_GRID
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{line}\n" for line in [entry, *entries]))
    outputs = []
    for argv in (["sweep", *flag, *flags], ["sweep", "--config", str(cfg)]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        written = tmp_path / "curves.csv"
        outputs.append((out, written.read_bytes() if written.exists() else None))
        written.unlink(missing_ok=True)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entry, bad", [
    ("verify=maybe", "maybe"),
    ("gamma2 quad", "gamma2 quad"),
    ("format=pdf", "pdf"),
    ("grid_points=301", "grid_points"),
])
def test_bad_config_entry_exits_one(tmp_path, capsys, entry, bad):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{_PINNED_GRID[0]}\n{entry}\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert bad in err


def test_df_where_c_gamma0_rounds_to_c_gamma1(capsys):
    # C(g0) == C(g1) in floats: theta* = (C1 - C0)/(C1 + C2 - 2*C0) cancelled to 0
    argv = ["--gamma1-db", "30", "--gamma2", "ratio:2", "--gamma0", "frac:0.9999999999999999"]
    code, out, err = run(capsys, "rate", *argv)
    assert code == 0 and err == ""
    assert "DF               rate = 9.96722626   theta* = 1.63969776e-16" in out
    code, out, err = run(capsys, "sweep", "--gamma1-db", "29:31:1", *argv[2:], "--verify")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


@pytest.mark.parametrize("argv, rate", [
    (["--gamma1-db=-3230", "--gamma2", "db:30"], "1.48219694e-323"),
    (["--gamma1-db=-3075", "--gamma2", "db:30", "--gamma0", "frac:0.9999999999999998"],
     "4.5622023e-308"),
])
def test_df_where_theta_star_rounds_to_zero(capsys, argv, rate):
    # theta* lies below the smallest subnormal; DF exited 1 naming theta
    code, out, err = run(capsys, "rate", *argv, "--schemes", "DF,DNF")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [f"DF               rate = {rate} theta* = 0  [split-and-xor]",
                                    f"DNF              rate = {rate} upper bound"]


def test_simulate_rejects_a_theta_star_of_zero(capsys):
    # the simulator cannot give C an empty source phase
    code, out, err = run(capsys, "simulate", "--scheme", "df", "--gamma1-db=-3230",
                         "--gamma2", "db:30")
    assert code == 1 and out == ""
    assert err == ("error: block of 100000 symbols at theta=0 leaves an empty packet "
                   "(sizes: D_AC=0, D_CA=0, D_BC=0, D_BA=0)\n")


def test_df_oracle_reaches_a_theta_star_of_zero(capsys):
    # the oracle scans theta = 0 too, where the closed form's optimum lies
    code, out, err = run(capsys, "sweep", "--gamma1-db=-3230:-3220:5", "--gamma2", "db:30",
                         "--schemes", "DF", "--verify")
    assert code == 0 and err == ""
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["0", "0", "0"]


def test_jdf_oracle_where_the_saturated_duration_overflows(capsys):
    # C1 subnormal and C2 not: rate_c/C1 overflowed at every lam, and the
    # oracle read 0.0 where JDF reaches C1 at lam = 1
    code, out, err = run(capsys, "sweep", "--gamma1-db=-3080:-3080:1", "--gamma2", "db:30",
                         "--schemes", "JDF", "--verify")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[3:5] == ["1.44269504e-308", "1.44269504e-308"]
    for gamma2 in ("db:30", "db:300"):
        code, out, err = run(capsys, "sweep", "--gamma1-db=-3230:-3000:5", "--gamma2", gamma2,
                             "--schemes", "JDF", "--verify")
        assert code == 0 and err == "" and len(out.splitlines()) == 48


@pytest.mark.parametrize("scheme, flag, pattern", [
    ("df", "--theta", r"theta\* = (\S+)"),
    ("jdf", "--lam", r"lambda\* = (\S+)"),
])
def test_simulate_takes_the_rate_optimum_as_printed(capsys, scheme, flag, pattern):
    # A is on the stronger link, so make_config swaps the terminals
    snrs = ["--gamma1-db", "10", "--gamma2", "db:5"]
    code, out, _ = run(capsys, "rate", *snrs, "--schemes", scheme.upper())
    assert code == 0
    best = re.search(pattern, out).group(1)
    rate = re.search(r"rate = (\S+)", out).group(1)
    code, out, _ = run(capsys, "simulate", "--scheme", scheme, *snrs, flag, best,
                       "--n-symbols", "1000")
    assert code == 0
    assert f", {flag[2:]} = {best}, " in out.splitlines()[0]
    assert re.search(r"analytic (\S+) bit/s", out).group(1) == rate


def test_simulate_theta_follows_the_terminals_as_given(capsys):
    # A sends for (1 - theta)*N symbols, also when A is on the stronger link
    code, out, _ = run(capsys, "simulate", "--scheme", "df", "--gamma1-db", "10",
                       "--gamma2", "db:5", "--theta", "0.3", "--n-symbols", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DF exchange: N = 1000, theta = 0.3, seed = 0"
    assert "A 3.45943162 700 2421 D_AC" in lines and "C 2.05737321 300 617 D_CA" in lines
    # an out-of-range value is named as given
    code, out, err = run(capsys, "simulate", "--scheme", "df", "--gamma1-db", "10",
                         "--gamma2", "db:5", "--theta", "1.5")
    assert (code, out) == (1, "")
    assert err == "error: theta must lie in [0, 1], got 1.5\n"


def test_unswapped_theta_and_lambda_unchanged(capsys):
    code, out, _ = run(capsys, "simulate", "--scheme", "df", "--gamma1-db", "5",
                       "--gamma2", "db:10", "--theta", "0.3", "--n-symbols", "1000")
    assert code == 0 and out.splitlines()[:3] == [
        "DF exchange: N = 1000, theta = 0.3, seed = 0",
        "A 2.05737321 700 1440 D_AC",
        "C 3.45943162 300 1037 D_CA",
    ]
    code, out, _ = run(capsys, "rate", "--gamma1-db", "5", "--gamma2", "db:10")
    assert code == 0
    assert "DF               rate = 1.58581873   theta* = 0.372928402  [pad-and-xor]" in out
    assert "JDF              rate = 1.98201955   lambda* = 0.914118327  [crossing]" in out
    code, out, _ = run(capsys, "simulate", "--scheme", "jdf", "--gamma1-db", "5",
                       "--gamma2", "db:10", "--n-symbols", "1000")
    assert code == 0 and out.startswith("JDF exchange: N = 1000, lam = 0.914118327, seed = 0\n")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--gamma1-db", "x:1:1"],
     "expected --gamma1-db as START:STOP:STEP in dB, got 'x:1:1'"),
    (["verify", "--gamma1-db-range", "x:1"],
     "expected LO:HI in dB with finite LO <= HI, got 'x:1'"),
    (["sweep", "--gamma1-db", "nan:1:1"], "start_db must be finite"),
])
def test_non_numeric_range_field_names_the_form(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_single_value_ranges(capsys):
    code, out, err = run(capsys, "sweep", "--gamma1-db", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["5,5,-inf,1.37158214,0.966117928,1.69168121,2.05737321"]
    code, out, err = run(capsys, "verify", "--gamma1-db-range", "5", "--samples", "3")
    assert code == 0 and err == "" and out.endswith("\nok\n")


# ---------------------------------------------------------------- argv fuzz

_NUMBER = st.one_of(
    st.integers(-20, 40).map(str),
    st.integers(-4000, 4000).map(str),
    st.floats(-4000.0, 4000.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "", "x", "0x10", "1_0", " 1"]),
)
# at most 81 grid points, so a sweep stays small even with --verify
_RANGE = st.one_of(
    st.builds("{}:{}:{}".format, st.floats(-4000.0, 4000.0), st.floats(0.0, 40.0),
              st.sampled_from(["0.5", "1", "5", "0", "-1", "nan", "inf", ""])),
    st.sampled_from([":", "1:", ":1", "1:2:3:4", "a:b", "5:1", "-10:0", "1e308:inf:1"]),
)
_RULE = st.one_of(
    st.sampled_from(["equal", "quad", "zero", "ratio:2.5", "db:30", "frac:0.1"]),
    st.sampled_from(["ratio:0.5", "ratio:-1", "ratio:", "db:-3200", "db:nan", "db:", "frac:1",
                     "frac:-1", "frac:", "bogus", ""]),
)
_VALUES = {
    "--gamma1-db": st.one_of(_NUMBER, _RANGE),
    "--gamma2": _RULE,
    "--gamma0": st.lists(_RULE, max_size=3).map(",".join),
    "--schemes": st.lists(st.sampled_from(["DF", "AF", "JDF", "DNF", "df", "XX", ""]),
                          max_size=5).map(",".join),
    # relative, so written under TWRELAY_OUT_DIR; the rest name no file or no directory
    "--out": st.sampled_from(["out.csv", "plot", "", ".", "/", "no-such-dir/x.csv"]),
    "--format": st.sampled_from(["csv", "plot", "svg", ""]),
    "--config": st.just("no-such-file.cfg"),
    "--samples": st.integers(-2, 3).map(str),
    "--seed": st.one_of(st.integers(-5, 10**6).map(str), st.just("x")),
    "--gamma1-db-range": st.one_of(_NUMBER, _RANGE),
    "--scheme": st.sampled_from(["df", "jdf", "df", "jdf", "af", ""]),
    "--n-symbols": st.one_of(st.integers(-5, 10**4).map(str), st.just("1e3")),
    "--theta": st.one_of(st.floats(-1.0, 2.0).map(repr), _NUMBER),
    "--lam": st.one_of(st.floats(-1.0, 2.0).map(repr), _NUMBER),
}
# each subcommand's required flags, then its other flags
_COMMANDS = {
    "rate": (["--gamma1-db"], ["--gamma2", "--gamma0", "--schemes"]),
    "sweep": (["--gamma1-db"], ["--gamma2", "--gamma0", "--schemes", "--out", "--format",
                                "--config"]),
    "verify": ([], ["--samples", "--seed", "--gamma1-db-range"]),
    "simulate": (["--scheme", "--gamma1-db"], ["--gamma2", "--gamma0", "--n-symbols", "--theta",
                                              "--lam", "--seed"]),
}
_BARE = st.sampled_from(["--verify", "--verify", "--help", "--gamma1-db", "--bogus", "-x", "extra"])


def _flag(flag):
    # the = form, or the value as its own token (where argparse may read a
    # leading - as an option)
    return _VALUES[flag].flatmap(lambda v: st.sampled_from([[f"{flag}={v}"], [flag, v]]))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_COMMANDS, *_COMMANDS, "bogus", ""]))
    required, other = _COMMANDS.get(command, ([], sorted(_VALUES)))
    argv = [command]
    for flag in required:
        if draw(st.integers(0, 9)):  # left out one time in ten
            argv += draw(_flag(flag))
    own = st.sampled_from(other).flatmap(_flag)
    anyflag = st.sampled_from(sorted(_VALUES)).flatmap(_flag)
    for tokens in draw(st.lists(st.one_of(own, own, own, anyflag, _BARE.map(lambda t: [t])),
                                max_size=3)):
        argv += tokens
    return argv


@given(_argvs())
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"TWRELAY_OUT_DIR": tmp}), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code:  # one error line, and no output before it
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
