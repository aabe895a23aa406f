"""The benchmark's four workloads: inputs, one op each, and output checks.

Every workload repeats one kind of op of one size.  Inputs come from the
seed alone and are grouped into rounds: a round is the smallest set of ops
that covers every variant the workload cycles through, and a run attempts
whole rounds, so the attempted and failed counts of a run depend only on
the number of rounds.

Each ``check`` returns a list of problems (empty when the output is right)
and compares against :mod:`reference`, which is computed apart from
twrelay, or against a property the method must have.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no twrelay sources to benchmark."""


def _import_program():
    if not (SRC / "twrelay" / "__init__.py").is_file():
        raise MissingProgram(f"no twrelay sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twrelay

    if Path(twrelay.__file__).resolve().parent != SRC / "twrelay":
        raise MissingProgram(f"imported twrelay from {twrelay.__file__}, not from {SRC}")
    from twrelay import channel, cli, oracle, protocol, schemes, sweep

    return channel, cli, oracle, protocol, schemes, sweep


channel, cli, oracle, protocol, schemes, sweep = _import_program()

# children see the checkout's sources the way a user without an install would
CHILD_ENV = dict(os.environ, PYTHONPATH="src")


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``known_fault`` marks an op that fails today
    because of a fault in the program; it is counted as failed, not as a
    wrong output, and checked like any other op once it succeeds."""

    kind: str
    args: Any
    known_fault: bool = False


class Workload:
    name: str
    round_size: int
    rounds_per_second: float  # work per --seconds, calibrated on a 2-core Xeon VM
    trace_rounds: int  # rounds in the traced pass (spans are kept in memory)
    spawns = False  # whether an op is a child process rather than a call

    def build(self, seed: int, rounds: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = [op for _ in range(rounds) for op in self.make_round(rng)]
        if len(ops) != rounds * self.round_size:
            raise AssertionError("a round must hold round_size ops")
        return ops

    def make_round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def run_traced(self, op: Op):
        """The op as the traced pass runs it; in-process by default."""
        return self.run(op)

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError


# --- sweep-dense ------------------------------------------------------------

SWEEP_HEADER = [
    "gamma1_db", "gamma2_db", "gamma0_db[g0=0]", "gamma0_db[g0=0.1*g1]",
    "DF[g0=0]", "DF[g0=0.1*g1]", "AF", "JDF", "DNF",
]
RATE_COLUMNS = tuple(SWEEP_HEADER[4:])
SWEEP_SAMPLES = 6  # rows per op re-derived by brute force


@dataclass(frozen=True)
class SweepArgs:
    spec: Any
    start_db: float
    step_db: float
    points: int
    rule: str  # the gamma2 rule as the CLI would take it
    sample_rows: tuple[int, ...]

    def gamma2(self, g1: float) -> float:
        kind, _, value = self.rule.partition(":")
        if kind == "equal":
            return g1
        if kind == "quad":
            return g1 + g1 * g1
        if kind == "ratio":
            return float(value) * g1
        return ref.db_to_linear(float(value))


def _isclose(a, b, rel):
    """Elementwise relative closeness; equal infinities count as close."""
    with np.errstate(invalid="ignore"):
        return (a == b) | (np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)))


def _cells_match(got, want):
    """Printed numbers against expected ones, to nine significant digits."""
    with np.errstate(invalid="ignore"):
        return _isclose(got, want, 1e-8) | (np.abs(got - want) <= 1e-12)


class SweepDense(Workload):
    """gamma1 over -20..40 dB (shifted by the seed) at ``step_db``."""

    name = "sweep-dense"
    round_size = 4
    rounds_per_second = 0.7
    trace_rounds = 1

    def __init__(self, step_db: float = 0.02, span_db: float = 60.0):
        self.step_db = step_db
        self.span_db = span_db
        self.points = int(round(span_db / step_db)) + 1

    def make_round(self, rng):
        ops = []
        rules = (
            "equal",
            "quad",
            f"ratio:{rng.uniform(1.5, 8.0):.3f}",
            f"db:{rng.uniform(41.0, 50.0):.2f}",  # stays above every gamma1
        )
        for rule in rules:
            start = -20.0 + rng.randrange(100) * 0.001
            spec = sweep.SweepSpec(
                start_db=start,
                # half a step past the last point keeps the point count exact
                stop_db=start + self.span_db + self.step_db / 2,
                step_db=self.step_db,
                gamma2_rule=sweep.Gamma2Rule.parse(rule),
                gamma0_rules=(sweep.Gamma0Rule.parse("zero"), sweep.Gamma0Rule.parse("frac:0.1")),
            )
            sample = tuple(sorted(rng.sample(range(self.points), min(SWEEP_SAMPLES, self.points))))
            args = SweepArgs(spec, start, self.step_db, self.points, rule, sample)
            ops.append(Op(rule.partition(":")[0], args))
        return ops

    def run(self, op):
        rows = sweep.run_sweep(op.args.spec)
        return rows, sweep.emit_csv(rows)

    def check(self, op, out):
        rows, text = out
        a = op.args
        if len(rows) != a.points:
            return [f"{a.rule}: {len(rows)} rows, expected {a.points}"]
        if any(tuple(k for k, _ in row.rates) != RATE_COLUMNS for row in rows):
            return [f"{a.rule}: rate columns differ from {RATE_COLUMNS}"]
        db = a.start_db + np.arange(a.points) * a.step_db
        g1 = ref.db_to_linear(db)
        g2 = np.broadcast_to(a.gamma2(g1), g1.shape)
        rates = np.array([[v for _, v in row.rates] for row in rows])
        df0, _, _, jdf, dnf = rates.T
        own_dnf = ref.dnf_bound(g1)
        failed = {
            "gamma1_db off the grid": np.abs(np.array([row.gamma1_db for row in rows]) - db) > 1e-9,
            "DNF != log2(1+g1)": ~_isclose(dnf, own_dnf, 1e-12),
            "a rate above the DNF bound": (rates > own_dnf[:, None] * (1 + 1e-12)).any(axis=1),
            "JDF != DNF where g2 > g1 + g1^2": ref.jdf_saturated(g1, g2) & ~_isclose(jdf, own_dnf, 1e-12),
            "DF[g0=0] != 2C1C2/(C1+2C2)": ~_isclose(df0, ref.df_no_direct(g1, g2), 1e-12),
        }
        problems = [f"{a.rule}: {what} at {db[i]:.4f} dB"
                    for what, bad in failed.items() for i in np.flatnonzero(bad)[:3]]
        for i in a.sample_rows:
            x1, x2 = float(g1[i]), float(g2[i])
            for col, brute in ((0, ref.brute_df(0.0, x1, x2)), (1, ref.brute_df(0.1 * x1, x1, x2)),
                               (3, ref.brute_jdf(x1, x2))):
                if abs(rates[i, col] - brute) > ref.VERIFY_TOLERANCE * brute:
                    problems.append(f"{a.rule} at {db[i]:.4f} dB: {RATE_COLUMNS[col]} "
                                    f"{rates[i, col]!r} vs brute force {brute!r}")
        # the CSV must parse back to the rows, to its nine significant digits
        lines = text.split("\n")
        if lines[-1] != "" or lines[0].split(",") != SWEEP_HEADER:
            return problems + [f"{a.rule}: CSV header {lines[0]!r} or no final newline"]
        try:
            cells = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
        except ValueError:
            return problems + [f"{a.rule}: CSV rows do not parse as {len(SWEEP_HEADER)} numbers"]
        want = np.column_stack([db, 10.0 * np.log10(g2), np.full(a.points, -np.inf), db - 10.0, rates])
        if cells.shape != want.shape:
            return problems + [f"{a.rule}: CSV holds {cells.shape}, expected {want.shape}"]
        bad = ~_cells_match(cells, want)
        problems += [f"{a.rule}: CSV row {i + 1} is {lines[i + 1]!r}" for i in np.flatnonzero(bad.any(axis=1))[:3]]
        return problems


# --- oracle-verify ----------------------------------------------------------

# equal links this weak make jdf_lambda0 divide by 2(C1+C2-C12) == 0.0
FAULT_DB = (-160.0, -170.0)


class OracleVerify(Workload):
    name = "oracle-verify"
    rounds_per_second = 0.9
    trace_rounds = 1

    def __init__(self, random_per_round: int = 48):
        self.random_per_round = random_per_round
        self.round_size = random_per_round + len(FAULT_DB)

    def make_round(self, rng):
        ops = []
        for _ in range(self.random_per_round):
            # the distribution of `twrelay verify`
            g1 = ref.db_to_linear(rng.uniform(-10.0, 30.0))
            g2 = g1 * ref.db_to_linear(rng.uniform(0.0, 10.0))
            g0 = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5) * g1
            ops.append(Op("random", channel.make_config(g0, g1, g2)))
        for db in FAULT_DB:
            g = ref.db_to_linear(db)
            ops.append(Op("equal-weak", channel.make_config(0.0, g, g), known_fault=True))
        return ops

    def run(self, op):
        cfg = op.args
        return (
            schemes.df_max_rate(cfg).rate,
            oracle.grid_max_df_theta(cfg).best_rate,
            schemes.jdf_max_rate(cfg).rate,
            oracle.grid_max_jdf_lambda(cfg).best_rate,
        )

    def check(self, op, out):
        cfg = op.args
        df, odf, jdf, ojdf = out
        problems = []
        for name, closed, brute, own in (
            ("DF", df, odf, ref.df_max(cfg.gamma0, cfg.gamma1, cfg.gamma2)),
            ("JDF", jdf, ojdf, ref.jdf_max(cfg.gamma1, cfg.gamma2)),
        ):
            where = f"{name} at g0={cfg.gamma0!r} g1={cfg.gamma1!r} g2={cfg.gamma2!r}"
            if not abs(brute - closed) <= ref.VERIFY_TOLERANCE * closed:
                problems.append(f"{where}: oracle {brute!r} vs closed form {closed!r}")
            if not ref.close(closed, own, 1e-9):
                problems.append(f"{where}: closed form {closed!r} vs reference {own!r}")
        return problems


# --- sim-large --------------------------------------------------------------

@dataclass(frozen=True)
class SimArgs:
    scheme: str  # "df" or "jdf"
    config: Any  # LinkConfig built from the caller's (gamma_a, gamma_c)
    g0: float
    g1: float  # weaker link, which the caller may have called C
    g2: float
    swapped: bool
    n: int
    param: float  # theta or lam
    seed: int


class SimLarge(Workload):
    name = "sim-large"
    round_size = 8
    rounds_per_second = 3.5
    trace_rounds = 2

    def __init__(self, bits: int = 4_000_000):
        self.bits = bits  # source bits per exchange, both directions together

    def make_round(self, rng):
        def op(kind, scheme, g0, g1, g2, swapped, per_symbol, param):
            gamma_a, gamma_c = (g2, g1) if swapped else (g1, g2)
            cfg = channel.make_config(g0, gamma_a, gamma_c)
            n = int(round(self.bits / per_symbol))
            return Op(kind, SimArgs(scheme, cfg, g0, g1, g2, swapped, n, param, rng.randrange(2**31)))

        def link(lo_db=0.0, hi_db=10.0):
            return ref.db_to_linear(rng.uniform(lo_db, hi_db))

        def df(kind, g0, g1, g2, where, swapped=False):
            c0, c1, c2 = ref.cap(g0), ref.cap(g1), ref.cap(g2)
            star = ref.df_theta_balance(c0, c1, c2)
            theta = {"split": 0.8 * star, "pad": star + 0.2 * (1.0 - star)}.get(where, star)
            per_symbol = (1.0 - theta) * c1 + theta * c2
            return op(kind, "df", g0, g1, g2, swapped, per_symbol, theta)

        def jdf(kind, g1, g2, lam, swapped=False):
            per_symbol = sum(ref.jdf_pair(g1, g2, lam))
            return op(kind, "jdf", 0.0, g1, g2, swapped, per_symbol, lam)

        def crossing():
            g1 = link()
            return g1, g1 + rng.uniform(0.1, 0.9) * g1 * g1

        ops = []
        g1 = link()
        ops.append(df("df-split", 0.0, g1, g1 * link(1.0, 6.0), "split"))
        g1 = link()
        ops.append(df("df-pad", 0.0, g1, g1 * link(1.0, 6.0), "pad"))
        g1 = link()
        ops.append(df("df-direct", rng.uniform(0.05, 0.4) * g1, g1, g1 * link(0.0, 6.0), "star"))
        g1 = link()
        ops.append(df("df-swapped", 0.0, g1, g1 * link(1.0, 6.0), "star", swapped=True))
        g1, g2 = crossing()
        ops.append(jdf("jdf-crossing", g1, g2, ref.jdf_lam_balance(g1, g2)))
        g1, g2 = crossing()
        ops.append(jdf("jdf-split", g1, g2, 1.0))
        g1 = link()
        ops.append(jdf("jdf-saturated", g1, (g1 + g1 * g1) * rng.uniform(1.5, 4.0), 1.0))
        g1, g2 = crossing()
        ops.append(jdf("jdf-swapped", g1, g2, ref.jdf_lam_balance(g1, g2), swapped=True))
        return ops

    def run(self, op):
        a = op.args
        run = protocol.run_df if a.scheme == "df" else protocol.run_jdf
        return run(a.config, a.n, a.param, a.seed)

    def check(self, op, t):
        a = op.args
        if a.scheme == "df":
            exact_ac, exact_ca = ref.df_bits(a.n, a.g1, a.g2, a.param)
            analytic = float(ref.df_rate(ref.cap(a.g0), ref.cap(a.g1), ref.cap(a.g2), a.param))
        else:
            exact_ac, exact_ca = ref.jdf_bits(a.n, a.g1, a.g2, a.param)
            analytic = float(ref.jdf_rate(a.g1, a.g2, a.param))
        # the weaker terminal speaks first; the caller calls it C when swapped
        weak, strong = ("C", "A") if a.swapped else ("A", "C")
        got_weak, got_strong = (t.delivered_ca, t.delivered_ac) if a.swapped else (t.delivered_ac, t.delivered_ca)
        problems = []
        if not t.success:
            problems.append("exchange did not decode")
        if not (ref.floor_matches(got_weak, exact_ac) and ref.floor_matches(got_strong, exact_ca)):
            problems.append(
                f"delivered {weak}->{strong} {got_weak} and {strong}->{weak} {got_strong} bits, "
                f"expected floor({exact_ac!r}) and floor({exact_ca!r})"
            )
        senders = [s.sender for s in t.steps]
        if senders[:2] != [weak, strong] or set(senders[2:]) != {"B"}:
            problems.append(f"senders {senders} in the wrong labels (swapped={a.swapped})")
        if t.steps[0].label != f"D_{weak}{strong}":
            problems.append(f"first packet labelled {t.steps[0].label}")
        if not ref.close(t.analytic_rate, analytic, 1e-9):
            problems.append(f"analytic rate {t.analytic_rate!r} vs reference {analytic!r}")
        if not (t.realized_rate <= analytic * (1 + 1e-12) and analytic - t.realized_rate <= 8.0 / a.n):
            problems.append(f"realized rate {t.realized_rate!r} not within 8/N below {analytic!r}")
        return [f"{op.kind} N={a.n}: {p}" for p in problems]


# --- cli-cold ---------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: int
    output: str  # stdout and stderr together
    maxrss_kb: int


_RATE_LINE = re.compile(r"^(\S+)\s+rate = (\S+)")


def _parse_floats(pattern: str, text: str):
    m = re.search(pattern, text, re.MULTILINE)
    return None if m is None else [float(g) for g in m.groups()]


class CliCold(Workload):
    name = "cli-cold"
    spawns = True
    round_size = 4
    rounds_per_second = 0.75
    trace_rounds = 2

    def make_round(self, rng):
        k = f"{rng.uniform(1.0, 10.0):.3f}"
        rate = ["rate", f"--gamma1-db={rng.uniform(-10.0, 30.0):.2f}", "--gamma2", f"ratio:{k}",
                "--gamma0", "zero,frac:0.1"]
        start = rng.randint(-10, 10)
        rule = rng.choice(["equal", "quad", f"ratio:{k}"])
        # the = form: argparse reads a bare negative range as an option
        swp = ["sweep", f"--gamma1-db={start}:{start + 30}:1", "--gamma2", rule,
               "--gamma0", "zero,frac:0.1"]
        scheme = rng.choice(["df", "jdf"])
        sim = ["simulate", "--scheme", scheme, f"--gamma1-db={rng.uniform(0.0, 10.0):.2f}",
               "--gamma2", f"ratio:{rng.uniform(1.0, 4.0):.3f}",
               "--gamma0", "frac:0.1" if scheme == "df" else "zero",
               "--n-symbols", "100000", "--seed", str(rng.randrange(10**6))]
        ver = ["verify", "--samples", "5", "--seed", str(rng.randrange(10**6))]
        return [Op(argv[0], tuple(argv)) for argv in (rate, swp, sim, ver)]

    def run(self, op):
        # one child at a time; wait4 gives that child's own peak RSS
        p = subprocess.Popen(
            [sys.executable, "-m", "twrelay.cli", *op.args],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        with p.stdout:
            output = p.stdout.read().decode()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(p.returncode, output, usage.ru_maxrss)

    def run_traced(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.args))
        return CliResult(code, out.getvalue() + err.getvalue(), 0)

    def check(self, op, res):
        if res.code != 0 or "Traceback" in res.output:
            return [f"{' '.join(op.args)}: exit {res.code}: {res.output[-300:]!r}"]
        opts = {}
        tokens = iter(op.args[1:])
        for token in tokens:
            key, eq, value = token.partition("=")
            opts[key] = value if eq else next(tokens)
        problems = getattr(self, "_check_" + op.kind)(opts, res.output)
        return [f"{' '.join(op.args)}: {p}" for p in problems]

    @staticmethod
    def _gamma2(rule: str, g1: float) -> float:
        return SweepArgs(None, 0.0, 0.0, 0, rule, ()).gamma2(g1)

    @staticmethod
    def _expected_rates(g1: float, g2: float) -> dict[str, float]:
        return {
            "DF[g0=0]": ref.df_max(0.0, g1, g2),
            "DF[g0=0.1*g1]": ref.df_max(0.1 * g1, g1, g2),
            "AF": ref.af_rate(g1, g2),
            "JDF": ref.jdf_max(g1, g2),
            "DNF": ref.dnf_bound(g1),
        }

    def _check_rate(self, opts, text):
        g1 = ref.db_to_linear(float(opts["--gamma1-db"]))
        want = self._expected_rates(g1, self._gamma2(opts["--gamma2"], g1))
        got = {m[1]: float(m[2]) for m in map(_RATE_LINE.match, text.splitlines()) if m}
        if list(got) != list(want):
            return [f"rate lines {list(got)}"]
        return [f"{k} printed {got[k]!r}, expected {v!r}" for k, v in want.items()
                if not _cells_match(got[k], v)]

    def _check_sweep(self, opts, text):
        start, stop, _ = (float(x) for x in opts["--gamma1-db"].split(":"))
        lines = text.split("\n")
        if lines[0].split(",") != SWEEP_HEADER or len(lines) != int(stop - start) + 3:
            return [f"CSV header {lines[0]!r} with {len(lines) - 2} rows"]
        for i, line in enumerate(lines[1:-1]):
            db = start + i
            g1 = ref.db_to_linear(db)
            g2 = self._gamma2(opts["--gamma2"], g1)
            want = [db, 10.0 * math.log10(g2), -math.inf, db - 10.0,
                    *self._expected_rates(g1, g2).values()]
            cells = [float(c) for c in line.split(",")]
            if len(cells) != len(want) or not _cells_match(np.array(cells), np.array(want)).all():
                return [f"CSV row {line!r} does not match {want!r}"]
        return []

    def _check_simulate(self, opts, text):
        n = int(opts["--n-symbols"])
        g1 = ref.db_to_linear(float(opts["--gamma1-db"]))
        g2 = self._gamma2(opts["--gamma2"], g1)
        if opts["--scheme"] == "df":
            g0 = 0.1 * g1
            c0, c1, c2 = ref.cap(g0), ref.cap(g1), ref.cap(g2)
            exact = ref.df_bits(n, g1, g2, ref.df_theta_balance(c0, c1, c2))
            analytic = ref.df_max(g0, g1, g2)
        else:
            lam = 1.0 if ref.jdf_saturated(g1, g2) else ref.jdf_lam_balance(g1, g2)
            exact = ref.jdf_bits(n, g1, g2, lam)
            analytic = ref.jdf_max(g1, g2)
        problems = []
        delivered = _parse_floats(r"^delivered A->C (\d+) bits, C->A (\d+) bits", text)
        if delivered is None or not all(map(ref.floor_matches, map(int, delivered), exact)):
            problems.append(f"delivered bits {delivered}, expected floors of {exact}")
        rates = _parse_floats(r"^realized rate (\S+) bit/s \(analytic (\S+) bit/s\)", text)
        if rates is None or not _cells_match(rates[1], analytic):
            problems.append(f"analytic rate {rates}, expected {analytic!r}")
        elif not (rates[0] <= rates[1] and rates[1] - rates[0] <= 8.0 / n):
            problems.append(f"realized rate {rates[0]!r} not within 8/N below {rates[1]!r}")
        if not text.endswith("decode check: ok\n"):
            problems.append("no 'decode check: ok'")
        return problems

    def _check_verify(self, opts, text):
        lines = text.splitlines()
        devs = _parse_floats(r"^max relative deviation: DF (\S+), JDF (\S+)$", text)
        if not lines or lines[0] != f"checked {opts['--samples']} random configurations, tolerance 1e-06":
            return [f"first line {lines[:1]}"]
        if devs is None or max(devs) > ref.VERIFY_TOLERANCE or lines[-1] != "ok":
            return [f"deviations {devs}, last line {lines[-1:]}"]
        return []


WORKLOADS = {w.name: w for w in (SweepDense(), OracleVerify(), SimLarge(), CliCold())}
