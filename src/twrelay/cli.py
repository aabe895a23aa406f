"""Command-line interface.

Subcommands: ``rate`` (closed-form rates at one operating point), ``sweep``
(rate curves over a gamma1 grid, as CSV or a gnuplot script), ``verify``
(closed forms against the brute-force oracle on random configurations) and
``simulate`` (bit-exact protocol run).

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 I/O error.  Relative ``--out`` paths are resolved against
``TWRELAY_OUT_DIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import protocol, schemes
from .channel import AssumptionViolation, db_to_linear, linear_to_db, make_config
from .sweep import (
    SCHEME_NAMES,
    SCHEME_TABLE,
    VERIFY_TOLERANCE,
    Gamma0Rule,
    Gamma2Rule,
    SweepConfigError,
    SweepSpec,
    VerificationError,
    _checked,
    _checked_schemes,
    _columns,
    emit_csv,
    emit_plot_script,
    run_sweep,
)

OUT_DIR_ENV = "TWRELAY_OUT_DIR"

_NEGATIVE_VALUE = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d*\.?\d+:[-\d.:]*$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values; widen that
        # to dB ranges such as -10:0:1 so they need no --opt=VALUE form
        self._negative_number_matcher = _NEGATIVE_VALUE

    # argparse exits with status 2 on usage errors; we reserve 2 for
    # verification failures, so route usage errors through exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _parse_range(text: str) -> tuple[float, float, float]:
    """Parse ``START:STOP:STEP`` in dB; step defaults to 1, stop to start."""
    parts = text.split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return v, v, 1.0
    if len(parts) == 2:
        return float(parts[0]), float(parts[1]), 1.0
    if len(parts) != 3:
        raise ValueError(f"expected START:STOP:STEP, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _parse_schemes(text: str) -> tuple[str, ...]:
    # checked with the gamma0 rules by sweep._checked_schemes
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_gamma0_rules(text: str) -> tuple[Gamma0Rule, ...]:
    rules = tuple(Gamma0Rule.parse(t) for t in text.split(",") if t.strip())
    if not rules:
        raise ValueError("empty gamma0 rule list")
    return rules


def _resolve_out(out: Optional[str]) -> Optional[Path]:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _cmd_rate(args) -> int:
    gamma1 = db_to_linear(args.gamma1_db)
    gamma2 = Gamma2Rule.parse(args.gamma2).apply(gamma1)
    rules = _parse_gamma0_rules(args.gamma0)
    names = _checked_schemes(_parse_schemes(args.schemes), rules)
    # validate and evaluate everything before emitting anything
    gamma0s = [0.0] + [rule.apply(gamma1) for rule in rules]
    configs = [make_config(gamma0, gamma1, gamma2) for gamma0 in gamma0s]
    lines = [
        f"gamma1 = {gamma1:.9g} ({args.gamma1_db:g} dB), "
        f"gamma2 = {gamma2:.9g} ({linear_to_db(gamma2):.9g} dB)"
    ]
    for label, entry, k in _columns(names, rules):
        best = entry.best(configs[k])
        lines.append(f"{label:<16} rate = {best.rate:<12.9g} {entry.detail(best)}")
    print("\n".join(lines))
    return 0


_SWEEP_KEYS = (
    "gamma1_db", "gamma2", "gamma0", "schemes", "out",
    "format", "verify", "grid_points",
)


def _read_config(path: str) -> dict[str, str]:
    """Read a key=value file; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SWEEP_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _cmd_sweep(args) -> int:
    file_cfg = _read_config(args.config) if args.config else {}

    def pick(name, default, cast):
        value = getattr(args, name)
        if value is not None:
            return value
        if name in file_cfg:
            return cast(file_cfg[name])
        return default

    range_text = pick("gamma1_db", None, str)
    if range_text is None:
        raise ValueError("sweep needs --gamma1-db START:STOP:STEP (or a config entry)")
    start, stop, step = _parse_range(range_text)
    spec = SweepSpec(
        start_db=start,
        stop_db=stop,
        step_db=step,
        gamma2_rule=Gamma2Rule.parse(pick("gamma2", "equal", str)),
        gamma0_rules=_parse_gamma0_rules(pick("gamma0", "zero", str)),
        schemes=_parse_schemes(pick("schemes", ",".join(SCHEME_NAMES), str)),
        verify=pick("verify", False, _parse_bool),
        oracle_grid_points=pick("grid_points", 1001, int),
    )
    rows = run_sweep(spec)

    out = _resolve_out(pick("out", None, str))
    fmt = pick("format", "csv", str)
    if fmt == "csv":
        if out is None:
            sys.stdout.write(emit_csv(rows))
        else:
            emit_csv(rows, out)
            print(f"wrote {out}")
    elif fmt == "plot":
        if out is None:
            raise ValueError("--format plot needs --out to name the files")
        csv_file = out.with_suffix(".csv")
        plot_file = out.with_suffix(".gp")
        emit_csv(rows, csv_file)
        emit_plot_script(rows, plot_file, csv_path=csv_file.name)
        print(f"wrote {csv_file} and {plot_file}")
    else:
        raise ValueError(f"unknown output format {fmt!r} (expected csv or plot)")
    return 0


def _parse_interval(text: str) -> tuple[float, float]:
    """Parse ``LO:HI`` in dB, finite and LO <= HI; a single value is both."""
    parts = text.split(":")
    lo, hi = float(parts[0]), float(parts[-1])
    if len(parts) > 2 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"expected LO:HI in dB with finite LO <= HI, got {text!r}")
    return lo, hi


def _cmd_verify(args) -> int:
    lo, hi = _parse_interval(args.gamma1_db_range)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    rng = np.random.default_rng(args.seed)
    checked = {name: entry for name, entry in SCHEME_TABLE.items() if entry.oracle is not None}
    worst = dict.fromkeys(checked, 0.0)
    for _ in range(args.samples):
        gamma1 = db_to_linear(rng.uniform(lo, hi))
        gamma2 = gamma1 * db_to_linear(rng.uniform(0.0, 10.0))
        gamma0 = 0.0 if rng.integers(0, 2) == 0 else rng.uniform(0.0, 0.5) * gamma1
        cfg = make_config(gamma0, gamma1, gamma2)
        where = f"gamma0={cfg.gamma0!r}, gamma1={cfg.gamma1!r}, gamma2={cfg.gamma2!r}"
        for name, entry in checked.items():
            grid = entry.brute(cfg, args.grid_points)
            deviation = _checked(entry.best(cfg).rate, grid, name, where, args.tol)
            worst[name] = max(worst[name], deviation)
    print(f"checked {args.samples} random configurations, tolerance {args.tol:g}")
    print("max relative deviation: " + ", ".join(f"{n} {d:.3g}" for n, d in worst.items()))
    print("ok")
    return 0


def _cmd_simulate(args) -> int:
    gamma1 = db_to_linear(args.gamma1_db)
    gamma2 = Gamma2Rule.parse(args.gamma2).apply(gamma1)
    gamma0 = Gamma0Rule.parse(args.gamma0).apply(gamma1)
    cfg = make_config(gamma0, gamma1, gamma2)
    if args.scheme == "df":
        theta = args.theta if args.theta is not None else schemes.df_max_rate(cfg).parameter
        transcript = protocol.run_df(cfg, args.n_symbols, theta, args.seed)
        param = f"theta = {theta:.9g}"
    else:
        lam = args.lam if args.lam is not None else schemes.jdf_max_rate(cfg).parameter
        transcript = protocol.run_jdf(cfg, args.n_symbols, lam, args.seed)
        param = f"lam = {lam:.9g}"
    print(f"{transcript.scheme} exchange: N = {args.n_symbols}, {param}, seed = {args.seed}")
    for line in transcript.to_lines():
        print(line)
    print(
        f"delivered A->C {transcript.delivered_ac} bits, "
        f"C->A {transcript.delivered_ca} bits in {transcript.total_symbols:.9g} symbols"
    )
    print(
        f"realized rate {transcript.realized_rate:.9g} bit/s "
        f"(analytic {transcript.analytic_rate:.9g} bit/s)"
    )
    print("decode check: ok")  # a decode mismatch raises ProtocolError
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twrelay",
        description="Two-way relay channel rates: closed forms, sweeps, "
        "brute-force verification and bit-exact simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="closed-form rates at one operating point")
    rate.add_argument("--gamma1-db", type=float, required=True,
                      help="weaker terminal-relay SNR in dB")
    rate.add_argument("--gamma2", default="equal",
                      help="gamma2 rule: equal, quad, db:<v> or ratio:<k>")
    rate.add_argument("--gamma0", default="zero",
                      help="comma-separated gamma0 rules: zero, frac:<f> or db:<v>")
    rate.add_argument("--schemes", default=",".join(SCHEME_NAMES),
                      help="comma-separated subset of DF,AF,JDF,DNF")
    rate.set_defaults(handler=_cmd_rate)

    swp = sub.add_parser("sweep", help="rate curves over a gamma1 grid")
    swp.add_argument("--gamma1-db", help="gamma1 grid in dB as START:STOP:STEP")
    swp.add_argument("--gamma2", help="gamma2 rule (default equal)")
    swp.add_argument("--gamma0", help="comma-separated gamma0 rules (default zero)")
    swp.add_argument("--schemes", help="comma-separated subset of DF,AF,JDF,DNF")
    swp.add_argument("--out", help=f"output path (relative paths join ${OUT_DIR_ENV})")
    swp.add_argument("--format", choices=("csv", "plot"),
                     help="csv (default) or plot (CSV plus gnuplot script)")
    swp.add_argument("--verify", action="store_true", default=None,
                     help="re-check closed forms against the oracle at every point")
    swp.add_argument("--grid-points", type=int, help="oracle grid size (default 1001)")
    swp.add_argument("--config", help="key=value file with any of the sweep options")
    swp.set_defaults(handler=_cmd_sweep)

    ver = sub.add_parser("verify", help="closed forms against brute force on random configs")
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, default=VERIFY_TOLERANCE,
                     help="relative deviation allowed (default 1e-6)")
    ver.add_argument("--grid-points", type=int, default=1001)
    ver.add_argument("--gamma1-db-range", default="-10:30",
                     help="gamma1 sampling range in dB as LO:HI (default -10:30)")
    ver.set_defaults(handler=_cmd_verify)

    sim = sub.add_parser("simulate", help="bit-exact protocol run")
    sim.add_argument("--scheme", choices=("df", "jdf"), required=True)
    sim.add_argument("--gamma1-db", type=float, required=True)
    sim.add_argument("--gamma2", default="equal")
    sim.add_argument("--gamma0", default="zero", help="single gamma0 rule")
    sim.add_argument("--n-symbols", type=int, default=100000)
    sim.add_argument("--theta", type=float, help="DF time split (default: optimal)")
    sim.add_argument("--lam", type=float, help="JDF time share (default: optimal)")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except protocol.ProtocolError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (SweepConfigError, AssumptionViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
