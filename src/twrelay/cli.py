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
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from . import schemes
from .channel import ProtocolError, _check_share, db_to_linear, linear_to_db, make_config
from .sweep import (
    SCHEME_NAMES,
    SCHEME_TABLE,
    VERIFY_TOLERANCE,
    Gamma0Rule,
    Gamma2Rule,
    SweepSpec,
    VerificationError,
    _as_given,
    _checked_schemes,
    _columns,
    emit_csv,
    emit_plot_script,
    run_sweep,
)

OUT_DIR_ENV = "TWRELAY_OUT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values; take any
        # argument that _fields parses, such as -1e1 or the dB range -10:0:1,
        # so none needs the --opt=VALUE form
        self._negative_number_matcher = SimpleNamespace(match=lambda text: bool(_fields(text)))

    # argparse exits with status 2 on usage errors; we reserve 2 for
    # verification failures, so route usage errors through exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _fields(text: str) -> list[float]:
    """The colon-separated numbers in ``text``; none if one is not a number."""
    try:
        return [float(field) for field in text.split(":")]
    except ValueError:
        return []


def _parse_range(text: str) -> tuple[float, float, float]:
    """Parse ``START:STOP:STEP`` in dB; step defaults to 1, stop to start."""
    v = _fields(text)
    if not 1 <= len(v) <= 3:
        raise ValueError(f"expected --gamma1-db as START:STOP:STEP in dB, got {text!r}")
    return v[0], v[1] if len(v) > 1 else v[0], v[2] if len(v) > 2 else 1.0


def _parse_list(text: str, parse: Callable[[str], object] = str.strip) -> tuple:
    # each non-blank item parsed; sweep._checked_schemes checks the lists
    return tuple(parse(s) for s in text.split(",") if s.strip())


def _resolve_out(out: Optional[str]) -> Optional[Path]:
    if out is None:
        return None
    path = Path(out)
    if not path.name:
        raise ValueError(f"--out must name a file, got {out!r}")
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _cmd_rate(args) -> int:
    gamma1 = db_to_linear(args.gamma1_db)
    gamma2 = Gamma2Rule.parse(args.gamma2).apply(gamma1)
    rules = _parse_list(args.gamma0, Gamma0Rule.parse)
    names = _checked_schemes(_parse_list(args.schemes), rules)
    # validate and evaluate everything before emitting anything
    gamma0s = [0.0] + [rule.apply(gamma1) for rule in rules]
    configs = [make_config(gamma0, gamma1, gamma2) for gamma0 in gamma0s]
    lines = [
        f"gamma1 = {gamma1:.9g} ({args.gamma1_db:g} dB), "
        f"gamma2 = {gamma2:.9g} ({linear_to_db(gamma2):.9g} dB)"
    ]
    for label, entry, k in _columns(names, rules):
        best = entry.best(configs[k])
        lines.append(f"{label:<16} rate = {best.rate:<12.9g} {entry.detail(best, configs[k])}")
    print("\n".join(lines))
    return 0


_SWEEP_KEYS = ("gamma1_db", "gamma2", "gamma0", "schemes", "out", "format", "verify")


def _config_flags(path: str) -> list[str]:
    """The entries of a key=value file as ``--key=value`` flags (``--verify``
    where ``verify`` is true); blank lines and # comments are ignored, and a
    key given twice keeps its last value."""
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
    verify = ["--verify"] if _parse_bool(values.pop("verify", "no")) else []
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()] + verify


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _cmd_sweep(args) -> int:
    if args.gamma1_db is None:
        raise ValueError("sweep needs --gamma1-db START:STOP:STEP (or a config entry)")
    start, stop, step = _parse_range(args.gamma1_db)
    spec = SweepSpec(start, stop, step, Gamma2Rule.parse(args.gamma2),
                     _parse_list(args.gamma0, Gamma0Rule.parse), _parse_list(args.schemes),
                     verify=args.verify)
    rows = run_sweep(spec)

    out = _resolve_out(args.out)
    if args.format == "csv":
        if out is None:
            sys.stdout.write(emit_csv(rows))
            return 0
        files = {out: emit_csv(rows)}
    else:
        if out is None:
            raise ValueError("--format plot needs --out to name the files")
        csv_file = out.with_suffix(".csv")
        files = {csv_file: emit_csv(rows),
                 out.with_suffix(".gp"): emit_plot_script(rows, csv_file.name)}
    for path, text in files.items():
        path.write_text(text, encoding="utf-8", newline="\n")
    print("wrote " + " and ".join(map(str, files)))
    return 0


def _parse_interval(text: str) -> tuple[float, float]:
    """Parse ``LO:HI`` in dB, finite and LO <= HI; a single value is both."""
    v = _fields(text)
    if 1 <= len(v) <= 2 and all(map(math.isfinite, v)) and v[0] <= v[-1]:
        return v[0], v[-1]
    raise ValueError(f"expected LO:HI in dB with finite LO <= HI, got {text!r}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _cmd_verify(args) -> int:
    lo, hi = _parse_interval(args.gamma1_db_range)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    _check_seed(args.seed)
    import numpy as np  # its generator draws the configs; rate and sweep start without numpy

    rng = np.random.default_rng(args.seed)
    checked = {name: entry for name, entry in SCHEME_TABLE.items() if entry.oracle is not None}
    worst = dict.fromkeys(checked, 0.0)
    # gamma2 is drawn up to 10 dB above gamma1, and a margin short of the float range
    top_db = linear_to_db(sys.float_info.max) - 1e-9
    for _ in range(args.samples):
        gamma1 = db_to_linear(rng.uniform(lo, hi))
        span_db = max(0.0, min(10.0, top_db - linear_to_db(gamma1)))
        gamma2 = gamma1 * db_to_linear(rng.uniform(0.0, span_db))
        gamma0 = 0.0 if rng.integers(0, 2) == 0 else rng.uniform(0.0, 0.5) * gamma1
        cfg = make_config(gamma0, gamma1, gamma2)
        where = f"gamma0={cfg.gamma0!r}, gamma1={cfg.gamma1!r}, gamma2={cfg.gamma2!r}"
        for name, entry in checked.items():
            closed = entry.best(cfg).rate
            _, deviation = entry.check(cfg, closed, name, where)
            worst[name] = max(worst[name], deviation)
    print(f"checked {args.samples} random configurations, tolerance {VERIFY_TOLERANCE:g}")
    print("max relative deviation: " + ", ".join(f"{n} {d:.3g}" for n, d in worst.items()))
    print("ok")
    return 0


def _cmd_simulate(args) -> int:
    from . import protocol  # the simulator needs numpy, which rate and sweep do without

    flag, scheme = ("lam", "jdf") if args.scheme == "df" else ("theta", "df")
    if getattr(args, flag) is not None:
        raise ValueError(f"--{flag} applies only to --scheme {scheme}")
    _check_seed(args.seed)
    gamma1 = db_to_linear(args.gamma1_db)
    gamma2 = Gamma2Rule.parse(args.gamma2).apply(gamma1)
    gamma0 = Gamma0Rule.parse(args.gamma0).apply(gamma1)
    cfg = make_config(gamma0, gamma1, gamma2)
    if args.scheme == "df":
        name, given, best, run = "theta", args.theta, schemes.df_max_rate, protocol.run_df
    else:
        name, given, best, run = "lam", args.lam, schemes.jdf_max_rate, protocol.run_jdf
    # the flag follows the terminals as given, the protocol the normalized labels
    if given is not None:
        _check_share(name, given)
    share = best(cfg).parameter if given is None else _as_given(given, cfg)
    transcript = run(cfg, args.n_symbols, share, args.seed)
    print(f"{transcript.scheme} exchange: N = {args.n_symbols}, "
          f"{name} = {_as_given(share, cfg):.9g}, seed = {args.seed}")
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

    links = _Parser(add_help=False)
    links.add_argument("--gamma2", default="equal",
                       help="gamma2 rule: equal, quad, db:<v> or ratio:<k> (default equal)")
    links.add_argument("--gamma0", default="zero",
                       help="gamma0 rule: zero, frac:<f> or db:<v> (default zero); "
                       "a comma-separated list in rate and sweep")
    columns = _Parser(add_help=False)
    columns.add_argument("--schemes", default=",".join(SCHEME_NAMES),
                         help="comma-separated subset of DF,AF,JDF,DNF (default all)")

    rate = sub.add_parser("rate", parents=[links, columns],
                          help="closed-form rates at one operating point")
    rate.add_argument("--gamma1-db", type=float, required=True,
                      help="weaker terminal-relay SNR in dB")
    rate.set_defaults(handler=_cmd_rate)

    swp = sub.add_parser("sweep", parents=[links, columns], help="rate curves over a gamma1 grid")
    swp.add_argument("--gamma1-db", help="gamma1 grid in dB as START:STOP:STEP")
    swp.add_argument("--out", help=f"output path (relative paths join ${OUT_DIR_ENV})")
    swp.add_argument("--format", choices=("csv", "plot"), default="csv",
                     help="csv (default) or plot (CSV plus gnuplot script)")
    swp.add_argument("--verify", action="store_true",
                     help="re-check closed forms against the oracle at every point")
    swp.add_argument("--config", help="key=value file with any of the sweep options; "
                     "its entries are read as flags placed before the given ones")
    swp.set_defaults(handler=_cmd_sweep)

    ver = sub.add_parser("verify", help="closed forms against brute force on random configs")
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--gamma1-db-range", default="-10:30",
                     help="gamma1 sampling range in dB as LO:HI (default -10:30)")
    ver.set_defaults(handler=_cmd_verify)

    sim = sub.add_parser("simulate", parents=[links], help="bit-exact protocol run")
    sim.add_argument("--scheme", choices=("df", "jdf"), required=True)
    sim.add_argument("--gamma1-db", type=float, required=True)
    sim.add_argument("--n-symbols", type=int, default=100000)
    sim.add_argument("--theta", type=float, help="DF time split (default: optimal)")
    sim.add_argument("--lam", type=float, help="JDF time share (default: optimal)")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # parsed again with the file's flags first, so the given ones win
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + _config_flags(args.config) + argv[i:])
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
