"""SNR sweeps over the scheme rates, with CSV and gnuplot output.

A sweep walks gamma1 over a dB grid; gamma2 and gamma0 follow from rules
(equal, quadratic growth, fixed value, fixed ratio).  Several gamma0 rules
may run side by side, producing one DF column each; the other schemes do
not use the direct link.  With ``verify=True`` every closed-form optimum
is re-checked against the brute-force oracle on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Optional, Sequence, Union

from . import oracle, schemes
from .channel import AssumptionViolation, LinkConfig, db_to_linear, linear_to_db, make_config


@dataclass(frozen=True)
class SchemeEntry:
    """One scheme: its closed form in :mod:`schemes`, its brute-force
    oracle in :mod:`oracle` (or None), whether it takes gamma0 (one column
    per gamma0 rule) and the text ``twrelay rate`` prints after its rate.
    Functions are held by name and looked up at each call, so a function
    rebound on its module (a test double, a profiler) is the one called.
    """

    closed_form: str
    oracle: Optional[str]
    uses_gamma0: bool
    detail: Callable[[schemes.SchemeRate], str]

    def best(self, config: LinkConfig) -> schemes.SchemeRate:
        return getattr(schemes, self.closed_form)(config)

    def brute(self, config: LinkConfig, grid_points: int) -> oracle.GridResult:
        return getattr(oracle, self.oracle)(config, grid_points)


SCHEME_TABLE = {
    "DF": SchemeEntry(
        "df_max_rate", "grid_max_df_theta", True,
        lambda best: f"theta* = {best.parameter:.9g}  [{best.breakdown.case}]",
    ),
    "AF": SchemeEntry(
        "af_rate", None, False,
        lambda best: "(A->C {0.rate_a:.9g}, C->A {0.rate_c:.9g})".format(best.breakdown.rate_pair),
    ),
    "JDF": SchemeEntry(
        "jdf_max_rate", "grid_max_jdf_lambda", False,
        lambda best: f"lambda* = {best.parameter:.9g}  [{best.breakdown.regime}]",
    ),
    "DNF": SchemeEntry("dnf_upper_bound", None, False, lambda best: "upper bound"),
}

SCHEME_NAMES = tuple(SCHEME_TABLE)

VERIFY_TOLERANCE = 1e-6  # relative deviation allowed between formula and oracle


class SweepConfigError(ValueError):
    """A sweep rule produced an invalid link configuration somewhere."""


class VerificationError(RuntimeError):
    """A closed-form rate disagrees with the brute-force oracle."""


@dataclass(frozen=True)
class Gamma2Rule:
    """How gamma2 follows gamma1 along the sweep.

    Kinds: ``equal`` (gamma2 = gamma1), ``quadratic``
    (gamma2 = gamma1 + gamma1^2), ``fixed`` (constant linear value),
    ``ratio`` (gamma2 = value * gamma1).
    """

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind in ("equal", "quadratic"):
            if self.value is not None:
                raise ValueError(f"rule {self.kind!r} takes no value")
        elif self.kind in ("fixed", "ratio"):
            if self.value is None or not math.isfinite(self.value) or self.value <= 0:
                raise ValueError(f"rule {self.kind!r} needs a positive finite value")
        else:
            raise ValueError(f"unknown gamma2 rule kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Gamma2Rule":
        """Parse ``equal``, ``quad``, ``db:<value>`` or ``ratio:<factor>``."""
        t = text.strip().lower()
        if t == "equal":
            return cls("equal")
        if t in ("quad", "quadratic"):
            return cls("quadratic")
        if t.startswith("db:"):
            return cls("fixed", db_to_linear(_parse_number(t[3:], text)))
        if t.startswith("ratio:"):
            return cls("ratio", _parse_number(t[6:], text))
        raise ValueError(
            f"unrecognized gamma2 rule {text!r} (expected equal, quad, db:<v> or ratio:<k>)"
        )

    def apply(self, gamma1: float) -> float:
        if self.kind == "equal":
            return gamma1
        if self.kind == "quadratic":
            return gamma1 + gamma1 * gamma1
        if self.kind == "fixed":
            return self.value
        return self.value * gamma1

    @property
    def label(self) -> str:
        if self.kind == "equal":
            return "g2=g1"
        if self.kind == "quadratic":
            return "g2=g1+g1^2"
        if self.kind == "fixed":
            return f"g2={self.value:g}"
        return f"g2={self.value:g}*g1"


@dataclass(frozen=True)
class Gamma0Rule:
    """How the direct-link gamma0 follows gamma1 along the sweep.

    Kinds: ``zero`` (no direct link), ``fraction``
    (gamma0 = value * gamma1 with value in [0, 1)), ``fixed`` (constant
    linear value).
    """

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind == "zero":
            if self.value is not None:
                raise ValueError("rule 'zero' takes no value")
        elif self.kind == "fraction":
            if self.value is None or not 0.0 <= self.value < 1.0:
                raise ValueError("rule 'fraction' needs a value in [0, 1)")
        elif self.kind == "fixed":
            if self.value is None or not math.isfinite(self.value) or self.value < 0:
                raise ValueError("rule 'fixed' needs a nonnegative finite value")
        else:
            raise ValueError(f"unknown gamma0 rule kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Gamma0Rule":
        """Parse ``zero``, ``frac:<fraction>`` or ``db:<value>``."""
        t = text.strip().lower()
        if t == "zero":
            return cls("zero")
        if t.startswith("frac:"):
            return cls("fraction", _parse_number(t[5:], text))
        if t.startswith("db:"):
            return cls("fixed", db_to_linear(_parse_number(t[3:], text)))
        raise ValueError(
            f"unrecognized gamma0 rule {text!r} (expected zero, frac:<f> or db:<v>)"
        )

    def apply(self, gamma1: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "fraction":
            return self.value * gamma1
        return self.value

    @property
    def label(self) -> str:
        if self.kind == "zero":
            return "g0=0"
        if self.kind == "fraction":
            return f"g0={self.value:g}*g1"
        return f"g0={self.value:g}"


def _parse_number(text: str, whole: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad numeric field in rule {whole!r}") from None


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep."""

    start_db: float
    stop_db: float
    step_db: float
    gamma2_rule: Gamma2Rule = Gamma2Rule("equal")
    gamma0_rules: tuple[Gamma0Rule, ...] = (Gamma0Rule("zero"),)
    schemes: tuple[str, ...] = SCHEME_NAMES
    verify: bool = False
    oracle_grid_points: int = 1001

    def __post_init__(self):
        for name in ("start_db", "stop_db", "step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step_db <= 0:
            raise ValueError("step_db must be positive")
        if self.stop_db < self.start_db:
            raise ValueError("stop_db must not precede start_db")
        object.__setattr__(self, "gamma0_rules", tuple(self.gamma0_rules))
        if not self.gamma0_rules:
            raise ValueError("at least one gamma0 rule is required")
        normalized = tuple(s.upper() for s in self.schemes)
        object.__setattr__(self, "schemes", normalized)
        if not normalized:
            raise ValueError("at least one scheme is required")
        for s in normalized:
            if s not in SCHEME_NAMES:
                raise ValueError(f"unknown scheme {s!r} (expected one of {SCHEME_NAMES})")
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate scheme names")
        oracle._check_grid_points(self.oracle_grid_points)
        # checked before grid_db builds the list; may be inf
        if self._steps() >= oracle.MAX_GRID_POINTS:
            raise ValueError(
                f"the gamma1 grid {self.start_db:g}:{self.stop_db:g}:{self.step_db:g} "
                f"has more than {oracle.MAX_GRID_POINTS} points"
            )

    def _steps(self) -> float:
        # whole steps from start to stop, padded so that rounding just
        # below an integer still reaches the stop point
        return (self.stop_db - self.start_db) / self.step_db + 1e-9

    def grid_db(self) -> list[float]:
        """The gamma1 grid in dB, inclusive of both endpoints."""
        count = int(math.floor(self._steps())) + 1
        return [self.start_db + i * self.step_db for i in range(count)]


@dataclass(frozen=True)
class SweepRow:
    """Rates at one gamma1 grid point.

    ``rates`` maps column labels (``DF``, or ``DF[g0=...]`` with several
    gamma0 rules, plus ``AF``/``JDF``/``DNF``) to two-way rates, in stable
    output order.  With verification on, ``oracle_rates`` and
    ``deviations`` carry the oracle's answers and the relative gaps for
    the parameterized schemes.
    """

    gamma1_db: float
    gamma2_db: float
    gamma0_db: tuple[float, ...]
    gamma0_labels: tuple[str, ...]
    rates: tuple[tuple[str, float], ...]
    oracle_rates: tuple[tuple[str, float], ...] = ()
    deviations: tuple[tuple[str, float], ...] = ()

    def rate(self, column: str) -> float:
        for label, value in self.rates:
            if label == column:
                return value
        raise KeyError(column)


def df_column_labels(gamma0_rules: Sequence[Gamma0Rule]) -> list[str]:
    """Column label for each gamma0 rule's DF curve."""
    if len(gamma0_rules) == 1:
        return ["DF"]
    return [f"DF[{rule.label}]" for rule in gamma0_rules]


def _columns(names: Sequence[str], gamma0_rules: Sequence[Gamma0Rule]) -> list[tuple]:
    """(label, entry, k) of each output column, in ``names`` order.

    Column k runs on config k of ``[gamma0 = 0, one config per gamma0
    rule]``: a scheme that takes gamma0 gets one column per rule.
    """
    columns = []
    for name in names:
        entry = SCHEME_TABLE[name]
        if entry.uses_gamma0:
            labels = df_column_labels(gamma0_rules)
            columns += [(label, entry, k) for k, label in enumerate(labels, start=1)]
        else:
            columns.append((name, entry, 0))
    return columns


def _checked(closed: float, grid: oracle.GridResult, column: str, where: str,
             tolerance: float = VERIFY_TOLERANCE) -> float:
    """Relative deviation of the oracle from the closed form, within ``tolerance``."""
    deviation = abs(grid.best_rate - closed) / closed
    if deviation > tolerance:
        raise VerificationError(
            f"{column} closed form {closed!r} deviates from oracle "
            f"{grid.best_rate!r} at {where} "
            f"(relative deviation {deviation:.3g}, tolerance {tolerance:g})"
        )
    return deviation


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate all requested schemes over the gamma1 grid.

    Raises :class:`SweepConfigError` naming the offending grid point when
    a rule produces an invalid configuration, and
    :class:`VerificationError` if verification is on and a closed form
    strays from its oracle by more than ``VERIFY_TOLERANCE``.
    """
    columns = _columns(spec.schemes, spec.gamma0_rules)
    rows = []
    for db in spec.grid_db():
        gamma1 = db_to_linear(db)
        gamma2 = spec.gamma2_rule.apply(gamma1)
        if gamma2 < gamma1:
            # the columns label gamma1 as the weaker link; silently
            # swapping the roles would falsify every curve to the right
            raise SweepConfigError(
                f"gamma2 rule '{spec.gamma2_rule.label}' puts gamma2 below gamma1 "
                f"at gamma1 = {db:g} dB"
            )

        def build(gamma0: float, what: str) -> LinkConfig:
            try:
                return make_config(gamma0, gamma1, gamma2)
            except (AssumptionViolation, ValueError) as exc:
                raise SweepConfigError(
                    f"invalid configuration for {what} at gamma1 = {db:g} dB: {exc}"
                ) from exc

        configs = [build(0.0, "the relay links")] + [
            build(rule.apply(gamma1), f"gamma0 rule '{rule.label}'") for rule in spec.gamma0_rules
        ]

        rates: list[tuple[str, float]] = []
        oracle_rates: list[tuple[str, float]] = []
        deviations: list[tuple[str, float]] = []
        for label, entry, k in columns:
            best = entry.best(configs[k])
            rates.append((label, best.rate))
            if spec.verify and entry.oracle is not None:
                grid = entry.brute(configs[k], spec.oracle_grid_points)
                where = f"gamma1 = {db:g} dB"
                deviations.append((label, _checked(best.rate, grid, label, where)))
                oracle_rates.append((label, grid.best_rate))
        rows.append(
            SweepRow(
                gamma1_db=db,
                gamma2_db=linear_to_db(gamma2),
                gamma0_db=tuple(linear_to_db(rule.apply(gamma1)) for rule in spec.gamma0_rules),
                gamma0_labels=tuple(rule.label for rule in spec.gamma0_rules),
                rates=tuple(rates),
                oracle_rates=tuple(oracle_rates),
                deviations=tuple(deviations),
            )
        )
    return rows


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv_header(rows: Sequence[SweepRow]) -> list[str]:
    first = rows[0]
    header = ["gamma1_db", "gamma2_db"]
    if len(first.gamma0_db) == 1:
        header.append("gamma0_db")
    else:
        header.extend(f"gamma0_db[{label}]" for label in first.gamma0_labels)
    header.extend(label for label, _ in first.rates)
    header.extend(f"oracle[{label}]" for label, _ in first.oracle_rates)
    header.extend(f"deviation[{label}]" for label, _ in first.deviations)
    for row in rows:
        if (
            row.gamma0_labels != first.gamma0_labels
            or tuple(l for l, _ in row.rates) != tuple(l for l, _ in first.rates)
            or tuple(l for l, _ in row.oracle_rates) != tuple(l for l, _ in first.oracle_rates)
        ):
            raise ValueError("rows have inconsistent columns")
    return header


Destination = Union[str, Path, IO[str]]


def emit_csv(rows: Sequence[SweepRow], destination: Optional[Destination] = None) -> str:
    """Render sweep rows as CSV and optionally write them out.

    Floats are printed with nine significant digits; a zero gamma0 prints
    as ``-inf`` dB.  The byte content is a pure function of the rows.
    """
    if not rows:
        raise ValueError("no rows to emit")
    lines = [",".join(_csv_header(rows))]
    for row in rows:
        cells = [_fmt(row.gamma1_db), _fmt(row.gamma2_db)]
        cells.extend(_fmt(v) for v in row.gamma0_db)
        cells.extend(_fmt(v) for _, v in row.rates)
        cells.extend(_fmt(v) for _, v in row.oracle_rates)
        cells.extend(_fmt(v) for _, v in row.deviations)
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    _write(destination, text)
    return text


def emit_plot_script(
    rows: Sequence[SweepRow],
    destination: Optional[Destination] = None,
    csv_path: Optional[str] = None,
) -> str:
    """Render a gnuplot script plotting every scheme column of a sweep.

    ``csv_path`` is the data file the script will read; by default it is
    the destination path with a ``.csv`` suffix.  The DNF curve is titled
    as an upper bound.
    """
    if not rows:
        raise ValueError("no rows to plot")
    header = _csv_header(rows)
    rate_labels = [label for label, _ in rows[0].rates]
    if not rate_labels:
        raise ValueError("no scheme columns to plot")
    if csv_path is None:
        if destination is None or not isinstance(destination, (str, Path)):
            raise ValueError("csv_path is required when destination is not a path")
        csv_path = Path(destination).with_suffix(".csv").name
    curves = []
    for label in rate_labels:
        column = header.index(label) + 1  # gnuplot columns are 1-based
        title = f"{label} (upper bound)" if label == "DNF" else label
        curves.append(
            f"  '{csv_path}' every ::1 using 1:{column} with lines lw 2 title '{title}'"
        )
    lines = [
        "# two-way rate versus gamma1; data columns as in the CSV header",
        "set datafile separator ','",
        "set xlabel 'gamma1 [dB]'",
        "set ylabel 'two-way rate [bit/s]'",
        "set key bottom right",
        "set grid",
        "plot \\",
        ", \\\n".join(curves),
    ]
    text = "\n".join(lines) + "\n"
    _write(destination, text)
    return text


def _write(destination: Optional[Destination], text: str) -> None:
    if destination is None:
        return
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        destination.write(text)


def comparison_spec(gamma2_kind: str = "equal", verify: bool = False) -> SweepSpec:
    """The standard comparison sweep: 0 to 30 dB, DF with and without a
    direct link at a tenth of gamma1, all four schemes."""
    return SweepSpec(
        start_db=0.0,
        stop_db=30.0,
        step_db=1.0,
        gamma2_rule=Gamma2Rule.parse(gamma2_kind),
        gamma0_rules=(Gamma0Rule("zero"), Gamma0Rule("fraction", 0.1)),
        verify=verify,
    )
